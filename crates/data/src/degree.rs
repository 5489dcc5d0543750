//! Degree sequences and their ℓp-norms.

use crate::norms::Norm;

/// A degree sequence `d₁ ≥ d₂ ≥ … ≥ d_m` of positive integers, stored in
/// non-increasing order.
///
/// This is the paper's `deg_R(V | U)` (§1.2): `d_i` is the number of
/// distinct `V`-values paired with the `i`-th most frequent `U`-value in the
/// deduplicated projection `Π_{U∪V}(R)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegreeSequence {
    degrees: Vec<u64>,
}

impl DegreeSequence {
    /// Build a degree sequence from unsorted counts.  Zero counts are
    /// dropped; the rest are sorted in non-increasing order.
    pub fn from_counts(mut counts: Vec<u64>) -> Self {
        counts.retain(|&c| c > 0);
        counts.sort_unstable_by(|a, b| b.cmp(a));
        DegreeSequence { degrees: counts }
    }

    /// The degrees in non-increasing order.
    pub fn as_slice(&self) -> &[u64] {
        &self.degrees
    }

    /// Number of distinct `U`-values (the length `m` of the sequence).
    pub fn len(&self) -> usize {
        self.degrees.len()
    }

    /// True when the sequence is empty (the relation was empty).
    pub fn is_empty(&self) -> bool {
        self.degrees.is_empty()
    }

    /// The maximum degree `d₁` (the ℓ∞ norm), or 0 for an empty sequence.
    pub fn max_degree(&self) -> u64 {
        self.degrees.first().copied().unwrap_or(0)
    }

    /// The total `Σ d_i` (the ℓ1 norm).
    pub fn total(&self) -> u64 {
        self.degrees.iter().sum()
    }

    /// The average degree `Σ d_i / m` (used by the textbook estimator), or
    /// 0.0 for an empty sequence.
    pub fn average_degree(&self) -> f64 {
        if self.degrees.is_empty() {
            0.0
        } else {
            self.total() as f64 / self.degrees.len() as f64
        }
    }

    /// The ℓp norm `‖d‖_p = (Σ d_i^p)^{1/p}` (and `max d_i` for p = ∞).
    ///
    /// Computed in log-space to stay finite for large `p` and large degrees;
    /// an empty sequence has norm 0.
    pub fn lp_norm(&self, norm: Norm) -> f64 {
        self.log2_lp_norm(norm).map_or(0.0, f64::exp2)
    }

    /// `log₂ ‖d‖_p`, or `None` for an empty sequence.
    ///
    /// This is the representation the bound engine consumes (the paper's
    /// log-statistics `b = log B`).  Uses the identity
    /// `log Σ d_i^p = log d₁^p + log Σ (d_i/d₁)^p` for numerical stability.
    ///
    /// The sum is taken over **runs** of equal degrees: a run of `k` copies
    /// of `d` adds `k · (d/d₁)^p`, so a finite norm costs one `powf` per
    /// *distinct* degree, not one per entry — the sequences a skewed
    /// relation yields are long runs of small degrees.  A product is rounded
    /// once where a repeated sum was rounded `k` times, so the result is
    /// within a few ulps of (and no less accurate than) the per-entry sum;
    /// a one-element sequence (every `|R|` and `|Π_X|` statistic) and ℓ∞
    /// are bit-identical to it.
    pub fn log2_lp_norm(&self, norm: Norm) -> Option<f64> {
        Some(self.log2_lp_norms(&[norm])?[0])
    }

    /// [`log2_lp_norm`](Self::log2_lp_norm) for several norms,
    /// positionally and bit for bit, finding the runs of equal degrees
    /// once for all of them; `None` for an empty sequence.
    pub(crate) fn log2_lp_norms(&self, norms: &[Norm]) -> Option<Vec<f64>> {
        if self.degrees.is_empty() {
            return None;
        }
        let d1 = self.max_degree() as f64;
        let log2_d1 = d1.log2();
        // Each run as (k, d / d1), the ratio in (0, 1].
        let runs: Vec<(f64, f64)> = self
            .degrees
            .chunk_by(|a, b| a == b)
            .map(|run| (run.len() as f64, (run[0] as f64) / d1))
            .collect();
        Some(
            norms
                .iter()
                .map(|&norm| match norm {
                    Norm::Infinity => log2_d1,
                    Norm::Finite(p) => {
                        // Σ_runs k · (d / d1)^p.
                        let sum: f64 = runs.iter().map(|&(k, ratio)| k * ratio.powf(p)).sum();
                        log2_d1 + sum.log2() / p
                    }
                })
                .collect(),
        )
    }

    /// `‖d‖_p^p = Σ d_i^p` (finite p only), useful in tests and closed-form
    /// formulas; may overflow to `inf` for extreme inputs.
    pub fn lp_norm_pow_p(&self, p: f64) -> f64 {
        self.degrees.iter().map(|&d| (d as f64).powf(p)).sum()
    }
}

impl From<Vec<u64>> for DegreeSequence {
    fn from(counts: Vec<u64>) -> Self {
        DegreeSequence::from_counts(counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(v: &[u64]) -> DegreeSequence {
        DegreeSequence::from_counts(v.to_vec())
    }

    #[test]
    fn from_counts_sorts_and_drops_zeros() {
        let d = seq(&[1, 0, 5, 3, 0]);
        assert_eq!(d.as_slice(), &[5, 3, 1]);
        assert_eq!(d.len(), 3);
        assert!(!d.is_empty());
    }

    #[test]
    fn aggregate_statistics() {
        let d = seq(&[4, 2, 1, 1]);
        assert_eq!(d.max_degree(), 4);
        assert_eq!(d.total(), 8);
        assert!((d.average_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_sequence_statistics() {
        let d = seq(&[]);
        assert!(d.is_empty());
        assert_eq!(d.max_degree(), 0);
        assert_eq!(d.total(), 0);
        assert_eq!(d.average_degree(), 0.0);
        assert_eq!(d.lp_norm(Norm::L2), 0.0);
        assert_eq!(d.log2_lp_norm(Norm::L1), None);
    }

    #[test]
    fn l1_is_total_and_linf_is_max() {
        let d = seq(&[3, 2, 2, 1]);
        assert!((d.lp_norm(Norm::L1) - 8.0).abs() < 1e-9);
        assert!((d.lp_norm(Norm::Infinity) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn l2_norm_matches_direct_computation() {
        let d = seq(&[3, 4]);
        assert!((d.lp_norm(Norm::L2) - 5.0).abs() < 1e-9);
        assert!((d.lp_norm_pow_p(2.0) - 25.0).abs() < 1e-9);
    }

    #[test]
    fn large_p_is_stable_and_close_to_max_degree() {
        let d = DegreeSequence::from_counts(vec![1_000_000; 1000]);
        let log_norm = d.log2_lp_norm(Norm::Finite(30.0)).unwrap();
        // ‖d‖_30 = 1e6 * 1000^(1/30); log2 = log2(1e6) + log2(1000)/30.
        let expected = (1.0e6f64).log2() + (1000.0f64).log2() / 30.0;
        assert!((log_norm - expected).abs() < 1e-9);
        assert!(log_norm.is_finite());
    }

    /// The per-entry sum `log2_lp_norm` took before it summed runs: the
    /// reference the run-length sum is held to.
    fn per_entry_log2_lp_norm(d: &DegreeSequence, norm: Norm) -> Option<f64> {
        let d1 = d.max_degree() as f64;
        match norm {
            _ if d.is_empty() => None,
            Norm::Infinity => Some(d1.log2()),
            Norm::Finite(p) => {
                let sum: f64 = d.as_slice().iter().map(|&x| (x as f64 / d1).powf(p)).sum();
                Some(d1.log2() + sum.log2() / p)
            }
        }
    }

    #[test]
    fn run_length_norms_agree_with_the_per_entry_sum() {
        // Long runs: 12k ones under a few hubs (a skewed part's shape), a
        // staircase, and one run only.
        let mut skewed = vec![1u64; 12_000];
        skewed.extend([2, 2, 3, 7, 7, 7, 40, 900, 5_000]);
        let staircase: Vec<u64> = (1..=60u64)
            .flat_map(|d| vec![d; (61 - d) as usize])
            .collect();
        for counts in [skewed, staircase, vec![17; 4_096]] {
            let d = DegreeSequence::from_counts(counts);
            for p in [1.0, 1.5, 2.0, 3.0, 4.0, 10.0] {
                let got = d.log2_lp_norm(Norm::Finite(p)).unwrap();
                let want = per_entry_log2_lp_norm(&d, Norm::Finite(p)).unwrap();
                assert!(
                    (got - want).abs() <= 1e-12 * want.abs(),
                    "ℓ{p} of {} entries: runs {got} vs per entry {want}",
                    d.len()
                );
            }
            assert_eq!(
                d.log2_lp_norm(Norm::Infinity).map(f64::to_bits),
                per_entry_log2_lp_norm(&d, Norm::Infinity).map(f64::to_bits)
            );
        }
        // One entry (every |R| and |Π_X| statistic): bit-identical.
        for x in [1u64, 2, 3, 1_000, 12_345, u64::MAX >> 11] {
            let d = seq(&[x]);
            for norm in [1.0, 1.5, 2.0, 3.0, 4.0, 10.0]
                .map(Norm::Finite)
                .into_iter()
                .chain([Norm::Infinity])
            {
                assert_eq!(
                    d.log2_lp_norm(norm).map(f64::to_bits),
                    per_entry_log2_lp_norm(&d, norm).map(f64::to_bits),
                    "{norm:?} of [{x}]"
                );
            }
        }
    }

    #[test]
    fn norms_are_monotonically_nonincreasing_in_p() {
        let d = seq(&[7, 5, 5, 2, 1, 1, 1]);
        let mut last = f64::INFINITY;
        for p in 1..=20 {
            let n = d.lp_norm(Norm::Finite(p as f64));
            assert!(n <= last + 1e-9, "‖d‖_{p} = {n} > previous {last}");
            last = n;
        }
        assert!(d.lp_norm(Norm::Infinity) <= last + 1e-9);
    }
}
