//! Execution counters: per-node intermediate-size tracking for physical
//! plans, plus specialized closed-shape output counters for the experiment
//! queries.
//!
//! [`IntermediateCounters`] is threaded through every node of a
//! [`crate::PhysicalPlan`] execution; its peak row count is the planner's
//! quality metric (misestimation shows up exactly here, as a blown-up
//! intermediate).  The closed-shape counters below provide *true*
//! cardinalities for graphs with hundreds of thousands of edges; the
//! generic algorithms work but these are much faster and serve as an
//! independent cross-check in tests.

use crate::error::ExecError;
use lpb_data::Relation;
use std::collections::{HashMap, HashSet};

/// One recorded execution step: a human-readable label (which plan node
/// produced the rows) and the number of rows it materialized.
#[derive(Debug, Clone, PartialEq)]
pub struct StepCount {
    /// Which node produced the rows, e.g. `scan E` or `⋈ E`.
    pub label: String,
    /// Rows materialized by the step.
    pub rows: usize,
    /// The bound certificate the step was checked against, if the plan
    /// carried one: `log₂` of a provable upper bound on `rows`.
    pub log2_bound: Option<f64>,
}

impl StepCount {
    /// True when the step carried a certificate and the observed row count
    /// exceeded it — which the ℓp-norm bounds guarantee never happens, so a
    /// `true` here means a planner or estimator bug.
    pub fn violates_certificate(&self) -> bool {
        match self.log2_bound {
            Some(bound) => (self.rows.max(1) as f64).log2() > bound + CERTIFICATE_SLACK,
            None => false,
        }
    }
}

/// Tolerance when comparing an observed `log₂` row count against a
/// certificate: absorbs the floating-point noise of the LP optimum without
/// masking any real violation (bounds and sizes differ by whole rows).
pub const CERTIFICATE_SLACK: f64 = 1e-6;

/// Per-step intermediate sizes of one plan execution.
///
/// Every [`crate::PhysicalPlan`] node records the row count of what it
/// materializes — scans, hash-join intermediates, WCOJ outputs, reduced
/// relations — so plans can be compared by their **maximum intermediate**,
/// the memory-blowup metric that motivates bound-driven planning.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IntermediateCounters {
    steps: Vec<StepCount>,
    certificates_checked: usize,
    certificate_violations: usize,
    parts_planned: usize,
    part_peaks: Vec<usize>,
}

impl IntermediateCounters {
    /// An empty recording.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one step without a certificate.
    pub fn record(&mut self, label: impl Into<String>, rows: usize) {
        self.record_checked(label, rows, None);
    }

    /// Record one step and, when the plan attached a bound certificate,
    /// check the observed size against it.  A violation is **counted in
    /// every build profile**, never asserted: the ℓp-norm bounds are
    /// guarantees relative to the statistics the plan saw, so a violation
    /// means those statistics were stale, the planner attached a bound to
    /// the wrong sub-join, or the estimator under-bounded.
    pub fn record_checked(
        &mut self,
        label: impl Into<String>,
        rows: usize,
        log2_bound: Option<f64>,
    ) {
        let step = StepCount {
            label: label.into(),
            rows,
            log2_bound,
        };
        if log2_bound.is_some() {
            self.certificates_checked += 1;
            if step.violates_certificate() {
                self.certificate_violations += 1;
            }
        }
        self.steps.push(step);
    }

    /// The recorded steps, in execution order.
    pub fn steps(&self) -> &[StepCount] {
        &self.steps
    }

    /// The row counts alone, in execution order.
    pub fn sizes(&self) -> Vec<usize> {
        self.steps.iter().map(|s| s.rows).collect()
    }

    /// The largest number of rows any step materialized (0 when nothing was
    /// recorded).
    pub fn max_intermediate(&self) -> usize {
        self.steps.iter().map(|s| s.rows).max().unwrap_or(0)
    }

    /// Total rows materialized across all steps — a proxy for the work (and
    /// allocation traffic) the plan did.
    pub fn total_rows(&self) -> usize {
        self.steps.iter().map(|s| s.rows).sum()
    }

    /// How many steps carried (and were checked against) a bound
    /// certificate.
    pub fn certificates_checked(&self) -> usize {
        self.certificates_checked
    }

    /// How many checked steps exceeded their certificate.  Always zero when
    /// the bounds are sound; planner tests and the `planner_quality`
    /// benchmark assert exactly that.
    pub fn certificate_violations(&self) -> usize {
        self.certificate_violations
    }

    /// How many degree-partition parts the executed plan declared (the part
    /// count of every [`crate::PhysicalNode::PartitionedUnion`] node summed;
    /// zero for monolithic plans).
    pub fn parts_planned(&self) -> usize {
        self.parts_planned
    }

    /// How many parts actually executed (each contributing one entry to
    /// [`part_peaks`](Self::part_peaks)).  Equal to
    /// [`parts_planned`](Self::parts_planned) after a complete execution.
    pub fn parts_executed(&self) -> usize {
        self.part_peaks.len()
    }

    /// The peak intermediate each executed part materialized, in execution
    /// order.  The partitioned plan's overall peak is the max of these and
    /// the union sizes — partitioning wins exactly when that max undercuts
    /// the monolithic plan's peak.
    pub fn part_peaks(&self) -> &[usize] {
        &self.part_peaks
    }

    /// Declare that a partitioned node is about to execute `n` parts.
    pub(crate) fn note_parts_planned(&mut self, n: usize) {
        self.parts_planned += n;
    }

    /// Merge another recording into this one: `other`'s steps are appended
    /// (labels untouched), and every tally — certificate checks, violations,
    /// parts planned, part peaks — accumulates.
    ///
    /// This is the roll-up primitive behind partition branches: a branch
    /// records into its own counters, which its union merges, re-labelled,
    /// into the run's.  It is **associative** (pure
    /// concatenation/addition), and every aggregate derived from the result
    /// — [`max_intermediate`](Self::max_intermediate),
    /// [`total_rows`](Self::total_rows), the certificate tallies, the step
    /// and part-peak *multisets* — is **order-independent**.  Only the step
    /// *sequence* reflects merge order, which the executor fixes by running
    /// branches in plan order.
    pub fn merge(&mut self, other: IntermediateCounters) {
        self.certificates_checked += other.certificates_checked;
        self.certificate_violations += other.certificate_violations;
        self.parts_planned += other.parts_planned;
        self.part_peaks.extend(other.part_peaks);
        self.steps.extend(other.steps);
    }

    /// Roll one part's counters up into this (parent) recording: steps are
    /// re-labelled with the part name, certificate checks and violations
    /// accumulate, and the part's peak intermediate is remembered.
    pub(crate) fn absorb_part(&mut self, part: &str, child: IntermediateCounters) {
        self.part_peaks.push(child.max_intermediate());
        let relabelled = IntermediateCounters {
            steps: child
                .steps
                .into_iter()
                .map(|step| StepCount {
                    label: format!("[{part}] {}", step.label),
                    ..step
                })
                .collect(),
            ..child
        };
        self.merge(relabelled);
    }

    /// Number of recorded steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// Count the output of the directed triangle query
/// `Q(X,Y,Z) = E(X,Y) ∧ E(Y,Z) ∧ E(Z,X)` on a binary edge relation.
pub fn triangle_count(edges: &Relation) -> Result<u128, ExecError> {
    if edges.arity() != 2 {
        return Err(ExecError::NotApplicable {
            reason: "triangle_count needs a binary edge relation".into(),
        });
    }
    // Forward adjacency and a membership set for the closing edge.
    let mut forward: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut edge_set: HashSet<(u64, u64)> = HashSet::with_capacity(edges.len());
    for row in edges.rows() {
        forward.entry(row[0]).or_default().push(row[1]);
        edge_set.insert((row[0], row[1]));
    }
    let mut count: u128 = 0;
    for (&x, ys) in &forward {
        for &y in ys {
            if let Some(zs) = forward.get(&y) {
                for &z in zs {
                    if edge_set.contains(&(z, x)) {
                        count += 1;
                    }
                }
            }
        }
    }
    Ok(count)
}

/// Count the output of the one-join (path-of-length-2) query
/// `Q(X,Y,Z) = E(X,Y) ∧ E(Y,Z)`: `Σ_y indeg(y)·outdeg(y)`.
pub fn path2_count(edges: &Relation) -> Result<u128, ExecError> {
    if edges.arity() != 2 {
        return Err(ExecError::NotApplicable {
            reason: "path2_count needs a binary edge relation".into(),
        });
    }
    let mut indeg: HashMap<u64, u64> = HashMap::new();
    let mut outdeg: HashMap<u64, u64> = HashMap::new();
    for row in edges.rows() {
        *outdeg.entry(row[0]).or_insert(0) += 1;
        *indeg.entry(row[1]).or_insert(0) += 1;
    }
    Ok(indeg
        .iter()
        .map(|(v, &i)| i as u128 * outdeg.get(v).copied().unwrap_or(0) as u128)
        .sum())
}

/// Count the output of the two-relation join `Q(X,Y,Z) = R(X,Y) ∧ S(Y,Z)`,
/// joining `R`'s second column with `S`'s first column.
pub fn join2_count(r: &Relation, s: &Relation) -> Result<u128, ExecError> {
    if r.arity() != 2 || s.arity() != 2 {
        return Err(ExecError::NotApplicable {
            reason: "join2_count needs binary relations".into(),
        });
    }
    let mut r_counts: HashMap<u64, u64> = HashMap::new();
    for row in r.rows() {
        *r_counts.entry(row[1]).or_insert(0) += 1;
    }
    let mut total: u128 = 0;
    for row in s.rows() {
        total += r_counts.get(&row[0]).copied().unwrap_or(0) as u128;
    }
    Ok(total)
}

/// Count the output of the length-`k` cycle query
/// `⋀_i E(X_i, X_{(i+1) mod k})` on a single edge relation by iterated
/// sparse matrix multiplication over the adjacency structure (trace of the
/// k-th power restricted to closing edges).
pub fn cycle_count(edges: &Relation, k: usize) -> Result<u128, ExecError> {
    if edges.arity() != 2 {
        return Err(ExecError::NotApplicable {
            reason: "cycle_count needs a binary edge relation".into(),
        });
    }
    if k < 3 {
        return Err(ExecError::NotApplicable {
            reason: "cycles need length at least 3".into(),
        });
    }
    let mut forward: HashMap<u64, Vec<u64>> = HashMap::new();
    for row in edges.rows() {
        forward.entry(row[0]).or_default().push(row[1]);
    }
    // paths[v] = number of paths of the current length from the start node
    // to v; iterate per start node to keep memory linear.
    let mut total: u128 = 0;
    for &start in forward.keys() {
        let mut paths: HashMap<u64, u128> = HashMap::new();
        paths.insert(start, 1);
        for _ in 0..k - 1 {
            let mut next: HashMap<u64, u128> = HashMap::new();
            for (&v, &cnt) in &paths {
                if let Some(ws) = forward.get(&v) {
                    for &w in ws {
                        *next.entry(w).or_insert(0) += cnt;
                    }
                }
            }
            paths = next;
            if paths.is_empty() {
                break;
            }
        }
        // Close the cycle: edges back to the start.
        for (&v, &cnt) in &paths {
            if let Some(ws) = forward.get(&v) {
                total += cnt * ws.iter().filter(|&&w| w == start).count() as u128;
            }
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wcoj::wcoj_count;
    use lpb_core::JoinQuery;
    use lpb_data::{Catalog, RelationBuilder};

    fn clique_edges(k: u64) -> Vec<(u64, u64)> {
        let mut edges = Vec::new();
        for a in 0..k {
            for b in 0..k {
                if a != b {
                    edges.push((a, b));
                }
            }
        }
        edges
    }

    #[test]
    fn triangle_count_matches_wcoj() {
        let rel = RelationBuilder::binary_from_pairs("E", "a", "b", clique_edges(6));
        let mut catalog = Catalog::new();
        catalog.insert(rel.clone());
        let q = JoinQuery::triangle("E", "E", "E");
        assert_eq!(
            triangle_count(&rel).unwrap(),
            wcoj_count(&q, &catalog).unwrap()
        );
        assert_eq!(triangle_count(&rel).unwrap(), 6 * 5 * 4);
    }

    #[test]
    fn path2_count_matches_wcoj_on_skewed_data() {
        let rel = RelationBuilder::binary_from_pairs(
            "E",
            "a",
            "b",
            (0..120u64).map(|i| (i % 9, (i * i) % 13)),
        );
        let mut catalog = Catalog::new();
        catalog.insert(rel.clone());
        let q = JoinQuery::single_join("E", "E");
        assert_eq!(
            path2_count(&rel).unwrap(),
            wcoj_count(&q, &catalog).unwrap()
        );
        assert_eq!(join2_count(&rel, &rel).unwrap(), path2_count(&rel).unwrap());
    }

    #[test]
    fn cycle_count_matches_wcoj() {
        let rel = RelationBuilder::binary_from_pairs(
            "E",
            "a",
            "b",
            (0..60u64).map(|i| (i % 7, (i * 3 + 1) % 7)),
        );
        let mut catalog = Catalog::new();
        catalog.insert(rel.clone());
        for k in [3usize, 4, 5] {
            let q = JoinQuery::cycle(&vec!["E"; k]);
            assert_eq!(
                cycle_count(&rel, k).unwrap(),
                wcoj_count(&q, &catalog).unwrap(),
                "cycle length {k}"
            );
        }
    }

    #[test]
    fn arity_and_length_validation() {
        let mut b = RelationBuilder::new("T", ["a", "b", "c"]).unwrap();
        b.push_codes(&[1, 2, 3]).unwrap();
        let ternary = b.build();
        assert!(triangle_count(&ternary).is_err());
        assert!(path2_count(&ternary).is_err());
        let binary = RelationBuilder::binary_from_pairs("E", "a", "b", vec![(1, 2)]);
        assert!(join2_count(&binary, &ternary).is_err());
        assert!(cycle_count(&binary, 2).is_err());
    }

    #[test]
    fn empty_graph_counts_are_zero() {
        let empty = RelationBuilder::new("E", ["a", "b"]).unwrap().build();
        assert_eq!(triangle_count(&empty).unwrap(), 0);
        assert_eq!(path2_count(&empty).unwrap(), 0);
        assert_eq!(cycle_count(&empty, 4).unwrap(), 0);
    }

    #[test]
    fn intermediate_counters_track_steps_and_peaks() {
        let mut c = IntermediateCounters::new();
        assert!(c.is_empty());
        assert_eq!(c.max_intermediate(), 0);
        c.record("scan R", 10);
        c.record("⋈ S", 400);
        c.record("⋈ T", 7);
        assert_eq!(c.len(), 3);
        assert_eq!(c.sizes(), vec![10, 400, 7]);
        assert_eq!(c.max_intermediate(), 400);
        assert_eq!(c.total_rows(), 417);
        assert_eq!(c.steps()[1].label, "⋈ S");
        assert_eq!(c.certificates_checked(), 0);
        assert_eq!(c.certificate_violations(), 0);
    }

    #[test]
    fn part_counters_roll_up_into_the_parent() {
        let mut parent = IntermediateCounters::new();
        assert_eq!(parent.parts_planned(), 0);
        assert_eq!(parent.parts_executed(), 0);
        parent.note_parts_planned(2);

        let mut light = IntermediateCounters::new();
        light.record_checked("scan S#light", 40, Some(6.0));
        light.record("⋈ T", 12);
        let mut heavy = IntermediateCounters::new();
        heavy.record_checked("scan S#heavy", 100, Some(7.0));
        parent.absorb_part("S#light", light);
        parent.absorb_part("S#heavy", heavy);

        assert_eq!(parent.parts_planned(), 2);
        assert_eq!(parent.parts_executed(), 2);
        assert_eq!(parent.part_peaks(), &[40, 100]);
        assert_eq!(parent.certificates_checked(), 2);
        assert_eq!(parent.certificate_violations(), 0);
        assert_eq!(parent.len(), 3);
        assert!(parent.steps()[0].label.starts_with("[S#light]"));
        assert_eq!(parent.max_intermediate(), 100);
    }

    /// Build a recording with part-prefixed labels and certificate tallies,
    /// the shape a rolled-up partition branch has.
    fn worker_counters(part: &str, rows: usize, violate: bool) -> IntermediateCounters {
        let mut w = IntermediateCounters::new();
        w.record(format!("[{part}] scan R"), rows);
        let bound = if violate { 0.0 } else { 40.0 };
        // A violation is counted in every build profile; never panics.
        w.record_checked(format!("[{part}] ⋈ S"), rows * 2, Some(bound));
        w.note_parts_planned(1);
        w.part_peaks.push(rows * 2);
        w
    }

    #[test]
    fn merge_accumulates_steps_labels_and_tallies() {
        let mut total = IntermediateCounters::new();
        total.merge(worker_counters("S#light", 10, false));
        total.merge(worker_counters("S#heavy", 50, true));
        assert_eq!(total.len(), 4);
        assert_eq!(total.sizes(), vec![10, 20, 50, 100]);
        // Part-prefixed labels survive the merge untouched.
        assert_eq!(total.steps()[0].label, "[S#light] scan R");
        assert_eq!(total.steps()[3].label, "[S#heavy] ⋈ S");
        assert_eq!(total.certificates_checked(), 2);
        assert_eq!(total.certificate_violations(), 1);
        assert_eq!(total.parts_planned(), 2);
        assert_eq!(total.part_peaks(), &[20, 100]);
        assert_eq!(total.max_intermediate(), 100);
        assert_eq!(total.total_rows(), 180);
    }

    #[test]
    fn merge_is_associative() {
        let [a, b, c] = [
            worker_counters("p0", 3, false),
            worker_counters("p1", 7, true),
            worker_counters("p2", 11, false),
        ];
        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(b.clone());
        left.merge(c.clone());
        // a ⊕ (b ⊕ c)
        let mut bc = b;
        bc.merge(c);
        let mut right = a;
        right.merge(bc);
        assert_eq!(left, right);
    }

    #[test]
    fn merge_aggregates_are_order_independent() {
        let workers = [
            worker_counters("p0", 3, false),
            worker_counters("p1", 7, true),
            worker_counters("p2", 11, false),
        ];
        let mut fwd = IntermediateCounters::new();
        for w in workers.iter().cloned() {
            fwd.merge(w);
        }
        let mut rev = IntermediateCounters::new();
        for w in workers.iter().rev().cloned() {
            rev.merge(w);
        }
        // Every execution summary agrees regardless of merge order…
        assert_eq!(fwd.max_intermediate(), rev.max_intermediate());
        assert_eq!(fwd.total_rows(), rev.total_rows());
        assert_eq!(fwd.certificates_checked(), rev.certificates_checked());
        assert_eq!(fwd.certificate_violations(), rev.certificate_violations());
        assert_eq!(fwd.parts_planned(), rev.parts_planned());
        assert_eq!(fwd.parts_executed(), rev.parts_executed());
        // …and the step/part-peak *multisets* are identical.
        let multiset = |c: &IntermediateCounters| {
            let mut v: Vec<(String, usize)> = c
                .steps()
                .iter()
                .map(|s| (s.label.clone(), s.rows))
                .collect();
            v.sort();
            v
        };
        assert_eq!(multiset(&fwd), multiset(&rev));
        let sorted_peaks = |c: &IntermediateCounters| {
            let mut p = c.part_peaks().to_vec();
            p.sort_unstable();
            p
        };
        assert_eq!(sorted_peaks(&fwd), sorted_peaks(&rev));
    }

    #[test]
    fn absorb_part_is_merge_plus_relabel() {
        let mut parent = IntermediateCounters::new();
        let mut child = IntermediateCounters::new();
        child.record_checked("⋈ S", 8, Some(5.0));
        parent.absorb_part("R#light", child.clone());

        let mut expected = IntermediateCounters::new();
        expected.part_peaks.push(8);
        let mut relabelled = child;
        relabelled.steps[0].label = "[R#light] ⋈ S".into();
        expected.merge(relabelled);
        assert_eq!(parent, expected);
    }

    #[test]
    fn certificates_are_checked_and_satisfied_sizes_pass() {
        let mut c = IntermediateCounters::new();
        // Exactly at the bound (1024 = 2^10) and strictly under it.
        c.record_checked("⋈ S", 1024, Some(10.0));
        c.record_checked("⋈ T", 3, Some(10.0));
        c.record("scan R", 99);
        // Empty intermediates satisfy any finite certificate.
        c.record_checked("⋈ U", 0, Some(0.0));
        assert_eq!(c.certificates_checked(), 3);
        assert_eq!(c.certificate_violations(), 0);
        assert!(c.steps().iter().all(|s| !s.violates_certificate()));
    }

    #[test]
    fn certificate_violations_are_counted() {
        let mut c = IntermediateCounters::new();
        // 2048 rows against a 2^10 certificate: the statistics lied.  The
        // violation is counted — never a panic — identically in debug and
        // release builds, so BENCH tallies and CI greps are honest in both.
        c.record_checked("⋈ S", 2048, Some(10.0));
        assert_eq!(c.certificate_violations(), 1);
        assert!(c.steps()[0].violates_certificate());
    }
}
