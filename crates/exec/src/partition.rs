//! Degree-based relation partitioning — Lemma 2.5 of the paper.
//!
//! Given a relation satisfying an ℓp statistic `‖deg_R(V|U)‖_p ≤ B`, the
//! relation can be split into `O(log N)` parts, bucketing the `U`-values by
//! degree (powers of two), such that every part *strongly satisfies* the
//! statistic: within a part all degrees are within a factor of two, so the
//! ℓp assertion is equivalent to an ℓ1 assertion on `|Π_U|` together with an
//! ℓ∞ assertion on the maximum degree (eq. 22).  This is the reduction that
//! lets the PANDA-style evaluation handle arbitrary ℓp statistics.
//!
//! Partitioning is not only an evaluation device ([`crate::
//! partitioned_join_count`]) — it is a **planning** device: the ℓp-norm
//! bound of a skewed relation is dominated by its few heavy `U`-values, so
//! the sum of per-part bounds can undercut the monolithic bound by orders
//! of magnitude (the PANDA-style sum-of-parts argument).
//! [`split_light_heavy`] coarsens the Lemma 2.5 buckets into the two-part
//! **light/heavy** split the bound-driven [`crate::Optimizer`] plans with:
//! the light part has a small maximum degree (tight ℓ∞), the heavy part has
//! few distinct `U`-values (small ℓ1 on the conditioning side), and the
//! planner bounds and plans each part independently before executing them
//! under a [`crate::PhysicalNode::PartitionedUnion`].
//!
//! Both run on one [`Relation::grouping`] of `(V | U)`: it gives each
//! `U`-value its degree and so its bucket, routes the rows, and a part is
//! one [`Relation::gather`].  A `U`-group goes whole to one part, so a
//! part's maximum degree and `|Π_U|` are read off the grouping.

use crate::error::ExecError;
use lpb_data::{DegreeSequence, Norm, Relation, SimpleStatistics};
use std::borrow::Cow;

/// One part of a degree partition.
#[derive(Debug, Clone)]
pub struct DegreePart {
    /// The tuples of this part (same schema as the input relation).
    pub relation: Relation,
    /// Bucket index `i ≥ 1`: every `U`-value in this part has degree in
    /// `(2^{i−1}, 2^i]` (bucket 1 holds degrees exactly 1 and 2).
    pub bucket: u32,
    /// The maximum degree within the part.
    pub max_degree: u64,
    /// The number of distinct `U`-values within the part.
    pub distinct_u: usize,
}

impl DegreePart {
    /// Check the *strong satisfaction* condition of §2.2 against an ℓp
    /// statistic `‖deg(V|U)‖_p ≤ B` (given as `log₂ B`): there must exist a
    /// `d` with `‖deg‖_∞ ≤ d` and `|Π_U| ≤ B^p / d^p`.  Within a bucket the
    /// natural choice is `d = max_degree`.
    pub fn strongly_satisfies(&self, norm: Norm, log2_b: f64) -> bool {
        let d = self.max_degree.max(1) as f64;
        match norm {
            Norm::Infinity => d.log2() <= log2_b + 1e-9,
            Norm::Finite(p) => {
                let allowed_u = p * (log2_b - d.log2());
                ((self.distinct_u.max(1)) as f64).log2() <= allowed_u + 1e-9
            }
        }
    }
}

/// Partition `rel` into degree buckets of the conditional `(V | U)` given by
/// attribute names.  Every input tuple lands in exactly one part; parts with
/// no tuples are omitted, so at most `⌈log₂ N⌉ + 1` parts are returned, in
/// ascending bucket order, named `{rel}#deg{bucket}`, rows sorted and
/// distinct.  Cost: one [`Relation::grouping`] (after a deduplication when
/// the rows are not strictly increasing) and one gather per part.
pub fn partition_by_degree(
    rel: &Relation,
    v: &[&str],
    u: &[&str],
) -> Result<Vec<DegreePart>, ExecError> {
    partition(rel, v, u, |_| usize::MAX)
}

/// The full Lemma 2.5 partition for one ℓp statistic `‖deg(V|U)‖_p ≤ 2^{log2_b}`:
/// first bucket the `U`-values by degree (powers of two), then split each
/// bucket's `U`-values into at most `⌈2^p⌉` groups so that every resulting
/// part *strongly satisfies* the statistic (its `|Π_U|` fits under
/// `B^p / d^p` for `d` the part's maximum degree).
///
/// The number of parts is at most `⌈2^p⌉·(⌈log₂ N⌉ + 1)`, matching the
/// lemma.  Every input tuple lands in exactly one part.  These are
/// [`partition_by_degree`]'s parts, except that a bucket with more
/// `U`-values than `⌊B^p / d^p⌋` (at least 1) for its maximum degree `d` is
/// cut, in ascending `U` order, into parts `{rel}#deg{bucket}#u{k}` of that
/// many; for ℓ∞ none is.  Cost: as [`partition_by_degree`], one grouping
/// and one gather per part.
pub fn partition_for_statistic(
    rel: &Relation,
    v: &[&str],
    u: &[&str],
    norm: Norm,
    log2_b: f64,
) -> Result<Vec<DegreePart>, ExecError> {
    match norm {
        // For ℓ∞ the degree buckets already strongly satisfy the statistic
        // (every degree is at most the global maximum).
        Norm::Infinity => partition(rel, v, u, |_| usize::MAX),
        // The largest `U`-value count a part with a bucket's maximum degree
        // `d` may have: ⌊B^p / d^p⌋ (at least 1 — a single `U`-value always
        // fits, because its own degree contributes d^p ≤ B^p).
        Norm::Finite(p) => partition(rel, v, u, |d| {
            (p * (log2_b - (d.max(1) as f64).log2()))
                .exp2()
                .floor()
                .max(1.0) as usize
        }),
    }
}

/// The Lemma 2.5 partition behind [`partition_by_degree`] and
/// [`partition_for_statistic`]: the `U`-groups of `(V | U)` bucketed by
/// degree, each bucket's groups (in ascending `U` order, as the grouping
/// lists them) cut into consecutive chunks of at most `cap(d)` groups for
/// `d` the bucket's maximum degree — one part per chunk, one per bucket
/// when it is not cut.
fn partition(
    rel: &Relation,
    v: &[&str],
    u: &[&str],
    cap: impl Fn(u64) -> usize,
) -> Result<Vec<DegreePart>, ExecError> {
    let rel = strict_rows(rel);
    let groups = rel.grouping(v, u)?;
    let degrees = groups.degrees();
    let bucket_max = bucket_maxima(degrees);
    let mut bucket_groups = [0usize; 65];
    for &d in degrees {
        bucket_groups[bucket_of(d) as usize] += 1;
    }
    // The parts' names and buckets, in bucket order; each bucket's first
    // part and the number of groups a part of it takes.
    let mut parts: Vec<(String, u32)> = Vec::new();
    let (mut first_part, mut per_part) = ([0usize; 65], [0usize; 65]);
    for bucket in (0..65).filter(|&b| bucket_groups[b] > 0) {
        per_part[bucket] = cap(bucket_max[bucket]).max(1);
        first_part[bucket] = parts.len();
        let chunks = bucket_groups[bucket].div_ceil(per_part[bucket]);
        let name = format!("{}#deg{bucket}", rel.name());
        parts.extend((0..chunks).map(|chunk| match chunks {
            1 => (name.clone(), bucket as u32),
            _ => (format!("{name}#u{chunk}"), bucket as u32),
        }));
    }
    // Each group's part, and each part's maximum degree and `|Π_U|`.
    let mut stats = vec![(0u64, 0usize); parts.len()];
    let mut taken = [0usize; 65];
    let part_of: Vec<usize> = degrees
        .iter()
        .map(|&d| {
            let bucket = bucket_of(d) as usize;
            let part = first_part[bucket] + taken[bucket] / per_part[bucket];
            taken[bucket] += 1;
            stats[part] = (stats[part].0.max(d), stats[part].1 + 1);
            part
        })
        .collect();
    let mut rows: Vec<Vec<usize>> = vec![Vec::new(); parts.len()];
    groups.for_each_row(|row, group| rows[part_of[group]].push(row));
    let parts = parts.into_iter().zip(stats).zip(rows);
    Ok(parts
        .map(|(((name, bucket), (max_degree, distinct_u)), mut rows)| {
            // Storage order, which a grouping that sorted row indices did
            // not visit.
            rows.sort_unstable();
            let relation = rel.gather(name, &rows);
            DegreePart {
                relation,
                bucket,
                max_degree,
                distinct_u,
            }
        })
        .collect())
}

/// `rel` when its rows are strictly increasing, else its deduplicated copy
/// (rows in builder order): either way a part gathers its rows sorted and
/// distinct.
fn strict_rows(rel: &Relation) -> Cow<'_, Relation> {
    if rel.is_strictly_increasing() {
        Cow::Borrowed(rel)
    } else {
        Cow::Owned(rel.deduplicated())
    }
}

/// The largest of `degrees` in each bucket ([`bucket_of`]), 0 for an empty
/// bucket: the `max_degree` of the bucket's [`partition_by_degree`] part.
fn bucket_maxima(degrees: &[u64]) -> [u64; 65] {
    let mut bucket_max = [0u64; 65];
    for &d in degrees {
        let slot = &mut bucket_max[bucket_of(d) as usize];
        *slot = (*slot).max(d);
    }
    bucket_max
}

/// Bucket index of a degree `d ≥ 1`: `⌈log₂ d⌉`, with bucket 1 for
/// `d ∈ {1, 2}`.
fn bucket_of(d: u64) -> u32 {
    u64::BITS - (d.max(2) - 1).leading_zeros()
}

/// One part of a [light/heavy split](split_light_heavy): its rows and its
/// simple statistics, counted while the rows were routed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitPart {
    /// The part's rows (same schema as the split relation), sorted and
    /// distinct.
    pub relation: Relation,
    /// `|R|`, and `deg(rest | x)` (so `|Π_x|`) for every attribute `x` of
    /// the part — what a statistics harvest of it would count cold.
    pub statistics: SimpleStatistics,
}

/// Coarsen the degree buckets of `(V | U)` into a two-way **light/heavy**
/// split: bucket the `U`-values by degree — the buckets of
/// [`partition_by_degree`], from the same deduplication, grouping and
/// bucket rule — then merge every bucket whose maximum degree is at most
/// the geometric mean of the extreme bucket maxima into the *light* part
/// and the rest into the *heavy* part.  Returns `None` when the relation
/// has fewer than two degree buckets (no skew worth splitting).
///
/// The parts are named `{rel}#light` / `{rel}#heavy`, keep the input
/// schema, hold their rows sorted and deduplicated like any built relation,
/// and partition the input tuples (disjoint and complete) — the shape
/// [`crate::Optimizer`] feeds per-part planning and the
/// [`crate::PhysicalNode::PartitionedUnion`] executor.
///
/// This runs once per partition candidate inside planning, so it routes
/// the rows and counts the parts' statistics in the same few passes.  A
/// relation whose rows are not strictly increasing is deduplicated first;
/// then its rows are in builder order, and a part gathers its rows in that
/// order.  One grouping of `(V | U)` ([`Relation::grouping`]) gives each
/// `U`-value its degree and part.  Each part's statistics come with it
/// ([`SplitPart::statistics`]): its `|R|` is its row count; for a single
/// `U` attribute with `U ∪ V` the schema, its `deg(rest | U)` is the
/// degrees of the `U`-groups it took whole; for every other attribute `x`,
/// `deg(rest | x)` is the run lengths of the part's own `x` column (its
/// rows are distinct), and `|Π_x|` their count.  Counting a part's own
/// column costs less than one grouping of the input with a light and a
/// heavy count per group, which needs every row's group — a binary search
/// per row when the column is not sorted.  On a builder-made relation each
/// grouping is one sort of a copy of a column at most.
pub fn split_light_heavy(
    rel: &Relation,
    v: &[&str],
    u: &[&str],
) -> Result<Option<(SplitPart, SplitPart)>, ExecError> {
    let rel = strict_rows(rel);
    let groups = rel.grouping(v, u)?;
    let bucket_max = bucket_maxima(groups.degrees());
    let log_deg: Vec<f64> = bucket_max
        .iter()
        .filter(|&&d| d > 0)
        .map(|&d| (d as f64).log2())
        .collect();
    if log_deg.len() < 2 {
        return Ok(None);
    }
    // Bucket maxima grow with the bucket index, so the extremes are the
    // first and last non-empty buckets and differ.
    let tau = (log_deg[0] + log_deg[log_deg.len() - 1]) / 2.0;
    let light_bucket = bucket_max.map(|d| (d as f64).log2() <= tau);
    let light_group: Vec<bool> = groups
        .degrees()
        .iter()
        .map(|&d| light_bucket[bucket_of(d) as usize])
        .collect();
    let (mut light_rows, mut heavy_rows) = (Vec::new(), Vec::new());
    groups.for_each_row(|row, group| {
        if light_group[group] {
            light_rows.push(row);
        } else {
            heavy_rows.push(row);
        }
    });
    // Storage order, which a grouping that sorted row indices did not
    // visit (a check of one pass otherwise).
    light_rows.sort_unstable();
    heavy_rows.sort_unstable();

    // A single `U` attribute whose groups have one row per `V`-value: each
    // group went whole to one part, so its degree is the part's too.
    let u_pos = rel.schema().positions(u.iter().copied())?;
    let v_pos = rel.schema().positions(v.iter().copied())?;
    let whole_groups = match u_pos[..] {
        [x] if (0..rel.arity()).all(|a| a == x || v_pos.contains(&a)) => Some(x),
        _ => None,
    };
    let attrs: Vec<&str> = (0..rel.arity()).map(|a| rel.schema().name(a)).collect();
    let part = |label: &str, rows: &[usize], is_light: bool| -> Result<SplitPart, ExecError> {
        let relation = rel.gather(format!("{}#{label}", rel.name()), rows);
        let mut degrees = Vec::with_capacity(attrs.len());
        for (x, name) in attrs.iter().enumerate() {
            degrees.push(if whole_groups == Some(x) {
                let taken = groups.degrees().iter().zip(&light_group);
                DegreeSequence::from_counts(
                    taken
                        .filter(|&(_, &light)| light == is_light)
                        .map(|(&d, _)| d)
                        .collect(),
                )
            } else {
                let rest: Vec<&str> = attrs.iter().copied().filter(|a| a != name).collect();
                relation.grouping(&rest, &[name])?.degree_sequence()
            });
        }
        Ok(SplitPart {
            statistics: SimpleStatistics::new(rows.len() as u64, degrees),
            relation,
        })
    };
    Ok(Some((
        part("light", &light_rows, true)?,
        part("heavy", &heavy_rows, false)?,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpb_data::RelationBuilder;
    use std::collections::BTreeMap;

    /// The degree buckets as they were first written — each `U`-value's
    /// `V`-values collected, deduplicated and counted in ordered maps, each
    /// bucket's rows pushed through the builder, each part's maximum degree
    /// and `|Π_U|` recounted on it — kept as the reference that shares no
    /// code with [`partition`].
    fn reference_partition(rel: &Relation, v: &[&str], u: &[&str]) -> Vec<DegreePart> {
        let u_pos = rel.schema().positions(u.iter().copied()).unwrap();
        let v_pos = rel.schema().positions(v.iter().copied()).unwrap();

        // Degree of each U-value: number of distinct V-values.
        let mut groups: BTreeMap<Vec<u64>, Vec<Vec<u64>>> = BTreeMap::new();
        for row in 0..rel.len() {
            let key = rel.key(row, &u_pos);
            let val = rel.key(row, &v_pos);
            groups.entry(key).or_default().push(val);
        }
        let mut degree_of: BTreeMap<Vec<u64>, u64> = BTreeMap::new();
        for (key, mut vals) in groups {
            vals.sort_unstable();
            vals.dedup();
            degree_of.insert(key, vals.len() as u64);
        }

        // Distribute rows into buckets.
        let mut rows_per_bucket: BTreeMap<u32, Vec<Vec<u64>>> = BTreeMap::new();
        for row in 0..rel.len() {
            let key = rel.key(row, &u_pos);
            let d = degree_of[&key];
            rows_per_bucket
                .entry(bucket_of(d))
                .or_default()
                .push(rel.row(row));
        }

        let attrs: Vec<String> = rel.schema().attrs().to_vec();
        let mut parts = Vec::with_capacity(rows_per_bucket.len());
        for (bucket, rows) in rows_per_bucket {
            let mut builder =
                RelationBuilder::new(format!("{}#deg{}", rel.name(), bucket), attrs.clone())
                    .unwrap();
            for row in &rows {
                builder.push_codes(row).unwrap();
            }
            let relation = builder.build();
            let part_max = relation
                .degree_sequence(v, u)
                .map(|d| d.max_degree())
                .unwrap_or(0);
            let distinct_u = relation.distinct_count(u).unwrap_or(0);
            parts.push(DegreePart {
                relation,
                bucket,
                max_degree: part_max,
                distinct_u,
            });
        }
        parts
    }

    /// [`partition_for_statistic`] as it was first written: the reference
    /// buckets, each with more `U`-values than its cap cut into sorted
    /// chunks of `U`-values, every row of the bucket binary-searched in
    /// every chunk and each chunk rebuilt and recounted.
    fn reference_for_statistic(
        rel: &Relation,
        v: &[&str],
        u: &[&str],
        norm: Norm,
        log2_b: f64,
    ) -> Vec<DegreePart> {
        let buckets = reference_partition(rel, v, u);
        let p = match norm {
            Norm::Infinity => return buckets,
            Norm::Finite(p) => p,
        };
        let mut parts = Vec::new();
        for bucket in buckets {
            let cap = (p * (log2_b - (bucket.max_degree.max(1) as f64).log2()))
                .exp2()
                .floor()
                .max(1.0) as usize;
            if bucket.distinct_u <= cap {
                parts.push(bucket);
                continue;
            }
            let u_pos = bucket
                .relation
                .schema()
                .positions(u.iter().copied())
                .unwrap();
            let mut u_values: Vec<Vec<u64>> = (0..bucket.relation.len())
                .map(|row| bucket.relation.key(row, &u_pos))
                .collect();
            u_values.sort_unstable();
            u_values.dedup();
            let attrs: Vec<String> = bucket.relation.schema().attrs().to_vec();
            for (chunk_idx, chunk) in u_values.chunks(cap).enumerate() {
                let mut builder = RelationBuilder::new(
                    format!("{}#u{}", bucket.relation.name(), chunk_idx),
                    attrs.clone(),
                )
                .unwrap();
                for row in 0..bucket.relation.len() {
                    let key = bucket.relation.key(row, &u_pos);
                    if chunk.binary_search(&key).is_ok() {
                        builder.push_codes(&bucket.relation.row(row)).unwrap();
                    }
                }
                let relation = builder.build();
                let max_degree = relation
                    .degree_sequence(v, u)
                    .map(|d| d.max_degree())
                    .unwrap_or(0);
                let distinct_u = relation.distinct_count(u).unwrap_or(0);
                parts.push(DegreePart {
                    relation,
                    bucket: bucket.bucket,
                    max_degree,
                    distinct_u,
                });
            }
        }
        parts
    }

    /// Everything a part holds — its relation (name, rows in order, strict
    /// flag), bucket, maximum degree and `|Π_U|` — for a bit-for-bit
    /// comparison.
    fn contents(parts: Vec<DegreePart>) -> Vec<(Relation, bool, u32, u64, usize)> {
        parts
            .into_iter()
            .map(|p| {
                let strict = p.relation.is_strictly_increasing();
                (p.relation, strict, p.bucket, p.max_degree, p.distinct_u)
            })
            .collect()
    }

    /// A relation whose y-degrees span several powers of two.
    fn skewed_relation() -> Relation {
        let mut pairs: Vec<(u64, u64)> = Vec::new();
        // y = 0: degree 16; y = 1: degree 5; y = 2: degree 2; y = 3..=10: degree 1.
        for i in 0..16u64 {
            pairs.push((1000 + i, 0));
        }
        for i in 0..5u64 {
            pairs.push((2000 + i, 1));
        }
        pairs.push((3000, 2));
        pairs.push((3001, 2));
        for y in 3..=10u64 {
            pairs.push((4000 + y, y));
        }
        RelationBuilder::binary_from_pairs("R", "x", "y", pairs)
    }

    #[test]
    fn partition_is_a_partition_of_the_tuples() {
        let rel = skewed_relation();
        let parts = partition_by_degree(&rel, &["x"], &["y"]).unwrap();
        let total: usize = parts.iter().map(|p| p.relation.len()).sum();
        assert_eq!(total, rel.len());
        // Buckets: degree 16 → bucket 4, degree 5 → bucket 3, degree 2 and 1 → bucket 1.
        let buckets: Vec<u32> = parts.iter().map(|p| p.bucket).collect();
        assert_eq!(buckets, vec![1, 3, 4]);
    }

    #[test]
    fn degrees_within_a_part_are_within_a_factor_of_two() {
        let rel = skewed_relation();
        let parts = partition_by_degree(&rel, &["x"], &["y"]).unwrap();
        for part in &parts {
            let deg = part.relation.degree_sequence(&["x"], &["y"]).unwrap();
            let max = deg.max_degree();
            let min = deg.as_slice().iter().copied().min().unwrap();
            assert!(
                max <= 2 * min,
                "bucket {}: degrees {min}..{max}",
                part.bucket
            );
            assert!(max <= 1 << part.bucket);
            assert!(part.bucket == 1 || max > 1 << (part.bucket - 1));
        }
    }

    #[test]
    fn parts_strongly_satisfy_the_source_statistic() {
        let rel = skewed_relation();
        // The source relation satisfies ‖deg(x|y)‖_p ≤ its own ℓp norm; the
        // Lemma 2.5 partition for that statistic must make every part
        // strongly satisfy it, while covering all tuples.
        let deg = rel.degree_sequence(&["x"], &["y"]).unwrap();
        for p in [1.0, 2.0, 3.0] {
            let log_b = deg.log2_lp_norm(Norm::finite(p)).unwrap();
            let parts =
                partition_for_statistic(&rel, &["x"], &["y"], Norm::finite(p), log_b).unwrap();
            let total: usize = parts.iter().map(|part| part.relation.len()).sum();
            assert_eq!(total, rel.len(), "p={p}");
            for part in &parts {
                assert!(
                    part.strongly_satisfies(Norm::finite(p), log_b),
                    "bucket {} does not strongly satisfy ℓ{p} ≤ 2^{log_b}",
                    part.bucket
                );
            }
            // Lemma 2.5 part count: ⌈2^p⌉·(⌈log₂ N⌉ + 1).
            let limit = (2f64.powf(p).ceil()) * ((rel.len() as f64).log2().ceil() + 1.0);
            assert!(parts.len() as f64 <= limit, "p={p}: {} parts", parts.len());
        }
        let log_inf = deg.log2_lp_norm(Norm::Infinity).unwrap();
        for part in partition_for_statistic(&rel, &["x"], &["y"], Norm::Infinity, log_inf).unwrap()
        {
            assert!(part.strongly_satisfies(Norm::Infinity, log_inf));
        }
    }

    #[test]
    fn number_of_parts_is_logarithmic() {
        let rel = skewed_relation();
        let parts = partition_by_degree(&rel, &["x"], &["y"]).unwrap();
        let n = rel.len() as f64;
        assert!(parts.len() as f64 <= n.log2().ceil() + 1.0);
    }

    #[test]
    fn unknown_attributes_error() {
        let rel = skewed_relation();
        assert!(partition_by_degree(&rel, &["nope"], &["y"]).is_err());
        assert!(split_light_heavy(&rel, &["nope"], &["y"]).is_err());
    }

    #[test]
    fn light_heavy_split_partitions_and_separates_degrees() {
        let rel = skewed_relation();
        let (light, heavy) = split_light_heavy(&rel, &["x"], &["y"])
            .unwrap()
            .expect("several degree buckets");
        let (light, heavy) = (light.relation, heavy.relation);
        assert_eq!(light.name(), "R#light");
        assert_eq!(heavy.name(), "R#heavy");
        // Complete and disjoint: the parts' rows are exactly the input rows.
        let mut rows: Vec<Vec<u64>> = light.rows().chain(heavy.rows()).collect();
        rows.sort_unstable();
        let mut orig: Vec<Vec<u64>> = rel.rows().collect();
        orig.sort_unstable();
        assert_eq!(rows, orig);
        // Degrees separate: the geometric-mean cut lands at 2^2.5, so the
        // degree-16 bucket is heavy and the degree-1..5 buckets are light.
        let light_max = light
            .degree_sequence(&["x"], &["y"])
            .map(|d| d.max_degree())
            .unwrap();
        let heavy_min_bucket = heavy
            .degree_sequence(&["x"], &["y"])
            .map(|d| d.as_slice().iter().copied().min().unwrap())
            .unwrap();
        assert!(light_max < heavy_min_bucket);
        assert_eq!(
            heavy.degree_sequence(&["x"], &["y"]).unwrap().max_degree(),
            16
        );
    }

    /// The split as it was first written — merge the materialized
    /// [`reference_partition`] buckets through the builder — kept as the
    /// reference the one-pass gather must reproduce exactly.
    fn split_by_merging_buckets(
        rel: &Relation,
        v: &[&str],
        u: &[&str],
    ) -> Option<(Relation, Relation)> {
        let parts = reference_partition(rel, v, u);
        if parts.len() < 2 {
            return None;
        }
        let log_deg = |p: &DegreePart| (p.max_degree.max(1) as f64).log2();
        let dmin = parts.iter().map(log_deg).fold(f64::INFINITY, f64::min);
        let dmax = parts.iter().map(log_deg).fold(f64::NEG_INFINITY, f64::max);
        let tau = (dmin + dmax) / 2.0;
        let merge = |label: &str, light: bool| -> Relation {
            let mut builder = RelationBuilder::new(
                format!("{}#{label}", rel.name()),
                rel.schema().attrs().to_vec(),
            )
            .unwrap();
            for part in parts.iter().filter(|p| (log_deg(p) <= tau) == light) {
                for row in part.relation.rows() {
                    builder.push_codes(&row).unwrap();
                }
            }
            builder.build()
        };
        Some((merge("light", true), merge("heavy", false)))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Same rows, same order, same names as the bucket-merging
        /// reference (builder-made parts), in both directions of a skewed
        /// binary relation, on a raw (unsorted, duplicate-bearing) copy of
        /// it, and on a ternary relation split on one attribute and on two.
        /// (That each part's counted statistics equal its cold harvest is
        /// `proptest_partition`'s `counted_split_statistics_equal_the_cold_harvest`.)
        #[test]
        fn one_pass_split_equals_the_bucket_merging_reference(
            hubs in 0u64..4,
            fanout in 1u64..40,
            background in 0usize..120,
            seed in 0u64..1_000_000,
        ) {
            let pairs = lpb_datagen::skewed_pairs(hubs, fanout, background, seed);
            let built = RelationBuilder::binary_from_pairs("R", "x", "y", pairs.clone());
            // Storage order reversed and every row twice.
            let raw = Relation::from_columns(
                "R",
                built.schema().clone(),
                (0..2)
                    .map(|c| {
                        pairs.iter().rev().chain(pairs.iter()).map(|p| [p.0, p.1][c]).collect()
                    })
                    .collect(),
            )
            .unwrap();
            let mut ternary = RelationBuilder::new("T", ["x", "y", "z"]).unwrap();
            for &(x, y) in &pairs {
                ternary.push_codes(&[x, y, (x + y) % 3]).unwrap();
            }
            let ternary = ternary.build();
            for (rel, v, u) in [
                (&built, &["x"][..], &["y"][..]),
                (&built, &["y"][..], &["x"][..]),
                (&raw, &["x"][..], &["y"][..]),
                (&ternary, &["x", "z"][..], &["y"][..]),
                (&ternary, &["y"][..], &["x", "z"][..]),
            ] {
                let split = split_light_heavy(rel, v, u)
                    .unwrap()
                    .map(|(light, heavy)| (light.relation, heavy.relation));
                proptest::prop_assert_eq!(&split, &split_by_merging_buckets(rel, v, u));
                for part in split.into_iter().flat_map(|(light, heavy)| [light, heavy]) {
                    proptest::prop_assert!(part.is_strictly_increasing());
                }
            }
        }

        /// The degree buckets and their Lemma 2.5 chunks equal the
        /// reference's bit for bit — every part's relation (name, rows in
        /// order, strict flag), bucket, maximum degree and `|Π_U|` — for ℓ1,
        /// ℓ2, ℓ3 and ℓ∞ at the relation's own norm and below it (where
        /// buckets are cut), on a skewed binary relation in both
        /// directions, a raw (reversed, every row twice) copy of it, a
        /// ternary relation with `|U| = 2` and with `|V| = 2`, and an empty
        /// relation.
        #[test]
        fn the_partition_equals_the_reference(
            hubs in 0u64..4,
            fanout in 1u64..40,
            background in 0usize..120,
            seed in 0u64..1_000_000,
            slack in 0.0f64..3.0,
        ) {
            let pairs = lpb_datagen::skewed_pairs(hubs, fanout, background, seed);
            let built = RelationBuilder::binary_from_pairs("R", "x", "y", pairs.clone());
            let raw = Relation::from_columns(
                "R",
                built.schema().clone(),
                (0..2)
                    .map(|c| {
                        pairs.iter().rev().chain(pairs.iter()).map(|p| [p.0, p.1][c]).collect()
                    })
                    .collect(),
            )
            .unwrap();
            let mut ternary = RelationBuilder::new("T", ["x", "y", "z"]).unwrap();
            for &(x, y) in &pairs {
                ternary.push_codes(&[x, y, (x + y) % 3]).unwrap();
            }
            let ternary = ternary.build();
            let empty = RelationBuilder::new("E", ["x", "y"]).unwrap().build();
            for (rel, v, u) in [
                (&built, &["x"][..], &["y"][..]),
                (&built, &["y"][..], &["x"][..]),
                (&raw, &["x"][..], &["y"][..]),
                (&raw, &["y"][..], &["x"][..]),
                (&ternary, &["y"][..], &["z", "x"][..]),
                (&ternary, &["x", "z"][..], &["y"][..]),
                (&empty, &["x"][..], &["y"][..]),
            ] {
                proptest::prop_assert_eq!(
                    contents(partition_by_degree(rel, v, u).unwrap()),
                    contents(reference_partition(rel, v, u))
                );
                for norm in [Norm::finite(1.0), Norm::L2, Norm::finite(3.0), Norm::Infinity] {
                    let own = rel
                        .degree_sequence(v, u)
                        .unwrap()
                        .log2_lp_norm(norm)
                        .unwrap_or(0.0);
                    for log2_b in [own, own - slack] {
                        proptest::prop_assert_eq!(
                            contents(partition_for_statistic(rel, v, u, norm, log2_b).unwrap()),
                            contents(reference_for_statistic(rel, v, u, norm, log2_b))
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn bucket_of_is_the_ceiling_log2() {
        for d in (1..=10_000u64).chain([u64::MAX >> 1, (u64::MAX >> 1) + 2, u64::MAX]) {
            let b = bucket_of(d);
            let d = d as u128;
            assert!(
                d <= 1 << b && (b == 1 || d > 1 << (b - 1)),
                "d = {d}: bucket {b}"
            );
        }
    }

    #[test]
    fn uniform_relations_do_not_split() {
        let rel =
            RelationBuilder::binary_from_pairs("U", "x", "y", (0..20u64).map(|i| (i, i % 10)));
        // Every y has degree 2: one bucket, nothing to split.
        assert!(split_light_heavy(&rel, &["x"], &["y"]).unwrap().is_none());
    }
}
