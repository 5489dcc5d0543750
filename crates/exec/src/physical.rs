//! Physical plans: an executable strategy tree lowered from a logical plan.
//!
//! Where [`crate::JoinPlan`] is a bare left-deep atom order, a
//! [`PhysicalPlan`] chooses an evaluation *strategy* per subtree:
//!
//! * [`PhysicalNode::Scan`] / [`PhysicalNode::HashChain`] — the classic
//!   left-deep hash-join pipeline;
//! * [`PhysicalNode::HashJoin`] — a **bushy** binary join of two
//!   independently evaluated sub-plans (both branches materialize, both are
//!   counted), the shape the optimizer's bushy bottleneck DP emits;
//! * [`PhysicalNode::Wcoj`] — materialize a (cyclic) sub-join with the
//!   leapfrog worst-case-optimal join, whose intermediates never exceed its
//!   output;
//! * [`PhysicalNode::Reduced`] — Yannakakis semi-join reduction (full
//!   reducer) over an acyclic sub-join before hash-joining, so dangling
//!   tuples never reach an intermediate.  The reducer's semi-join passes
//!   are recorded (and costed by the planner) — they are not free.
//! * [`PhysicalNode::PartitionedUnion`] — one atom's relation split into
//!   disjoint degree parts (Lemma 2.5 light/heavy), each part evaluated by
//!   its **own** per-part plan against a derived sub-catalog and with its
//!   own counters (rolled up into the parent), the outputs unioned without
//!   deduplication (disjointness is asserted).  This is how the optimizer
//!   exploits the sum-of-parts bound when a skewed relation makes the
//!   monolithic bound loose.
//!
//! Every node can carry a **bound certificate**: `log₂` of a provable upper
//! bound on what the node materializes, threaded in from the optimizer's
//! per-sub-join ℓp-norm bounds.  [`crate::execute_physical_mode`] lowers
//! the tree into the resumable stage machine ([`crate::ExecState`]) and runs
//! it to completion under the default [`crate::CertificatePolicy::Count`]:
//! every observed intermediate is checked against its certificate in every
//! build profile, with violations tallied in the counters (`React` policies
//! additionally suspend — see the `state` module).  A left-deep
//! [`crate::JoinPlan`] runs as the uncertified chain
//! `PhysicalPlan::hash_chain(plan.order().to_vec())`, which records the
//! first scan and then every join result.

/// One node of a physical plan; see the module docs.
///
/// The `log2_bound` / `step_bounds` fields are optional bound certificates:
/// `log₂` of a provable upper bound on the rows the node (or each of its
/// steps) materializes.  `None` / empty means uncertified, which is how the
/// shape constructors build plans; the bound-driven [`crate::Optimizer`]
/// fills them in from its DP's sub-join bounds.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalNode {
    /// Bind one atom's relation.
    Scan {
        /// Atom index in the parent query.
        atom: usize,
        /// Certificate on the scan size (trivially the relation size).
        log2_bound: Option<f64>,
    },
    /// Left-deep continuation: hash-join `input` with each atom in order.
    HashChain {
        /// Sub-plan producing the left input.
        input: Box<PhysicalNode>,
        /// Atoms joined one at a time, in order.
        atoms: Vec<usize>,
        /// Per-step certificates, aligned with `atoms`: `step_bounds[i]`
        /// bounds the intermediate after joining `atoms[i]`.  Empty when
        /// uncertified.
        step_bounds: Vec<Option<f64>>,
    },
    /// Bushy binary join: evaluate both sub-plans, then hash-join them on
    /// their shared variables.
    HashJoin {
        /// Left sub-plan.
        left: Box<PhysicalNode>,
        /// Right sub-plan.
        right: Box<PhysicalNode>,
        /// Certificate on the join result (the union sub-join's bound).
        log2_bound: Option<f64>,
    },
    /// Materialize the sub-join over `atoms` with the leapfrog WCOJ.
    Wcoj {
        /// Atom indices of the (typically cyclic) sub-join.
        atoms: Vec<usize>,
        /// Certificate on the WCOJ output (the sub-join's bound).
        log2_bound: Option<f64>,
    },
    /// Yannakakis: run the full reducer over the acyclic sub-join spanned by
    /// `atoms`, then hash-join the reduced relations in the given order.
    Reduced {
        /// Atom indices, in join order (must form an acyclic sub-join).
        atoms: Vec<usize>,
        /// Certificates on everything derived from each atom's base relation
        /// by semi-joins (reduction only shrinks, so the scan size bounds
        /// every pass), aligned with `atoms`.  Empty when uncertified.
        scan_bounds: Vec<Option<f64>>,
        /// Per-step certificates on the chain intermediates, aligned with
        /// `atoms` (`step_bounds[i]` bounds the join of `atoms[..=i]`;
        /// reduction only shrinks inputs, so the unreduced sub-join bounds
        /// still hold).  Empty when uncertified.
        step_bounds: Vec<Option<f64>>,
    },
    /// Degree-partitioned union: atom `atom`'s relation has been split into
    /// disjoint parts (a Lemma 2.5 light/heavy split), each
    /// [`PartitionBranch`] evaluates the full query with the atom rebound
    /// to one part — with its **own plan**, planned against that part's
    /// statistics — and the node unions the branch outputs.  Because the
    /// parts partition the relation's tuples (asserted at execution time),
    /// every output tuple comes from exactly one branch and the union is
    /// exact without deduplication.
    PartitionedUnion {
        /// Index of the query atom whose relation was partitioned.
        atom: usize,
        /// One branch per part; every branch is executed with its own
        /// [`crate::IntermediateCounters`], rolled up into the parent
        /// recording.
        parts: Vec<PartitionBranch>,
        /// Certificate on the union output: `log₂` of the **sum** of the
        /// per-part output bounds (the PANDA-style sum-of-parts bound that
        /// motivates partitioned planning).
        log2_bound: Option<f64>,
    },
}

/// One part of a [`PhysicalNode::PartitionedUnion`]: the materialized part
/// relation plus the plan chosen for the query over it.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionBranch {
    /// The part (same schema as the partitioned relation, uniquely named,
    /// e.g. `S#heavy`).  Carried in the plan — behind an `Arc`, so cloning
    /// the plan or deriving the part's sub-catalog at execution time never
    /// copies tuples.
    pub relation: std::sync::Arc<lpb_data::Relation>,
    /// The plan for the query with the partitioned atom rebound to
    /// [`relation`](Self::relation), certified with that part's bounds.
    pub plan: PhysicalPlan,
    /// Certificate on this branch's output (the part's full sub-join
    /// bound).
    pub log2_bound: Option<f64>,
}

impl PhysicalNode {
    /// Compact description, e.g. `wcoj[0,1,2]⋈[3,4]`.
    fn describe(&self) -> String {
        let list = |atoms: &[usize]| {
            atoms
                .iter()
                .map(|a| a.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        match self {
            PhysicalNode::Scan { atom, .. } => format!("scan[{atom}]"),
            PhysicalNode::HashChain { input, atoms, .. } => {
                format!("{}⋈[{}]", input.describe(), list(atoms))
            }
            PhysicalNode::HashJoin { left, right, .. } => {
                format!("({}⋈{})", left.describe(), right.describe())
            }
            PhysicalNode::Wcoj { atoms, .. } => format!("wcoj[{}]", list(atoms)),
            PhysicalNode::Reduced { atoms, .. } => format!("yannakakis[{}]", list(atoms)),
            PhysicalNode::PartitionedUnion { parts, .. } => {
                let branches: Vec<String> = parts
                    .iter()
                    .map(|b| format!("{}: {}", b.relation.name(), b.plan.root.describe()))
                    .collect();
                format!("∪[{}]", branches.join(" | "))
            }
        }
    }

    /// The atom indices this node (recursively) evaluates, in join order.
    fn atom_order(&self, out: &mut Vec<usize>) {
        match self {
            PhysicalNode::Scan { atom, .. } => out.push(*atom),
            PhysicalNode::HashChain { input, atoms, .. } => {
                input.atom_order(out);
                out.extend_from_slice(atoms);
            }
            PhysicalNode::HashJoin { left, right, .. } => {
                left.atom_order(out);
                right.atom_order(out);
            }
            PhysicalNode::Wcoj { atoms, .. } | PhysicalNode::Reduced { atoms, .. } => {
                out.extend_from_slice(atoms)
            }
            PhysicalNode::PartitionedUnion { parts, .. } => {
                // Every branch evaluates the same atom set; report the first
                // branch's order as the representative one.
                if let Some(first) = parts.first() {
                    first.plan.root.atom_order(out);
                }
            }
        }
    }

    /// True when this subtree contains a bushy [`PhysicalNode::HashJoin`].
    fn contains_hash_join(&self) -> bool {
        match self {
            PhysicalNode::HashJoin { .. } => true,
            PhysicalNode::HashChain { input, .. } => input.contains_hash_join(),
            _ => false,
        }
    }

    /// The certificates attached to this subtree, paired with a description
    /// of what they bound (used by reports and tests).
    fn collect_certificates(&self, out: &mut Vec<(String, f64)>) {
        match self {
            PhysicalNode::Scan { atom, log2_bound } => {
                if let Some(b) = log2_bound {
                    out.push((format!("scan[{atom}]"), *b));
                }
            }
            PhysicalNode::HashChain {
                input,
                atoms,
                step_bounds,
            } => {
                input.collect_certificates(out);
                for (j, b) in atoms.iter().zip(step_bounds) {
                    if let Some(b) = b {
                        out.push((format!("⋈[{j}]"), *b));
                    }
                }
            }
            PhysicalNode::HashJoin {
                left,
                right,
                log2_bound,
            } => {
                left.collect_certificates(out);
                right.collect_certificates(out);
                if let Some(b) = log2_bound {
                    out.push((self.describe(), *b));
                }
            }
            PhysicalNode::Wcoj { atoms, log2_bound } => {
                if let Some(b) = log2_bound {
                    out.push((format!("wcoj[{:?}]", atoms), *b));
                }
            }
            PhysicalNode::Reduced {
                atoms,
                scan_bounds,
                step_bounds,
            } => {
                for (j, b) in atoms.iter().zip(scan_bounds) {
                    if let Some(b) = b {
                        out.push((format!("reduce[{j}]"), *b));
                    }
                }
                for (j, b) in atoms.iter().zip(step_bounds) {
                    if let Some(b) = b {
                        out.push((format!("⋈[{j}]"), *b));
                    }
                }
            }
            PhysicalNode::PartitionedUnion {
                parts, log2_bound, ..
            } => {
                for branch in parts {
                    branch.plan.root.collect_certificates(out);
                    if let Some(b) = branch.log2_bound {
                        out.push((format!("part {}", branch.relation.name()), b));
                    }
                }
                if let Some(b) = log2_bound {
                    out.push(("∪ partitioned".to_string(), *b));
                }
            }
        }
    }
}

/// An executable strategy tree over a query's atoms.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalPlan {
    root: PhysicalNode,
}

impl PhysicalPlan {
    /// A pure left-deep hash-join chain in the given atom order.
    ///
    /// The order must be a non-empty permutation prefix of distinct atom
    /// indices; full validation against a query happens at execution time.
    pub fn hash_chain(order: Vec<usize>) -> Self {
        assert!(!order.is_empty(), "a hash chain needs at least one atom");
        let input = Box::new(PhysicalNode::Scan {
            atom: order[0],
            log2_bound: None,
        });
        let atoms = order[1..].to_vec();
        PhysicalPlan {
            root: if atoms.is_empty() {
                *input
            } else {
                PhysicalNode::HashChain {
                    input,
                    atoms,
                    step_bounds: Vec::new(),
                }
            },
        }
    }

    /// Evaluate the whole query with the worst-case-optimal join.
    pub fn wcoj(atoms: Vec<usize>) -> Self {
        assert!(!atoms.is_empty(), "wcoj needs at least one atom");
        PhysicalPlan {
            root: PhysicalNode::Wcoj {
                atoms,
                log2_bound: None,
            },
        }
    }

    /// Yannakakis: full reducer plus a hash chain in the given order.
    pub fn reduced(atoms: Vec<usize>) -> Self {
        assert!(!atoms.is_empty(), "reduction needs at least one atom");
        PhysicalPlan {
            root: PhysicalNode::Reduced {
                atoms,
                scan_bounds: Vec::new(),
                step_bounds: Vec::new(),
            },
        }
    }

    /// Hybrid: WCOJ over a cyclic core, then hash-join the remaining atoms
    /// onto it in order.
    pub fn wcoj_then_chain(core: Vec<usize>, tail: Vec<usize>) -> Self {
        assert!(!core.is_empty(), "the wcoj core needs at least one atom");
        let wcoj = PhysicalNode::Wcoj {
            atoms: core,
            log2_bound: None,
        };
        PhysicalPlan {
            root: if tail.is_empty() {
                wcoj
            } else {
                PhysicalNode::HashChain {
                    input: Box::new(wcoj),
                    atoms: tail,
                    step_bounds: Vec::new(),
                }
            },
        }
    }

    /// A plan with an explicitly constructed (possibly certified, possibly
    /// bushy) root node — the optimizer's entry point for trees the shape
    /// constructors above cannot express.
    pub fn from_root(root: PhysicalNode) -> Self {
        PhysicalPlan { root }
    }

    /// The root node.
    pub fn root(&self) -> &PhysicalNode {
        &self.root
    }

    /// Short strategy label for reports: `hash-chain`, `wcoj`,
    /// `yannakakis`, `wcoj+hash-chain`, `bushy` or `partitioned`.
    pub fn strategy(&self) -> &'static str {
        if let PhysicalNode::PartitionedUnion { .. } = self.root {
            return "partitioned";
        }
        if self.root.contains_hash_join() {
            return "bushy";
        }
        match &self.root {
            PhysicalNode::Scan { .. } => "scan",
            PhysicalNode::Wcoj { .. } => "wcoj",
            PhysicalNode::Reduced { .. } => "yannakakis",
            PhysicalNode::HashJoin { .. } => "bushy",
            PhysicalNode::PartitionedUnion { .. } => "partitioned",
            PhysicalNode::HashChain { input, .. } => match **input {
                PhysicalNode::Wcoj { .. } => "wcoj+hash-chain",
                PhysicalNode::Reduced { .. } => "yannakakis+hash-chain",
                _ => "hash-chain",
            },
        }
    }

    /// Every certificate attached to the plan, as `(what, log2_bound)`
    /// pairs in tree order.  Empty for uncertified plans.
    pub fn certificates(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        self.root.collect_certificates(&mut out);
        out
    }

    /// Compact description of the tree, e.g. `wcoj[0,1,2]⋈[3]`.
    pub fn describe(&self) -> String {
        self.root.describe()
    }

    /// The atom indices the plan evaluates, in join order.
    pub fn atom_order(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.root.atom_order(&mut out);
        out
    }
}

/// The union of a [`PhysicalNode::PartitionedUnion`] is exact only because
/// the parts partition the original relation's tuples; a shared row would
/// double-count its output tuples.  The O(rows) scan is debug-only
/// (`#[cfg(debug_assertions)]`), like the per-step certificate asserts —
/// release executions trust the planner's split, whose parts are disjoint
/// by construction ([`crate::split_light_heavy`] routes each distinct row
/// to exactly one part).  The test that feeds it overlapping parts is
/// therefore compiled for debug builds only.
#[allow(unused_variables)]
pub(crate) fn assert_parts_disjoint(atom: usize, parts: &[PartitionBranch]) {
    #[cfg(debug_assertions)]
    {
        let mut seen = std::collections::HashSet::new();
        for branch in parts {
            for row in branch.relation.rows() {
                assert!(
                    seen.insert(row),
                    "partitioned-union parts of atom {atom} are not disjoint"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::JoinPlan;
    use crate::morsel::{execute_physical_mode, ColumnRun, ExecMode};
    use lpb_core::JoinQuery;
    use lpb_data::{Catalog, RelationBuilder};

    fn exec(query: &JoinQuery, catalog: &Catalog, plan: &PhysicalPlan) -> ColumnRun {
        execute_physical_mode(query, catalog, plan, ExecMode::Vectorized).unwrap()
    }

    fn run_order(query: &JoinQuery, catalog: &Catalog, plan: &JoinPlan) -> ColumnRun {
        exec(
            query,
            catalog,
            &PhysicalPlan::hash_chain(plan.order().to_vec()),
        )
    }

    fn triangle_catalog() -> Catalog {
        // A clique on 4 nodes (directed, no self loops): 12 edges,
        // 4·3·2 = 24 directed triangles.
        let mut edges = Vec::new();
        for a in 0..4u64 {
            for b in 0..4u64 {
                if a != b {
                    edges.push((a, b));
                }
            }
        }
        let mut catalog = Catalog::new();
        catalog.insert(RelationBuilder::binary_from_pairs("E", "a", "b", edges));
        catalog
    }

    #[test]
    fn plan_orders_agree_on_the_output() {
        let catalog = triangle_catalog();
        let q = JoinQuery::triangle("E", "E", "E");
        let a = run_order(&q, &catalog, &JoinPlan::in_query_order(&q));
        let b = run_order(
            &q,
            &catalog,
            &JoinPlan::with_order(&q, vec![2, 0, 1]).unwrap(),
        );
        let c = run_order(
            &q,
            &catalog,
            &JoinPlan::greedy_by_size(&q, &catalog).unwrap(),
        );
        assert_eq!(a.output_size(), 24);
        assert_eq!(b.output_size(), 24);
        assert_eq!(c.output_size(), 24);
        assert!(a.max_intermediate() >= a.output_size());
        // The first scan, then every join result.
        assert_eq!(a.counters.sizes().len(), 3);
    }

    #[test]
    fn path_query_sizes_track_intermediates() {
        let mut catalog = Catalog::new();
        catalog.insert(RelationBuilder::binary_from_pairs(
            "E",
            "a",
            "b",
            (0..20u64).map(|i| (i % 5, i % 7)),
        ));
        let q = JoinQuery::path(&["E", "E", "E"]);
        let r = run_order(&q, &catalog, &JoinPlan::in_query_order(&q));
        assert_eq!(r.counters.sizes().len(), 3);
        assert!(r.output_size() > 0);
        // Greedy plan computes the same output size.
        let greedy = JoinPlan::greedy_by_size(&q, &catalog).unwrap();
        assert_eq!(
            run_order(&q, &catalog, &greedy).output_size(),
            r.output_size()
        );
    }

    #[test]
    fn missing_relation_errors() {
        let catalog = Catalog::new();
        let q = JoinQuery::triangle("E", "E", "E");
        let plan = PhysicalPlan::hash_chain(vec![0, 1, 2]);
        assert!(execute_physical_mode(&q, &catalog, &plan, ExecMode::Vectorized).is_err());
    }

    #[test]
    fn every_strategy_computes_the_same_triangle_output() {
        let catalog = triangle_catalog();
        let q = JoinQuery::triangle("E", "E", "E");
        let chain = exec(&q, &catalog, &PhysicalPlan::hash_chain(vec![0, 1, 2]));
        let wcoj = exec(&q, &catalog, &PhysicalPlan::wcoj(vec![0, 1, 2]));
        assert_eq!(chain.output_size(), 24);
        assert_eq!(wcoj.output_size(), 24);
        // The WCOJ never materializes the two-edge intermediate.
        assert!(wcoj.max_intermediate() <= chain.max_intermediate());
        assert_eq!(wcoj.counters.len(), 1);
        assert_eq!(chain.counters.len(), 3);
        // Step labels name the relations.
        assert!(chain.counters.steps()[0].label.contains('E'));
    }

    #[test]
    fn reduced_strategy_matches_hash_chain_on_acyclic_queries() {
        let mut catalog = Catalog::new();
        catalog.insert(RelationBuilder::binary_from_pairs(
            "R",
            "a",
            "b",
            vec![(1, 10), (2, 20), (3, 30)],
        ));
        catalog.insert(RelationBuilder::binary_from_pairs(
            "S",
            "b",
            "c",
            vec![(10, 100), (10, 101), (40, 400)],
        ));
        let q = JoinQuery::single_join("R", "S");
        let chain = exec(&q, &catalog, &PhysicalPlan::hash_chain(vec![0, 1]));
        let reduced = exec(&q, &catalog, &PhysicalPlan::reduced(vec![0, 1]));
        assert_eq!(chain.output_size(), 2);
        assert_eq!(reduced.output_size(), 2);
        // The reducer drops dangling tuples before joining: no reduced
        // relation is larger than its input, and the dangling S(40, 400) and
        // R(2,·)/R(3,·) rows are gone.  The two semi-join passes (S ⋉ R,
        // then R ⋉ S) are recorded first — they are work, not free.
        assert_eq!(reduced.counters.sizes(), vec![2, 1, 1, 2, 2]);
        let labels: Vec<&str> = reduced
            .counters
            .steps()
            .iter()
            .map(|s| s.label.as_str())
            .collect();
        assert_eq!(labels, vec!["⋉ S", "⋉ R", "reduce R", "reduce S", "⋈ S"]);
    }

    #[test]
    fn bushy_hash_join_matches_the_left_deep_chain() {
        // Path of four atoms: ((0⋈1)⋈(2⋈3)) must equal the chain.
        let mut catalog = Catalog::new();
        catalog.insert(RelationBuilder::binary_from_pairs(
            "E",
            "a",
            "b",
            (0..40u64).map(|i| (i % 6, (i * 3 + 1) % 8)),
        ));
        let q = JoinQuery::path(&["E", "E", "E", "E"]);
        let scan = |atom| {
            Box::new(PhysicalNode::Scan {
                atom,
                log2_bound: None,
            })
        };
        let pair = |a, b| {
            Box::new(PhysicalNode::HashJoin {
                left: scan(a),
                right: scan(b),
                log2_bound: None,
            })
        };
        let bushy = PhysicalPlan::from_root(PhysicalNode::HashJoin {
            left: pair(0, 1),
            right: pair(2, 3),
            log2_bound: None,
        });
        assert_eq!(bushy.strategy(), "bushy");
        assert_eq!(bushy.atom_order(), vec![0, 1, 2, 3]);
        assert!(bushy.describe().contains("⋈"));
        let run = exec(&q, &catalog, &bushy);
        let chain = exec(&q, &catalog, &PhysicalPlan::hash_chain(vec![0, 1, 2, 3]));
        assert_eq!(run.output_size(), chain.output_size());
        // Four scans + three joins are recorded (both branches count).
        assert_eq!(run.counters.len(), 7);
    }

    #[test]
    fn certificates_are_checked_during_execution() {
        let catalog = triangle_catalog();
        let q = JoinQuery::triangle("E", "E", "E");
        let scan_log2 = (12f64).log2();
        // A generously certified chain: scans at their true size, joins at
        // the product bound.
        let certified = PhysicalPlan::from_root(PhysicalNode::HashChain {
            input: Box::new(PhysicalNode::Scan {
                atom: 0,
                log2_bound: Some(scan_log2),
            }),
            atoms: vec![1, 2],
            step_bounds: vec![Some(2.0 * scan_log2), Some(3.0 * scan_log2)],
        });
        let run = exec(&q, &catalog, &certified);
        assert_eq!(run.output_size(), 24);
        assert_eq!(run.counters.certificates_checked(), 3);
        assert_eq!(run.certificate_violations(), 0);
        assert_eq!(certified.certificates().len(), 3);
        // Uncertified plans check nothing.
        let plain = exec(&q, &catalog, &PhysicalPlan::hash_chain(vec![0, 1, 2]));
        assert_eq!(plain.counters.certificates_checked(), 0);
        assert!(PhysicalPlan::hash_chain(vec![0, 1, 2])
            .certificates()
            .is_empty());
    }

    #[test]
    fn hybrid_wcoj_chain_extends_a_cyclic_core() {
        // Triangle plus a pendant edge P(X, W).
        let mut catalog = triangle_catalog();
        catalog.insert(RelationBuilder::binary_from_pairs(
            "P",
            "a",
            "b",
            (0..4u64).map(|i| (i, i + 100)),
        ));
        let q = JoinQuery::new(
            "tri-tail",
            vec![
                lpb_core::Atom::new("E", &["X", "Y"]),
                lpb_core::Atom::new("E", &["Y", "Z"]),
                lpb_core::Atom::new("E", &["Z", "X"]),
                lpb_core::Atom::new("P", &["X", "W"]),
            ],
        )
        .unwrap();
        let hybrid = PhysicalPlan::wcoj_then_chain(vec![0, 1, 2], vec![3]);
        assert_eq!(hybrid.strategy(), "wcoj+hash-chain");
        assert_eq!(hybrid.atom_order(), vec![0, 1, 2, 3]);
        assert!(hybrid.describe().contains("wcoj[0,1,2]"));
        let run = exec(&q, &catalog, &hybrid);
        let chain = exec(&q, &catalog, &PhysicalPlan::hash_chain(vec![0, 1, 2, 3]));
        assert_eq!(run.output_size(), chain.output_size());
        assert_eq!(run.output_size(), 24); // every triangle extends uniquely
    }

    #[test]
    fn partitioned_union_matches_the_monolithic_chain() {
        // Split E's rows by source-degree and union two per-part chains:
        // the result must equal the monolithic chain on a path query, the
        // per-part counters must roll up, and the union must carry its
        // certificate.
        let mut catalog = Catalog::new();
        let mut edges: Vec<(u64, u64)> = Vec::new();
        for j in 0..12u64 {
            edges.push((0, j)); // one heavy source
        }
        for i in 1..9u64 {
            edges.push((i, i + 1)); // light sources
        }
        catalog.insert(RelationBuilder::binary_from_pairs("E", "a", "b", edges));
        let q = JoinQuery::path(&["E", "E"]);
        let rel = catalog.get("E").unwrap();
        let (light, heavy) = crate::partition::split_light_heavy(&rel, &["b"], &["a"])
            .unwrap()
            .expect("skewed relation splits");
        let branch = |relation: lpb_data::Relation| PartitionBranch {
            relation: relation.into(),
            plan: PhysicalPlan::hash_chain(vec![0, 1]),
            log2_bound: Some(20.0),
        };
        let union = PhysicalPlan::from_root(PhysicalNode::PartitionedUnion {
            atom: 0,
            parts: vec![branch(light), branch(heavy)],
            log2_bound: Some(21.0),
        });
        assert_eq!(union.strategy(), "partitioned");
        assert!(union.describe().contains("E#light"));
        assert_eq!(union.atom_order(), vec![0, 1]);
        // Certificates: per-branch output + union, on top of nothing else
        // (the inner chains are uncertified).
        assert_eq!(union.certificates().len(), 3);

        let run = exec(&q, &catalog, &union);
        let mono = exec(&q, &catalog, &PhysicalPlan::hash_chain(vec![0, 1]));
        assert_eq!(run.output_size(), mono.output_size());
        assert!(run.output_size() > 0);
        assert_eq!(run.counters.parts_planned(), 2);
        assert_eq!(run.counters.parts_executed(), 2);
        assert_eq!(run.counters.part_peaks().len(), 2);
        assert_eq!(run.certificate_violations(), 0);
        assert!(run.counters.certificates_checked() >= 3);
        // Branch steps are re-labelled with their part.
        assert!(run
            .counters
            .steps()
            .iter()
            .any(|s| s.label.starts_with("[E#light]")));
    }

    // Relies on the debug-only scan in `assert_parts_disjoint`: under
    // `cargo test --release` nothing panics, so the test does not exist.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "not disjoint")]
    fn overlapping_partition_parts_are_rejected() {
        let mut catalog = Catalog::new();
        let rel = RelationBuilder::binary_from_pairs("E", "a", "b", vec![(1, 2), (3, 4)]);
        catalog.insert(rel.clone());
        let q = JoinQuery::path(&["E", "E"]);
        // Both "parts" are the whole relation: rows overlap.
        let branch = |name: &str| PartitionBranch {
            relation: rel.with_name(name.to_string()).into(),
            plan: PhysicalPlan::hash_chain(vec![0, 1]),
            log2_bound: None,
        };
        let union = PhysicalPlan::from_root(PhysicalNode::PartitionedUnion {
            atom: 0,
            parts: vec![branch("E#light"), branch("E#heavy")],
            log2_bound: None,
        });
        let _ = exec(&q, &catalog, &union);
    }

    #[test]
    fn physical_plan_constructors_validate_shapes() {
        assert_eq!(PhysicalPlan::hash_chain(vec![0]).strategy(), "scan");
        assert_eq!(PhysicalPlan::wcoj(vec![0, 1]).strategy(), "wcoj");
        assert_eq!(PhysicalPlan::reduced(vec![0, 1]).strategy(), "yannakakis");
        assert_eq!(
            PhysicalPlan::wcoj_then_chain(vec![0], vec![]).strategy(),
            "wcoj"
        );
    }
}
