//! Counted runs against materializing ones, and what a counted chain
//! allocates.
//!
//! Every plan kind, counted (`count_physical`), must return the step
//! recording and the certificate tally of an `execute_physical_mode` run of
//! the same plan and the nested-loop oracle's row count.  A counted
//! Yannakakis chain must also materialize none of its steps: it holds its
//! reduced relations and the prefix grouped on its frontier, never a
//! prefix's rows.  That is checked here with an allocation probe — this
//! binary's global allocator records, per thread, the largest single block
//! requested — so the check needs no hook in the executor: a counted run
//! may not request a block as large as the smallest chain-step column the
//! materializing run of the same plan writes (on the JOB-like serving
//! shapes, the widest step's column; see there why).
//!
//! More contracts of the executor live here.  The recording of one
//! hand-built plan per root kind is pinned step by step (labels, sizes,
//! certificates, tallies) in `GOLDEN`, materialized and counted, and so is
//! a partitioned union nested in a partition branch (`NESTED`).  The same
//! allocator keeps a per-thread high-water mark of live bytes, which shows
//! that a materializing chain drops each intermediate once the next step
//! has consumed it, and a per-thread total of bytes requested, which shows
//! that a partition branch binds its part without copying the catalog's
//! statistics.

use lpb_core::{Atom, JoinQuery};
use lpb_data::{Catalog, Norm, RelationBuilder, StatsKey};
use lpb_exec::oracle::nested_loop_join;
use lpb_exec::{
    count_physical, execute_physical_mode, ExecMode, IntermediateCounters, Optimizer,
    PartitionBranch, PhysicalNode, PhysicalPlan,
};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// The system allocator, recording the calling thread's largest block, the
/// high-water mark of the bytes it holds and the bytes it requested.
struct PeakProbe;

thread_local! {
    /// `const`-initialised and without a destructor, so reading it inside
    /// the allocator never allocates; per thread, so tests running side by
    /// side do not see each other's blocks.
    static LARGEST_BLOCK: Cell<usize> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed on this thread.  Signed: a block
    /// freed here may have been allocated before the count started.
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
    /// The largest value [`LIVE_BYTES`] took since [`reset_live_peak`].
    static PEAK_LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
    /// Bytes requested on this thread: every block's size, and a grown or
    /// shrunk block's new size.
    static REQUESTED_BYTES: Cell<usize> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    let _ = LARGEST_BLOCK.try_with(|largest| largest.set(largest.get().max(bytes)));
    let _ = REQUESTED_BYTES.try_with(|requested| requested.set(requested.get() + bytes));
}

/// Add `delta` bytes to this thread's live count and raise its high-water
/// mark.
fn note_live(delta: isize) {
    let _ = LIVE_BYTES.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK_LIVE_BYTES.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

/// Start a new high-water mark at the bytes live now, and return them.
fn reset_live_peak() -> isize {
    let live = LIVE_BYTES.with(Cell::get);
    PEAK_LIVE_BYTES.with(|peak| peak.set(live));
    live
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds `GlobalAlloc`'s contract; the probe only writes a thread-local
// `Cell<usize>`, which allocates nothing.
unsafe impl GlobalAlloc for PeakProbe {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        note_live(layout.size() as isize);
        // SAFETY: the caller's guarantees for `alloc` are passed on as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        note_live(layout.size() as isize);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        note_live(new_size as isize - layout.size() as isize);
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`; the caller's guarantees are passed on as given.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_live(-(layout.size() as isize));
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static PROBE: PeakProbe = PeakProbe;

/// Count `plan` (a Yannakakis chain, alone or in every branch of a
/// partitioned union) and materialize it, check that the two runs record
/// the same counters and size, and return the largest block the counted
/// run requested with the column size, in bytes, of every chain step (`⋈`)
/// the materializing run wrote.
fn probe_counted_chain(
    name: &str,
    query: &JoinQuery,
    catalog: &Catalog,
    plan: &PhysicalPlan,
) -> Result<(usize, Vec<usize>), TestCaseError> {
    let run = execute_physical_mode(query, catalog, plan, ExecMode::Vectorized).unwrap();
    LARGEST_BLOCK.with(|largest| largest.set(0));
    let counted = count_physical(query, catalog, plan).unwrap();
    let largest = LARGEST_BLOCK.with(Cell::get);
    prop_assert_eq!(&counted.counters, &run.counters, "{}: counters", name);
    prop_assert_eq!(counted.output_size, run.output_size(), "{}: size", name);
    let step_columns: Vec<usize> = run
        .counters
        .steps()
        .iter()
        .filter(|s| s.label.contains("⋈ "))
        .map(|s| s.rows * std::mem::size_of::<u64>())
        .collect();
    prop_assert!(!step_columns.is_empty(), "{}: no chain step", name);
    Ok((largest, step_columns))
}

/// [`probe_counted_chain`], asserting that the counted run requested no
/// block as large as the smallest chain-step column: not one step of the
/// chain was materialized.
fn assert_counted_chain_materializes_no_step(
    name: &str,
    query: &JoinQuery,
    catalog: &Catalog,
    plan: &PhysicalPlan,
) -> Result<(), TestCaseError> {
    let (largest, step_columns) = probe_counted_chain(name, query, catalog, plan)?;
    let smallest_step = step_columns.into_iter().min().unwrap_or(0);
    prop_assert!(
        largest < smallest_step,
        "{}: a counted run requested {} bytes at once, a chain-step column is {}",
        name,
        largest,
        smallest_step
    );
    Ok(())
}

/// One shape: a query, the catalog it runs on, a hand-built plan.
struct Shape {
    name: String,
    query: JoinQuery,
    catalog: Arc<Catalog>,
    plan: PhysicalPlan,
}

/// Path relations with `fanout` rows per join value (so `R ⋈ S` and
/// everything after it has `8 · fanout²` rows, well above every relation's
/// size) and a complete digraph `E` on `nodes` nodes
/// (`nodes · (nodes-1) · (nodes-2)` directed triangles).
fn catalog(fanout: u64, nodes: u64) -> Catalog {
    let n = 8 * fanout;
    let mut c = Catalog::new();
    c.insert(RelationBuilder::binary_from_pairs(
        "R",
        "x",
        "y",
        (0..n).map(|x| (x, x % 8)),
    ));
    c.insert(RelationBuilder::binary_from_pairs(
        "S",
        "y",
        "z",
        (0..n).map(|z| (z % 8, z)),
    ));
    // A third of T dangles, so the full reducer has something to filter.
    c.insert(RelationBuilder::binary_from_pairs(
        "T",
        "z",
        "w",
        (0..n + n / 2).map(|z| (z, z + 1000)),
    ));
    c.insert(RelationBuilder::binary_from_pairs(
        "U",
        "w",
        "v",
        (0..n).map(|z| (z + 1000, z)),
    ));
    c.insert(RelationBuilder::binary_from_pairs(
        "E",
        "a",
        "b",
        (0..nodes).flat_map(|a| (0..nodes).filter(move |&b| b != a).map(move |b| (a, b))),
    ));
    c
}

fn scan(atom: usize) -> Box<PhysicalNode> {
    Box::new(PhysicalNode::Scan {
        atom,
        log2_bound: None,
    })
}

/// Every plan kind the executor has, at one scale.
fn shapes(tag: &str, fanout: u64, nodes: u64) -> Vec<Shape> {
    let catalog = Arc::new(catalog(fanout, nodes));
    let path3 = JoinQuery::path(&["R", "S", "T"]);
    let r = catalog.get("R").unwrap();
    let part = |name: &str, parity: u64| {
        let rows = r.rows().filter(|row| row[0] % 2 == parity);
        PartitionBranch {
            relation: RelationBuilder::binary_from_pairs(
                name,
                "x",
                "y",
                rows.map(|t| (t[0], t[1])),
            )
            .into(),
            plan: PhysicalPlan::reduced(vec![0, 1, 2]),
            log2_bound: Some(40.0),
        }
    };
    let union = PhysicalPlan::from_root(PhysicalNode::PartitionedUnion {
        atom: 0,
        parts: vec![part("R#even", 0), part("R#odd", 1)],
        log2_bound: Some(41.0),
    });
    let pair = |a, b| {
        Box::new(PhysicalNode::HashJoin {
            left: scan(a),
            right: scan(b),
            log2_bound: Some(40.0),
        })
    };
    let bushy = PhysicalPlan::from_root(PhysicalNode::HashJoin {
        left: pair(0, 1),
        right: pair(2, 3),
        log2_bound: Some(41.0),
    });
    let shape = |kind: &str, query: JoinQuery, plan: PhysicalPlan| Shape {
        name: format!("{kind}@{tag}"),
        query,
        catalog: Arc::clone(&catalog),
        plan,
    };
    vec![
        shape(
            "chain",
            path3.clone(),
            PhysicalPlan::hash_chain(vec![0, 1, 2]),
        ),
        shape(
            "reduced",
            path3.clone(),
            PhysicalPlan::reduced(vec![0, 1, 2]),
        ),
        shape(
            "wcoj-chain",
            path3.clone(),
            PhysicalPlan::wcoj_then_chain(vec![0, 1], vec![2]),
        ),
        shape("union", path3, union),
        shape("bushy", JoinQuery::path(&["R", "S", "T", "U"]), bushy),
        shape(
            "wcoj",
            JoinQuery::triangle("E", "E", "E"),
            PhysicalPlan::wcoj(vec![0, 1, 2]),
        ),
    ]
}

/// Every plan kind at both scales.
fn both_scales() -> Vec<Shape> {
    let mut all = shapes("large", 40, 22);
    all.extend(shapes("small", 24, 18));
    all
}

/// The nested-loop oracle's row count for a shape.
fn truth(s: &Shape) -> usize {
    nested_loop_join(&s.query, &s.catalog, s.query.registry().names())
        .unwrap()
        .len()
}

#[test]
fn every_plan_kind_counts_like_a_fresh_run() {
    for shape in both_scales() {
        let name = &shape.name;
        let fresh = execute_physical_mode(
            &shape.query,
            &shape.catalog,
            &shape.plan,
            ExecMode::Vectorized,
        )
        .unwrap();
        let counted = count_physical(&shape.query, &shape.catalog, &shape.plan).unwrap();
        assert!(counted.output_size >= 4096, "{name}: output is large");
        assert_eq!(counted.output_size, fresh.output_size(), "{name}: size");
        assert_eq!(counted.counters, fresh.counters, "{name}: steps");
        assert_eq!(counted.certificate_violations(), 0, "{name}");
        assert_eq!(counted.output_size, truth(&shape), "{name}: oracle");
    }
}

/// A counted Yannakakis chain — alone or as every branch of a partitioned
/// union — requests no block as large as one column of any step it counts.
#[test]
fn a_counted_yannakakis_chain_allocates_no_chain_step() {
    for s in both_scales()
        .iter()
        .filter(|s| s.name.starts_with("reduced@") || s.name.starts_with("union@"))
    {
        assert_counted_chain_materializes_no_step(&s.name, &s.query, &s.catalog, &s.plan).unwrap();
    }
}

/// The six JOB-like serving shapes at 1 000 movies, on the plans the
/// planner picks for them: every one is a Yannakakis chain, directly or in
/// each partition branch, and counting it requests no block as large as a
/// column of its widest step.  Not every step: each chain starts with a key
/// join no larger than a relation, and the full reducer's hash indexes over
/// relations of up to 1 381 rows take 34 KB, as much as a column of a
/// 4 745-row step.  That no step at all is materialized is pinned on the
/// fixtures above, whose steps outgrow their relations.
#[test]
fn the_job_like_serving_shapes_count_without_materializing_them() {
    let catalog = lpb_datagen::job_like_catalog(&lpb_datagen::JobLikeConfig {
        movies: 1000,
        link_fanout: 2,
        seed: 23,
        ..lpb_datagen::JobLikeConfig::default()
    });
    for q in lpb_datagen::job_like_queries().into_iter().take(6) {
        let q = q.query;
        let plan = Optimizer::new().plan(&q, &catalog).unwrap().physical;
        let (largest, step_columns) = probe_counted_chain(q.name(), &q, &catalog, &plan).unwrap();
        let widest_step = step_columns.into_iter().max().unwrap_or(0);
        assert!(
            largest < widest_step,
            "{}: a counted run requested {largest} bytes at once, the widest step's column is \
             {widest_step}",
            q.name()
        );
    }
}

/// Domain of the regular relations below: a prime, so that every stride
/// and scale in `1..DOMAIN` is invertible modulo it.
const DOMAIN: u64 = 13;

/// Partners per value, on either side, in every regular relation.
const DEGREE: u64 = 6;

/// A relation in which every value of `0..DOMAIN` has exactly `DEGREE`
/// partners on either side — `a` joins `(a + k·stride + shift) mod DOMAIN`
/// for `k < DEGREE`, relabelled by `v ↦ (v·scale + shift) mod DOMAIN` — so
/// every step of a chain over such relations multiplies its input by
/// `DEGREE`, whatever the labels: each step is larger than any relation.
fn arb_regular_pairs() -> impl Strategy<Value = Vec<(u64, u64)>> {
    (1..DOMAIN, 1..DOMAIN, 0..DOMAIN).prop_map(|(stride, scale, shift)| {
        (0..DOMAIN)
            .flat_map(|a| {
                (0..DEGREE).map(move |k| {
                    let b = (a + k * stride + shift) % DOMAIN;
                    (a, (b * scale + shift) % DOMAIN)
                })
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The chains whose every step leaves few variables to join on — a
    /// 5-atom path in and out of order, a star, and two components (the
    /// prefix keeps no variable of the cross product ahead) — hold nothing
    /// larger than a relation when counted.
    #[test]
    fn narrow_counted_chains_allocate_no_chain_step(
        rpairs in arb_regular_pairs(),
        spairs in arb_regular_pairs(),
        tpairs in arb_regular_pairs(),
        upairs in arb_regular_pairs()
    ) {
        let mut catalog = Catalog::new();
        for (name, pairs) in [("R", rpairs), ("S", spairs), ("T", tpairs), ("U", upairs)] {
            catalog.insert(RelationBuilder::binary_from_pairs(name, "a", "b", pairs));
        }
        let path5 = JoinQuery::path(&["R", "S", "T", "U", "T"]);
        let query = |name: &str, atoms: &[(&str, [&str; 2])]| {
            let atoms = atoms.iter().map(|(rel, vars)| Atom::new(*rel, vars)).collect();
            JoinQuery::new(name, atoms).unwrap()
        };
        let star = query(
            "star",
            &[("R", ["X", "A"]), ("T", ["X", "B"]), ("U", ["X", "C"]), ("S", ["X", "D"])],
        );
        let apart = query(
            "two-components",
            &[("R", ["A", "B"]), ("S", ["B", "C"]), ("U", ["D", "E"])],
        );
        let narrow = [
            ("path5", path5.clone(), PhysicalPlan::reduced(vec![0, 1, 2, 3, 4])),
            ("path5-reversed", path5, PhysicalPlan::reduced(vec![4, 3, 2, 1, 0])),
            ("star", star, PhysicalPlan::reduced(vec![0, 1, 2, 3])),
            ("two-components", apart, PhysicalPlan::reduced(vec![0, 1, 2])),
        ];
        for (name, query, plan) in &narrow {
            assert_counted_chain_materializes_no_step(name, query, &catalog, plan)?;
        }
    }
}

/// One recorded step as the golden recordings spell it: label, rows,
/// certificate.
type Step = (&'static str, usize, Option<f64>);

/// The recording one plan must leave, materialized or counted: its steps in
/// order and its tallies.
struct Golden {
    steps: &'static [Step],
    certificates_checked: usize,
    certificate_violations: usize,
    parts_planned: usize,
    part_peaks: &'static [usize],
}

/// A hand-built plan of every root kind, on the small fixture catalog,
/// certified so that some steps pass and some violate.
fn golden_shapes() -> Vec<(&'static str, JoinQuery, PhysicalPlan)> {
    let catalog = catalog(2, 4);
    let path3 = JoinQuery::path(&["R", "S", "T"]);
    let scan_at = |atom, bound| {
        Box::new(PhysicalNode::Scan {
            atom,
            log2_bound: Some(bound),
        })
    };
    let join = |left, right, bound| {
        Box::new(PhysicalNode::HashJoin {
            left,
            right,
            log2_bound: Some(bound),
        })
    };
    let chain = |input, atoms: Vec<usize>, bounds: &[f64]| PhysicalNode::HashChain {
        input,
        atoms,
        step_bounds: bounds.iter().copied().map(Some).collect(),
    };
    let r = catalog.get("R").unwrap();
    let part = |name: &str, parity: u64| PartitionBranch {
        relation: RelationBuilder::binary_from_pairs(
            name,
            "x",
            "y",
            r.rows()
                .filter(|row| row[0] % 2 == parity)
                .map(|t| (t[0], t[1])),
        )
        .into(),
        plan: PhysicalPlan::from_root(chain(scan_at(0, 3.0), vec![1, 2], &[4.0, 3.5])),
        log2_bound: Some(4.0),
    };
    vec![
        (
            "scan",
            JoinQuery::path(&["R"]),
            PhysicalPlan::from_root(*scan_at(0, 4.0)),
        ),
        (
            "hash-chain",
            path3.clone(),
            PhysicalPlan::from_root(chain(scan_at(0, 4.0), vec![1, 2], &[5.0, 4.5])),
        ),
        (
            "bushy",
            JoinQuery::path(&["R", "S", "T", "U"]),
            PhysicalPlan::from_root(*join(
                join(scan_at(0, 4.0), scan_at(1, 4.0), 5.0),
                join(scan_at(2, 4.0), scan(3), 3.5),
                6.0,
            )),
        ),
        (
            "wcoj-chain",
            path3.clone(),
            PhysicalPlan::from_root(chain(
                Box::new(PhysicalNode::Wcoj {
                    atoms: vec![0, 1],
                    log2_bound: Some(5.0),
                }),
                vec![2],
                &[4.5],
            )),
        ),
        (
            "reduced",
            path3.clone(),
            PhysicalPlan::from_root(PhysicalNode::Reduced {
                atoms: vec![0, 1, 2],
                scan_bounds: vec![Some(4.0), Some(4.0), Some(4.0)],
                step_bounds: vec![None, Some(5.0), Some(4.5)],
            }),
        ),
        (
            "partitioned-union",
            path3,
            PhysicalPlan::from_root(PhysicalNode::PartitionedUnion {
                atom: 0,
                parts: vec![part("R#even", 0), part("R#odd", 1)],
                log2_bound: Some(5.0),
            }),
        ),
    ]
}

/// The golden recordings of [`golden_shapes`], in order.
const GOLDEN: [(&str, Golden); 6] = [
    (
        "scan",
        Golden {
            steps: &[("scan R", 16, Some(4.0))],
            certificates_checked: 1,
            certificate_violations: 0,
            parts_planned: 0,
            part_peaks: &[],
        },
    ),
    (
        "hash-chain",
        Golden {
            steps: &[
                ("scan R", 16, Some(4.0)),
                ("⋈ S", 32, Some(5.0)),
                ("⋈ T", 32, Some(4.5)),
            ],
            certificates_checked: 3,
            certificate_violations: 1,
            parts_planned: 0,
            part_peaks: &[],
        },
    ),
    (
        "bushy",
        Golden {
            steps: &[
                ("scan R", 16, Some(4.0)),
                ("scan S", 16, Some(4.0)),
                ("⋈ bushy[0|1]", 32, Some(5.0)),
                ("scan T", 24, Some(4.0)),
                ("scan U", 16, None),
                ("⋈ bushy[2|3]", 16, Some(3.5)),
                ("⋈ bushy[0,1|2,3]", 32, Some(6.0)),
            ],
            certificates_checked: 6,
            certificate_violations: 2,
            parts_planned: 0,
            part_peaks: &[],
        },
    ),
    (
        "wcoj-chain",
        Golden {
            steps: &[("wcoj path-3[0,1]", 32, Some(5.0)), ("⋈ T", 32, Some(4.5))],
            certificates_checked: 2,
            certificate_violations: 1,
            parts_planned: 0,
            part_peaks: &[],
        },
    ),
    (
        "reduced",
        Golden {
            steps: &[
                ("⋉ S", 16, Some(4.0)),
                ("⋉ T", 16, Some(4.0)),
                ("⋉ S", 16, Some(4.0)),
                ("⋉ R", 16, Some(4.0)),
                ("reduce R", 16, Some(4.0)),
                ("reduce S", 16, Some(4.0)),
                ("⋈ S", 32, Some(5.0)),
                ("reduce T", 16, Some(4.0)),
                ("⋈ T", 32, Some(4.5)),
            ],
            certificates_checked: 9,
            certificate_violations: 1,
            parts_planned: 0,
            part_peaks: &[],
        },
    ),
    (
        "partitioned-union",
        Golden {
            steps: &[
                ("[R#even] scan R#even", 8, Some(3.0)),
                ("[R#even] ⋈ S", 16, Some(4.0)),
                ("[R#even] ⋈ T", 16, Some(3.5)),
                ("[R#even] output R#even", 16, Some(4.0)),
                ("[R#odd] scan R#odd", 8, Some(3.0)),
                ("[R#odd] ⋈ S", 16, Some(4.0)),
                ("[R#odd] ⋈ T", 16, Some(3.5)),
                ("[R#odd] output R#odd", 16, Some(4.0)),
                ("∪ partitioned", 32, Some(5.0)),
            ],
            certificates_checked: 9,
            certificate_violations: 2,
            parts_planned: 2,
            part_peaks: &[16, 16],
        },
    ),
];

/// Check one recording against its golden copy, step for step.
fn assert_golden(name: &str, counters: &IntermediateCounters, golden: &Golden) {
    let steps: Vec<(&str, usize, Option<f64>)> = counters
        .steps()
        .iter()
        .map(|s| (s.label.as_str(), s.rows, s.log2_bound))
        .collect();
    assert_eq!(steps, golden.steps, "{name}: steps");
    assert_eq!(
        counters.certificates_checked(),
        golden.certificates_checked,
        "{name}: certificates checked"
    );
    assert_eq!(
        counters.certificate_violations(),
        golden.certificate_violations,
        "{name}: certificate violations"
    );
    assert_eq!(
        counters.parts_planned(),
        golden.parts_planned,
        "{name}: parts planned"
    );
    assert_eq!(
        counters.part_peaks(),
        golden.part_peaks,
        "{name}: part peaks"
    );
}

/// Every root kind records exactly the golden step sequence and tallies,
/// materialized and counted: same labels in the same order, same sizes,
/// same certificates, same part roll-ups.
#[test]
fn every_root_kind_records_its_golden_steps() {
    let catalog = catalog(2, 4);
    let shapes = golden_shapes();
    assert_eq!(shapes.len(), GOLDEN.len());
    for ((name, query, plan), (golden_name, golden)) in shapes.iter().zip(&GOLDEN) {
        assert_eq!(name, golden_name);
        let run = execute_physical_mode(query, &catalog, plan, ExecMode::Vectorized).unwrap();
        assert_golden(&format!("{name} (materialized)"), &run.counters, golden);
        let counted = count_physical(query, &catalog, plan).unwrap();
        assert_golden(&format!("{name} (counted)"), &counted.counters, golden);
        assert_eq!(counted.output_size, run.output_size(), "{name}: size");
    }
}

/// A materializing hash chain drops each intermediate as soon as the next
/// step has consumed it.  Over four atoms whose intermediates grow — 320
/// rows, then 12 800, each one column wider than the last — the thread's
/// live bytes peak below the sum of every intermediate's columns, which a
/// run that kept its intermediates to the end would hold at once.
#[test]
fn a_materializing_chain_releases_consumed_intermediates() {
    let catalog = catalog(40, 4);
    let query = JoinQuery::path(&["R", "S", "T", "U"]);
    let plan = PhysicalPlan::hash_chain(vec![0, 1, 2, 3]);
    let before = reset_live_peak();
    let run = execute_physical_mode(&query, &catalog, &plan, ExecMode::Vectorized).unwrap();
    let peak = PEAK_LIVE_BYTES.with(Cell::get) - before;
    // Step `i`'s intermediate has `i + 2` columns of `u64`.
    let columns: Vec<usize> = run
        .counters
        .sizes()
        .iter()
        .enumerate()
        .map(|(i, rows)| rows * (i + 2) * std::mem::size_of::<u64>())
        .collect();
    assert_eq!(columns.len(), 4);
    assert!(columns.windows(2).all(|w| w[0] < w[1]), "{columns:?} grow");
    let held_at_once: usize = columns.iter().sum();
    assert!(
        usize::try_from(peak).unwrap() < held_at_once,
        "the chain peaked at {peak} live bytes, its intermediates' columns sum to {held_at_once}"
    );
}

/// A counted partitioned union binds each branch's part without copying
/// its catalog: the run requests the same bytes whether the catalog caches
/// no statistic or 5 000 of them, and it leaves the cache as it found it.
#[test]
fn a_partition_branch_copies_no_cached_statistic() {
    let (name, query, plan) = golden_shapes().pop().unwrap();
    assert_eq!(name, "partitioned-union");
    let catalog = catalog(2, 4);
    let requested = |catalog: &Catalog| {
        let before = REQUESTED_BYTES.with(Cell::get);
        let counted = count_physical(&query, catalog, &plan).unwrap();
        let requested = REQUESTED_BYTES.with(Cell::get) - before;
        assert_eq!(counted.output_size, 32);
        requested
    };
    let bare = requested(&catalog);
    assert_eq!(catalog.cached_stats(), 0);
    for i in 0..5000 {
        let key = StatsKey::new("S", &["z"], &["y"], Norm::Finite(1.0 + f64::from(i)));
        catalog.record_statistic(key, 1.0);
    }
    let warm = requested(&catalog);
    assert_eq!(catalog.cached_stats(), 5000);
    assert_eq!(warm, bare, "bytes requested with 5 000 cached statistics");
}

/// R split by the parity of `x`; the even part's plan splits T again, by
/// `z < 8`, so the innermost branches bind T's parts over a view that binds
/// R's.
fn nested_union(catalog: &Catalog) -> PhysicalPlan {
    let [r_even, r_odd] = halves(
        &catalog.get("R").unwrap(),
        0,
        |x| x % 2 == 0,
        ["even", "odd"],
    );
    let [t_low, t_high] = halves(&catalog.get("T").unwrap(), 0, |z| z < 8, ["low", "high"]);
    let chain = |bounds: [f64; 3]| {
        PhysicalPlan::from_root(PhysicalNode::HashChain {
            input: Box::new(PhysicalNode::Scan {
                atom: 0,
                log2_bound: Some(bounds[0]),
            }),
            atoms: vec![1, 2],
            step_bounds: vec![Some(bounds[1]), Some(bounds[2])],
        })
    };
    let inner = PhysicalPlan::from_root(PhysicalNode::PartitionedUnion {
        atom: 2,
        parts: vec![
            PartitionBranch {
                relation: t_low,
                plan: PhysicalPlan::from_root(PhysicalNode::Reduced {
                    atoms: vec![2, 1, 0],
                    scan_bounds: vec![Some(3.0), Some(4.0), Some(3.0)],
                    step_bounds: vec![None, Some(3.0), Some(4.0)],
                }),
                log2_bound: Some(4.0),
            },
            PartitionBranch {
                relation: t_high,
                plan: chain([3.0, 4.0, 2.5]),
                log2_bound: Some(3.0),
            },
        ],
        log2_bound: Some(4.0),
    });
    PhysicalPlan::from_root(PhysicalNode::PartitionedUnion {
        atom: 0,
        parts: vec![
            PartitionBranch {
                relation: r_even,
                plan: inner,
                log2_bound: Some(4.0),
            },
            PartitionBranch {
                relation: r_odd,
                plan: chain([3.0, 4.0, 3.5]),
                log2_bound: Some(3.5),
            },
        ],
        log2_bound: Some(5.0),
    })
}

/// The recording of [`nested_union`], materialized or counted.
const NESTED: Golden = Golden {
    steps: &[
        ("[R#even] [T#low] ⋉ S", 8, Some(4.0)),
        ("[R#even] [T#low] ⋉ R#even", 8, Some(3.0)),
        ("[R#even] [T#low] ⋉ S", 4, Some(4.0)),
        ("[R#even] [T#low] ⋉ T#low", 4, Some(3.0)),
        ("[R#even] [T#low] reduce T#low", 4, Some(3.0)),
        ("[R#even] [T#low] reduce S", 4, Some(4.0)),
        ("[R#even] [T#low] ⋈ S", 4, Some(3.0)),
        ("[R#even] [T#low] reduce R#even", 8, Some(3.0)),
        ("[R#even] [T#low] ⋈ R#even", 8, Some(4.0)),
        ("[R#even] [T#low] output T#low", 8, Some(4.0)),
        ("[R#even] [T#high] scan R#even", 8, Some(3.0)),
        ("[R#even] [T#high] ⋈ S", 16, Some(4.0)),
        ("[R#even] [T#high] ⋈ T#high", 8, Some(2.5)),
        ("[R#even] [T#high] output T#high", 8, Some(3.0)),
        ("[R#even] ∪ partitioned", 16, Some(4.0)),
        ("[R#even] output R#even", 16, Some(4.0)),
        ("[R#odd] scan R#odd", 8, Some(3.0)),
        ("[R#odd] ⋈ S", 16, Some(4.0)),
        ("[R#odd] ⋈ T", 16, Some(3.5)),
        ("[R#odd] output R#odd", 16, Some(3.5)),
        ("∪ partitioned", 32, Some(5.0)),
    ],
    certificates_checked: 21,
    certificate_violations: 3,
    parts_planned: 4,
    part_peaks: &[16, 8, 16, 16],
};

/// A partitioned union inside a partition branch: the inner branches read
/// the outer branch's part through their parent's binding.  Materialized
/// and counted, it returns the nested-loop oracle's rows and records the
/// golden steps.
#[test]
fn a_nested_partitioned_union_matches_the_oracle() {
    let catalog = catalog(2, 4);
    let query = JoinQuery::path(&["R", "S", "T"]);
    let plan = nested_union(&catalog);
    let run = execute_physical_mode(&query, &catalog, &plan, ExecMode::Vectorized).unwrap();
    let truth = nested_loop_join(&query, &catalog, run.output.vars()).unwrap();
    assert_eq!(run.output.sorted_rows(), truth);
    let counted = count_physical(&query, &catalog, &plan).unwrap();
    assert_eq!(counted.output_size, truth.len());
    assert_golden("nested (materialized)", &run.counters, &NESTED);
    assert_golden("nested (counted)", &counted.counters, &NESTED);
}

/// Split `relation` into two parts named `{name}#{tags[0]}` and
/// `{name}#{tags[1]}`: the rows whose `column` passes `first`, and the rest.
fn halves(
    relation: &lpb_data::Relation,
    column: usize,
    first: impl Fn(u64) -> bool,
    tags: [&str; 2],
) -> [Arc<lpb_data::Relation>; 2] {
    let mut builders = tags.map(|tag| {
        RelationBuilder::new(
            format!("{}#{tag}", relation.name()),
            relation.schema().attrs().to_vec(),
        )
        .unwrap()
    });
    for row in relation.rows() {
        let side = usize::from(!first(row[column]));
        builders[side].push_codes(&row).unwrap();
    }
    builders.map(|b| Arc::new(b.build()))
}
