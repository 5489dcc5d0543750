//! One `ColumnBuffers` free list serving many plans back to back — what a
//! serving worker does — must be invisible in the results: every run
//! returns the rows, the step recording and the certificate tally of a
//! fresh `execute_physical_mode` call (and the nested-loop oracle's rows),
//! whatever ran on the same buffers before it; and once the list has seen
//! the rotation, further rotations allocate no large buffer at all.

use lpb_core::JoinQuery;
use lpb_data::{Catalog, RelationBuilder};
use lpb_exec::oracle::nested_loop_join;
use lpb_exec::{
    execute_physical_mode, execute_physical_with_buffers, BufferCounters, ColumnBuffers, ExecMode,
    PartitionBranch, PhysicalNode, PhysicalPlan,
};
use std::sync::Arc;

/// One served shape: a query, the catalog it runs on, a hand-built plan.
struct Shape {
    name: String,
    query: JoinQuery,
    catalog: Arc<Catalog>,
    plan: PhysicalPlan,
}

/// Path relations with `fanout` rows per join value (so `R ⋈ S` and
/// everything after it has `8 · fanout²` rows) and a complete digraph `E`
/// on `nodes` nodes (`nodes · (nodes-1) · (nodes-2)` directed triangles).
/// Every output here is above the 4096-row size from which columns are
/// recycled, and the two scales differ, so a buffer that served a large
/// output next serves a smaller one and the other way round.
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

/// The four plan kinds the executor has, at one scale.
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
            "reduced",
            path3.clone(),
            PhysicalPlan::reduced(vec![0, 1, 2]),
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

/// large → small → large, all four kinds at each scale.
fn rotation() -> Vec<Shape> {
    let mut all = shapes("large", 40, 22);
    all.extend(shapes("small", 24, 18));
    all.extend(shapes("large-again", 40, 22));
    all
}

#[test]
fn one_free_list_serves_every_shape_like_a_fresh_run() {
    let counters = Arc::new(BufferCounters::default());
    let buffers = ColumnBuffers::recycling(Arc::clone(&counters));
    for shape in rotation() {
        let Shape {
            name,
            query,
            catalog,
            plan,
        } = &shape;
        let fresh = execute_physical_mode(query, catalog, plan, ExecMode::Vectorized).unwrap();
        let recycled = execute_physical_with_buffers(query, catalog, plan, &buffers).unwrap();
        assert!(recycled.output_size() >= 4096, "{name}: output is large");
        assert_eq!(recycled.output.vars(), fresh.output.vars(), "{name}");
        let rows = recycled.output.sorted_rows();
        assert_eq!(rows, fresh.output.sorted_rows(), "{name}: rows");
        assert_eq!(
            recycled.counters.steps(),
            fresh.counters.steps(),
            "{name}: steps"
        );
        assert_eq!(recycled.certificate_violations(), 0, "{name}");
        let truth = nested_loop_join(query, catalog, recycled.output.vars()).unwrap();
        assert_eq!(rows, truth, "{name}: oracle");
    }
    assert!(counters.reused() > 0, "the list served buffers");
    // Every run has been dropped: all that is left sits in the list, and
    // goes with it.
    assert!(counters.bytes_retained() > 0);
    drop(buffers);
    assert_eq!(counters.bytes_retained(), 0);
}

/// A buffer that held a large output comes back for a smaller one with
/// room to spare; nothing of the earlier rows may show.
#[test]
fn a_recycled_buffer_never_exposes_an_earlier_output() {
    let counters = Arc::new(BufferCounters::default());
    let buffers = ColumnBuffers::recycling(Arc::clone(&counters));
    let large = &shapes("large", 40, 22)[0];
    let small = &shapes("small", 24, 18)[0];
    let run =
        |s: &Shape| execute_physical_with_buffers(&s.query, &s.catalog, &s.plan, &buffers).unwrap();
    let big_rows = run(large).output_size();
    let reused_before = counters.reused();
    let out = run(small);
    assert!(
        counters.reused() > reused_before,
        "the small run reused buffers"
    );
    assert!(out.output_size() < big_rows);
    assert_eq!(out.output_size(), 8 * 24 * 24);
    for c in 0..out.output.vars().len() {
        assert_eq!(out.output.col(c).len(), out.output_size());
    }
    assert_eq!(
        out.output.sorted_rows(),
        nested_loop_join(&small.query, &small.catalog, out.output.vars()).unwrap()
    );
}

/// Steady state: once the list has seen the rotation, serving it again
/// takes every large buffer from the list.
#[test]
fn a_warm_list_allocates_no_large_buffer() {
    let counters = Arc::new(BufferCounters::default());
    let buffers = ColumnBuffers::recycling(Arc::clone(&counters));
    let shapes = rotation();
    let rotate = || {
        for s in &shapes {
            let run =
                execute_physical_with_buffers(&s.query, &s.catalog, &s.plan, &buffers).unwrap();
            assert_eq!(run.certificate_violations(), 0);
        }
        (counters.fresh(), counters.reused())
    };
    let (cold_fresh, cold_reused) = rotate();
    assert!(
        cold_fresh > 0,
        "an empty list cannot serve the first rotation"
    );
    let (fresh, reused) = rotate();
    assert_eq!(fresh, cold_fresh, "a warm rotation allocates nothing large");
    assert!(reused > cold_reused);
    // The private retention bound is 24 MiB per list.
    assert!(counters.bytes_retained() <= 24 << 20);
}

/// Without a free list nothing is kept: `execute_physical_mode` runs on the
/// allocator, whatever lists exist elsewhere, and neither feeds them nor
/// draws on them.
#[test]
fn a_plain_run_retains_nothing() {
    let counters = Arc::new(BufferCounters::default());
    let buffers = ColumnBuffers::recycling(Arc::clone(&counters));
    let s = &shapes("large", 40, 22)[0];
    let warm = execute_physical_with_buffers(&s.query, &s.catalog, &s.plan, &buffers).unwrap();
    let before = (
        counters.reused(),
        counters.fresh(),
        counters.bytes_retained(),
    );
    let plain = execute_physical_mode(&s.query, &s.catalog, &s.plan, ExecMode::Vectorized).unwrap();
    assert_eq!(plain.output, warm.output);
    drop(plain);
    assert_eq!(
        (
            counters.reused(),
            counters.fresh(),
            counters.bytes_retained()
        ),
        before
    );
}
