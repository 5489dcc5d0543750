//! Planner-adversarial workloads: queries on which the textbook
//! greedy-by-size join order is provably bad.
//!
//! The bound-driven optimizer in `lpb-exec` is only worth its planning time
//! if relation sizes alone mislead.  These generators construct exactly
//! that situation, two ways:
//!
//! * [`skewed_triangle_workload`] — a heavy-tailed power-law triangle: any
//!   left-deep hash plan must materialize a two-edge path intermediate of
//!   size `Σ_v deg(v)²`, which skew makes enormous, while the triangle
//!   output (and the WCOJ that produces it) stays small.  Degree-sequence
//!   ℓp-norms see the skew; `|E|` does not.
//! * [`misleading_chain_workload`] — a 3-atom chain `R ⋈ S ⋈ T` where `R`
//!   is the *smallest* relation but joins `S` on a hub value with a huge
//!   fan-out, so greedy (which starts from `R`) materializes `|R| · fanout`
//!   rows; starting from the selective `T` side keeps every intermediate
//!   tiny.  The `ℓ∞`/`ℓ2` norms of `deg_S(· | b)` expose the hub.
//! * [`bridged_chains_workload`] — the **bushy-vs-left-deep** adversary:
//!   two heavy 2-atom chains joined by a light bridge,
//!   `A1 ⋈ A2 ⋈ B ⋈ C1 ⋈ C2`.  Each chain collapses to a tiny result on
//!   its own (the selective outer atom keys into the heavy inner one), but
//!   *every* left-deep order must, one step before completing, hold a
//!   4-atom prefix that spans the bridge into the far heavy relation's
//!   `K`-fan-out — a `K/keep`-times-larger intermediate (40× at the
//!   default `K = 400`, `keep = 10`) than anything the bushy plan
//!   `(A1⋈A2⋈B) ⋈ (C1⋈C2)` materializes.  This is the classic
//!   bridged star/chain shape on which left-deep-only DPs are provably
//!   worse than bushy trees.
//!
//! * [`partition_skew_workload`] — the **degree-partitioning** adversary: a
//!   chain `R ⋈ S ⋈ T` whose middle relation is skewed in *both*
//!   directions (a few `b`-hubs fanning 400× into unique `c`s, plus a few
//!   `c`-hubs fanning 400× into unique `b`s).  Every monolithic order must
//!   enter `S` through one of the hub directions and pay its full fan-out,
//!   so the monolithic bound is provably loose; splitting `S` into its
//!   light and heavy degree parts gives each part one harmless entry side,
//!   and the sum of the per-part bounds (and the measured per-part peaks)
//!   undercuts the monolithic plan by more than an order of magnitude.
//!
//! * [`large_query_workload`] — the **LP-scaling** stress: a 12-atom,
//!   12-variable mix of a cyclic triangle core, a five-step key-join
//!   chain, and a four-leaf star.  No single join is adversarial; the
//!   adversary is *width* — the bound-driven DP must price hundreds of
//!   connected subqueries (the largest at the full 12-variable limit of
//!   the polymatroid LP) with zero product-bound fallbacks.
//!
//! * [`stale_stats_workload`] — the **adaptive-execution** adversary: the
//!   catalog's persisted statistics describe yesterday's `S` (hub on the
//!   `c` side), today's `S` has the hub flipped onto the `b` side.  The
//!   bound-driven plan is *certified wrong*: blind execution blows through
//!   its bound certificates by orders of magnitude, while a controller
//!   that reacts to the first violation, feeds the observed intermediate
//!   back, and re-plans the remainder finishes with a peak intermediate
//!   several times lower.
//!
//! All are deterministic and sized so that true cardinalities stay
//! computable in tests and CI.

use crate::powerlaw::{power_law_graph, PowerLawGraphConfig};
use lpb_core::{Atom, JoinQuery};
use lpb_data::{Catalog, RelationBuilder, StatisticsCollector};

/// A ready-to-plan workload: a query, its catalog, and a display name.
#[derive(Debug)]
pub struct PlannerWorkload {
    /// Display name for reports.
    pub name: &'static str,
    /// The query to plan.
    pub query: JoinQuery,
    /// The data it runs on.
    pub catalog: Catalog,
}

/// Deterministic skewed binary-relation pairs for differential executor
/// tests: `hubs` planted hub `y`-values each receiving `fanout` distinct
/// `x` values, over `background` uniform random pairs drawn from a small
/// domain (so duplicates and dense joins occur).  Same seed, same pairs —
/// the property tests derive `hubs`/`fanout`/`seed` from their strategy and
/// replay failures exactly.
pub fn skewed_pairs(hubs: u64, fanout: u64, background: usize, seed: u64) -> Vec<(u64, u64)> {
    use rand::Rng;
    let mut rng = crate::rng::seeded_rng(seed);
    let mut pairs: Vec<(u64, u64)> = Vec::with_capacity((hubs * fanout) as usize + background);
    for h in 0..hubs {
        for j in 0..fanout {
            pairs.push((1000 + h * 100 + j, h));
        }
    }
    for _ in 0..background {
        pairs.push((rng.gen_range(0u64..40), rng.gen_range(0u64..12)));
    }
    pairs
}

/// The skewed power-law triangle; see the module docs.  `scale = 1` is the
/// test size (~1.2k edge samples); benchmarks pass larger scales.
pub fn skewed_triangle_workload(scale: usize) -> PlannerWorkload {
    let scale = scale.max(1);
    let catalog_config = PowerLawGraphConfig {
        nodes: 150 * scale,
        edges: 600 * scale,
        exponent: 1.6,
        symmetric: true,
        seed: 0xBAD_5EED,
    };
    let mut catalog = Catalog::new();
    catalog.insert(power_law_graph("E", &catalog_config));
    PlannerWorkload {
        name: "skewed-triangle",
        query: JoinQuery::triangle("E", "E", "E"),
        catalog,
    }
}

/// The hub-fan-out chain; see the module docs.  `scale = 1` gives
/// `|R| = 20`, `|S| = 2·1000`, `|T| = 30`; `R` is strictly smallest so
/// greedy-by-size always seeds its order with the hub join.
pub fn misleading_chain_workload(scale: usize) -> PlannerWorkload {
    let scale = scale.max(1) as u64;
    let r_rows = 20 * scale;
    let hub_fanout = 1000 * scale;
    let spread = 1000 * scale;
    let t_rows = 30 * scale;

    // R(a, b): the smallest relation; every row hits the hub b = 0.
    let r = RelationBuilder::binary_from_pairs("R", "a", "b", (0..r_rows).map(|i| (i, 0u64)));
    // S(b, c): half the rows fan out of the hub b = 0, the rest spread over
    // distinct b values; every c value is unique, so deg_S(b | c) has
    // ℓ∞ = 1 — joining S from the c side is provably harmless.
    let s = RelationBuilder::binary_from_pairs(
        "S",
        "b",
        "c",
        (0..hub_fanout)
            .map(|i| (0u64, i))
            .chain((0..spread).map(|i| (i + 1, hub_fanout + i))),
    );
    // T(c, d): small and selective — only a few c values, most of them from
    // the spread region, a handful from the hub region so the output is
    // non-empty.
    let t = RelationBuilder::binary_from_pairs(
        "T",
        "c",
        "d",
        (0..t_rows).map(|i| {
            let c = if i < 5 {
                i // hub region: c ∈ Π_c(S where b = 0)
            } else {
                hub_fanout + (i - 5) * 7 % spread // spread region
            };
            (c, i)
        }),
    );
    let mut catalog = Catalog::new();
    catalog.insert(r);
    catalog.insert(s);
    catalog.insert(t);
    PlannerWorkload {
        name: "misleading-chain",
        query: JoinQuery::new(
            "chain",
            vec![
                Atom::new("R", &["A", "B"]),
                Atom::new("S", &["B", "C"]),
                Atom::new("T", &["C", "D"]),
            ],
        )
        .expect("chain query is well formed"),
        catalog,
    }
}

/// The bridged heavy chains; see the module docs.  `scale = 1` gives 8 hub
/// values, fan-out `K = 400` and 10 selective tuples per hub on each side:
/// `|A2| = |C1| = 3200`, `|A1| = |C2| = 80`, `|B| = 8`, output 800.
///
/// Shape (variables `X0 – X5`, one atom per consecutive pair):
///
/// ```text
/// A1(X0,X1) ⋈ A2(X1,X2) ⋈ B(X2,X3) ⋈ C1(X3,X4) ⋈ C2(X4,X5)
///  selective    heavy      bridge     heavy       selective
/// ```
///
/// Per hub `h`: `A2` fans `X2 = h` out to `K` distinct `X1` values of which
/// `A1` keeps exactly one (with 10 `X0` choices); mirrored on the `C` side.
/// Any left-deep order ends with a 4-atom prefix (`{A1,A2,B,C1}` or
/// `{A2,B,C1,C2}`) whose true size is `10 · hubs · K` — the far chain's
/// fan-out amplified by the near chain's kept tuples — while the bushy plan
/// joins two ~`10 · hubs`-row halves.  The ℓ∞ norms of `deg(· | X1)` /
/// `deg(· | X4)` prove both halves tiny, and `|A1| · |C2|` bounds the
/// output, so the bound-driven DP sees the bushy win at plan time.
pub fn bridged_chains_workload(scale: usize) -> PlannerWorkload {
    let scale = scale.max(1) as u64;
    let hubs = 8 * scale;
    let fanout = 400u64; // K: rows per hub in each heavy relation
    let keep = 10u64; // selective tuples per hub in A1 / C2

    // A1(a, b): per hub, `keep` rows all keyed to the single X1 value the
    // heavy A2 row j = 0 carries.
    let a1 = RelationBuilder::binary_from_pairs(
        "A1",
        "a",
        "b",
        (0..hubs).flat_map(|h| (0..keep).map(move |t| (h * keep + t, h * fanout))),
    );
    // A2(b, c): per hub h, `fanout` rows (h·K + j, h); X1 values are unique,
    // so deg_{A2}(c | b) has ℓ∞ = 1 — extending A1 through A2 is provably
    // harmless, while deg_{A2}(b | c) has ℓ∞ = K — entering A2 from the
    // bridge side is provably explosive.
    let a2 = RelationBuilder::binary_from_pairs(
        "A2",
        "b",
        "c",
        (0..hubs).flat_map(|h| (0..fanout).map(move |j| (h * fanout + j, h))),
    );
    // B(c, d): the light bridge, one row per hub.
    let b = RelationBuilder::binary_from_pairs("B", "c", "d", (0..hubs).map(|h| (h, h)));
    // C1(d, e) / C2(e, f): the A side mirrored.
    let c1 = RelationBuilder::binary_from_pairs(
        "C1",
        "d",
        "e",
        (0..hubs).flat_map(|h| (0..fanout).map(move |j| (h, h * fanout + j))),
    );
    let c2 = RelationBuilder::binary_from_pairs(
        "C2",
        "e",
        "f",
        (0..hubs).flat_map(|h| (0..keep).map(move |t| (h * fanout, h * keep + t))),
    );
    let mut catalog = Catalog::new();
    for rel in [a1, a2, b, c1, c2] {
        catalog.insert(rel);
    }
    PlannerWorkload {
        name: "bridged-chains",
        query: JoinQuery::new(
            "bridged",
            vec![
                Atom::new("A1", &["X0", "X1"]),
                Atom::new("A2", &["X1", "X2"]),
                Atom::new("B", &["X2", "X3"]),
                Atom::new("C1", &["X3", "X4"]),
                Atom::new("C2", &["X4", "X5"]),
            ],
        )
        .expect("bridged query is well formed"),
        catalog,
    }
}

/// The degree-partitioning adversary; see the module docs.  `scale = 1`
/// gives 8 hubs per direction, fan-out `K = 400` and `keep = 10` selective
/// tuples per hub: `|S| = 6400`, `|R| = |T| = 88`, output 160.
///
/// Shape (chain `R(A,B) ⋈ S(B,C) ⋈ T(C,D)`), with `S = S_bhub ∪ S_chub`:
///
/// ```text
/// S_bhub: b ∈ {0..h}        each fanning out to K unique c values
/// S_chub: c ∈ {c₀..c₀+h}    each fanned into by K unique b values
/// ```
///
/// `R` holds every `b`-hub once plus `keep` of each `c`-hub's unique `b`
/// values; `T` mirrors it (`keep` of each `b`-hub's unique `c` values plus
/// every `c`-hub once).  Joining `R ⋈ S` explodes through the `b`-hubs
/// (`h·K` rows) and `S ⋈ T` explodes through the `c`-hubs, so **every**
/// monolithic order materializes `≥ h·K` rows (orders starting at `S` scan
/// `2·h·K`).  Partitioning `S` by `deg(c|b)` separates the two hub
/// directions: the heavy part (`S_bhub`) is harmless entered from `T`
/// (`deg(b|c) = 1`), the light part (`S_chub`) is harmless entered from `R`
/// (`deg(c|b) = 1`), and the ℓ∞ norms prove both at plan time — per-part
/// peaks stay at `h·keep` rows, a `(K+keep)/(2·keep) ≈ 20×` win.
pub fn partition_skew_workload(scale: usize) -> PlannerWorkload {
    let scale = scale.max(1) as u64;
    let hubs = 8 * scale;
    let fanout = 400u64; // K: rows per hub in each direction of S
    let keep = 10u64; // selective tuples per hub in R / T

    // Disjoint id regions keep the two hub directions from colliding.
    let c_heavy = 1_000_000u64; // c values fanned out of the b-hubs
    let c_hub = 2_000_000u64; // the c-hubs themselves
    let b_light = 3_000_000u64; // b values fanning into the c-hubs

    // S(b, c): b-hubs fan out (deg(c|b) = K, c unique), c-hubs fan in
    // (deg(b|c) = K, b unique).
    let s = RelationBuilder::binary_from_pairs(
        "S",
        "b",
        "c",
        (0..hubs)
            .flat_map(|h| (0..fanout).map(move |j| (h, c_heavy + h * fanout + j)))
            .chain(
                (0..hubs)
                    .flat_map(|i| (0..fanout).map(move |j| (b_light + i * fanout + j, c_hub + i))),
            ),
    );
    // R(a, b): every b-hub once (the explosive side) plus `keep` rows into
    // each c-hub's unique-b region (the selective side).
    let r = RelationBuilder::binary_from_pairs(
        "R",
        "a",
        "b",
        (0..hubs).map(|h| (h, h)).chain((0..hubs).flat_map(|i| {
            (0..keep).map(move |t| (10_000 + i * keep + t, b_light + i * fanout + t))
        })),
    );
    // T(c, d): `keep` rows into each b-hub's unique-c region plus every
    // c-hub once — R mirrored.
    let t = RelationBuilder::binary_from_pairs(
        "T",
        "c",
        "d",
        (0..hubs)
            .flat_map(|h| (0..keep).map(move |tt| (c_heavy + h * fanout + tt, h * keep + tt)))
            .chain((0..hubs).map(|i| (c_hub + i, 20_000 + i))),
    );
    let mut catalog = Catalog::new();
    catalog.insert(r);
    catalog.insert(s);
    catalog.insert(t);
    PlannerWorkload {
        name: "partition-skew",
        query: JoinQuery::new(
            "partition-skew",
            vec![
                Atom::new("R", &["A", "B"]),
                Atom::new("S", &["B", "C"]),
                Atom::new("T", &["C", "D"]),
            ],
        )
        .expect("partition-skew query is well formed"),
        catalog,
    }
}

/// The **LP-scaling** workload: a 12-atom, 12-variable query mixing a
/// cyclic core with a long acyclic tail, sized so every baseline plan
/// still executes in milliseconds.  `scale = 1` gives `|G| = 656`, chain
/// relations of 38–158 rows, 16-row star leaves, output 5 376.
///
/// Shape (variables `X0 – X11`):
///
/// ```text
///          G(X0,X1) ⋈ G(X1,X2) ⋈ G(X2,X0)          cyclic core (triangle)
///        ⋈ C3(X2,X3) ⋈ C4(X3,X4) ⋈ … ⋈ C7(X6,X7)   acyclic key-join chain
///        ⋈ H1(X7,X8) ⋈ H2(X7,X9) ⋈ H3(X7,X10) ⋈ H4(X7,X11)   star tail
/// ```
///
/// `G` is an 8-node clique buried under `600·scale` bipartite background
/// edges whose source and destination id ranges are disjoint from each
/// other and from the clique, so the triangle closes *only* on the clique
/// (336 ordered triples) while `|G|` — the number greedy sees — is
/// dominated by edges that never survive one join.  The chain relations
/// carry one key-join row per clique node plus disconnected filler of
/// strictly increasing size, so size-ordering heuristics walk the chain in
/// exactly the wrong direction.  Each star leaf fans out 2×.
///
/// The point of this workload is *planner scale*, not a single adversarial
/// trap: at 12 atoms over 12 variables, the bound-driven DP must price
/// hundreds of connected subqueries through the LP (the largest at the
/// full 12-variable width) and is required to do so with zero product-
/// bound fallbacks — the end-to-end check that the n=12 solver path holds
/// up inside the optimizer, not just in isolation.
pub fn large_query_workload(scale: usize) -> PlannerWorkload {
    let scale = scale.max(1) as u64;
    let hub = 8u64; // clique nodes: the only place the triangle closes
    let fan = 2u64; // per-leaf fan-out of the star tail

    // G(src, dst): every ordered pair of clique nodes, plus a bipartite
    // background (src ∈ [1e3, ·), dst ∈ [1e5, ·), both disjoint from the
    // clique ids) that can neither extend a path nor close a cycle.
    let background = 600 * scale;
    let spread = 500 * scale;
    let g = RelationBuilder::binary_from_pairs(
        "G",
        "src",
        "dst",
        (0..hub)
            .flat_map(|i| (0..hub).filter(move |&j| j != i).map(move |j| (i, j)))
            .chain((0..background).map(|i| (1_000 + i, 100_000 + (i * 13 + 7) % spread))),
    );

    // C3..C7: the acyclic chain.  One key-join row per clique node (clique
    // node j threads through as 10_000·k + j at depth k) plus disconnected
    // filler whose size grows with depth, so greedy-by-size prefers the
    // wrong end of the chain.
    let chain_rel = |name: &'static str, depth: u64, filler: u64| {
        let lo = if depth == 1 { 0 } else { depth * 10_000 };
        let hi = (depth + 1) * 10_000;
        let fill_lo = 500_000 + depth * 10_000;
        RelationBuilder::binary_from_pairs(
            name,
            "a",
            "b",
            (0..hub)
                .map(move |j| (lo + j, hi + j))
                .chain((0..filler).map(move |i| (fill_lo + i, fill_lo + 5_000 + i))),
        )
    };
    let c3 = chain_rel("C3", 1, 30 * scale);
    let c4 = chain_rel("C4", 2, 60 * scale);
    let c5 = chain_rel("C5", 3, 90 * scale);
    let c6 = chain_rel("C6", 4, 120 * scale);
    let c7 = chain_rel("C7", 5, 150 * scale);

    // H1..H4: the star tail.  Each leaf fans every chain-end value
    // (60_000 + j) out to `fan` distinct leaves.
    let star_rel = |name: &'static str, k: u64| {
        RelationBuilder::binary_from_pairs(
            name,
            "a",
            "b",
            (0..hub).flat_map(move |j| (0..fan).map(move |t| (60_000 + j, k * 100 + j * fan + t))),
        )
    };
    let h1 = star_rel("H1", 1);
    let h2 = star_rel("H2", 2);
    let h3 = star_rel("H3", 3);
    let h4 = star_rel("H4", 4);

    let mut catalog = Catalog::new();
    for rel in [g, c3, c4, c5, c6, c7, h1, h2, h3, h4] {
        catalog.insert(rel);
    }
    PlannerWorkload {
        name: "large-mixed-12",
        query: JoinQuery::new(
            "large-mixed-12",
            vec![
                Atom::new("G", &["X0", "X1"]),
                Atom::new("G", &["X1", "X2"]),
                Atom::new("G", &["X2", "X0"]),
                Atom::new("C3", &["X2", "X3"]),
                Atom::new("C4", &["X3", "X4"]),
                Atom::new("C5", &["X4", "X5"]),
                Atom::new("C6", &["X5", "X6"]),
                Atom::new("C7", &["X6", "X7"]),
                Atom::new("H1", &["X7", "X8"]),
                Atom::new("H2", &["X7", "X9"]),
                Atom::new("H3", &["X7", "X10"]),
                Atom::new("H4", &["X7", "X11"]),
            ],
        )
        .expect("large-mixed-12 query is well formed"),
        catalog,
    }
}

/// The **stale-statistics** adversary; see the module docs.  `scale = 1`
/// gives `|R| = 20`, `|S| = 1019`, `|T| = 8000`, `|U| = 30`, output 30.
///
/// Shape (chain `R(A,B) ⋈ S(B,C) ⋈ T(C,D) ⋈ U(D,E)`), built twice:
///
/// ```text
/// yesterday's S (statistics source):  key join b→c, hub on the c side
///                                     (one c fanned into by 1000 b's)
/// today's S (what actually runs):     hub flipped — b = 0 fans out to
///                                     1000 unique c's in T's key region
/// ```
///
/// Yesterday's statistics are collected, persisted with
/// [`Catalog::save_statistics`], and loaded over today's data — exactly a
/// catalog whose saved statistics went stale between planning and
/// execution.  The stale `deg_S(c|b) = 1` certifies `R ⋈ S` at ~20 rows
/// and the full chain at ~160, so the planner picks the left-deep
/// `R, S, T, U` chain; today's hub makes `R ⋈ S` 1019 rows (first
/// violation) and `R ⋈ S ⋈ T` 8000 rows (the blind peak).  A controller
/// that suspends at the first violation and re-plans `{R⋈S, T, U}` with
/// exact observed statistics runs the remainder `U, T` first and never
/// materializes more than the 1019 rows it already holds — an ~8× peak
/// win over blind continuation.
pub fn stale_stats_workload(scale: usize) -> PlannerWorkload {
    let scale = scale.max(1) as u64;
    let keys = 20 * scale; // key-join rows shared by both versions of S
    let fanout = 1000 * scale; // the hub fan-out the stale statistics misplace
    let t_width = 8u64; // deg_T(d | c): rows per c value
    let u_rows = 30 * scale; // selective rows keying into T's unique d's
    let c_base = 10_000 * scale; // T's (and today's hub's) c id region

    // R(a, b): small and flat; joins S on B.
    let r = RelationBuilder::binary_from_pairs("R", "a", "b", (0..keys).map(|i| (i, i)));
    // T(c, d): `t_width` distinct d values per c across the whole c region;
    // d values are globally unique, so deg_T(c | d) = 1 and entering T from
    // the U side is provably harmless.
    let t = RelationBuilder::binary_from_pairs(
        "T",
        "c",
        "d",
        (0..fanout)
            .flat_map(move |c| (0..t_width).map(move |k| (c_base + c, (c_base + c) * t_width + k))),
    );
    // U(d, e): a few selective rows keying into T's unique d values.
    let u = RelationBuilder::binary_from_pairs(
        "U",
        "d",
        "e",
        (0..u_rows).map(move |j| ((c_base + 7 * j) * t_width, j)),
    );

    // Yesterday's S: a key join on the b side (deg(c|b) = 1) with the one
    // hub on the c side (deg(b|c) = fanout) — which is where the stale
    // statistics will keep claiming it is.
    let s_then = RelationBuilder::binary_from_pairs(
        "S",
        "b",
        "c",
        (0..keys)
            .map(|i| (i, i))
            .chain((0..fanout).map(|j| (100_000 + j, 9_999))),
    );
    // Today's S: the hub flipped onto the b side — b = 0 fans out to
    // `fanout` unique c values, all inside T's key region, so the blind
    // R ⋈ S ⋈ T prefix multiplies through the hub *and* T's width.
    let s_now = RelationBuilder::binary_from_pairs(
        "S",
        "b",
        "c",
        (0..fanout)
            .map(move |j| (0, c_base + j))
            .chain((1..keys).map(|i| (i, i))),
    );

    // Collect and persist yesterday's statistics…
    let mut then_catalog = Catalog::new();
    for rel in [r.clone(), s_then, t.clone(), u.clone()] {
        then_catalog.insert(rel);
    }
    let collector = StatisticsCollector::standard(4);
    for rel in ["R", "S", "T", "U"] {
        collector
            .materialize_relation(&then_catalog, rel)
            .expect("statistics materialize on generated data");
    }
    let path = std::env::temp_dir().join(format!(
        "lpbound_stale_stats_{}_{}.stats",
        std::process::id(),
        scale
    ));
    then_catalog
        .save_statistics(&path)
        .expect("statistics file is writable");

    // …and load them over today's data.
    let mut catalog = Catalog::new();
    for rel in [r, s_now, t, u] {
        catalog.insert(rel);
    }
    catalog
        .load_statistics(&path)
        .expect("statistics file loads");
    let _ = std::fs::remove_file(&path);

    PlannerWorkload {
        name: "stale-stats",
        query: JoinQuery::new(
            "stale-stats",
            vec![
                Atom::new("R", &["A", "B"]),
                Atom::new("S", &["B", "C"]),
                Atom::new("T", &["C", "D"]),
                Atom::new("U", &["D", "E"]),
            ],
        )
        .expect("stale-stats query is well formed"),
        catalog,
    }
}

/// Every planner workload at the given scale (used by the
/// `planner_quality` benchmark).
pub fn planner_workloads(scale: usize) -> Vec<PlannerWorkload> {
    vec![
        skewed_triangle_workload(scale),
        misleading_chain_workload(scale),
        bridged_chains_workload(scale),
        partition_skew_workload(scale),
        large_query_workload(scale),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpb_data::Norm;

    #[test]
    fn triangle_workload_is_deterministic_and_skewed() {
        let a = skewed_triangle_workload(1);
        let b = skewed_triangle_workload(1);
        let ea = a.catalog.get("E").unwrap();
        let eb = b.catalog.get("E").unwrap();
        assert_eq!(ea.len(), eb.len());
        assert!(ea.len() > 300);
        // Heavy tail: the max degree dwarfs the average.
        let deg = ea.degree_sequence(&["dst"], &["src"]).unwrap();
        assert!(
            deg.max_degree() as f64 > 8.0 * deg.average_degree(),
            "max {} avg {}",
            deg.max_degree(),
            deg.average_degree()
        );
    }

    #[test]
    fn chain_workload_sizes_mislead_greedy() {
        let w = misleading_chain_workload(1);
        let r = w.catalog.get("R").unwrap();
        let s = w.catalog.get("S").unwrap();
        let t = w.catalog.get("T").unwrap();
        // R is the smallest (greedy's seed), but its hub join explodes.
        assert!(r.len() < t.len() && t.len() < s.len());
        // The hub: every R row matches 1000 S rows.
        let linf = w
            .catalog
            .log_norm("S", &["c"], &["b"], Norm::Infinity)
            .unwrap();
        assert!((linf - 1000.0f64.log2()).abs() < 1e-9);
        // ...while from the c side S is a key join.
        let linf_rev = w
            .catalog
            .log_norm("S", &["b"], &["c"], Norm::Infinity)
            .unwrap();
        assert_eq!(linf_rev, 0.0);
        // The workload has a non-empty output (T hits the hub region).
        assert_eq!(w.query.n_atoms(), 3);
    }

    #[test]
    fn partition_skew_shape_is_hub_skewed_in_both_directions() {
        let w = partition_skew_workload(1);
        let (r, s, t) = (
            w.catalog.get("R").unwrap(),
            w.catalog.get("S").unwrap(),
            w.catalog.get("T").unwrap(),
        );
        assert_eq!(s.len(), 6400);
        assert_eq!(r.len(), 88);
        assert_eq!(t.len(), 88);
        // Both directions of S are hub-skewed with 400-way fan-outs…
        let out = w
            .catalog
            .log_norm("S", &["c"], &["b"], lpb_data::Norm::Infinity)
            .unwrap();
        assert!((out - 400.0f64.log2()).abs() < 1e-9);
        let into = w
            .catalog
            .log_norm("S", &["b"], &["c"], lpb_data::Norm::Infinity)
            .unwrap();
        assert!((into - 400.0f64.log2()).abs() < 1e-9);
        // …while the average degree stays ≈ 2: the monolithic ℓ∞ is loose.
        let avg = s.len() as f64 / s.distinct_count(&["b"]).unwrap() as f64;
        assert!(avg < 4.0, "avg degree {avg}");
        // R and T are flat — only S is a partition candidate.
        for (rel, v, u) in [
            ("R", "a", "b"),
            ("R", "b", "a"),
            ("T", "c", "d"),
            ("T", "d", "c"),
        ] {
            let linf = w.catalog.log_norm(rel, &[v], &[u], Norm::Infinity).unwrap();
            assert_eq!(linf, 0.0, "{rel} deg({v}|{u}) must be flat");
        }
        assert_eq!(w.query.n_atoms(), 3);
    }

    #[test]
    fn large_query_workload_spans_twelve_variables_with_a_cyclic_core() {
        let w = large_query_workload(1);
        assert_eq!(w.query.n_atoms(), 12);
        assert_eq!(w.query.n_vars(), 12);
        // Deterministic across calls.
        let w2 = large_query_workload(1);
        for rel in ["G", "C3", "C7", "H4"] {
            assert_eq!(
                w.catalog.get(rel).unwrap().len(),
                w2.catalog.get(rel).unwrap().len(),
                "{rel} must be deterministic"
            );
        }
        // The clique plus background: greedy sees 656 edges, the triangle
        // closes on 56 of them.
        assert_eq!(w.catalog.get("G").unwrap().len(), 56 + 600);
        // Chain filler sizes strictly increase with depth, so size-order
        // heuristics walk the chain backwards.
        let sizes: Vec<usize> = ["C3", "C4", "C5", "C6", "C7"]
            .iter()
            .map(|r| w.catalog.get(r).unwrap().len())
            .collect();
        assert!(sizes.windows(2).all(|p| p[0] < p[1]), "sizes {sizes:?}");
        // Every chain step is a key join in both directions…
        for rel in ["C3", "C4", "C5", "C6", "C7"] {
            for (v, u) in [("b", "a"), ("a", "b")] {
                let linf = w.catalog.log_norm(rel, &[v], &[u], Norm::Infinity).unwrap();
                assert_eq!(linf, 0.0, "{rel} deg({v}|{u}) must be flat");
            }
        }
        // …and each star leaf fans out exactly 2×.
        let fan = w
            .catalog
            .log_norm("H1", &["b"], &["a"], Norm::Infinity)
            .unwrap();
        assert!((fan - 1.0).abs() < 1e-9);
    }

    #[test]
    fn stale_stats_catalog_lies_about_todays_hub_direction() {
        let w = stale_stats_workload(1);
        // The persisted (stale) statistics claim S is a key join from b…
        let stale = w
            .catalog
            .log_norm("S", &["c"], &["b"], Norm::Infinity)
            .unwrap();
        assert_eq!(stale, 0.0, "stale stats must claim deg_S(c|b) = 1");
        // …while today's relation fans b = 0 out 1000 ways.
        let actual = w
            .catalog
            .get("S")
            .unwrap()
            .degree_sequence(&["c"], &["b"])
            .unwrap();
        assert_eq!(actual.max_degree(), 1000, "today's hub is on the b side");
        // Deterministic across calls (the temp stats file is pid-scoped).
        let w2 = stale_stats_workload(1);
        for rel in ["R", "S", "T", "U"] {
            assert_eq!(
                w.catalog.get(rel).unwrap().len(),
                w2.catalog.get(rel).unwrap().len(),
                "{rel} must be deterministic"
            );
        }
        assert_eq!(w.query.n_atoms(), 4);
    }

    #[test]
    fn stale_stats_static_plan_violates_and_adaptive_beats_it_twofold() {
        let w = stale_stats_workload(1);
        let optimizer = lpb_exec::Optimizer::new();
        let plan = optimizer.plan(&w.query, &w.catalog).unwrap();
        // Blind static execution blows through its certificates…
        let blind = lpb_exec::execute_physical_mode(
            &w.query,
            &w.catalog,
            &plan.physical,
            lpb_exec::ExecMode::Vectorized,
        )
        .unwrap();
        assert!(
            blind.certificate_violations() > 0,
            "the stale plan must violate its own certificates"
        );
        // …the adaptive controller reacts, re-plans, and finishes with the
        // same answer at a peak at least 2× lower.
        let adaptive = lpb_exec::AdaptiveExecutor::new(optimizer)
            .run(&w.query, &w.catalog, &plan.physical)
            .unwrap();
        assert!(adaptive.replans >= 1, "at least one reactive re-plan");
        assert_eq!(adaptive.unhandled_violations(), 0);
        assert_eq!(adaptive.bound_fallbacks, 0, "delta re-plans stay bounded");
        assert!(
            adaptive.bounds_reused > 0,
            "untouched sub-joins reuse bounds"
        );
        assert_eq!(adaptive.output.len(), blind.output.len());
        let blind_peak = blind.counters.max_intermediate();
        let adaptive_peak = adaptive.max_intermediate();
        assert!(
            adaptive_peak * 2 <= blind_peak,
            "adaptive peak {adaptive_peak} must be ≥2× below blind peak {blind_peak}"
        );
    }

    #[test]
    fn bridged_chains_shape_is_adversarial_for_left_deep_orders() {
        let w = bridged_chains_workload(1);
        let (a1, a2, b, c1, c2) = (
            w.catalog.get("A1").unwrap(),
            w.catalog.get("A2").unwrap(),
            w.catalog.get("B").unwrap(),
            w.catalog.get("C1").unwrap(),
            w.catalog.get("C2").unwrap(),
        );
        // Two heavy chains, light bridge, selective ends.
        assert_eq!(a2.len(), c1.len());
        assert!(b.len() < a1.len() && a1.len() < a2.len());
        assert_eq!(a1.len(), c2.len());
        // Walking outward-in is provably harmless (key joins)…
        let harmless = w
            .catalog
            .log_norm("A2", &["c"], &["b"], Norm::Infinity)
            .unwrap();
        assert_eq!(harmless, 0.0);
        // …while entering a heavy chain from the bridge side fans out 400×.
        let explosive = w
            .catalog
            .log_norm("A2", &["b"], &["c"], Norm::Infinity)
            .unwrap();
        assert!((explosive - 400.0f64.log2()).abs() < 1e-9);
        let mirrored = w
            .catalog
            .log_norm("C1", &["e"], &["d"], Norm::Infinity)
            .unwrap();
        assert!((mirrored - 400.0f64.log2()).abs() < 1e-9);
        assert_eq!(w.query.n_atoms(), 5);
    }
}
