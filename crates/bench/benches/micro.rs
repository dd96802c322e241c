//! Criterion micro-benchmarks over the algorithmic building blocks.
//!
//! These quantify the per-operation costs that DESIGN.md's design notes
//! reason about: one sink-constrained Dijkstra per SMRP join, an `O(N)`
//! stats refresh per tree mutation, one multi-target Dijkstra per local
//! detour.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use smrp_core::recovery::{self, DetourKind};
use smrp_core::{SmrpConfig, SmrpSession, SpfSession};
use smrp_net::transit_stub::TransitStubConfig;
use smrp_net::waxman::WaxmanConfig;
use smrp_net::{dijkstra, FailureScenario, Graph, NodeId};

fn topology() -> Graph {
    WaxmanConfig::new(100)
        .alpha(0.2)
        .seed(99)
        .generate()
        .expect("valid parameters")
        .into_graph()
}

fn members(graph: &Graph, count: usize) -> (NodeId, Vec<NodeId>) {
    // Deterministic spread: source is node 0, members stride the id space.
    let n = graph.node_count();
    let source = NodeId::new(0);
    let members = (1..=count)
        .map(|i| NodeId::new(i * (n - 1) / count))
        .collect();
    (source, members)
}

fn bench_dijkstra(c: &mut Criterion) {
    let g = topology();
    let src = NodeId::new(0);
    let dst = NodeId::new(g.node_count() - 1);
    c.bench_function("dijkstra/point_to_point_n100", |b| {
        b.iter(|| dijkstra::shortest_path(black_box(&g), src, dst))
    });
    c.bench_function("dijkstra/full_tree_n100", |b| {
        b.iter(|| dijkstra::ShortestPathTree::compute(black_box(&g), src))
    });
    // The BENCH_scale n=4000 shape: large enough that adjacency layout,
    // not arithmetic, sets the cost of a full tree.
    let ts = TransitStubConfig::new()
        .transit_nodes(40)
        .stubs_per_transit_node(9)
        .stub_nodes(11)
        .seed(0x5CA1E + 4_000)
        .generate()
        .expect("valid parameters")
        .into_graph();
    c.bench_function("dijkstra/full_tree_transit_stub_n4000", |b| {
        b.iter(|| dijkstra::ShortestPathTree::compute(black_box(&ts), src))
    });
}

fn bench_tree_construction(c: &mut Criterion) {
    let g = topology();
    let (source, members) = members(&g, 30);
    c.bench_function("build/smrp_tree_30_members", |b| {
        b.iter(|| {
            let mut sess =
                SmrpSession::new(&g, source, SmrpConfig::default()).expect("valid session");
            for &m in &members {
                sess.join(m).expect("member joins");
            }
            black_box(sess.tree().member_count())
        })
    });
    c.bench_function("build/spf_tree_30_members", |b| {
        b.iter(|| {
            let mut sess = SpfSession::new(&g, source).expect("valid session");
            for &m in &members {
                sess.join(m).expect("member joins");
            }
            black_box(sess.tree().member_count())
        })
    });
}

fn bench_reshape(c: &mut Criterion) {
    let g = topology();
    let (source, members) = members(&g, 30);
    let mut base = SmrpSession::new(
        &g,
        source,
        SmrpConfig {
            auto_reshape: false,
            ..SmrpConfig::default()
        },
    )
    .expect("valid session");
    for &m in &members {
        base.join(m).expect("member joins");
    }
    c.bench_function("reshape/full_sweep_30_members", |b| {
        b.iter_batched(
            || base.clone(),
            |mut sess| black_box(sess.reshape_sweep()),
            BatchSize::SmallInput,
        )
    });
}

fn bench_recovery(c: &mut Criterion) {
    let g = topology();
    let (source, members) = members(&g, 30);
    let mut sess = SmrpSession::new(&g, source, SmrpConfig::default()).expect("valid session");
    for &m in &members {
        sess.join(m).expect("member joins");
    }
    let tree = sess.tree();
    let member = members[0];
    let link = recovery::worst_case_failure_for(&g, tree, member).expect("worst-case link");
    let scenario = FailureScenario::link(link);
    c.bench_function("recovery/local_detour", |b| {
        b.iter(|| recovery::recover(&g, tree, &scenario, member, DetourKind::Local))
    });
    c.bench_function("recovery/global_detour", |b| {
        b.iter(|| recovery::recover(&g, tree, &scenario, member, DetourKind::Global))
    });
    c.bench_function("recovery/affected_members", |b| {
        b.iter(|| recovery::affected_members(&g, tree, &scenario))
    });
}

fn bench_topology_generation(c: &mut Criterion) {
    c.bench_function("waxman/generate_n100_a02", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            WaxmanConfig::new(100)
                .alpha(0.2)
                .seed(seed)
                .generate()
                .expect("valid parameters")
                .node_count()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_dijkstra,
        bench_tree_construction,
        bench_reshape,
        bench_recovery,
        bench_topology_generation
}
criterion_main!(benches);
