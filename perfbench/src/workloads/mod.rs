//! The four workloads and the helpers they share.

pub mod campaign;
pub mod churn;
pub mod hierarchy;
pub mod scale;

use smrp_net::transit_stub::TransitStubConfig;
use smrp_net::Graph;
use smrp_proto::{ControlCounters, MultiRecoveryReport};

use crate::bench::Counts;

/// SplitMix64: derives independent sub-seeds and draws from one seed.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The workload seed mixed with a per-use salt.
pub fn sub_seed(seed: u64, salt: u64) -> u64 {
    SplitMix::new(seed ^ salt).next_u64()
}

/// The BENCH_scale transit-stub shapes, landing exactly on `n` nodes.
pub fn transit_stub(n: usize, seed: u64) -> Graph {
    let (transit, stubs, stub_nodes) = match n {
        // 40 + 40·9·11
        4_000 => (40, 9, 11),
        // 100 + 100·21·19
        40_000 => (100, 21, 19),
        other => panic!("no transit-stub shape for n={other}"),
    };
    let graph = TransitStubConfig::new()
        .transit_nodes(transit)
        .stubs_per_transit_node(stubs)
        .stub_nodes(stub_nodes)
        .seed(seed)
        .generate()
        .expect("transit-stub parameters are valid")
        .into_graph();
    assert_eq!(graph.node_count(), n, "shape must land on the target size");
    graph
}

/// Control messages by class: hello, refresh, setup, leave.
pub fn ctrl_array(c: &ControlCounters) -> [u64; 4] {
    [c.hellos, c.refreshes, c.setups, c.leaves]
}

/// Adds one simulator run's counters to `counts`.
pub fn count_report(counts: &mut Counts, report: &MultiRecoveryReport) {
    counts.add("proto.runs", 1.0);
    counts.add("sim.msgs_delivered", report.messages_delivered as f64);
    counts.add("sim.msgs_dropped", report.messages_dropped as f64);
    let h = &report.health;
    counts.add("proto.retransmits", h.retransmits as f64);
    counts.add("proto.acks", h.acks as f64);
    counts.add("proto.dup_drops", h.dup_drops as f64);
    counts.add("proto.retry_exhaustions", h.retry_exhaustions as f64);
    counts.add(
        "proto.channel_lost",
        h.loss_by_class.values().sum::<u64>() as f64,
    );
    for g in &report.groups {
        let [hello, refresh, setup, leave] = ctrl_array(&g.control);
        counts.add("proto.ctrl.hello", hello as f64);
        counts.add("proto.ctrl.refresh", refresh as f64);
        counts.add("proto.ctrl.setup", setup as f64);
        counts.add("proto.ctrl.leave", leave as f64);
    }
}

/// Sums control counters element-wise.
pub fn add_ctrl(into: &mut [u64; 4], c: &ControlCounters) {
    for (a, b) in into.iter_mut().zip(ctrl_array(c)) {
        *a += b;
    }
}
