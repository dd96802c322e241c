//! Golden-trace regression test for the canonical Figure 1 experiment,
//! run as a single group (M = 1) of the one failure runner.
//!
//! This test pins the run down at the message level: the exact sequence
//! of `Setup` sends after the A–D cut (the local-detour graft propagating
//! hop by hop) must match a golden transcript, and the measured
//! restoration latencies, message counts and control-plane health must
//! equal pinned literals to the bit. Any change to lane dispatch, timer
//! ordering or reliable sequencing that perturbs the wire behavior shows
//! up here as a diff.

use smrp_core::SmrpConfig;
use smrp_metrics::ControlHealth;
use smrp_net::FailureScenario;
use smrp_proto::{
    FailureTiming, InjectionTiming, MultiSession, ProtoSession, RecoveryStrategy, TreeProtocol,
};
use smrp_sim::{SimTime, TraceEvent, TraceLog};

/// Every post-failure `Setup` send of the Figure 1 local-detour recovery,
/// exactly as the multi-session engine emits it today. The reliable
/// envelope (seq/base) and the group tag are part of the pinned surface
/// on purpose: they are the sharding seam this test guards.
/// The whole recovery is one hop: member D (`n4`) detects the cut at
/// 130 ms (one missed hello past the 100 ms failure) and grafts straight
/// to the nearest on-tree node C (`n3`).
const GOLDEN_SETUP_SENDS: &[&str] = &["130.00ms n4->n3 GroupMsg { group: GroupId(0), inner: \
     Reliable { seq: 0, base: 0, inner: Setup { path: [NodeId(4), NodeId(3)], idx: 1 } } }"];

fn setup_sends(trace: &TraceLog, after: SimTime) -> Vec<String> {
    trace
        .entries()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Sent {
                time,
                from,
                to,
                what,
            } if *time >= after && what.contains("Setup") => {
                Some(format!("{:.2}ms {from}->{to} {what}", time.as_ms()))
            }
            _ => None,
        })
        .collect()
}

#[test]
fn figure1_local_detour_trace_is_golden() {
    let (graph, nodes) = smrp_core::paper::figure1_graph();
    let session = ProtoSession::build(
        &graph,
        nodes.s,
        &[nodes.c, nodes.d],
        TreeProtocol::Smrp(SmrpConfig::default()),
    )
    .unwrap();
    let l_ad = graph.link_between(nodes.a, nodes.d).unwrap();
    let scenario = FailureScenario::link(l_ad);
    let fail_at = SimTime::from_ms(100.0);
    let timing = InjectionTiming::Once(FailureTiming::persistent(fail_at));
    let until = SimTime::from_ms(3000.0);
    let channel = smrp_sim::ChannelSpec::perfect();

    let multi = MultiSession::from_sessions(vec![session]);
    let (report, trace) = multi.run_failure_spec_traced(
        &scenario,
        RecoveryStrategy::LocalDetour,
        timing,
        &channel,
        until,
        TraceLog::new(65_536),
    );
    assert_eq!(trace.discarded(), 0, "trace capacity must hold the run");

    // Member D restores 34 ms after the cut; C never lost service.
    assert_eq!(report.groups.len(), 1);
    assert_eq!(
        report.groups[0].restorations,
        vec![(nodes.d, Some(SimTime::from_ns(34_000_000)))]
    );
    assert_eq!(report.groups[0].unaffected, vec![nodes.c]);
    assert_eq!(report.messages_delivered, 3931);
    assert_eq!(report.messages_dropped, 81);
    assert_eq!(
        report.health,
        ControlHealth {
            retransmits: 1,
            acks: 177,
            ..ControlHealth::default()
        }
    );

    let actual = setup_sends(&trace, fail_at);
    assert!(
        !actual.is_empty(),
        "the local detour must graft via Setup messages"
    );
    let expected: Vec<String> = GOLDEN_SETUP_SENDS.iter().map(|s| s.to_string()).collect();
    assert_eq!(
        actual,
        expected,
        "Setup-send trace diverged from the golden transcript.\nactual:\n{}",
        actual.join("\n")
    );
}
