#![warn(missing_docs)]

//! Message-level SMRP: the protocol machinery of §3.2–§3.3 running on the
//! discrete-event simulator.
//!
//! `smrp-core` implements SMRP's *algorithms* (path selection, reshaping,
//! detour computation); this crate implements SMRP as a *protocol*:
//!
//! * [`router`] — the per-node state machine: soft-state multicast routing
//!   entries refreshed by periodic `Refresh` messages (and expired when
//!   refreshes stop), hop-by-hop `Setup` propagation for joins and grafts,
//!   data forwarding down the tree, and heartbeat (`Hello`) exchange with
//!   the upstream neighbor for failure detection;
//! * [`runner`] — [`ProtoSession`], the planning half of an experiment:
//!   builds a tree with `smrp-core` and derives what a failure means for
//!   it (fragment roots, reactive recovery plans, the protection plane)
//!   under either recovery strategy:
//!   [`RecoveryStrategy::LocalDetour`] (SMRP: graft to the nearest
//!   connected on-tree node as soon as the failure is detected) or
//!   [`RecoveryStrategy::GlobalDetour`] (PIM/MOSPF: wait out unicast
//!   reconvergence — tens of seconds per Wang et al.'s ICNP 2000
//!   measurements cited by the paper — then re-join along the new
//!   shortest path);
//! * [`multi`] — the one runner: [`MultiSession`] loads one or more
//!   sessions into per-node [`MultiRouter`] processes, each hosting
//!   independent per-group [`Router`] lanes (tree, SHR, soft state and
//!   reliable-delivery sequence lanes all keyed by
//!   [`smrp_net::GroupId`]) over shared links, pumps data from the
//!   sources, injects a failure and measures each member's **service
//!   restoration latency**. A single session is the M = 1 case;
//! * [`hierarchy`] — the N-level recovery architecture of §3.3.3
//!   instantiated for 2 levels on transit-stub topologies: per-domain
//!   SMRP sessions with border *agents*, failure attribution to a domain,
//!   and confinement metrics;
//! * [`wire`] — the versioned binary codec that puts [`GroupMsg`] values
//!   on a real transport (the `smrpd` daemon's UDP datagrams and framed
//!   streams);
//! * [`snapshot`] — timing-insensitive final-state capture and the
//!   conformance digest that ties daemon replays back to sim runs.

pub mod hierarchy;
pub mod membership;
pub mod messages;
pub mod multi;
pub mod query;
pub mod reliable;
pub mod router;
pub mod runner;
pub mod snapshot;
pub mod wire;

pub use membership::DynamicSession;
pub use messages::{GroupMsg, GroupTimer, ProtoMsg, TimerKind};
pub use multi::{
    GroupRecoveryReport, MultiRecoveryReport, MultiRouter, MultiSession, OverheadReport,
};
pub use reliable::{ReliabilityCounters, ReliableConfig};
pub use router::{ControlCounters, ProtectionCounters, RecoveryPlan, Router, RouterConfig};
pub use runner::{
    FailureTiming, InjectionTiming, ProtoSession, RecoveryPlans, RecoveryStrategy, TreeProtocol,
};
pub use snapshot::{AffectedGroup, GroupState, NodeTreeState, SessionState};
pub use wire::{WireError, WIRE_VERSION};
