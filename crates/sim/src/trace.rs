//! Bounded simulation trace.

use smrp_net::NodeId;

use crate::engine::NodeBehavior;
use crate::observer::SimObserver;
use crate::time::SimTime;

/// One traced occurrence in the simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A message left a node toward a neighbor.
    Sent {
        /// Departure time.
        time: SimTime,
        /// Sending node.
        from: NodeId,
        /// Receiving neighbor.
        to: NodeId,
        /// Short description of the message.
        what: String,
    },
    /// A message arrived and was processed.
    Delivered {
        /// Arrival time.
        time: SimTime,
        /// Sending node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// Short description of the message.
        what: String,
    },
    /// A message was dropped.
    Dropped {
        /// Time of the drop.
        time: SimTime,
        /// Sending node.
        from: NodeId,
        /// Intended receiver.
        to: NodeId,
        /// Why the message was dropped.
        reason: DropReason,
    },
    /// A node-local timer fired.
    TimerFired {
        /// Firing time.
        time: SimTime,
        /// Owning node.
        node: NodeId,
        /// Short description of the timer.
        what: String,
    },
}

impl TraceEvent {
    /// The virtual time of the event.
    pub fn time(&self) -> SimTime {
        match self {
            TraceEvent::Sent { time, .. }
            | TraceEvent::Delivered { time, .. }
            | TraceEvent::Dropped { time, .. }
            | TraceEvent::TimerFired { time, .. } => *time,
        }
    }
}

/// Why a message never reached its receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The link between sender and receiver has failed.
    LinkDown,
    /// The receiving node has failed.
    NodeDown,
    /// The sending node has failed (a dead router emits nothing).
    SenderDown,
    /// Sender and receiver are not adjacent in the topology.
    NotAdjacent,
    /// The degraded channel lost the message (see [`crate::ChannelModel`]).
    ChannelLoss,
}

impl std::fmt::Display for DropReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DropReason::LinkDown => "link down",
            DropReason::NodeDown => "receiver down",
            DropReason::SenderDown => "sender down",
            DropReason::NotAdjacent => "nodes not adjacent",
            DropReason::ChannelLoss => "lost by channel",
        };
        f.write_str(s)
    }
}

/// A bounded in-memory trace; entries past the cap are discarded (the
/// count of discarded entries is retained).
///
/// As a [`SimObserver`] it renders every send, delivery and timer payload
/// with its `Debug` form, and records drops with their reason.
#[derive(Debug, Clone)]
pub struct TraceLog {
    entries: Vec<TraceEvent>,
    capacity: usize,
    discarded: u64,
}

impl TraceLog {
    /// Creates a log bounded to `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        TraceLog {
            entries: Vec::new(),
            capacity,
            discarded: 0,
        }
    }

    /// Creates a disabled log that records nothing (and, unlike a full
    /// bounded log, counts nothing as discarded).
    pub fn disabled() -> Self {
        TraceLog::new(0)
    }

    /// Whether this log records at all. A disabled log never formats a
    /// message or timer payload, so long campaign runs pay no tracing
    /// cost.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Records the event `build` renders, if the log is enabled. A full
    /// log counts the event as discarded without building it, so payloads
    /// past the cap are never formatted.
    #[inline]
    fn record(&mut self, build: impl FnOnce() -> TraceEvent) {
        if !self.is_enabled() {
            return;
        }
        if self.entries.len() >= self.capacity {
            self.discarded += 1;
            return;
        }
        self.entries.push(build());
    }

    /// Records an event.
    pub fn push(&mut self, event: TraceEvent) {
        if self.entries.len() >= self.capacity {
            self.discarded += 1;
            return;
        }
        self.entries.push(event);
    }

    /// Recorded entries, oldest first.
    pub fn entries(&self) -> &[TraceEvent] {
        &self.entries
    }

    /// How many events were discarded after the cap was hit.
    pub fn discarded(&self) -> u64 {
        self.discarded
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing was retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl<N: NodeBehavior> SimObserver<N> for TraceLog {
    fn on_send(&mut self, time: SimTime, from: NodeId, to: NodeId, msg: &N::Msg) {
        self.record(|| TraceEvent::Sent {
            time,
            from,
            to,
            what: format!("{msg:?}"),
        });
    }

    fn on_deliver(&mut self, time: SimTime, from: NodeId, to: NodeId, msg: &N::Msg) {
        self.record(|| TraceEvent::Delivered {
            time,
            from,
            to,
            what: format!("{msg:?}"),
        });
    }

    /// Drops are recorded even by a disabled log, which counts them as
    /// discarded.
    fn on_drop(&mut self, time: SimTime, from: NodeId, to: NodeId, reason: DropReason) {
        self.push(TraceEvent::Dropped {
            time,
            from,
            to,
            reason,
        });
    }

    fn on_timer(&mut self, time: SimTime, node: NodeId, timer: &N::Timer) {
        self.record(|| TraceEvent::TimerFired {
            time,
            node,
            what: format!("{timer:?}"),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ms: f64) -> TraceEvent {
        TraceEvent::TimerFired {
            time: SimTime::from_ms(ms),
            node: NodeId::new(0),
            what: "t".into(),
        }
    }

    #[test]
    fn records_until_capacity() {
        let mut log = TraceLog::new(2);
        log.push(ev(1.0));
        log.push(ev(2.0));
        log.push(ev(3.0));
        assert_eq!(log.len(), 2);
        assert_eq!(log.discarded(), 1);
        assert_eq!(log.entries()[0].time(), SimTime::from_ms(1.0));
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = TraceLog::disabled();
        log.push(ev(1.0));
        assert!(log.is_empty());
        assert_eq!(log.discarded(), 1);
    }

    use std::sync::atomic::{AtomicU32, Ordering};

    /// How often a [`Counted`] payload was rendered.
    static RENDERS: AtomicU32 = AtomicU32::new(0);

    /// A payload that counts its renderings.
    #[derive(Clone)]
    struct Counted;

    impl std::fmt::Debug for Counted {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            RENDERS.fetch_add(1, Ordering::Relaxed);
            f.write_str("counted")
        }
    }

    struct Quiet;

    impl NodeBehavior for Quiet {
        type Msg = Counted;
        type Timer = Counted;
        fn on_message(&mut self, _: &mut crate::Ctx<'_, Self>, _: NodeId, _: Counted) {}
        fn on_timer(&mut self, _: &mut crate::Ctx<'_, Self>, _: Counted) {}
    }

    #[test]
    fn full_log_counts_without_formatting() {
        let (t, n) = (SimTime::ZERO, NodeId::new(0));
        let mut log = TraceLog::new(1);
        let obs: &mut dyn SimObserver<Quiet> = &mut log;
        obs.on_send(t, n, n, &Counted);
        obs.on_deliver(t, n, n, &Counted);
        obs.on_timer(t, n, &Counted);
        assert_eq!(
            RENDERS.load(Ordering::Relaxed),
            1,
            "only the kept entry renders"
        );
        assert_eq!((log.len(), log.discarded()), (1, 2));

        let mut off = TraceLog::disabled();
        let obs: &mut dyn SimObserver<Quiet> = &mut off;
        obs.on_send(t, n, n, &Counted);
        assert_eq!(
            RENDERS.load(Ordering::Relaxed),
            1,
            "a disabled log renders nothing"
        );
        assert_eq!(off.discarded(), 0);
    }

    #[test]
    fn drop_reason_display() {
        assert_eq!(DropReason::LinkDown.to_string(), "link down");
        assert_eq!(DropReason::NotAdjacent.to_string(), "nodes not adjacent");
    }
}
