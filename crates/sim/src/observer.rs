//! The engine's typed observer seam.

use smrp_net::NodeId;

use crate::engine::NodeBehavior;
use crate::time::SimTime;
use crate::trace::DropReason;

/// A typed view of every message and timer the engine handles.
///
/// [`NetSim`](crate::NetSim) makes exactly one call per occurrence, with
/// the message or timer by reference, so an observer can inspect payload
/// fields directly instead of parsing a rendering of them. Every hook
/// defaults to a no-op; an observer overrides only what it checks.
/// [`TraceLog`](crate::TraceLog) is the observer that renders each
/// occurrence into a bounded in-memory trace.
pub trait SimObserver<N: NodeBehavior> {
    /// A message left `from` toward the adjacent node `to`.
    ///
    /// Sends from a failed node and sends to a non-adjacent node are
    /// dropped before they get here (see [`SimObserver::on_drop`]); a
    /// send the degraded channel then loses is observed as a send
    /// followed by a [`DropReason::ChannelLoss`] drop.
    fn on_send(&mut self, _time: SimTime, _from: NodeId, _to: NodeId, _msg: &N::Msg) {}

    /// A message arrived at `to` and is about to be handled.
    fn on_deliver(&mut self, _time: SimTime, _from: NodeId, _to: NodeId, _msg: &N::Msg) {}

    /// A message from `from` to `to` was dropped for `reason`.
    fn on_drop(&mut self, _time: SimTime, _from: NodeId, _to: NodeId, _reason: DropReason) {}

    /// A timer fired on the live node `node` and is about to be handled.
    fn on_timer(&mut self, _time: SimTime, _node: NodeId, _timer: &N::Timer) {}
}

/// A borrowed observer observes: the simulator can run against a caller's
/// observer (including a `&mut dyn SimObserver<N>`) and hand it back
/// untouched when the run ends.
impl<N: NodeBehavior, O: SimObserver<N> + ?Sized> SimObserver<N> for &mut O {
    fn on_send(&mut self, time: SimTime, from: NodeId, to: NodeId, msg: &N::Msg) {
        (**self).on_send(time, from, to, msg);
    }

    fn on_deliver(&mut self, time: SimTime, from: NodeId, to: NodeId, msg: &N::Msg) {
        (**self).on_deliver(time, from, to, msg);
    }

    fn on_drop(&mut self, time: SimTime, from: NodeId, to: NodeId, reason: DropReason) {
        (**self).on_drop(time, from, to, reason);
    }

    fn on_timer(&mut self, time: SimTime, node: NodeId, timer: &N::Timer) {
        (**self).on_timer(time, node, timer);
    }
}
