//! The node-actor programming interface.

use crate::time::SimTime;
use crate::topology::NodeId;

/// A message in flight or delivered, with transport metadata.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Sending node.
    pub from: NodeId,
    /// Payload size in bytes (application accounting; framing is added by
    /// the kernel on the wire).
    pub bytes: u32,
    /// When the sender issued the message.
    pub sent_at: SimTime,
    /// The application message.
    pub msg: M,
}

/// What a node does after a scheduling step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// The node performed `busy_ns` of local work (routing, scanning a
    /// delta array, …) and wants to be scheduled again when it is done.
    /// Send and receive overheads are charged by the kernel on top.
    Continue {
        /// Nanoseconds of application work done this step.
        busy_ns: u64,
    },
    /// The node is idle until the next message arrives (used by the
    /// *blocking* receiver-initiated update strategy, §4.3.3).
    Block,
    /// The node is idle until `until` — or until a message arrives,
    /// whichever is first (retransmission timers and linger periods of
    /// the reliability layer ride on this).
    Sleep {
        /// Wake deadline. A deadline in the past schedules an immediate
        /// wake.
        until: SimTime,
    },
    /// The node's program is complete.
    Done,
}

/// Messages queued for sending during one step.
#[derive(Debug)]
pub struct Outbox<M> {
    pub(crate) sends: Vec<(NodeId, u32, M)>,
}

impl<M> Default for Outbox<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> Outbox<M> {
    /// Creates an empty outbox (public so application crates can unit-test
    /// their nodes outside the kernel).
    pub fn new() -> Self {
        Outbox { sends: Vec::new() }
    }

    /// The `(to, bytes, msg)` sends queued so far (for tests/inspection).
    pub fn sends(&self) -> &[(NodeId, u32, M)] {
        &self.sends
    }

    /// Queues `msg` of `bytes` payload bytes to node `to`.
    ///
    /// # Panics
    /// Panics on self-sends: the application should short-circuit local
    /// work instead of paying network cost to itself.
    pub fn send(&mut self, to: NodeId, bytes: u32, msg: M) {
        self.sends.push((to, bytes, msg));
    }

    /// Number of messages queued so far this step.
    pub fn len(&self) -> usize {
        self.sends.len()
    }

    /// Whether no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty()
    }
}

/// An application actor running on one mesh node.
///
/// The kernel calls [`Node::step`] whenever the node is scheduled,
/// handing it every message that arrived since the previous step: the
/// node drains `inbox` (typically `inbox.drain(..)`), and the kernel
/// drops whatever it leaves and reuses the buffer. The node performs a
/// bounded chunk of work (typically: install updates, route one wire,
/// emit due update packets) and reports how long that work took via
/// [`Step`].
pub trait Node {
    /// Application message type (`Clone` so the fault layer can inject
    /// duplicate deliveries).
    type Msg: Clone;

    /// Executes one scheduling step at simulated time `now`.
    fn step(
        &mut self,
        now: SimTime,
        inbox: &mut Vec<Envelope<Self::Msg>>,
        outbox: &mut Outbox<Self::Msg>,
    ) -> Step;

    /// Called once when the node comes back up after a
    /// [`crate::fault::NodeFault::CrashRestart`] downtime, before its
    /// first post-restart [`Node::step`]. The actor keeps its local
    /// state (volatile memory is modelled as surviving in checkpointed
    /// form); implementations roll back to their last checkpoint here.
    /// The default is a no-op.
    fn on_restart(&mut self, _now: SimTime) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outbox_accumulates_sends() {
        let mut o: Outbox<u32> = Outbox::new();
        assert!(o.is_empty());
        o.send(1, 16, 99);
        o.send(2, 8, 7);
        assert_eq!(o.len(), 2);
        assert_eq!(o.sends[0], (1, 16, 99));
    }
}
