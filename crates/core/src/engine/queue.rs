//! The FIFO design-event message queue of Fig. 1.
//!
//! "the design activities are converted to events and sent to the project
//! BluePrint, where they are queued. … Events are processed sequentially,
//! first-in first-out." — Section 3.1.
//!
//! The queue has one owner, the project server, and events reach it only
//! through the server: check-ins, the messages of the wrappers it runs,
//! and posts. A wrapper posts over the network to the project's command
//! loop, which queues the event (journaling it when durability is on)
//! before it replies; the engine drains the front.

use std::collections::VecDeque;

use crate::engine::event::QueuedEvent;

/// The engine's FIFO event queue.
#[derive(Debug, Default)]
pub struct EventQueue {
    queue: VecDeque<QueuedEvent>,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events currently waiting.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether no events are waiting.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Appends an event at the back.
    pub fn enqueue(&mut self, event: QueuedEvent) {
        self.queue.push_back(event);
    }

    /// Read-only walk of the waiting events, front to back — the durable
    /// queue uses this to re-journal still-pending work at a checkpoint.
    pub fn iter(&self) -> impl Iterator<Item = &QueuedEvent> {
        self.queue.iter()
    }

    /// Mutable walk of the waiting events, front to back — used to stamp
    /// durable sequence numbers onto events queued before journaling was
    /// enabled.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut QueuedEvent> {
        self.queue.iter_mut()
    }

    /// Pops the oldest event.
    pub fn dequeue(&mut self) -> Option<QueuedEvent> {
        self.queue.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use damocles_meta::{Direction, MetaDb, Oid};

    fn ev(db: &mut MetaDb, name: &str, n: u32) -> QueuedEvent {
        let id = db.create_oid(Oid::new(format!("b{n}"), "v", 1)).unwrap();
        QueuedEvent::target(name, Direction::Down, id, "t")
    }

    #[test]
    fn fifo_order_is_strict() {
        let mut db = MetaDb::new();
        let mut q = EventQueue::new();
        q.enqueue(ev(&mut db, "first", 1));
        q.enqueue(ev(&mut db, "second", 2));
        q.enqueue(ev(&mut db, "third", 3));
        assert_eq!(q.len(), 3);
        assert_eq!(q.dequeue().unwrap().event, "first");
        assert_eq!(q.len(), 2);
        assert_eq!(q.dequeue().unwrap().event, "second");
        assert_eq!(q.dequeue().unwrap().event, "third");
        assert!(q.dequeue().is_none());
        assert!(q.is_empty());
    }
}
