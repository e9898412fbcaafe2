//! The FIFO design-event message queue of Fig. 1.
//!
//! "the design activities are converted to events and sent to the project
//! BluePrint, where they are queued. … Events are processed sequentially,
//! first-in first-out." — Section 3.1.
//!
//! The queue is single-consumer (the engine), but producers may be many
//! concurrent wrapper programs; [`EventQueue::sender`] hands out a cheap
//! cloneable handle backed by a crossbeam channel that [`EventQueue::drain_inbox`]
//! folds into the FIFO order.

use std::collections::VecDeque;

use crossbeam::channel::{unbounded, Receiver, Sender};
use damocles_meta::EventMessage;

use crate::engine::event::QueuedEvent;

/// Aggregate queue counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events ever enqueued.
    pub enqueued: u64,
    /// Events ever dequeued.
    pub dequeued: u64,
    /// High-water mark of queue length.
    pub high_water: usize,
}

/// A network message paired with the posting user, as sent by wrappers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Posted {
    /// The wire message.
    pub message: EventMessage,
    /// Who posted it.
    pub user: String,
}

/// The engine's FIFO event queue.
#[derive(Debug)]
pub struct EventQueue {
    queue: VecDeque<QueuedEvent>,
    inbox_tx: Sender<Posted>,
    inbox_rx: Receiver<Posted>,
    stats: QueueStats,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        let (inbox_tx, inbox_rx) = unbounded();
        EventQueue {
            queue: VecDeque::new(),
            inbox_tx,
            inbox_rx,
            stats: QueueStats::default(),
        }
    }

    /// Number of events currently waiting (excluding undrained inbox).
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether no events are waiting (excluding undrained inbox).
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Counters.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Appends an event at the back.
    pub fn enqueue(&mut self, event: QueuedEvent) {
        self.queue.push_back(event);
        self.stats.enqueued += 1;
        self.stats.high_water = self.stats.high_water.max(self.queue.len());
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
        let ev = self.queue.pop_front();
        if ev.is_some() {
            self.stats.dequeued += 1;
        }
        ev
    }

    /// A cloneable handle for concurrent wrapper programs to post through.
    /// Messages sent through it are folded into FIFO order by
    /// [`EventQueue::drain_inbox`].
    pub fn sender(&self) -> Sender<Posted> {
        self.inbox_tx.clone()
    }

    /// Drains everything wrappers have posted so far, returning the raw
    /// postings in arrival order (resolution against the database happens in
    /// the engine, which owns the database).
    pub fn drain_inbox(&mut self) -> Vec<Posted> {
        let mut posted = Vec::new();
        self.drain_inbox_into(&mut posted);
        posted
    }

    /// Allocation-reusing form of [`EventQueue::drain_inbox`]: appends the
    /// postings to a caller-owned buffer (not cleared first), so a polling
    /// loop can recycle one buffer instead of allocating a `Vec` per poll.
    pub fn drain_inbox_into(&mut self, out: &mut Vec<Posted>) {
        while let Ok(p) = self.inbox_rx.try_recv() {
            out.push(p);
        }
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
        assert_eq!(q.dequeue().unwrap().event, "first");
        assert_eq!(q.dequeue().unwrap().event, "second");
        assert_eq!(q.dequeue().unwrap().event, "third");
        assert!(q.dequeue().is_none());
    }

    #[test]
    fn stats_track_traffic() {
        let mut db = MetaDb::new();
        let mut q = EventQueue::new();
        q.enqueue(ev(&mut db, "a", 1));
        q.enqueue(ev(&mut db, "b", 2));
        q.dequeue();
        let s = q.stats();
        assert_eq!(s.enqueued, 2);
        assert_eq!(s.dequeued, 1);
        assert_eq!(s.high_water, 2);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn concurrent_senders_feed_the_inbox() {
        // The queue stays alive in scope while producer threads run (it used
        // to be `std::mem::forget`-leaked here; keeping it live also lets the
        // test assert the messages actually arrive).
        let mut q = EventQueue::new();
        let q_tx = q.sender();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let tx = q_tx.clone();
                std::thread::spawn(move || {
                    let msg: EventMessage =
                        format!("postEvent e{i} down b{i},v,1").parse().unwrap();
                    tx.send(Posted {
                        message: msg,
                        user: format!("u{i}"),
                    })
                    .unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(q.drain_inbox().len(), 4);
    }

    #[test]
    fn drain_inbox_preserves_arrival_order() {
        let mut q = EventQueue::new();
        let tx = q.sender();
        for i in 0..3 {
            tx.send(Posted {
                message: format!("postEvent e{i} down b,v,1").parse().unwrap(),
                user: "u".into(),
            })
            .unwrap();
        }
        let drained = q.drain_inbox();
        let names: Vec<&str> = drained.iter().map(|p| p.message.event.as_str()).collect();
        assert_eq!(names, vec!["e0", "e1", "e2"]);
        assert!(q.drain_inbox().is_empty());
    }

    #[test]
    fn drain_inbox_into_reuses_the_buffer() {
        let mut q = EventQueue::new();
        let tx = q.sender();
        let mut buf: Vec<Posted> = Vec::new();
        for round in 0..3 {
            for i in 0..2 {
                tx.send(Posted {
                    message: format!("postEvent r{round}e{i} down b,v,1")
                        .parse()
                        .unwrap(),
                    user: "u".into(),
                })
                .unwrap();
            }
            buf.clear();
            q.drain_inbox_into(&mut buf);
            assert_eq!(buf.len(), 2);
        }
        let final_capacity = buf.capacity();
        assert!(final_capacity >= 2);
    }
}
