//! Discrete-event queue driving device timing: disk completions, NIC
//! packet arrivals, timer expirations.
//!
//! Events are ordered by due cycle with a sequence number as tiebreak so
//! same-cycle events fire in scheduling order (deterministic replay).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::Cycles;

/// An event bound for a device: fired as `Device::event(token)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Index of the target device on the bus.
    pub device: usize,
    /// Opaque token interpreted by the device.
    pub token: u64,
}

#[derive(PartialEq, Eq)]
struct Entry {
    due: Cycles,
    seq: u64,
    ev: Event,
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Cycle-ordered event queue.
#[derive(Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<Entry>>,
    seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> EventQueue {
        EventQueue::default()
    }

    /// Schedules `ev` to fire at absolute cycle `due`.
    pub fn schedule(&mut self, due: Cycles, ev: Event) {
        self.seq += 1;
        self.heap.push(Reverse(Entry {
            due,
            seq: self.seq,
            ev,
        }));
    }

    /// The due time of the earliest pending event.
    #[inline]
    pub fn next_due(&self) -> Option<Cycles> {
        self.heap.peek().map(|e| e.0.due)
    }

    /// Pops the earliest event if it is due at or before `now`,
    /// returning its due time so the dispatcher can run it at the
    /// moment it fired (not at the end of the processing window).
    pub fn pop_due(&mut self, now: Cycles) -> Option<(Cycles, Event)> {
        if self.next_due()? <= now {
            let e = self.heap.pop().unwrap().0;
            Some((e.due, e.ev))
        } else {
            None
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(
            30,
            Event {
                device: 3,
                token: 0,
            },
        );
        q.schedule(
            10,
            Event {
                device: 1,
                token: 0,
            },
        );
        q.schedule(
            20,
            Event {
                device: 2,
                token: 0,
            },
        );
        assert_eq!(q.next_due(), Some(10));
        assert_eq!(q.pop_due(100).unwrap().1.device, 1);
        assert_eq!(q.pop_due(100).unwrap().1.device, 2);
        assert_eq!(q.pop_due(100).unwrap().1.device, 3);
        assert!(q.pop_due(100).is_none());
    }

    #[test]
    fn same_cycle_fifo() {
        let mut q = EventQueue::new();
        for i in 0..5 {
            q.schedule(
                7,
                Event {
                    device: i,
                    token: 0,
                },
            );
        }
        for i in 0..5 {
            assert_eq!(q.pop_due(7).unwrap().1.device, i);
        }
    }

    #[test]
    fn not_due_yet() {
        let mut q = EventQueue::new();
        q.schedule(
            50,
            Event {
                device: 0,
                token: 9,
            },
        );
        assert!(q.pop_due(49).is_none());
        assert_eq!(
            q.pop_due(50).unwrap(),
            (
                50,
                Event {
                    device: 0,
                    token: 9
                }
            )
        );
    }
}
