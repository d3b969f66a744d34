//! The microhypervisor scheduler (Section 5.1): preemptive,
//! priority-driven round-robin with one runqueue per CPU.
//!
//! Scheduling contexts couple a priority with a time quantum. The
//! scheduler always dispatches the highest-priority ready SC and is
//! oblivious to whether the attached execution context is a thread or
//! a virtual CPU.

use std::collections::{BTreeMap, VecDeque};

use crate::obj::ScId;

/// One CPU's runqueue.
///
/// Alongside the per-priority FIFO queues, a side map tracks the
/// priority class (and occurrence count) of every queued SC, so
/// `remove` and `contains` are point lookups instead of scans over
/// every class. The side map also pins each SC to a single class: an
/// SC can never be queued at two priorities at once.
#[derive(Default)]
pub struct RunQueue {
    queues: BTreeMap<u8, VecDeque<ScId>>,
    /// `sc → (priority class, occurrences)` for every queued SC.
    queued: BTreeMap<ScId, (u8, u32)>,
}

impl RunQueue {
    /// An empty runqueue.
    pub fn new() -> RunQueue {
        RunQueue::default()
    }

    /// Records one more queued occurrence of `sc`, returning the class
    /// it must join: an SC already queued stays in its current class
    /// regardless of the priority passed, so it can never straddle two.
    fn note_queued(&mut self, sc: ScId, prio: u8) -> u8 {
        match self.queued.entry(sc) {
            std::collections::btree_map::Entry::Occupied(mut e) => {
                let (p, n) = e.get_mut();
                *n += 1;
                *p
            }
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert((prio, 1));
                prio
            }
        }
    }

    /// Enqueues an SC at the tail of its priority class.
    pub fn enqueue(&mut self, sc: ScId, prio: u8) {
        let prio = self.note_queued(sc, prio);
        self.queues.entry(prio).or_default().push_back(sc);
    }

    /// Enqueues an SC at the head of its priority class (used when a
    /// preempted SC still has quantum left).
    pub fn enqueue_front(&mut self, sc: ScId, prio: u8) {
        let prio = self.note_queued(sc, prio);
        self.queues.entry(prio).or_default().push_front(sc);
    }

    /// Dequeues the highest-priority SC.
    pub fn pick(&mut self) -> Option<ScId> {
        let (&prio, q) = self.queues.iter_mut().next_back()?;
        let sc = q.pop_front();
        if q.is_empty() {
            self.queues.remove(&prio);
        }
        if let Some(sc) = sc {
            if let Some((_, n)) = self.queued.get_mut(&sc) {
                *n -= 1;
                if *n == 0 {
                    self.queued.remove(&sc);
                }
            }
        }
        sc
    }

    /// Removes a specific SC wherever it is queued (blocking). Only
    /// the SC's own priority class is touched.
    pub fn remove(&mut self, sc: ScId) {
        if let Some((prio, _)) = self.queued.remove(&sc) {
            if let Some(q) = self.queues.get_mut(&prio) {
                q.retain(|s| *s != sc);
                if q.is_empty() {
                    self.queues.remove(&prio);
                }
            }
        }
    }

    /// `true` if the SC is queued.
    pub fn contains(&self, sc: ScId) -> bool {
        self.queued.contains_key(&sc)
    }

    /// Number of queued SCs.
    pub fn len(&self) -> usize {
        self.queues.values().map(|q| q.len()).sum()
    }

    /// `true` when nothing is ready.
    pub fn is_empty(&self) -> bool {
        self.queues.is_empty()
    }

    /// Every queued occurrence as `(class, sc)`, once the side map is
    /// checked against the queues: no class is empty, and each SC sits
    /// in one class, the one the side map records, as often as it says.
    pub fn occurrences(&self) -> Result<Vec<(u8, ScId)>, String> {
        let (mut all, mut held) = (Vec::new(), BTreeMap::new());
        for (&class, q) in &self.queues {
            for &sc in q {
                all.push((class, sc));
                held.entry(sc).or_insert((class, 0)).1 += 1;
            }
        }
        let pinned = all.iter().all(|(class, sc)| held[sc].0 == *class);
        if held != self.queued || !pinned || self.queues.values().any(VecDeque::is_empty) {
            return Err(format!(
                "queues {:?}, side map {:?}",
                self.queues, self.queued
            ));
        }
        Ok(all)
    }
}

/// Per-CPU runqueues.
pub struct Scheduler {
    queues: Vec<RunQueue>,
}

impl Scheduler {
    /// A scheduler for `cpus` processors.
    pub fn new(cpus: usize) -> Scheduler {
        Scheduler {
            queues: (0..cpus.max(1)).map(|_| RunQueue::new()).collect(),
        }
    }

    /// The runqueue of one CPU.
    pub fn cpu(&mut self, cpu: usize) -> &mut RunQueue {
        &mut self.queues[cpu]
    }

    /// Read-only access.
    pub fn cpu_ref(&self, cpu: usize) -> &RunQueue {
        &self.queues[cpu]
    }

    /// Number of CPUs.
    pub fn cpus(&self) -> usize {
        self.queues.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_order() {
        let mut q = RunQueue::new();
        q.enqueue(ScId(1), 10);
        q.enqueue(ScId(2), 200);
        q.enqueue(ScId(3), 10);
        assert_eq!(q.pick(), Some(ScId(2)));
        assert_eq!(q.pick(), Some(ScId(1)));
        assert_eq!(q.pick(), Some(ScId(3)));
        assert_eq!(q.pick(), None);
    }

    #[test]
    fn round_robin_within_priority() {
        let mut q = RunQueue::new();
        q.enqueue(ScId(1), 5);
        q.enqueue(ScId(2), 5);
        let first = q.pick().unwrap();
        q.enqueue(first, 5); // quantum expired: back to the tail
        assert_eq!(q.pick(), Some(ScId(2)), "the other SC runs next");
        assert_eq!(q.pick(), Some(ScId(1)));
    }

    #[test]
    fn enqueue_front_preserves_turn() {
        let mut q = RunQueue::new();
        q.enqueue(ScId(1), 5);
        q.enqueue(ScId(2), 5);
        let first = q.pick().unwrap();
        q.enqueue_front(first, 5); // preempted mid-quantum
        assert_eq!(q.pick(), Some(first), "keeps its turn");
    }

    #[test]
    fn remove_blocks_sc() {
        let mut q = RunQueue::new();
        q.enqueue(ScId(1), 5);
        q.enqueue(ScId(2), 5);
        q.remove(ScId(1));
        assert!(!q.contains(ScId(1)));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pick(), Some(ScId(2)));
        assert!(q.is_empty());
    }

    #[test]
    fn never_queued_at_two_priorities() {
        // A queued SC is pinned to its class: re-enqueueing it with a
        // different priority joins the existing class, so a single
        // remove always clears every occurrence.
        let mut q = RunQueue::new();
        q.enqueue(ScId(1), 5);
        q.enqueue(ScId(1), 200); // joins class 5, not 200
        assert_eq!(q.len(), 2);
        q.enqueue(ScId(2), 100);
        assert_eq!(q.pick(), Some(ScId(2)), "nothing waits at 200");
        q.remove(ScId(1));
        assert!(!q.contains(ScId(1)));
        assert!(q.is_empty());
        assert_eq!(q.pick(), None);
    }

    #[test]
    fn occurrences_check_the_side_map_against_the_queues() {
        let queued = || {
            let mut q = RunQueue::new();
            q.enqueue(ScId(1), 5);
            q.enqueue(ScId(1), 200);
            q.enqueue(ScId(2), 7);
            q
        };
        let all = [(5, ScId(1)), (5, ScId(1)), (7, ScId(2))];
        assert_eq!(queued().occurrences(), Ok(all.to_vec()));
        let corruptions: [fn(&mut RunQueue); 4] = [
            |q| q.queues.entry(9).or_default().push_back(ScId(1)),
            |q| q.queues.entry(7).or_default().push_back(ScId(2)),
            |q| {
                q.queued.insert(ScId(3), (7, 1));
            },
            |q| {
                q.queues.insert(3, VecDeque::new());
            },
        ];
        for (i, corrupt) in corruptions.into_iter().enumerate() {
            let mut q = queued();
            corrupt(&mut q);
            assert!(q.occurrences().is_err(), "corruption {i}");
        }
    }

    #[test]
    fn duplicate_occurrences_round_trip() {
        // The same SC queued twice (self-signal during its own
        // dispatch) is picked twice, and the bookkeeping map drains
        // with the queue.
        let mut q = RunQueue::new();
        q.enqueue(ScId(3), 7);
        q.enqueue(ScId(4), 7);
        q.enqueue(ScId(3), 7);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pick(), Some(ScId(3)));
        assert!(q.contains(ScId(3)), "second occurrence still queued");
        assert_eq!(q.pick(), Some(ScId(4)));
        assert_eq!(q.pick(), Some(ScId(3)));
        assert!(!q.contains(ScId(3)));
        assert!(q.is_empty());
    }

    #[test]
    fn per_cpu_isolation() {
        let mut s = Scheduler::new(2);
        s.cpu(0).enqueue(ScId(1), 5);
        s.cpu(1).enqueue(ScId(2), 5);
        assert_eq!(s.cpu(0).pick(), Some(ScId(1)));
        assert_eq!(s.cpu(0).pick(), None);
        assert_eq!(s.cpu(1).pick(), Some(ScId(2)));
        assert_eq!(s.cpus(), 2);
    }
}
