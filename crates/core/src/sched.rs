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
/// One FIFO per priority class (256: one per `u8` priority), an
/// occupancy bitmap with bit `c` set exactly when class `c` holds an
/// SC (so `pick` finds the top class with `leading_zeros`), and a side
/// table indexed by `ScId` holding the class and occurrence count of
/// every queued SC, so `remove` and `contains` are point lookups. The
/// side table also pins each SC to a single class: an SC can never be
/// queued at two priorities at once.
/// A class FIFO that empties keeps its capacity, so a steady-state
/// requeue allocates nothing.
pub struct RunQueue {
    classes: [VecDeque<ScId>; 256],
    /// Bit `c % 64` of word `c / 64`: class `c` is not empty.
    occupied: [u64; 4],
    /// `sc.0 → (priority class, occurrences)`; zero occurrences is an
    /// SC not queued, whatever class the entry still names.
    queued: Vec<(u8, u32)>,
    /// Occurrences queued over every class.
    len: usize,
}

impl Default for RunQueue {
    /// An empty runqueue.
    fn default() -> RunQueue {
        RunQueue {
            classes: std::array::from_fn(|_| VecDeque::new()),
            occupied: [0; 4],
            queued: Vec::new(),
            len: 0,
        }
    }
}

impl RunQueue {
    /// Records one more queued occurrence of `sc`, returning the FIFO
    /// it must join: an SC already queued stays in its current class
    /// regardless of the priority passed, so it can never straddle two.
    fn note_queued(&mut self, sc: ScId, prio: u8) -> &mut VecDeque<ScId> {
        if sc.0 >= self.queued.len() {
            self.queued.resize(sc.0 + 1, (0, 0));
        }
        let (class, n) = &mut self.queued[sc.0];
        *class = if *n == 0 { prio } else { *class };
        *n += 1;
        let class = *class as usize;
        self.occupied[class / 64] |= 1 << (class % 64);
        self.len += 1;
        &mut self.classes[class]
    }

    /// Enqueues an SC at the tail of its priority class.
    pub fn enqueue(&mut self, sc: ScId, prio: u8) {
        self.note_queued(sc, prio).push_back(sc);
    }

    /// Enqueues an SC at the head of its priority class (used when a
    /// preempted SC still has quantum left).
    #[inline]
    pub fn enqueue_front(&mut self, sc: ScId, prio: u8) {
        self.note_queued(sc, prio).push_front(sc);
    }

    /// Dequeues the highest-priority SC.
    pub fn pick(&mut self) -> Option<ScId> {
        let word = self.occupied.iter().rposition(|&w| w != 0)?;
        let class = word * 64 + 63 - self.occupied[word].leading_zeros() as usize;
        let sc = self.classes[class].pop_front()?;
        // A class's bit falls with its last occurrence.
        self.occupied[word] &= !((self.classes[class].is_empty() as u64) << (class % 64));
        self.len -= 1;
        self.queued[sc.0].1 -= 1;
        Some(sc)
    }

    /// Removes a specific SC wherever it is queued (blocking). Only
    /// the SC's own priority class is touched.
    pub fn remove(&mut self, sc: ScId) {
        if let Some((class, n @ 1..)) = self.queued.get_mut(sc.0).map(std::mem::take) {
            let q = &mut self.classes[class as usize];
            q.retain(|s| *s != sc);
            self.occupied[class as usize / 64] &= !((q.is_empty() as u64) << (class % 64));
            self.len -= n as usize;
        }
    }

    /// `true` if the SC is queued.
    pub fn contains(&self, sc: ScId) -> bool {
        self.queued.get(sc.0).is_some_and(|&(_, n)| n > 0)
    }

    /// Number of queued SCs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is ready.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every queued occurrence as `(class, sc)`, once the side table
    /// and the bitmap are checked against the class FIFOs: a class's
    /// bit is set exactly when it holds an SC, each SC sits in one
    /// class, the one the side table records, as often as it says, and
    /// the kept count is the number of occurrences.
    pub fn occurrences(&self) -> Result<Vec<(u8, ScId)>, String> {
        let (mut all, mut held, mut bits) = (Vec::new(), BTreeMap::new(), [0u64; 4]);
        for (class, q) in self.classes.iter().enumerate() {
            bits[class / 64] |= (!q.is_empty() as u64) << (class % 64);
            for &sc in q {
                all.push((class as u8, sc));
                held.entry(sc).or_insert((class as u8, 0)).1 += 1;
            }
        }
        let listed = self.queued.iter().filter(|&&(_, n)| n > 0).count();
        let side =
            listed == held.len() && held.iter().all(|(sc, e)| self.queued.get(sc.0) == Some(e));
        let pinned = all.iter().all(|(class, sc)| held[sc].0 == *class);
        if !side || !pinned || bits != self.occupied || all.len() != self.len {
            return Err(format!(
                "occurrences {all:?}, bitmap {:x?}, side table {:?}, len {}",
                self.occupied, self.queued, self.len
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
            queues: (0..cpus.max(1)).map(|_| RunQueue::default()).collect(),
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
        let mut q = RunQueue::default();
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
        let mut q = RunQueue::default();
        q.enqueue(ScId(1), 5);
        q.enqueue(ScId(2), 5);
        let first = q.pick().unwrap();
        q.enqueue(first, 5); // quantum expired: back to the tail
        assert_eq!(q.pick(), Some(ScId(2)), "the other SC runs next");
        assert_eq!(q.pick(), Some(ScId(1)));
    }

    #[test]
    fn enqueue_front_preserves_turn() {
        let mut q = RunQueue::default();
        q.enqueue(ScId(1), 5);
        q.enqueue(ScId(2), 5);
        let first = q.pick().unwrap();
        q.enqueue_front(first, 5); // preempted mid-quantum
        assert_eq!(q.pick(), Some(first), "keeps its turn");
    }

    #[test]
    fn remove_blocks_sc() {
        let mut q = RunQueue::default();
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
        let mut q = RunQueue::default();
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
    fn occurrences_check_the_side_table_and_the_bitmap_against_the_queues() {
        let queued = || {
            let mut q = RunQueue::default();
            q.enqueue(ScId(1), 5);
            q.enqueue(ScId(1), 200);
            q.enqueue(ScId(2), 7);
            q
        };
        let all = [(5, ScId(1)), (5, ScId(1)), (7, ScId(2))];
        assert_eq!(queued().occurrences(), Ok(all.to_vec()));
        // An occurrence pushed behind the side table's back, its class
        // marked and counted, so only the side table can tell.
        fn push(q: &mut RunQueue, class: usize, sc: ScId) {
            q.classes[class].push_back(sc);
            q.occupied[class / 64] |= 1 << (class % 64);
            q.len += 1;
        }
        let corruptions: [fn(&mut RunQueue); 7] = [
            |q| push(q, 9, ScId(1)),
            |q| push(q, 7, ScId(2)),
            |q| {
                q.queued.resize(4, (0, 0));
                q.queued[3] = (7, 1);
            },
            // A class marked occupied while empty: in the low word and
            // in the word `pick` reads first.
            |q| q.occupied[0] |= 1 << 3,
            |q| q.occupied[3] |= 1 << 63,
            // A class holding an SC with its bit clear.
            |q| q.occupied[0] &= !(1 << 7),
            |q| q.len += 1,
        ];
        for (i, corrupt) in corruptions.into_iter().enumerate() {
            let mut q = queued();
            corrupt(&mut q);
            assert!(q.occurrences().is_err(), "corruption {i}");
        }
    }

    /// 10,000 seeded steps of `enqueue`, `enqueue_front`, `pick` and
    /// `remove` over every class and with duplicate occurrences, against
    /// a flat list in queue order: `pick` takes the first entry of the
    /// highest class, an SC already listed joins its listed class.
    #[test]
    fn every_step_agrees_with_a_flat_list() {
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let (mut q, mut model) = (RunQueue::default(), Vec::<(u8, ScId)>::new());
        for step in 0..10_000 {
            let r = next();
            let (sc, prio) = (ScId((r >> 8) as usize % 24), (r >> 16) as u8);
            let class = model.iter().find(|e| e.1 == sc).map_or(prio, |e| e.0);
            match r % 8 {
                0..=2 => {
                    q.enqueue(sc, prio);
                    model.push((class, sc));
                }
                3 => {
                    q.enqueue_front(sc, prio);
                    model.insert(0, (class, sc));
                }
                4..=6 => {
                    let top = model.iter().map(|e| e.0).max();
                    let at = model.iter().position(|e| Some(e.0) == top);
                    let want = at.map(|i| model.remove(i).1);
                    assert_eq!(q.pick(), want, "step {step}");
                }
                _ => {
                    q.remove(sc);
                    model.retain(|e| e.1 != sc);
                }
            }
            assert_eq!(q.len(), model.len(), "step {step}");
            for sc in (0..24).map(ScId) {
                let listed = model.iter().any(|e| e.1 == sc);
                assert_eq!(q.contains(sc), listed, "step {step}: {sc:?}");
            }
            let mut by_class = model.clone();
            by_class.sort_by_key(|e| e.0);
            assert_eq!(q.occurrences(), Ok(by_class), "step {step}");
        }
    }

    #[test]
    fn duplicate_occurrences_round_trip() {
        // The same SC queued twice (self-signal during its own
        // dispatch) is picked twice, and the side table drains
        // with the queue.
        let mut q = RunQueue::default();
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
