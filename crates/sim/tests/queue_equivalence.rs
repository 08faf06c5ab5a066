//! Model-based property tests: the event queue must realize the
//! `(time, seq)` total order of a plain `Vec` model for arbitrary
//! insert/pop sequences — including same-timestamp tie-breaks,
//! u64-extreme times, and draining after a snapshot/rebuild.

use proptest::prelude::*;
use rip_sim::EventQueue;
use rip_units::SimTime;

/// One scripted queue operation, decoded from a `(selector, raw)` pair
/// (the vendored proptest has no weighted-union combinator).
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Schedule an event `delta_ps` after the last popped time.
    Schedule(u64),
    /// Pop one event and compare against the model.
    Pop,
    /// Snapshot the queue, rebuild it from its entries fed shuffled,
    /// and continue — drain-after-rebuild.
    Snapshot,
}

/// Decode a raw draw into an op. The schedule deltas span zero (FIFO
/// tie-break), sub-ns, µs and ms offsets, and u64-extreme offsets.
fn decode(sel: u8, raw: u64) -> Op {
    match sel % 13 {
        0 | 1 => Op::Schedule(0),
        2 | 3 => Op::Schedule(raw % 1024),
        4 | 5 => Op::Schedule(raw % 262_144),
        6 => Op::Schedule(raw % 67_108_864),
        7 => Op::Schedule(raw % 17_179_869_184),
        8 => Op::Schedule(u64::MAX / 2 + raw % (u64::MAX / 2)),
        9..=11 => Op::Pop,
        _ => Op::Snapshot,
    }
}

/// The reference model: pending `(time, seq, event)` entries kept
/// sorted by `(time, seq)`, so the earliest is always at the front.
#[derive(Default)]
struct Model {
    pending: Vec<(SimTime, u64, u32)>,
    next_seq: u64,
    now: SimTime,
}

impl Model {
    fn schedule(&mut self, time: SimTime, event: u32) {
        self.pending.push((time, self.next_seq, event));
        self.next_seq += 1;
        self.pending.sort_by_key(|&(t, s, _)| (t, s));
    }

    fn pop(&mut self) -> Option<(SimTime, u32)> {
        if self.pending.is_empty() {
            return None;
        }
        let (time, _, event) = self.pending.remove(0);
        self.now = time;
        Some((time, event))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.pending.first().map(|&(t, _, _)| t)
    }
}

/// Pop the queue and the model once and require identical `(time,
/// event)` results plus identical post-pop observables.
fn pop_both(q: &mut EventQueue<u32>, model: &mut Model) {
    assert_eq!(q.peek_time(), model.peek_time());
    assert_eq!(q.pop(), model.pop(), "queue diverged from the model on pop");
    assert_eq!(q.now(), model.now);
    assert_eq!(q.len(), model.pending.len());
}

/// Rebuild `q` from its own snapshot entries, fed in a rotated order
/// so the stored seqs (not the feed order) must decide the tie-breaks.
fn rebuild(q: &EventQueue<u32>, rotate: usize) -> EventQueue<u32> {
    let mut entries = q.entries();
    if !entries.is_empty() {
        let k = rotate % entries.len();
        entries.rotate_left(k);
        entries.reverse();
    }
    EventQueue::from_entries(entries, q.next_seq(), q.now()).expect("consistent")
}

proptest! {
    /// Arbitrary scripts produce the model's pop sequence, at every
    /// intermediate step and in the final drain.
    #[test]
    fn queue_matches_sorted_vec_model(
        raw_ops in prop::collection::vec((any::<u8>(), any::<u64>()), 1..200),
    ) {
        let mut q = EventQueue::new();
        let mut model = Model::default();
        let mut tag = 0u32;
        for &(sel, raw) in &raw_ops {
            match decode(sel, raw) {
                Op::Schedule(d) => {
                    let at = SimTime::from_ps(q.now().as_ps().saturating_add(d));
                    q.schedule(at, tag);
                    model.schedule(at, tag);
                    tag += 1;
                    prop_assert_eq!(q.peek_time(), model.peek_time());
                }
                Op::Pop => pop_both(&mut q, &mut model),
                Op::Snapshot => {
                    // Snapshot entries are the model's pending list in
                    // pop order, and rebuild to the same continuation.
                    prop_assert_eq!(&q.entries(), &model.pending, "snapshot entries diverged");
                    q = rebuild(&q, raw as usize);
                    prop_assert_eq!(q.next_seq(), model.next_seq);
                }
            }
        }
        // Drain-after-rebuild: whatever the script left pending must
        // pop in model order to exhaustion.
        while !q.is_empty() || !model.pending.is_empty() {
            pop_both(&mut q, &mut model);
        }
    }

    /// Bursts at one instant interleaved with snapshots: FIFO seq
    /// restoration survives rebuilds even when every pending time ties.
    #[test]
    fn same_time_bursts_stay_fifo(
        burst in 1usize..64,
        t_ps in 0u64..1_000_000,
        split in 0usize..64,
    ) {
        let t = SimTime::from_ps(t_ps);
        let mut q = EventQueue::new();
        let mut model = Model::default();
        for i in 0..burst as u32 {
            q.schedule(t, i);
            model.schedule(t, i);
        }
        // Rebuild mid-burst state and keep scheduling.
        let split = split % (burst + 1);
        for _ in 0..split {
            pop_both(&mut q, &mut model);
        }
        let mut q = rebuild(&q, split);
        let now = q.now();
        for i in 0..4u32 {
            q.schedule(t.max(now), 1000 + i);
            model.schedule(t.max(now), 1000 + i);
        }
        while !q.is_empty() || !model.pending.is_empty() {
            pop_both(&mut q, &mut model);
        }
    }
}
