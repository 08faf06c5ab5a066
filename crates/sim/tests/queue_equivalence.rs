//! Differential property tests: the timing-wheel kernel and the
//! binary-heap oracle must realize the same `(time, seq)` total order
//! for arbitrary insert/pop sequences — including same-timestamp
//! tie-breaks, far-future overflow buckets, and draining after a
//! snapshot/rebuild merge.

use proptest::prelude::*;
use rip_sim::{EventQueue, QueueKind};
use rip_units::SimTime;

/// One scripted queue operation, decoded from a `(selector, raw)` pair
/// (the vendored proptest has no weighted-union combinator).
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Schedule an event `delta_ps` after the last popped time.
    Schedule(u64),
    /// Pop one event and compare across kernels.
    Pop,
    /// Snapshot both queues, cross-rebuild (wheel from the heap's
    /// entries and vice versa), and continue — drain-after-merge.
    Snapshot,
}

/// Decode a raw draw into an op. The schedule deltas span every wheel
/// regime: zero (FIFO tie-break), one bucket (2^10 ps), level-0/1/2
/// rotations, and u64-extreme offsets that land in the top overflow
/// levels.
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

/// Pop both kernels once and require identical `(time, event)` results
/// plus identical post-pop observables.
fn pop_both(wheel: &mut EventQueue<u32>, heap: &mut EventQueue<u32>) {
    assert_eq!(wheel.peek_time(), heap.peek_time());
    let (a, b) = (wheel.pop(), heap.pop());
    assert_eq!(a, b, "kernels diverged on pop");
    assert_eq!(wheel.now(), heap.now());
    assert_eq!(wheel.len(), heap.len());
}

proptest! {
    /// Arbitrary scripts produce identical pop sequences from both
    /// kernels, at every intermediate step and in the final drain.
    #[test]
    fn wheel_matches_heap_oracle(
        raw_ops in prop::collection::vec((any::<u8>(), any::<u64>()), 1..200),
    ) {
        let mut wheel = EventQueue::with_kind(QueueKind::TimingWheel);
        let mut heap = EventQueue::with_kind(QueueKind::BinaryHeap);
        let mut tag = 0u32;
        for &(sel, raw) in &raw_ops {
            match decode(sel, raw) {
                Op::Schedule(d) => {
                    let at = SimTime::from_ps(wheel.now().as_ps().saturating_add(d));
                    wheel.schedule(at, tag);
                    heap.schedule(at, tag);
                    tag += 1;
                    prop_assert_eq!(wheel.peek_time(), heap.peek_time());
                }
                Op::Pop => pop_both(&mut wheel, &mut heap),
                Op::Snapshot => {
                    // Pop order is kernel-agnostic: entries written by
                    // one kernel must rebuild under the other with the
                    // same continuation.
                    let we = wheel.entries();
                    let he = heap.entries();
                    prop_assert_eq!(&we, &he, "snapshot entries diverged");
                    let (seq, now) = (wheel.next_seq(), wheel.now());
                    wheel = EventQueue::from_entries_in(
                        QueueKind::TimingWheel, he, seq, now).expect("consistent");
                    heap = EventQueue::from_entries_in(
                        QueueKind::BinaryHeap, we, seq, now).expect("consistent");
                }
            }
        }
        // Drain-after-merge: whatever the script left pending must pop
        // identically to exhaustion.
        while !wheel.is_empty() || !heap.is_empty() {
            pop_both(&mut wheel, &mut heap);
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
        let mut wheel = EventQueue::with_kind(QueueKind::TimingWheel);
        for i in 0..burst as u32 {
            wheel.schedule(t, i);
        }
        // Rebuild mid-burst state under the oracle and keep scheduling.
        let split = split % (burst + 1);
        for _ in 0..split {
            wheel.pop();
        }
        let (seq, now) = (wheel.next_seq(), wheel.now());
        let mut heap = EventQueue::from_entries_in(
            QueueKind::BinaryHeap, wheel.entries(), seq, now).expect("consistent");
        for i in 0..4u32 {
            wheel.schedule(t.max(now), 1000 + i);
            heap.schedule(t.max(now), 1000 + i);
        }
        while !wheel.is_empty() || !heap.is_empty() {
            pop_both(&mut wheel, &mut heap);
        }
    }
}
