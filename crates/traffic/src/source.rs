//! Pull-based packet sources.
//!
//! The batch pipeline materializes a complete `Vec<Packet>` before the
//! first event fires, so memory grows linearly with the simulated
//! horizon. A [`PacketSource`] instead yields packets one at a time in
//! non-decreasing arrival order, letting the event loops pull arrivals
//! as simulated time advances and keeping memory proportional to the
//! number of packets actually in flight.
//!
//! Determinism contract: a source is a pure function of its
//! construction parameters (seed included). Pulling the same source
//! twice yields the same packet sequence, and the adapters here
//! ([`BoundedSource`], [`MergedSource`], [`ReplaySource`]) are written
//! so that collecting a source reproduces, byte for byte, the vector
//! the batch helpers ([`PacketGenerator::generate_until`],
//! [`merge_streams`]) would have built:
//!
//! * [`BoundedSource`] stops exactly like `generate_until` — the first
//!   packet beyond the horizon is generated (consuming the same RNG
//!   draws) and then discarded.
//! * [`MergedSource`] breaks ties with the same `(arrival, input, id)`
//!   key as `merge_streams`'s stable sort, falling back to lane
//!   insertion order on full ties.
//!
//! [`PacketGenerator::generate_until`]: crate::PacketGenerator::generate_until
//! [`merge_streams`]: crate::merge_streams

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use rip_units::SimTime;
use serde::{DeError, Deserialize, Serialize, Value};

use crate::packet::Packet;
use crate::PacketGenerator;

/// A pull-based stream of packets in non-decreasing arrival order.
///
/// `next_packet` returns `None` once the stream is exhausted; after
/// that it must keep returning `None`. Implementations must be
/// deterministic: the yielded sequence depends only on construction
/// parameters, never on wall-clock time or pull timing.
pub trait PacketSource {
    /// The next packet, or `None` when the stream has ended.
    fn next_packet(&mut self) -> Option<Packet>;

    /// Adapt this source into a plain [`Iterator`] over packets.
    fn packets(self) -> Packets<Self>
    where
        Self: Sized,
    {
        Packets { source: self }
    }
}

impl<S: PacketSource + ?Sized> PacketSource for &mut S {
    fn next_packet(&mut self) -> Option<Packet> {
        (**self).next_packet()
    }
}

/// A source whose mutable position can be checkpointed and restored.
///
/// `save_state` captures everything that changes as packets are pulled
/// (RNG state, stream position, lookahead buffers) as a [`Value`]
/// tree; `restore_state` rewinds a *freshly constructed, identically
/// configured* source to that position. The static configuration
/// (seed, load, weights, flow pool) is **not** part of the state — the
/// resuming process rebuilds it from the run spec, exactly as the
/// original process did, then restores the position on top.
///
/// Contract: for any source `s`, `save_state` → pull k packets →
/// construct an identical source → `restore_state` must yield the same
/// next k packets (and the same exhaustion point). The checkpoint
/// equivalence suite holds every implementation to it.
pub trait StatefulSource {
    /// Capture the mutable pull position.
    fn save_state(&self) -> Value;

    /// Restore a previously captured position onto a freshly built,
    /// identically configured source.
    fn restore_state(&mut self, state: &Value) -> Result<(), DeError>;
}

impl<S: StatefulSource + ?Sized> StatefulSource for &mut S {
    fn save_state(&self) -> Value {
        (**self).save_state()
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), DeError> {
        (**self).restore_state(state)
    }
}

impl<S: StatefulSource + ?Sized> StatefulSource for Box<S> {
    fn save_state(&self) -> Value {
        (**self).save_state()
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), DeError> {
        (**self).restore_state(state)
    }
}

impl<S: PacketSource + ?Sized> PacketSource for Box<S> {
    fn next_packet(&mut self) -> Option<Packet> {
        (**self).next_packet()
    }
}

impl PacketSource for PacketGenerator {
    fn next_packet(&mut self) -> Option<Packet> {
        PacketGenerator::next_packet(self)
    }
}

/// Iterator adapter returned by [`PacketSource::packets`].
#[derive(Debug)]
pub struct Packets<S> {
    source: S,
}

impl<S: PacketSource> Iterator for Packets<S> {
    type Item = Packet;

    fn next(&mut self) -> Option<Packet> {
        self.source.next_packet()
    }
}

/// Truncates an inner source at an arrival horizon.
///
/// Matches [`PacketGenerator::generate_until`] exactly: the first
/// packet whose arrival exceeds `horizon` is pulled from the inner
/// source (so any RNG state it consumed is consumed here too) and then
/// discarded; the stream ends and the inner source is never pulled
/// again.
///
/// [`PacketGenerator::generate_until`]: crate::PacketGenerator::generate_until
#[derive(Debug)]
pub struct BoundedSource<S> {
    inner: S,
    horizon: SimTime,
    done: bool,
}

impl<S: PacketSource> BoundedSource<S> {
    /// Bound `inner` to packets arriving at or before `horizon`.
    pub fn new(inner: S, horizon: SimTime) -> Self {
        Self {
            inner,
            horizon,
            done: false,
        }
    }
}

impl<S: PacketSource> PacketSource for BoundedSource<S> {
    fn next_packet(&mut self) -> Option<Packet> {
        if self.done {
            return None;
        }
        match self.inner.next_packet() {
            Some(p) if p.arrival <= self.horizon => Some(p),
            _ => {
                // First overshoot (or inner exhaustion) ends the
                // stream; the overshooting packet is dropped, exactly
                // like `generate_until`'s final partial gap.
                self.done = true;
                None
            }
        }
    }
}

#[derive(Serialize, Deserialize)]
struct BoundedState {
    inner: Value,
    done: bool,
}

impl<S: StatefulSource> StatefulSource for BoundedSource<S> {
    fn save_state(&self) -> Value {
        BoundedState {
            inner: self.inner.save_state(),
            done: self.done,
        }
        .to_value()
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), DeError> {
        let s = BoundedState::from_value(state)?;
        self.inner.restore_state(&s.inner)?;
        self.done = s.done;
        Ok(())
    }
}

/// Deterministic k-way merge of packet sources.
///
/// Yields the globally arrival-ordered interleaving of its lanes,
/// breaking ties by `(arrival, input, id)` — the same key
/// [`merge_streams`] sorts by — and, on full key ties, by lane
/// insertion order (which is what `merge_streams`'s stable sort
/// preserves). Each lane buffers at most one pending packet, so the
/// merge runs in O(lanes) memory regardless of horizon, and a min-heap
/// of the lane heads keyed `(arrival, input, id, lane)` makes each
/// pull O(log lanes).
///
/// Only the lane that yielded the previous packet is re-pulled, lazily
/// at the start of the next call, so the checkpointed position (every
/// lane's source state, lookahead and end flag) is exactly what an
/// eager refill-every-lane scan would leave. The heap is derived from
/// the lookaheads: it is never serialized, and it is rebuilt on the
/// first pull after construction or [`StatefulSource::restore_state`].
///
/// [`merge_streams`]: crate::merge_streams
#[derive(Debug)]
pub struct MergedSource<S> {
    lanes: Vec<Lane<S>>,
    /// Lanes holding a lookahead, keyed for the merge order.
    heap: BinaryHeap<Reverse<HeadKey>>,
    /// Whether `heap` mirrors the lookaheads (false until the first
    /// pull after construction or restore).
    primed: bool,
    /// Whether the heap top is the lane that yielded the last packet
    /// and still has to be refilled.
    top_taken: bool,
}

/// Merge key of a lane head: `(arrival, input, id, lane)`.
type HeadKey = (SimTime, usize, u64, usize);

#[derive(Debug)]
struct Lane<S> {
    source: S,
    /// One-packet lookahead; `None` once the lane is exhausted and the
    /// buffered packet has been yielded.
    pending: Option<Packet>,
    /// Whether the underlying source has ended (stop pulling it).
    done: bool,
}

impl<S: PacketSource> Lane<S> {
    /// Pull a lookahead into an empty, unfinished lane; the merge key
    /// of the lane's head, if it has one.
    fn refill(&mut self, index: usize) -> Option<HeadKey> {
        if self.pending.is_none() && !self.done {
            self.pending = self.source.next_packet();
            self.done = self.pending.is_none();
        }
        self.pending
            .as_ref()
            .map(|p| (p.arrival, p.input, p.id, index))
    }
}

impl<S: PacketSource> MergedSource<S> {
    /// Merge `sources`; lane order is the tie-break of last resort.
    pub fn new(sources: Vec<S>) -> Self {
        let lanes: Vec<Lane<S>> = sources
            .into_iter()
            .map(|source| Lane {
                source,
                pending: None,
                done: false,
            })
            .collect();
        Self {
            heap: BinaryHeap::with_capacity(lanes.len()),
            lanes,
            primed: false,
            top_taken: false,
        }
    }

    /// Number of merged lanes.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// The next packet in merge order together with the index of the
    /// lane (position in the `sources` given to [`MergedSource::new`])
    /// that yielded it.
    pub fn next_indexed(&mut self) -> Option<(usize, Packet)> {
        if !self.primed {
            self.heap.clear();
            for (i, lane) in self.lanes.iter_mut().enumerate() {
                if let Some(key) = lane.refill(i) {
                    self.heap.push(Reverse(key));
                }
            }
            self.primed = true;
        } else if std::mem::take(&mut self.top_taken) {
            let mut top = self
                .heap
                .peek_mut()
                .expect("the yielding lane heads the heap");
            let i = top.0 .3;
            match self.lanes[i].refill(i) {
                Some(key) => *top = Reverse(key),
                None => {
                    PeekMut::pop(top);
                }
            }
        }
        let Reverse((.., i)) = *self.heap.peek()?;
        self.top_taken = true;
        let p = self.lanes[i]
            .pending
            .take()
            .expect("heap lanes hold a lookahead");
        Some((i, p))
    }
}

impl<S: PacketSource> PacketSource for MergedSource<S> {
    fn next_packet(&mut self) -> Option<Packet> {
        self.next_indexed().map(|(_, p)| p)
    }
}

#[derive(Serialize, Deserialize)]
struct LaneState {
    inner: Value,
    pending: Option<Packet>,
    done: bool,
}

#[derive(Serialize, Deserialize)]
struct MergedState {
    lanes: Vec<Value>,
}

impl<S: StatefulSource> MergedSource<S> {
    /// Every lane's position (source state, lookahead, end flag) in lane
    /// order: the body of [`StatefulSource::save_state`], for wrappers
    /// that frame the lanes inside a state of their own.
    pub fn save_lanes(&self) -> Vec<Value> {
        self.lanes
            .iter()
            .map(|l| {
                LaneState {
                    inner: l.source.save_state(),
                    pending: l.pending,
                    done: l.done,
                }
                .to_value()
            })
            .collect()
    }

    /// Restore positions captured by [`MergedSource::save_lanes`] onto a
    /// freshly built, identically configured merge.
    pub fn restore_lanes(&mut self, lanes: &[Value]) -> Result<(), DeError> {
        if lanes.len() != self.lanes.len() {
            return Err(DeError::custom(format!(
                "merged source has {} lanes, snapshot has {}",
                self.lanes.len(),
                lanes.len()
            )));
        }
        for (lane, v) in self.lanes.iter_mut().zip(lanes) {
            let ls = LaneState::from_value(v)?;
            lane.source.restore_state(&ls.inner)?;
            lane.pending = ls.pending;
            lane.done = ls.done;
        }
        self.primed = false;
        self.top_taken = false;
        Ok(())
    }
}

impl<S: StatefulSource> StatefulSource for MergedSource<S> {
    fn save_state(&self) -> Value {
        MergedState {
            lanes: self.save_lanes(),
        }
        .to_value()
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), DeError> {
        self.restore_lanes(&MergedState::from_value(state)?.lanes)
    }
}

/// Replays a materialized, arrival-ordered slice as a source.
///
/// Back-compat shim: it lets the batch entry points (`run(&[Packet])`)
/// drive the streaming engine, and lets equivalence tests feed the
/// exact same trace to both engines.
#[derive(Debug, Clone)]
pub struct ReplaySource<'a> {
    trace: &'a [Packet],
    next: usize,
}

impl<'a> ReplaySource<'a> {
    /// Replay `trace` front to back.
    pub fn new(trace: &'a [Packet]) -> Self {
        Self { trace, next: 0 }
    }
}

impl PacketSource for ReplaySource<'_> {
    fn next_packet(&mut self) -> Option<Packet> {
        let p = self.trace.get(self.next)?;
        self.next += 1;
        Some(*p)
    }
}

impl StatefulSource for ReplaySource<'_> {
    fn save_state(&self) -> Value {
        (self.next as u64).to_value()
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), DeError> {
        let next = u64::from_value(state)? as usize;
        if next > self.trace.len() {
            return Err(DeError::custom(format!(
                "replay position {next} beyond trace length {}",
                self.trace.len()
            )));
        }
        self.next = next;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::{merge_streams, ArrivalProcess};
    use crate::size::SizeDistribution;
    use rip_units::DataRate;

    fn gen(input: usize, load: f64, seed: u64) -> PacketGenerator {
        PacketGenerator::new(
            input,
            DataRate::from_gbps(100),
            load,
            vec![1.0; 4],
            SizeDistribution::Imix,
            ArrivalProcess::Poisson,
            64,
            seed,
        )
        .expect("valid generator")
    }

    #[test]
    fn bounded_source_matches_generate_until() {
        let h = SimTime::from_ns(200_000);
        let batch = gen(0, 0.7, 9).generate_until(h);
        let streamed: Vec<Packet> = BoundedSource::new(gen(0, 0.7, 9), h).packets().collect();
        assert_eq!(batch, streamed);
        assert!(!batch.is_empty());
    }

    #[test]
    fn bounded_source_consumes_the_overshoot_like_generate_until() {
        let h = SimTime::from_ns(50_000);
        // After exhaustion both paths must leave the generator in the
        // same RNG state: the next packet drawn from each matches.
        let mut a = gen(1, 0.6, 17);
        let _ = a.generate_until(h);
        let mut bounded = BoundedSource::new(gen(1, 0.6, 17), h);
        while bounded.next_packet().is_some() {}
        assert_eq!(a.next_packet(), bounded.inner.next_packet());
    }

    #[test]
    fn bounded_source_of_zero_load_is_empty() {
        let mut s = BoundedSource::new(gen(0, 0.0, 1), SimTime::from_ns(1_000_000));
        assert_eq!(s.next_packet(), None);
        assert_eq!(s.next_packet(), None);
    }

    #[test]
    fn merged_source_matches_merge_streams() {
        let h = SimTime::from_ns(100_000);
        let batch = merge_streams(vec![
            gen(0, 0.5, 11).generate_until(h),
            gen(1, 0.5, 12).generate_until(h),
            gen(2, 0.8, 13).generate_until(h),
        ]);
        let streamed: Vec<Packet> = MergedSource::new(vec![
            BoundedSource::new(gen(0, 0.5, 11), h),
            BoundedSource::new(gen(1, 0.5, 12), h),
            BoundedSource::new(gen(2, 0.8, 13), h),
        ])
        .packets()
        .collect();
        assert_eq!(batch, streamed);
        assert!(!batch.is_empty());
    }

    #[test]
    fn merged_source_breaks_full_ties_by_lane_order() {
        // Two lanes with identical (arrival, input, id) packets: the
        // earlier lane must win, matching merge_streams' stable sort.
        let a = [Packet::new(
            5,
            0,
            1,
            rip_units::DataSize::from_bytes(100),
            SimTime::from_ns(10),
        )];
        let b = [Packet::new(
            5,
            0,
            2,
            rip_units::DataSize::from_bytes(200),
            SimTime::from_ns(10),
        )];
        let merged: Vec<Packet> =
            MergedSource::new(vec![ReplaySource::new(&a), ReplaySource::new(&b)])
                .packets()
                .collect();
        assert_eq!(merged[0].output, 1, "lane 0 wins the full tie");
        assert_eq!(merged[1].output, 2);
        let batch = merge_streams(vec![a.to_vec(), b.to_vec()]);
        assert_eq!(merged, batch);
    }

    #[test]
    fn save_restore_resumes_the_exact_stream() {
        let h = SimTime::from_ns(150_000);
        let mk = || {
            MergedSource::new(vec![
                BoundedSource::new(gen(0, 0.6, 31), h),
                BoundedSource::new(gen(1, 0.5, 32), h),
                BoundedSource::new(gen(2, 0.7, 33), h),
            ])
        };
        let mut live = mk();
        // Pull partway, snapshot, then drain the live source.
        let mut prefix = Vec::new();
        for _ in 0..200 {
            prefix.push(live.next_packet().expect("stream longer than 200"));
        }
        let state = live.save_state();
        let json = serde_json::to_string(&state.to_value()).unwrap();
        let tail: Vec<Packet> = live.packets().collect();
        // A fresh, identically configured source restored from the
        // serialized state must continue byte-identically.
        let mut resumed = mk();
        let v: Value = serde_json::from_str(&json).unwrap();
        resumed.restore_state(&v).unwrap();
        let resumed_tail: Vec<Packet> = resumed.packets().collect();
        assert!(!tail.is_empty());
        assert_eq!(tail, resumed_tail);
    }

    #[test]
    fn restore_rejects_lane_count_mismatch() {
        let h = SimTime::from_ns(1_000);
        let two = MergedSource::new(vec![
            BoundedSource::new(gen(0, 0.5, 1), h),
            BoundedSource::new(gen(1, 0.5, 2), h),
        ]);
        let state = two.save_state();
        let mut one = MergedSource::new(vec![BoundedSource::new(gen(0, 0.5, 1), h)]);
        let err = one.restore_state(&state).unwrap_err();
        assert!(err.to_string().contains("lanes"));
    }

    #[test]
    fn replay_source_yields_the_slice() {
        let h = SimTime::from_ns(20_000);
        let trace = gen(3, 0.4, 21).generate_until(h);
        let replayed: Vec<Packet> = ReplaySource::new(&trace).packets().collect();
        assert_eq!(trace, replayed);
    }
}
