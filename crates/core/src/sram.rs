//! Tail and head SRAM stages (§3.2 ➁ and ➄).
//!
//! Physically these are `N` SRAM modules each holding one slice of every
//! batch (the cyclical crossbar keeps all modules in lockstep, one
//! staggered slot apart). Because the modules advance in lockstep, the
//! simulator tracks whole batches and frames; the per-module slice view
//! is exercised by the crossbar unit tests.
//!
//! Both stages know the batch size `k` and account a batch's payload
//! as `k − padding` in O(1) (see [`Batch::payload_in`]); the head
//! stage cuts frames back into batches with O(1) front pops.

use std::collections::VecDeque;

use rip_units::DataSize;
use serde::{Deserialize, Serialize};

use crate::batch::Batch;

/// One frame: `K/k` batches for a single output, possibly padded.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Frame {
    /// The destination output.
    pub output: usize,
    /// The batches packed into the frame, FIFO order.
    pub batches: VecDeque<Batch>,
    /// Whole-batch padding added to fill the frame (bypass/padded sends).
    pub padded_batches: u64,
}

impl Frame {
    /// Payload bytes (excluding batch- and frame-level padding) of a
    /// frame of batches formed at batch size `k`.
    pub fn payload_in(&self, k: DataSize) -> DataSize {
        self.batches.iter().map(|b| b.payload_in(k)).sum()
    }
}

/// Occupancy accounting shared by the tail and head SRAM.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct SramOccupancy {
    /// Current bytes held.
    pub bytes: DataSize,
    /// Peak bytes held.
    pub peak: DataSize,
}

impl SramOccupancy {
    fn add(&mut self, d: DataSize) {
        self.bytes += d;
        self.peak = self.peak.max(self.bytes);
    }

    fn sub(&mut self, d: DataSize) {
        self.bytes = self.bytes.saturating_sub(d);
    }
}

/// The tail SRAM (§3.2 ➁): batches arrive striped over the `N` modules,
/// accumulate in per-output queues, and graduate into frames of `K/k`
/// batches which enter a logical FIFO toward the HBM writer.
#[derive(Debug, Clone)]
pub struct TailSram {
    /// The batch size `k`, which every batch occupies in full.
    batch_size: DataSize,
    batches_per_frame: u64,
    /// Per-output batch accumulation queues.
    forming: Vec<VecDeque<Batch>>,
    occupancy: SramOccupancy,
}

/// The snapshotted part of a [`TailSram`]: all of it but the batch
/// size, which the configuration fixes.
#[derive(Serialize, Deserialize)]
pub(crate) struct TailSramState {
    batches_per_frame: u64,
    forming: Vec<VecDeque<Batch>>,
    occupancy: SramOccupancy,
}

impl TailSramState {
    /// Number of per-output forming queues.
    pub(crate) fn outputs(&self) -> usize {
        self.forming.len()
    }
}

impl TailSram {
    /// A tail SRAM for `outputs` outputs with batch size `k` and
    /// `batches_per_frame` = K/k.
    pub fn new(outputs: usize, batch_size: DataSize, batches_per_frame: u64) -> Self {
        assert!(outputs > 0 && !batch_size.is_zero() && batches_per_frame > 0);
        TailSram {
            batch_size,
            batches_per_frame,
            forming: vec![VecDeque::new(); outputs],
            occupancy: SramOccupancy::default(),
        }
    }

    /// The snapshotted part of this stage.
    pub(crate) fn state(&self) -> TailSramState {
        TailSramState {
            batches_per_frame: self.batches_per_frame,
            forming: self.forming.clone(),
            occupancy: self.occupancy,
        }
    }

    /// Rebuild a stage of batch size `k` from its snapshotted part.
    pub(crate) fn from_state(batch_size: DataSize, s: TailSramState) -> Self {
        TailSram {
            batch_size,
            batches_per_frame: s.batches_per_frame,
            forming: s.forming,
            occupancy: s.occupancy,
        }
    }

    /// Accept one batch; returns a full frame if this batch completed
    /// one (§3.2: "when the queue size of a module reaches K/k batch
    /// slices, it forms a new frame slice").
    pub fn push_batch(&mut self, batch: Batch) -> Option<Frame> {
        let o = batch.output;
        debug_assert_eq!(batch.size(), self.batch_size);
        self.occupancy.add(self.batch_size);
        self.forming[o].push_back(batch);
        if self.forming[o].len() as u64 >= self.batches_per_frame {
            // One batch at a time, so the queue holds exactly one
            // frame's worth: hand the whole queue over.
            debug_assert_eq!(self.forming[o].len() as u64, self.batches_per_frame);
            let batches = std::mem::take(&mut self.forming[o]);
            self.occupancy.sub(self.batch_size * self.batches_per_frame);
            Some(Frame {
                output: o,
                batches,
                padded_batches: 0,
            })
        } else {
            None
        }
    }

    /// Take whatever is queued for `output` as a padded frame (§4
    /// "Latency and bypass"). Returns `None` if nothing is queued.
    pub fn take_padded_frame(&mut self, output: usize) -> Option<Frame> {
        if self.forming[output].is_empty() {
            return None;
        }
        let batches = std::mem::take(&mut self.forming[output]);
        self.occupancy.sub(self.batch_size * batches.len() as u64);
        let padded = self.batches_per_frame - batches.len() as u64;
        Some(Frame {
            output,
            batches,
            padded_batches: padded,
        })
    }

    /// Batches currently forming for `output`.
    pub fn forming_len(&self, output: usize) -> usize {
        self.forming[output].len()
    }

    /// Occupancy accounting.
    pub fn occupancy(&self) -> SramOccupancy {
        self.occupancy
    }
}

/// The head SRAM (§3.2 ➄): per-output frame buffers drained by the
/// output ports.
#[derive(Debug, Clone)]
pub struct HeadSram {
    /// The batch size `k` of every buffered batch.
    batch_size: DataSize,
    /// Per-output buffered frames.
    frames: Vec<VecDeque<Frame>>,
    /// Per-output limit, in frames.
    limit: usize,
    occupancy: SramOccupancy,
}

/// The snapshotted part of a [`HeadSram`]: all of it but the batch
/// size, which the configuration fixes.
#[derive(Serialize, Deserialize)]
pub(crate) struct HeadSramState {
    frames: Vec<VecDeque<Frame>>,
    limit: usize,
    occupancy: SramOccupancy,
}

impl HeadSramState {
    /// Number of per-output frame queues.
    pub(crate) fn outputs(&self) -> usize {
        self.frames.len()
    }
}

impl HeadSram {
    /// A head SRAM for `outputs` outputs of batch size `k`, holding up
    /// to `limit` frames each.
    pub fn new(outputs: usize, batch_size: DataSize, limit: usize) -> Self {
        assert!(outputs > 0 && !batch_size.is_zero() && limit > 0);
        HeadSram {
            batch_size,
            frames: vec![VecDeque::new(); outputs],
            limit,
            occupancy: SramOccupancy::default(),
        }
    }

    /// The snapshotted part of this stage.
    pub(crate) fn state(&self) -> HeadSramState {
        HeadSramState {
            frames: self.frames.clone(),
            limit: self.limit,
            occupancy: self.occupancy,
        }
    }

    /// Rebuild a stage of batch size `k` from its snapshotted part.
    pub(crate) fn from_state(batch_size: DataSize, s: HeadSramState) -> Self {
        HeadSram {
            batch_size,
            frames: s.frames,
            limit: s.limit,
            occupancy: s.occupancy,
        }
    }

    /// True if `output` can accept another frame.
    pub fn has_room(&self, output: usize) -> bool {
        self.frames[output].len() < self.limit
    }

    /// Buffer a frame for its output.
    ///
    /// # Panics
    /// Panics if the output is full — the read engine must check
    /// [`HeadSram::has_room`] before fetching a frame.
    pub fn push_frame(&mut self, frame: Frame) {
        let o = frame.output;
        assert!(self.has_room(o), "head SRAM overflow on output {o}");
        self.occupancy.add(frame.payload_in(self.batch_size));
        self.frames[o].push_back(frame);
    }

    /// Pop the next batch for `output`, cutting frames back into
    /// batches FIFO.
    pub fn pop_batch(&mut self, output: usize) -> Option<Batch> {
        let q = &mut self.frames[output];
        loop {
            let front = q.front_mut()?;
            if front.batches.is_empty() {
                q.pop_front();
                continue;
            }
            let batch = front.batches.pop_front().expect("nonempty");
            if front.batches.is_empty() {
                q.pop_front();
            }
            self.occupancy.sub(batch.payload_in(self.batch_size));
            return Some(batch);
        }
    }

    /// Frames currently buffered for `output`.
    pub fn frames_buffered(&self, output: usize) -> usize {
        self.frames[output].len()
    }

    /// True if `output` has any batch to drain.
    pub fn has_data(&self, output: usize) -> bool {
        self.frames[output].iter().any(|f| !f.batches.is_empty())
    }

    /// Occupancy accounting.
    pub fn occupancy(&self) -> SramOccupancy {
        self.occupancy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Chunk;
    use rip_units::SimTime;

    /// The batch size every test batch is formed at.
    const K: DataSize = DataSize::from_bytes(1024);

    fn batch(output: usize, seq: u64, bytes: u64) -> Batch {
        Batch {
            input: 0,
            output,
            seq,
            chunks: vec![Chunk {
                packet: seq,
                offset: 0,
                len: DataSize::from_bytes(bytes),
                is_last: true,
                arrival: SimTime::ZERO,
                flow: rip_traffic::FlowKey {
                    src_ip: 1,
                    dst_ip: 2,
                    src_port: 3,
                    dst_port: 4,
                    proto: 6,
                },
            }],
            padding: K - DataSize::from_bytes(bytes),
        }
    }

    #[test]
    fn tail_forms_frame_after_k_over_k_batches() {
        let mut t = TailSram::new(4, K, 4);
        for seq in 0..3 {
            assert!(t.push_batch(batch(1, seq, 1000)).is_none());
        }
        assert_eq!(t.forming_len(1), 3);
        let f = t.push_batch(batch(1, 3, 1000)).expect("frame forms");
        assert_eq!(f.batches.len(), 4);
        assert_eq!(f.output, 1);
        assert_eq!(f.padded_batches, 0);
        assert_eq!(t.forming_len(1), 0);
        // Occupancy returned to zero.
        assert_eq!(t.occupancy().bytes, DataSize::ZERO);
        assert_eq!(t.occupancy().peak, DataSize::from_bytes(4096));
    }

    #[test]
    fn tail_outputs_are_independent() {
        let mut t = TailSram::new(2, K, 2);
        t.push_batch(batch(0, 0, 100));
        t.push_batch(batch(1, 0, 100));
        assert!(t.push_batch(batch(0, 1, 100)).is_some());
        assert_eq!(t.forming_len(1), 1);
    }

    #[test]
    fn padded_frame_takes_partial_contents() {
        let mut t = TailSram::new(2, K, 4);
        t.push_batch(batch(0, 0, 500));
        let f = t.take_padded_frame(0).expect("partial frame");
        assert_eq!(f.batches.len(), 1);
        assert_eq!(f.padded_batches, 3);
        assert!(t.take_padded_frame(0).is_none());
    }

    #[test]
    fn head_buffers_and_cuts_frames() {
        let mut h = HeadSram::new(2, K, 2);
        assert!(h.has_room(0));
        let f = Frame {
            output: 0,
            batches: VecDeque::from(vec![batch(0, 0, 700), batch(0, 1, 800)]),
            padded_batches: 0,
        };
        h.push_frame(f);
        assert_eq!(h.frames_buffered(0), 1);
        assert!(h.has_data(0));
        let b0 = h.pop_batch(0).unwrap();
        assert_eq!(b0.seq, 0);
        let b1 = h.pop_batch(0).unwrap();
        assert_eq!(b1.seq, 1);
        assert!(h.pop_batch(0).is_none());
        assert!(!h.has_data(0));
        assert_eq!(h.occupancy().bytes, DataSize::ZERO);
    }

    #[test]
    fn head_room_limit_enforced() {
        let mut h = HeadSram::new(1, K, 1);
        h.push_frame(Frame {
            output: 0,
            batches: VecDeque::from(vec![batch(0, 0, 100)]),
            padded_batches: 0,
        });
        assert!(!h.has_room(0));
    }

    #[test]
    #[should_panic(expected = "head SRAM overflow")]
    fn head_overflow_panics() {
        let mut h = HeadSram::new(1, K, 1);
        for seq in 0..2 {
            h.push_frame(Frame {
                output: 0,
                batches: VecDeque::from(vec![batch(0, seq, 100)]),
                padded_batches: 0,
            });
        }
    }

    #[test]
    fn empty_frames_are_skipped_by_pop() {
        let mut h = HeadSram::new(1, K, 4);
        h.push_frame(Frame {
            output: 0,
            batches: VecDeque::from(vec![]),
            padded_batches: 4,
        });
        h.push_frame(Frame {
            output: 0,
            batches: VecDeque::from(vec![batch(0, 9, 64)]),
            padded_batches: 3,
        });
        let b = h.pop_batch(0).unwrap();
        assert_eq!(b.seq, 9);
        assert!(h.pop_batch(0).is_none());
    }

    /// Move a frame the tail handed over into the head, checking it
    /// carries the tail model's oldest batches.
    fn hand_over(
        f: Frame,
        tail_model: &mut [VecDeque<Batch>],
        head_model: &mut [VecDeque<Batch>],
        head: &mut HeadSram,
    ) -> proptest::TestCaseResult {
        for b in &f.batches {
            let oldest = tail_model[f.output].pop_front();
            proptest::prop_assert_eq!(oldest.as_ref(), Some(b));
        }
        head_model[f.output].extend(f.batches.iter().cloned());
        head.push_frame(f);
        Ok(())
    }

    proptest::proptest! {
        /// Over batch streams that mix full batches, timeout-padded
        /// flushes and padded bypass frames, the `k − padding`
        /// accounting of both stages equals the chunk-summed one at
        /// every step, and the head stage pops batches in FIFO order.
        #[test]
        fn k_minus_padding_occupancy_matches_the_chunk_sums(
            outputs in 1usize..4,
            batches_per_frame in 1u64..6,
            ops in proptest::collection::vec((0u8..5, 0usize..4, 40u64..3000), 1..200),
        ) {
            let mut asm = crate::batch::BatchAssembler::new(0, outputs, K);
            let mut tail = TailSram::new(outputs, K, batches_per_frame);
            let mut head = HeadSram::new(outputs, K, ops.len());
            // The models: batches held per output, in FIFO order.
            let mut tail_model: Vec<VecDeque<Batch>> = vec![VecDeque::new(); outputs];
            let mut head_model: Vec<VecDeque<Batch>> = vec![VecDeque::new(); outputs];
            let (mut tail_peak, mut head_peak) = (DataSize::ZERO, DataSize::ZERO);
            let mut next_id = 0u64;
            for &(kind, o, bytes) in &ops {
                let o = o % outputs;
                let mut batches = Vec::new();
                let mut bypass = None;
                match kind {
                    0 | 1 => {
                        next_id += 1;
                        let p = rip_traffic::Packet::new(
                            next_id,
                            0,
                            o,
                            DataSize::from_bytes(bytes),
                            SimTime::ZERO,
                        );
                        batches = asm.push(&p);
                    }
                    2 => batches.extend(asm.flush(o)),
                    3 => bypass = tail.take_padded_frame(o),
                    _ => {
                        let popped = head.pop_batch(o);
                        proptest::prop_assert_eq!(popped, head_model[o].pop_front());
                    }
                }
                if let Some(f) = bypass {
                    hand_over(f, &mut tail_model, &mut head_model, &mut head)?;
                }
                for b in batches {
                    tail_model[b.output].push_back(b.clone());
                    // The tail peaks between taking a batch and handing
                    // over the frame it completes.
                    let held: DataSize = tail_model.iter().flatten().map(|b| b.size()).sum();
                    tail_peak = tail_peak.max(held);
                    if let Some(f) = tail.push_batch(b) {
                        hand_over(f, &mut tail_model, &mut head_model, &mut head)?;
                    }
                }
                let tail_bytes: DataSize = tail_model.iter().flatten().map(|b| b.size()).sum();
                let head_bytes: DataSize = head_model.iter().flatten().map(|b| b.payload()).sum();
                head_peak = head_peak.max(head_bytes);
                proptest::prop_assert_eq!(tail.occupancy().bytes, tail_bytes);
                proptest::prop_assert_eq!(tail.occupancy().peak, tail_peak);
                proptest::prop_assert_eq!(head.occupancy().bytes, head_bytes);
                proptest::prop_assert_eq!(head.occupancy().peak, head_peak);
            }
        }
    }
}
