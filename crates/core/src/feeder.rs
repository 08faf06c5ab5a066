//! The switch engine's single-packet lookahead over a pull-based
//! [`PacketSource`].
//!
//! Batch engines pre-schedule every arrival into the event queue, which
//! costs O(horizon) memory. The streaming loop instead holds one
//! buffered packet, so it can interleave "next external arrival" with
//! "next internal event" while memory stays proportional to the
//! in-flight work. The source is held by value, so for a
//! [`StatefulSource`] the lookahead and the source position are saved
//! and restored together by the checkpointed run.

use rip_traffic::{Packet, PacketSource, StatefulSource};
use rip_units::SimTime;
use serde::{DeError, Deserialize, Serialize, Value};

/// A single-item lookahead buffer over a time-ordered packet source.
///
/// Pulls lazily (a peek pulls at most one packet), checks that arrival
/// times never decrease, and counts source progress in [`Self::pulled`].
pub(crate) struct Lookahead<S> {
    source: S,
    buf: Option<(SimTime, Packet)>,
    /// The source returned `None`; never pull it again.
    source_done: bool,
    /// Largest arrival pulled so far, for the ordering check.
    last_pulled: SimTime,
    /// Packets pulled so far, including the buffered one.
    pulled: u64,
}

impl<S: PacketSource> Lookahead<S> {
    pub(crate) fn new(source: S) -> Self {
        Lookahead {
            source,
            buf: None,
            source_done: false,
            last_pulled: SimTime::ZERO,
            pulled: 0,
        }
    }

    fn fill(&mut self) {
        if self.buf.is_none() && !self.source_done {
            match self.source.next_packet() {
                Some(p) => {
                    assert!(
                        p.arrival >= self.last_pulled,
                        "source must yield non-decreasing times"
                    );
                    self.last_pulled = p.arrival;
                    self.pulled += 1;
                    self.buf = Some((p.arrival, p));
                }
                None => self.source_done = true,
            }
        }
    }

    /// Arrival time of the next packet, if any.
    pub(crate) fn peek_time(&mut self) -> Option<SimTime> {
        self.fill();
        self.buf.map(|(t, _)| t)
    }

    /// Remove and return the next packet.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, Packet)> {
        self.fill();
        self.buf.take()
    }

    /// True once the source is drained and nothing is buffered.
    pub(crate) fn is_exhausted(&mut self) -> bool {
        self.fill();
        self.source_done && self.buf.is_none()
    }

    /// Packets pulled from the source so far. Counts the buffered
    /// lookahead packet the loop has not consumed yet — it measures
    /// source progress, not loop progress — and is deterministic for
    /// a deterministic source, so it is safe to export as telemetry.
    pub(crate) fn pulled(&self) -> u64 {
        self.pulled
    }

    /// The buffered packet, if one was pulled but not yet popped.
    pub(crate) fn buffered(&self) -> Option<&Packet> {
        self.buf.as_ref().map(|(_, p)| p)
    }
}

impl<S: PacketSource + StatefulSource> Lookahead<S> {
    pub(crate) fn save(&self) -> FeederState {
        FeederState {
            buf: self.buf,
            source_done: self.source_done,
            last_pulled: self.last_pulled,
            pulled: self.pulled,
            source: self.source.save_state(),
        }
    }

    /// Rebuild from a snapshot: rewind `source` to its saved position,
    /// then overwrite the lookahead so the already-pulled packet is not
    /// pulled twice.
    pub(crate) fn restore(mut source: S, st: &FeederState) -> Result<Self, DeError> {
        source.restore_state(&st.source)?;
        Ok(Lookahead {
            source,
            buf: st.buf,
            source_done: st.source_done,
            last_pulled: st.last_pulled,
            pulled: st.pulled,
        })
    }
}

/// Serialized [`Lookahead`]: the buffered packet plus the source's own
/// position (via [`StatefulSource`]).
#[derive(Serialize, Deserialize)]
pub(crate) struct FeederState {
    buf: Option<(SimTime, Packet)>,
    source_done: bool,
    last_pulled: SimTime,
    pulled: u64,
    source: Value,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rip_traffic::ReplaySource;
    use rip_units::DataSize;

    fn packets(times_ns: &[u64]) -> Vec<Packet> {
        times_ns
            .iter()
            .enumerate()
            .map(|(id, &t)| {
                Packet::new(
                    id as u64,
                    0,
                    0,
                    DataSize::from_bytes(64),
                    SimTime::from_ns(t),
                )
            })
            .collect()
    }

    /// Counts pulls, to show the lookahead never reads ahead of need.
    struct Counting(u64);

    impl PacketSource for Counting {
        fn next_packet(&mut self) -> Option<Packet> {
            self.0 += 1;
            Some(Packet::new(
                self.0,
                0,
                0,
                DataSize::from_bytes(64),
                SimTime::from_ns(self.0),
            ))
        }
    }

    #[test]
    fn yields_items_in_order() {
        let trace = packets(&[1, 2, 2, 5]);
        let mut f = Lookahead::new(ReplaySource::new(&trace));
        assert_eq!(f.peek_time(), Some(SimTime::from_ns(1)));
        let mut got = Vec::new();
        while let Some((t, p)) = f.pop() {
            assert_eq!(t, p.arrival);
            got.push(p.id);
        }
        assert_eq!(got, vec![0, 1, 2, 3]);
        assert!(f.is_exhausted());
    }

    #[test]
    fn buffers_at_most_lookahead() {
        let mut f = Lookahead::new(Counting(0));
        // Peeks pull exactly one packet, not the whole stream.
        assert!(f.peek_time().is_some());
        assert!(f.peek_time().is_some());
        assert_eq!(f.source.0, 1);
        assert_eq!(f.buffered().map(|p| p.id), Some(1));
        let (_, first) = f.pop().unwrap();
        assert_eq!(first.id, 1);
        assert_eq!(f.source.0, 1);
    }

    #[test]
    fn pulled_counts_source_progress() {
        let trace = packets(&[1, 2, 3]);
        let mut f = Lookahead::new(ReplaySource::new(&trace));
        assert_eq!(f.pulled(), 0);
        // Peeking pulls one lookahead packet.
        f.peek_time();
        assert_eq!(f.pulled(), 1);
        while f.pop().is_some() {}
        assert_eq!(f.pulled(), 3);
    }

    #[test]
    fn empty_source_is_exhausted_immediately() {
        let mut f = Lookahead::new(ReplaySource::new(&[]));
        assert!(f.is_exhausted());
        assert_eq!(f.peek_time(), None);
        assert!(f.pop().is_none());
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn out_of_order_source_panics() {
        let trace = packets(&[5, 1]);
        let mut f = Lookahead::new(ReplaySource::new(&trace));
        while f.pop().is_some() {}
    }
}
