//! Outside-in instrumentation: wrappers that time calls into the
//! simulator's public traits, and the counting JSONL writer.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rip_telemetry::{EpochDelta, MetricsRegistry, SpanEvent, TelemetrySink, WatchdogEvent};
use rip_traffic::{Packet, PacketSource};
use rip_units::SimTime;

/// 64-bit FNV-1a: a small, stable digest for reports and streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Bytes written to a counting writer, and their digest.
#[derive(Debug, Clone, Default)]
pub struct StreamTally {
    pub bytes: u64,
    pub hash: Fnv,
}

/// A `Write` that keeps nothing: it counts and hashes what it is given.
pub struct CountingWriter {
    tally: Arc<Mutex<StreamTally>>,
}

impl CountingWriter {
    pub fn new(tally: Arc<Mutex<StreamTally>>) -> Self {
        CountingWriter { tally }
    }
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let mut t = self.tally.lock().expect("tally");
        t.bytes += buf.len() as u64;
        t.hash.bytes(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Wall time spent inside the wrapped layers of one traced run.
#[derive(Debug, Default)]
pub struct Probe {
    source_ns: AtomicU64,
    source_pkts: AtomicU64,
    sink_ns: AtomicU64,
    sink_calls: AtomicU64,
}

impl Probe {
    pub fn add_source(&self, ns: u64, pkts: u64) {
        self.source_ns.fetch_add(ns, Ordering::Relaxed);
        self.source_pkts.fetch_add(pkts, Ordering::Relaxed);
    }

    fn add_sink(&self, since: Instant) {
        self.sink_ns.fetch_add(elapsed_ns(since), Ordering::Relaxed);
        self.sink_calls.fetch_add(1, Ordering::Relaxed);
    }

    pub fn source_ns(&self) -> u64 {
        self.source_ns.load(Ordering::Relaxed)
    }

    pub fn source_pkts(&self) -> u64 {
        self.source_pkts.load(Ordering::Relaxed)
    }

    pub fn sink_ns(&self) -> u64 {
        self.sink_ns.load(Ordering::Relaxed)
    }

    pub fn sink_calls(&self) -> u64 {
        self.sink_calls.load(Ordering::Relaxed)
    }
}

pub fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// Times every `next_packet` of the wrapped source.
pub struct TimedSource<S> {
    inner: S,
    pub ns: u64,
    pub pkts: u64,
}

impl<S> TimedSource<S> {
    pub fn new(inner: S) -> Self {
        TimedSource {
            inner,
            ns: 0,
            pkts: 0,
        }
    }
}

impl<S: PacketSource> PacketSource for TimedSource<S> {
    fn next_packet(&mut self) -> Option<Packet> {
        let t = Instant::now();
        let p = self.inner.next_packet();
        self.ns += elapsed_ns(t);
        self.pkts += u64::from(p.is_some());
        p
    }
}

/// Times every call into the wrapped telemetry sink.
pub struct TimedSink<S> {
    inner: S,
    probe: Arc<Probe>,
}

impl<S> TimedSink<S> {
    pub fn new(inner: S, probe: Arc<Probe>) -> Self {
        TimedSink { inner, probe }
    }
}

impl<S: TelemetrySink> TelemetrySink for TimedSink<S> {
    fn on_epoch(&mut self, source: &str, epoch: u64, delta: &EpochDelta) {
        let t = Instant::now();
        self.inner.on_epoch(source, epoch, delta);
        self.probe.add_sink(t);
    }

    fn on_span(&mut self, source: &str, span: &SpanEvent) {
        let t = Instant::now();
        self.inner.on_span(source, span);
        self.probe.add_sink(t);
    }

    fn on_watchdog(&mut self, source: &str, event: &WatchdogEvent) {
        let t = Instant::now();
        self.inner.on_watchdog(source, event);
        self.probe.add_sink(t);
    }

    fn on_run_end(&mut self, source: &str, at: SimTime, totals: &MetricsRegistry) {
        let t = Instant::now();
        self.inner.on_run_end(source, at, totals);
        self.probe.add_sink(t);
    }
}
