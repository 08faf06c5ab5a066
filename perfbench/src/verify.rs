//! Output checks: packet conservation and the report digest.

use rip_core::{SpsReport, SwitchReport};
use rip_sim::stats::Histogram;

use crate::probe::Fnv;
use crate::workload::{Report, RunOutput};

/// Offered = delivered + dropped, in packets and bytes, and every
/// delivered packet has one departure and one delay sample.
pub fn check_switch(r: &SwitchReport) -> Result<(), String> {
    let dropped = r.dropped_packets_fault + r.dropped_packets_congestion;
    if r.offered_packets != r.delivered_packets + dropped {
        return Err(format!(
            "packets: offered {} != delivered {} + dropped {}",
            r.offered_packets, r.delivered_packets, dropped
        ));
    }
    if r.offered_bytes != r.delivered_bytes + r.dropped_bytes {
        return Err(format!(
            "bytes: offered {} != delivered {} + dropped {}",
            r.offered_bytes.bytes(),
            r.delivered_bytes.bytes(),
            r.dropped_bytes.bytes()
        ));
    }
    let (deps, delays) = (r.departures.len() as u64, r.delays_ns.count() as u64);
    if deps != r.delivered_packets || delays != r.delivered_packets {
        return Err(format!(
            "delivered {} packets but logged {deps} departures and {delays} delays",
            r.delivered_packets
        ));
    }
    Ok(())
}

/// Every plane conserves, and the router totals are the plane sums.
pub fn check_sps(r: &SpsReport) -> Result<(), String> {
    let (mut offered, mut delivered) = (0u64, 0u64);
    for (p, s) in r.switches.iter().enumerate() {
        check_switch(&s.report).map_err(|e| format!("plane {p}: {e}"))?;
        offered += s.report.offered_bytes.bytes();
        delivered += s.report.delivered_bytes.bytes();
    }
    if offered != r.offered.bytes() || delivered != r.delivered.bytes() {
        return Err(format!(
            "router totals {}/{} B differ from plane sums {offered}/{delivered} B",
            r.offered.bytes(),
            r.delivered.bytes()
        ));
    }
    Ok(())
}

pub fn check(out: &RunOutput) -> Result<(), String> {
    match &out.report {
        Report::Switch(r) => check_switch(r),
        Report::Sps(r) => check_sps(r),
    }
}

/// Digest of one switch report: its JSON serialization with the two
/// per-packet logs left out, then those logs hashed field by field (the
/// serializer builds a value tree, which at millions of departures
/// would cost more than the run itself).
fn hash_switch(r: &mut SwitchReport, h: &mut Fnv) {
    let departures = std::mem::take(&mut r.departures);
    let delays = std::mem::take(&mut r.delays_ns);
    h.bytes(
        serde_json::to_string(r)
            .expect("report serializes")
            .as_bytes(),
    );
    hash_logs(&departures, &delays, h);
    r.departures = departures;
    r.delays_ns = delays;
}

fn hash_logs(departures: &[rip_core::PacketDeparture], delays: &Histogram, h: &mut Fnv) {
    for d in departures {
        h.u64(d.packet);
        h.u64(d.time.as_ps());
        h.u64(d.arrival.as_ps());
        h.u64(d.fiber as u64);
        h.u64(d.wavelength as u64);
    }
    for x in delays.samples() {
        h.u64(x.to_bits());
    }
}

/// Digest of the run's report, plus its JSONL stream when live.
pub fn digest(out: &mut RunOutput) -> String {
    let mut h = Fnv::default();
    match &mut out.report {
        Report::Switch(r) => hash_switch(r, &mut h),
        Report::Sps(r) => {
            let logs: Vec<_> = r
                .switches
                .iter_mut()
                .map(|s| {
                    (
                        std::mem::take(&mut s.report.departures),
                        std::mem::take(&mut s.report.delays_ns),
                    )
                })
                .collect();
            h.bytes(
                serde_json::to_string(r)
                    .expect("report serializes")
                    .as_bytes(),
            );
            for (s, (departures, delays)) in r.switches.iter_mut().zip(logs) {
                hash_logs(&departures, &delays, &mut h);
                s.report.departures = departures;
                s.report.delays_ns = delays;
            }
        }
    }
    match &out.stream {
        Some(t) => format!("{:016x}-{:016x}", h.finish(), t.hash.finish()),
        None => format!("{:016x}", h.finish()),
    }
}

/// The simulated (not wall-clock) outcome of a run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub offered_packets: u64,
    pub offered_bytes: u64,
    pub dropped_bytes: u64,
    pub delay_p99_us: f64,
    pub peak_in_flight: u64,
    pub frames_written: u64,
    pub frames_bypass: u64,
    pub cmd_act: u64,
    /// Frames written per switch (one entry per plane on SPS).
    pub frames_per_switch: Vec<u64>,
}

impl Outcome {
    pub fn of(report: &Report) -> Outcome {
        match report {
            Report::Switch(r) => {
                let m = &r.metrics;
                Outcome {
                    offered_packets: r.offered_packets,
                    offered_bytes: r.offered_bytes.bytes(),
                    dropped_bytes: r.dropped_bytes.bytes(),
                    delay_p99_us: r.delays_ns.quantile(0.99).unwrap_or(0.0) / 1e3,
                    peak_in_flight: m.counter("switch.packets.peak_in_flight"),
                    frames_written: m.counter("switch.frames.written"),
                    frames_bypass: m.counter("switch.frames.bypass"),
                    cmd_act: m.counter("hbm.cmd.act"),
                    frames_per_switch: vec![m.counter("switch.frames.written")],
                }
            }
            Report::Sps(r) => {
                let m = &r.metrics;
                let mut delays = Histogram::new();
                for s in &r.switches {
                    delays.merge_from(&s.report.delays_ns);
                }
                let planes = r.switches.iter().map(|s| &s.report);
                Outcome {
                    offered_packets: planes.clone().map(|p| p.offered_packets).sum::<u64>()
                        + r.front_end_dropped_packets,
                    offered_bytes: r.offered.bytes() + r.front_end_dropped.bytes(),
                    dropped_bytes: planes.clone().map(|p| p.dropped_bytes.bytes()).sum::<u64>()
                        + r.front_end_dropped.bytes(),
                    delay_p99_us: delays.quantile(0.99).unwrap_or(0.0) / 1e3,
                    peak_in_flight: m.counter("switch.packets.peak_in_flight"),
                    frames_written: m.counter("switch.frames.written"),
                    frames_bypass: m.counter("switch.frames.bypass"),
                    cmd_act: m.counter("hbm.cmd.act"),
                    frames_per_switch: planes
                        .map(|p| p.metrics.counter("switch.frames.written"))
                        .collect(),
                }
            }
        }
    }

    pub fn loss_frac(&self) -> f64 {
        if self.offered_bytes == 0 {
            0.0
        } else {
            self.dropped_bytes as f64 / self.offered_bytes as f64
        }
    }
}
