//! The benchmark's own checks, at short horizons:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::sync::Arc;

use rip_units::SimTime;

use crate::probe::Probe;
use crate::verify;
use crate::workload::{self, Report, RunOutput, Workload, DEFAULT_SEED};

const HELD_OUT_SEED: u64 = 7;

fn short_horizon(wl: Workload) -> SimTime {
    match wl {
        Workload::RefUniform => SimTime::from_ns(10_000),
        Workload::HotspotLive => SimTime::from_ns(40_000),
        Workload::SpsUniform => SimTime::from_ns(20_000),
    }
}

fn run(wl: Workload, seed: u64, traced: bool) -> (RunOutput, Option<Arc<Probe>>) {
    let probe = traced.then(|| Arc::new(Probe::default()));
    let prepared = workload::prepare(wl, seed, short_horizon(wl), wl.is_live(), probe.as_ref());
    (workload::run(prepared, probe.as_ref()), probe)
}

fn digest_of(wl: Workload, seed: u64, traced: bool) -> String {
    let (mut out, _) = run(wl, seed, traced);
    verify::check(&out).expect("the run conserves packets");
    verify::digest(&mut out)
}

#[test]
fn doctored_reports_fail_the_conservation_check() {
    for wl in Workload::ALL {
        let (mut out, _) = run(wl, DEFAULT_SEED, false);
        verify::check(&out).expect("the real report conserves packets");
        match &mut out.report {
            Report::Switch(r) => r.delivered_packets += 1,
            Report::Sps(r) => {
                r.switches[1].report.departures.pop();
            }
        }
        assert!(
            verify::check(&out).is_err(),
            "{}: doctored report passed",
            wl.name()
        );
    }
    // Plane reports that conserve but do not add up to the router totals.
    let (mut out, _) = run(Workload::SpsUniform, DEFAULT_SEED, false);
    let Report::Sps(r) = &mut out.report else {
        unreachable!("sps-uniform reports per plane")
    };
    r.offered += rip_units::DataSize::from_bytes(64);
    assert!(verify::check(&out).is_err(), "doctored router total passed");
}

#[test]
fn tracing_wrappers_leave_outputs_byte_identical() {
    for wl in Workload::ALL {
        assert_eq!(
            digest_of(wl, DEFAULT_SEED, false),
            digest_of(wl, DEFAULT_SEED, true),
            "{}: traced digest differs",
            wl.name()
        );
    }
}

#[test]
fn traced_spans_cover_every_pulled_packet() {
    for wl in Workload::ALL {
        let (out, probe) = run(wl, DEFAULT_SEED, true);
        let probe = probe.expect("traced");
        let offered = verify::Outcome::of(&out.report).offered_packets;
        assert_eq!(probe.source_pkts(), offered, "{}", wl.name());
        assert_eq!(probe.sink_calls() > 0, wl.is_live(), "{}", wl.name());
    }
}

#[test]
fn held_out_seed_is_reproducible_and_distinct() {
    for wl in Workload::ALL {
        let held_out = digest_of(wl, HELD_OUT_SEED, false);
        assert_eq!(
            held_out,
            digest_of(wl, HELD_OUT_SEED, false),
            "{}",
            wl.name()
        );
        assert_ne!(
            held_out,
            digest_of(wl, DEFAULT_SEED, false),
            "{}",
            wl.name()
        );
    }
}
