//! Streaming-engine equivalence suite.
//!
//! The pull-based simulation engine must be a drop-in replacement for
//! the materialized-trace pipeline: for the same seed, the serialized
//! reports of both engines must be byte-identical — across uniform,
//! hotspot and faulted workloads, at the single-switch level, through
//! the SPS front end (live generators, no trace), in the OQ-mimic
//! comparison and in the ideal-OQ baseline. A final soak property
//! checks the payoff: the streaming engine's working set (peak
//! in-flight packets) stays flat as the horizon grows.

use proptest::prelude::*;
use rip_baselines::IdealOqSwitch;
use rip_core::{
    FaultKind, FaultPlan, HbmSwitch, MimicChecker, RouterConfig, SpsRouter, SpsWorkload,
};
use rip_integration_tests::{source_for, trace_for};
use rip_photonics::SplitPattern;
use rip_traffic::{
    merge_streams, MergedSource, Packet, PacketSource, ReplaySource, StatefulSource, TrafficMatrix,
};
use rip_units::SimTime;

fn report_json(r: &rip_core::SwitchReport) -> String {
    serde_json::to_string(r).expect("report serializes")
}

/// Batch oracle vs streaming engine on the same replayed trace.
fn assert_engines_agree(cfg: &RouterConfig, trace: &[Packet], horizon: SimTime, plan: &FaultPlan) {
    let mut batch = HbmSwitch::new(cfg.clone()).expect("valid config");
    let rb = batch.run_preloaded(trace, horizon, plan);

    let mut streaming = HbmSwitch::new(cfg.clone()).expect("valid config");
    streaming.run_source(ReplaySource::new(trace), horizon, plan);
    let rs = streaming.into_report();

    assert_eq!(
        report_json(&rb),
        report_json(&rs),
        "streaming and batch engines diverged"
    );
}

#[test]
fn streaming_matches_batch_on_uniform_traffic() {
    let cfg = RouterConfig::small();
    let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
    let horizon = SimTime::from_ns(60_000);
    let trace = trace_for(&cfg, &tm, 0.8, horizon, 42);
    assert!(!trace.is_empty());
    assert_engines_agree(
        &cfg,
        &trace,
        cfg.drain.deadline(horizon),
        &FaultPlan::default(),
    );
}

#[test]
fn streaming_matches_batch_on_hotspot_traffic() {
    let cfg = RouterConfig::small();
    let tm = TrafficMatrix::hotspot(cfg.ribbons, 1.0, 0, 0.5);
    let horizon = SimTime::from_ns(60_000);
    let trace = trace_for(&cfg, &tm, 0.9, horizon, 7);
    assert_engines_agree(
        &cfg,
        &trace,
        cfg.drain.deadline(horizon),
        &FaultPlan::default(),
    );
}

#[test]
fn streaming_matches_batch_under_faults() {
    let cfg = RouterConfig::resilience_small();
    let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
    let horizon = SimTime::from_ns(80_000);
    let trace = trace_for(&cfg, &tm, 0.7, horizon, 17);
    let plan = FaultPlan::new()
        .inject(
            SimTime::from_ns(20_000),
            FaultKind::HbmChannelDown { channel: 1 },
        )
        .recover(
            SimTime::from_ns(50_000),
            FaultKind::HbmChannelDown { channel: 1 },
        )
        .inject(
            SimTime::from_ns(30_000),
            FaultKind::HbmBankStuck {
                channel: 0,
                bank: 2,
            },
        );
    plan.validate(&cfg).expect("plan valid");
    assert_engines_agree(&cfg, &trace, SimTime::from_ns(400_000), &plan);
}

#[test]
fn live_source_matches_materialized_trace_end_to_end() {
    // The strongest single-switch form: the streaming run never sees a
    // trace at all — packets come straight out of the generators.
    let cfg = RouterConfig::small();
    let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
    let horizon = SimTime::from_ns(60_000);
    let deadline = cfg.drain.deadline(horizon);

    let trace = trace_for(&cfg, &tm, 0.8, horizon, 42);
    let mut batch = HbmSwitch::new(cfg.clone()).expect("valid config");
    let rb = batch.run_preloaded(&trace, deadline, &FaultPlan::default());

    let src = source_for(&cfg, &tm, 0.8, horizon, 42);
    let mut streaming = HbmSwitch::new(cfg.clone()).expect("valid config");
    streaming.run_source(src, deadline, &FaultPlan::default());
    let rs = streaming.into_report();

    assert_eq!(report_json(&rb), report_json(&rs));
}

#[test]
fn plane_source_yields_exactly_the_split_traffic() {
    let cfg = RouterConfig::resilience_small();
    let router = SpsRouter::new(cfg.clone(), SplitPattern::Striped).expect("valid config");
    let w = SpsWorkload::uniform(cfg.ribbons, 0.6, 11);
    let horizon = SimTime::from_ns(50_000);
    let per_switch = router.split_traffic(&w, horizon);
    for (plane, batch) in per_switch.iter().enumerate() {
        let mut src = router.plane_source(&w, horizon, &FaultPlan::default(), plane);
        let mut streamed = Vec::new();
        while let Some(p) = src.next_packet() {
            streamed.push(p);
        }
        assert_eq!(
            &streamed, batch,
            "plane {plane} stream diverged from the batch split"
        );
        assert_eq!(src.front_end_dropped_packets(), 0);
    }
}

#[test]
fn plane_source_matches_faulted_split_including_drop_totals() {
    let cfg = RouterConfig::resilience_small();
    let router = SpsRouter::new(cfg.clone(), SplitPattern::Striped).expect("valid config");
    let w = SpsWorkload::uniform(cfg.ribbons, 0.6, 13);
    let horizon = SimTime::from_ns(60_000);
    let plan = FaultPlan::new()
        .inject(
            SimTime::from_ns(15_000),
            FaultKind::WavelengthLoss {
                ribbon: 0,
                lambda: 1,
            },
        )
        .recover(
            SimTime::from_ns(40_000),
            FaultKind::WavelengthLoss {
                ribbon: 0,
                lambda: 1,
            },
        );
    plan.validate(&cfg).expect("plan valid");

    let (per_switch, batch_drops, batch_dropped_bytes) =
        router.split_traffic_faulted(&w, horizon, &plan);
    let mut fe_drops = 0u64;
    let mut fe_bytes = rip_units::DataSize::ZERO;
    for (plane, batch) in per_switch.iter().enumerate() {
        let mut src = router.plane_source(&w, horizon, &plan, plane);
        let mut streamed = Vec::new();
        while let Some(p) = src.next_packet() {
            streamed.push(p);
        }
        assert_eq!(
            &streamed, batch,
            "plane {plane} faulted stream diverged from the batch split"
        );
        fe_drops += src.front_end_dropped_packets();
        fe_bytes += src.front_end_dropped();
    }
    assert!(batch_drops > 0, "fault window should drop something");
    assert_eq!(fe_drops, batch_drops);
    assert_eq!(fe_bytes, batch_dropped_bytes);
}

#[test]
fn pruned_plane_source_keeps_fibers_re_steered_mid_run() {
    // Plane 1 goes down at 10 µs and comes back at 30 µs, and a
    // wavelength is lost in between: while plane 1 is down its fibers
    // are re-steered onto the survivors, so every surviving plane must
    // keep those lanes (union over epochs) and still yield exactly the
    // faulted batch split, drop totals included.
    let cfg = RouterConfig::resilience_small();
    let w = SpsWorkload::uniform(cfg.ribbons, 0.6, 23);
    let horizon = SimTime::from_ns(40_000);
    let down = FaultKind::PlaneDown { switch: 1 };
    let lost = FaultKind::WavelengthLoss {
        ribbon: 2,
        lambda: 0,
    };
    let plan = FaultPlan::new()
        .inject(SimTime::from_ns(10_000), down)
        .inject(SimTime::from_ns(15_000), lost)
        .recover(SimTime::from_ns(25_000), lost)
        .recover(SimTime::from_ns(30_000), down);
    plan.validate(&cfg).expect("plan valid");
    let own = cfg.ribbons * cfg.alpha();
    for pattern in [
        SplitPattern::Sequential,
        SplitPattern::Striped,
        SplitPattern::PseudoRandom { seed: 5 },
    ] {
        let router = SpsRouter::new(cfg.clone(), pattern).expect("valid config");
        let (per_switch, batch_drops, batch_bytes) =
            router.split_traffic_faulted(&w, horizon, &plan);
        let mut fe_drops = 0u64;
        let mut fe_bytes = rip_units::DataSize::ZERO;
        for (plane, batch) in per_switch.iter().enumerate() {
            let healthy = router.plane_source(&w, horizon, &FaultPlan::default(), plane);
            assert_eq!(
                healthy.fibers().len(),
                own,
                "{pattern:?}: α fibers per ribbon"
            );
            for &(ribbon, fiber) in healthy.fibers() {
                assert_eq!(router.front_end().split().switch_for(ribbon, fiber), plane);
            }
            let mut src = router.plane_source(&w, horizon, &plan, plane);
            if plane == 1 {
                assert_eq!(
                    src.fibers().len(),
                    own,
                    "{pattern:?}: nothing re-steered onto the dead plane"
                );
            } else {
                assert!(
                    src.fibers().len() > own,
                    "{pattern:?}: plane {plane} must keep the lanes re-steered onto it"
                );
            }
            let mut streamed = Vec::new();
            while let Some(p) = src.next_packet() {
                streamed.push(p);
            }
            assert_eq!(
                &streamed, batch,
                "{pattern:?}: plane {plane} stream diverged from the faulted batch split"
            );
            fe_drops += src.front_end_dropped_packets();
            fe_bytes += src.front_end_dropped();
        }
        assert!(
            batch_drops > 0,
            "{pattern:?}: the lost wavelength should drop something"
        );
        assert_eq!(fe_drops, batch_drops, "{pattern:?}");
        assert_eq!(fe_bytes, batch_bytes, "{pattern:?}");
    }
}

#[test]
fn sps_streaming_run_matches_per_plane_batch_runs() {
    // The full router path (crossbeam threads fed by PlaneSource) must
    // equal running each plane's batch trace through the batch engine.
    let cfg = RouterConfig::resilience_small();
    let router = SpsRouter::new(cfg.clone(), SplitPattern::Striped).expect("valid config");
    let w = SpsWorkload::uniform(cfg.ribbons, 0.7, 19);
    let horizon = SimTime::from_ns(40_000);
    let r = router.run(&w, horizon);

    let per_switch = router.split_traffic(&w, horizon);
    let deadline = cfg.drain.deadline(horizon);
    for (plane, trace) in per_switch.iter().enumerate() {
        let mut sw = HbmSwitch::new(cfg.clone()).expect("valid config");
        let batch = sw.run_preloaded(trace, deadline, &FaultPlan::default());
        assert_eq!(
            report_json(&batch),
            report_json(&r.switches[plane].report),
            "plane {plane} SPS report diverged from its batch run"
        );
    }
}

#[test]
fn mimic_checker_matches_inline_batch_reference() {
    let cfg = RouterConfig::small();
    let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
    let horizon = SimTime::from_ns(40_000);
    let deadline = SimTime::from_ns(300_000);
    let trace = trace_for(&cfg, &tm, 0.7, horizon, 23);

    let streamed = MimicChecker::new(cfg.clone()).run(&trace, deadline);

    // Inline batch reference: ideal shadow over the trace, batch engine
    // for the HBM side, same lag definition.
    let mut ideal_sw = IdealOqSwitch::new(cfg.ribbons, cfg.port_rate());
    ideal_sw.run(&trace);
    let ideal = ideal_sw.departure_map();
    let mut sw = HbmSwitch::new(cfg).expect("valid config");
    let report = sw.run_preloaded(&trace, deadline, &FaultPlan::default());
    let mut compared = 0u64;
    let mut max_lag = rip_units::TimeDelta::ZERO;
    for d in &report.departures {
        let Some(&idep) = ideal.get(&d.packet) else {
            continue;
        };
        max_lag = max_lag.max(d.time.saturating_since(idep));
        compared += 1;
    }
    assert!(compared > 100);
    assert_eq!(streamed.compared, compared);
    assert_eq!(streamed.max_lag, max_lag);
}

#[test]
fn oq_run_source_matches_run() {
    let cfg = RouterConfig::small();
    let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
    let horizon = SimTime::from_ns(40_000);
    let trace = trace_for(&cfg, &tm, 0.8, horizon, 29);

    let mut batch = IdealOqSwitch::new(cfg.ribbons, cfg.port_rate());
    let db = batch.run(&trace);
    let mut streaming = IdealOqSwitch::new(cfg.ribbons, cfg.port_rate());
    let ds = streaming.run_source(source_for(&cfg, &tm, 0.8, horizon, 29));
    assert_eq!(db, ds);
}

#[test]
fn peak_in_flight_stays_flat_as_horizon_grows() {
    let cfg = RouterConfig::small();
    let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
    let run_at = |h: SimTime| {
        let mut sw = HbmSwitch::new(cfg.clone()).expect("valid config");
        sw.run_source(
            source_for(&cfg, &tm, 0.8, h, 31),
            cfg.drain.deadline(h),
            &FaultPlan::default(),
        );
        sw.into_report()
    };
    let short = run_at(SimTime::from_ns(30_000));
    let long = run_at(SimTime::from_ns(90_000));
    assert!(
        long.offered_packets > 2 * short.offered_packets,
        "offered did not scale: {} -> {}",
        short.offered_packets,
        long.offered_packets
    );
    assert!(
        long.peak_in_flight_packets <= 2 * short.peak_in_flight_packets + 64,
        "in-flight working set grew with the horizon: {} -> {}",
        short.peak_in_flight_packets,
        long.peak_in_flight_packets
    );
    assert!(short.peak_in_flight_packets > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Byte identity holds for arbitrary seeds, loads and hotspot
    /// skews, not just the hand-picked cases above.
    #[test]
    fn streaming_equals_batch_for_random_workloads(
        seed in any::<u64>(),
        load in 0.3f64..0.95,
        hot in 0usize..2,
    ) {
        let cfg = RouterConfig::small();
        let tm = if hot == 0 {
            TrafficMatrix::uniform(cfg.ribbons, 1.0)
        } else {
            TrafficMatrix::hotspot(cfg.ribbons, 1.0, 0, 0.4)
        };
        let horizon = SimTime::from_ns(25_000);
        let deadline = cfg.drain.deadline(horizon);
        let trace = trace_for(&cfg, &tm, load, horizon, seed);

        let mut batch = HbmSwitch::new(cfg.clone()).expect("valid config");
        let rb = batch.run_preloaded(&trace, deadline, &FaultPlan::default());
        let mut streaming = HbmSwitch::new(cfg.clone()).expect("valid config");
        streaming.run_source(source_for(&cfg, &tm, load, horizon, seed), deadline, &FaultPlan::default());
        let rs = streaming.into_report();
        prop_assert_eq!(report_json(&rb), report_json(&rs));
    }
}

/// Lanes of packets with keys drawn from a tiny `(arrival, input, id)`
/// space, so full key ties across lanes are the common case. Each lane
/// is sorted by key; `output` and `size` tag the packet's lane and
/// position so any reordering of tied packets is visible.
fn tied_lanes(keys: Vec<Vec<(u64, usize, u64)>>) -> Vec<Vec<Packet>> {
    keys.into_iter()
        .enumerate()
        .map(|(lane, mut ks)| {
            ks.sort_unstable();
            ks.into_iter()
                .enumerate()
                .map(|(pos, (at, input, id))| {
                    Packet::new(
                        id,
                        input,
                        lane,
                        rip_units::DataSize::from_bytes(64 + pos as u64),
                        SimTime::from_ns(at),
                    )
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The heap merge yields exactly `merge_streams`'s stable sort on
    /// fully tied keys, and a snapshot taken after any number of pulls
    /// — right after a yield, before the yielding lane is refilled —
    /// resumes the identical tail on a fresh merge.
    #[test]
    fn merged_source_matches_merge_streams_on_full_ties_and_resumes_anywhere(
        keys in prop::collection::vec(
            prop::collection::vec((0u64..4, 0usize..2, 0u64..3), 0..8),
            1..6,
        ),
    ) {
        let lanes = tied_lanes(keys);
        let expected = merge_streams(lanes.clone());
        let fresh = || MergedSource::new(lanes.iter().map(|l| ReplaySource::new(l)).collect());
        let merged: Vec<Packet> = fresh().packets().collect();
        prop_assert_eq!(&merged, &expected);
        for cut in 0..=expected.len() {
            let mut live = fresh();
            for p in &expected[..cut] {
                prop_assert_eq!(live.next_packet(), Some(*p));
            }
            let json = serde_json::to_string(&live.save_state()).expect("state serializes");
            let mut resumed = fresh();
            resumed
                .restore_state(&serde_json::from_str(&json).expect("state parses"))
                .expect("state restores");
            let tail: Vec<Packet> = resumed.packets().collect();
            prop_assert_eq!(&tail[..], &expected[cut..]);
            // The snapshotted merge itself continues identically too.
            let live_tail: Vec<Packet> = live.packets().collect();
            prop_assert_eq!(live_tail, tail);
        }
    }
}
