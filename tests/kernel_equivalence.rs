//! Event-loop equivalence differential suite.
//!
//! The two entry points into the switch's one event loop,
//! `run_source` and `run_source_checkpointed` (snapshotting at every
//! epoch boundary), must be observably indistinguishable: for every
//! shipped config in `configs/*.json`, a same-seed run through each
//! must produce a byte-identical serialized final report AND a
//! byte-identical JSONL live-telemetry stream. Horizons are capped so
//! the suite stays fast in debug builds — the runs dispatch identical
//! event sequences from the first pop, so a capped run that diverges
//! would diverge at full length too.

use std::path::PathBuf;

use rip_core::{FaultPlan, HbmSwitch, RouterConfig, RunOutcome};
use rip_telemetry::{JsonlSink, SharedSink};
use rip_traffic::{
    ArrivalProcess, BoundedSource, MergedSource, PacketGenerator, SizeDistribution, TrafficMatrix,
};
use rip_units::{SimTime, TimeDelta};
use serde::Deserialize;

// ---------------------------------------------------------------------
// Local mirror of the `ripsim` spec schema (the binary does not export
// it): only the fields the differential runs need, decoded with the
// same tags so every shipped config parses unchanged.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
enum MatrixSpec {
    Uniform,
    Hotspot { output: usize, fraction: f64 },
    Permutation { shift: usize },
    LogNormal { sigma: f64, seed: u64 },
}

#[derive(Debug, Clone, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
enum SizeSpec {
    Fixed { bytes: u64 },
    Uniform { min: u64, max: u64 },
    Imix,
}

#[derive(Debug, Clone, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
enum ProcessSpec {
    Poisson,
    Cbr,
    OnOff { mean_burst_packets: f64 },
}

#[derive(Debug, Clone, Deserialize)]
struct SimSpec {
    router: RouterConfig,
    load: f64,
    matrix: MatrixSpec,
    sizes: SizeSpec,
    process: ProcessSpec,
    flows: usize,
    seed: u64,
    horizon_us: u64,
    drain_factor: u64,
    #[serde(default)]
    epoch_ps: Option<u64>,
}

fn build_source(spec: &SimSpec, horizon: SimTime) -> MergedSource<BoundedSource<PacketGenerator>> {
    let n = spec.router.ribbons;
    let tm = match spec.matrix {
        MatrixSpec::Uniform => TrafficMatrix::uniform(n, 1.0),
        MatrixSpec::Hotspot { output, fraction } => {
            TrafficMatrix::hotspot(n, 1.0, output, fraction)
        }
        MatrixSpec::Permutation { shift } => {
            let perm: Vec<usize> = (0..n).map(|i| (i + shift) % n).collect();
            TrafficMatrix::permutation(&perm, 1.0).expect("valid permutation")
        }
        MatrixSpec::LogNormal { sigma, seed } => TrafficMatrix::log_normal(n, 1.0, sigma, seed),
    };
    let sizes = match spec.sizes {
        SizeSpec::Fixed { bytes } => {
            SizeDistribution::Fixed(rip_units::DataSize::from_bytes(bytes))
        }
        SizeSpec::Uniform { min, max } => SizeDistribution::Uniform { min, max },
        SizeSpec::Imix => SizeDistribution::Imix,
    };
    let process = match spec.process {
        ProcessSpec::Poisson => ArrivalProcess::Poisson,
        ProcessSpec::Cbr => ArrivalProcess::Cbr,
        ProcessSpec::OnOff { mean_burst_packets } => ArrivalProcess::OnOff { mean_burst_packets },
    };
    let lanes: Vec<BoundedSource<PacketGenerator>> = (0..n)
        .map(|port| {
            let g = PacketGenerator::new(
                port,
                spec.router.port_rate(),
                (spec.load * tm.row_load(port)).min(1.0),
                tm.row(port).to_vec(),
                sizes.clone(),
                process,
                spec.flows,
                rip_sim::rng::derive_seed(spec.seed, port as u64),
            )
            .expect("config builds a valid generator");
            BoundedSource::new(g, horizon)
        })
        .collect();
    MergedSource::new(lanes)
}

/// Live-telemetry epoch period for a config: its own `epoch_ps`, or a
/// 2 us default so silent configs still exercise the JSONL comparison.
fn epoch_period(spec: &SimSpec) -> TimeDelta {
    TimeDelta::from_ps(spec.epoch_ps.unwrap_or(2_000_000))
}

/// The two public entry points into the switch's event loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Engine {
    /// `HbmSwitch::run_source`: the boundary hook is a no-op.
    Plain,
    /// `HbmSwitch::run_source_checkpointed`, snapshotting at every
    /// epoch boundary into a discarding persist callback.
    Checkpointed,
}

/// Run `spec` to completion through `engine` and return the serialized
/// final report plus the rendered JSONL telemetry stream.
fn run_engine(spec: &SimSpec, engine: Engine, horizon: SimTime) -> (String, Vec<u8>) {
    let deadline = SimTime::from_ps(horizon.as_ps() * (1 + spec.drain_factor));
    let staged = SharedSink::new();
    let mut sw = HbmSwitch::new(spec.router.clone()).expect("shipped config is valid");
    sw.enable_live_telemetry(epoch_period(spec), 64, Box::new(staged.clone()));
    let source = build_source(spec, horizon);
    match engine {
        Engine::Plain => sw.run_source(source, deadline, &FaultPlan::default()),
        Engine::Checkpointed => {
            let mut snapshots = 0u64;
            let outcome = sw
                .run_source_checkpointed(
                    source,
                    deadline,
                    &FaultPlan::default(),
                    None,
                    1,
                    || false,
                    |_, _, _| {
                        snapshots += 1;
                        Ok(())
                    },
                )
                .expect("checkpointed run");
            assert_eq!(outcome, RunOutcome::Completed);
            assert!(snapshots > 0, "checkpointed run took no snapshot");
        }
    }
    let report = serde_json::to_string(&sw.into_report()).expect("report serializes");
    let mut jsonl: Vec<u8> = Vec::new();
    {
        let mut sink = JsonlSink::new(&mut jsonl);
        staged.take().replay_into(&mut sink);
    }
    (report, jsonl)
}

/// Every shipped config file, with its decoded spec.
fn shipped_configs() -> Vec<(String, SimSpec)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../configs");
    let mut names: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("configs/ directory exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    names.sort();
    assert!(!names.is_empty(), "no configs found in {}", dir.display());
    names
        .into_iter()
        .map(|p| {
            let name = p
                .file_name()
                .expect("file name")
                .to_string_lossy()
                .into_owned();
            let text = std::fs::read_to_string(&p).expect("config readable");
            let spec: SimSpec = serde_json::from_str(&text)
                .unwrap_or_else(|e| panic!("{name} does not decode as a SimSpec: {e}"));
            (name, spec)
        })
        .collect()
}

/// Debug-profile cap on arrival horizons: equivalence needs identical
/// event sequences, not full-length soaks.
const HORIZON_CAP_US: u64 = 30;

/// The heap is the switch's one event kernel; the timing wheel this
/// test once compared it against is retired. What stays is the guard
/// that keeps the equivalence claims in this file from being vacuous:
/// every shipped config's run under the heap kernel emits telemetry
/// and offers real traffic.
#[test]
fn wheel_and_heap_kernels_agree_on_every_shipped_config() {
    let configs = shipped_configs();
    assert!(
        configs.len() >= 4,
        "expected the 4 shipped configs, found {}",
        configs.len()
    );
    for (name, spec) in &configs {
        let horizon = SimTime::from_ns(spec.horizon_us.min(HORIZON_CAP_US) * 1000);
        let (report, jsonl) = run_engine(spec, Engine::Plain, horizon);
        assert!(
            !jsonl.is_empty(),
            "{name}: telemetry comparison was vacuous"
        );
        // The reports carry real traffic — a config that moved no
        // packets would make the equivalence claim vacuous too.
        assert!(
            report.contains("\"offered_packets\":") && !report.contains("\"offered_packets\":0,"),
            "{name}: run offered no packets"
        );
    }
}

#[test]
fn every_engine_and_kernel_agrees_on_every_shipped_config() {
    // Plain vs checkpointed-at-every-epoch, every shipped config,
    // byte-identical reports and JSONL streams.
    for (name, spec) in &shipped_configs() {
        let horizon = SimTime::from_ns(spec.horizon_us.min(HORIZON_CAP_US) * 1000);
        let (base_report, base_jsonl) = run_engine(spec, Engine::Plain, horizon);
        assert!(!base_jsonl.is_empty(), "{name}: comparison was vacuous");
        let (report, jsonl) = run_engine(spec, Engine::Checkpointed, horizon);
        assert_eq!(
            report, base_report,
            "{name}: Checkpointed report diverged from Plain"
        );
        assert_eq!(
            jsonl, base_jsonl,
            "{name}: Checkpointed JSONL stream diverged from Plain"
        );
    }
}

#[test]
fn same_seed_runs_are_deterministic() {
    // Equivalence is only meaningful if each run is itself
    // reproducible: two same-seed runs must match bytewise.
    let (name, spec) = &shipped_configs()[0];
    let horizon = SimTime::from_ns(spec.horizon_us.min(HORIZON_CAP_US) * 1000);
    let a = run_engine(spec, Engine::Plain, horizon);
    let b = run_engine(spec, Engine::Plain, horizon);
    assert_eq!(a, b, "{name}: same-seed runs diverged");
}
