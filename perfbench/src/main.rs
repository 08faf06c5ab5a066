//! Outside-in benchmark harness of the RiP simulator.
//!
//! Every number comes from timing calls into the simulator's public API
//! (`HbmSwitch`, `SpsRouter`, `PacketSource`, `TelemetrySink`,
//! `BatchAssembler`, `PfiController`, `OutputPort`); nothing inside the
//! simulator crates is instrumented. `run.py` drives this binary:
//!
//! ```text
//! perfbench run   --workload <name> [--seed N]
//! perfbench trace --workload <name> [--seed N] [--rounds-seconds S]
//! ```
//!
//! `run` sets the workload up many times (timing each set-up), makes one
//! untraced run between two calibration-kernel timings, checks it and
//! prints one JSON line. `trace` makes rounds of untraced and traced runs
//! (timing wrappers around the source and sink), then the isolated
//! per-layer drives, and prints one JSON line.

mod calib;
mod layers;
mod probe;
#[cfg(test)]
mod tests;
mod verify;
mod workload;

use std::sync::Arc;
use std::time::Instant;

use probe::{elapsed_ns, Probe};
use verify::Outcome;
use workload::{Prepared, Workload, DEFAULT_SEED};

/// Set-ups timed per `run` invocation, at least (the median is
/// reported); more are made until `MIN_SETUP_NS` of set-up time is
/// measured, so a set-up of a microsecond gets thousands of samples.
const MIN_SETUPS: usize = 15;
const MIN_SETUP_NS: u64 = 20_000_000;

/// Rounds `trace` makes, at least.
const MIN_ROUNDS: usize = 2;

struct Args {
    command: String,
    workload: Workload,
    seed: u64,
    rounds_s: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let command = it.next().ok_or("missing command (run | trace)")?;
    let (mut workload, mut seed, mut rounds_s) = (None, DEFAULT_SEED, 0.0);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--rounds-seconds" => rounds_s = value.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        command,
        workload: workload.ok_or("missing --workload")?,
        seed,
        rounds_s,
    })
}

/// A flat JSON object printed as one line, keys in insertion order.
#[derive(Default)]
struct Line(Vec<(String, String)>);

impl Line {
    fn num(&mut self, key: &str, v: impl std::fmt::Display) -> &mut Self {
        self.0.push((key.into(), v.to_string()));
        self
    }

    fn secs(&mut self, key: &str, ns: u64) -> &mut Self {
        self.num(key, ns as f64 / 1e9)
    }

    fn str(&mut self, key: &str, v: &str) -> &mut Self {
        let escaped: String = v
            .chars()
            .flat_map(|c| match c {
                '"' | '\\' => vec!['\\', c],
                c if c.is_control() => vec![' '],
                c => vec![c],
            })
            .collect();
        self.0.push((key.into(), format!("\"{escaped}\"")));
        self
    }

    fn print(&self) {
        let body: Vec<String> = self.0.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        println!("{{{}}}", body.join(","));
    }
}

fn outcome_fields(line: &mut Line, o: &Outcome) {
    line.num("offered_packets", o.offered_packets)
        .num("delay_p99_us", o.delay_p99_us)
        .num("loss_frac", o.loss_frac())
        .num("sim.peak_in_flight", o.peak_in_flight)
        .num("switch.frames.written", o.frames_written)
        .num("switch.frames.bypass", o.frames_bypass)
        .num("hbm.cmd.act", o.cmd_act);
}

/// Median calibration-kernel time around a stretch of work.
fn kernel_median(mut before: Vec<u64>, after: Vec<u64>) -> u64 {
    before.extend(after);
    before.sort_unstable();
    before[before.len() / 2]
}

/// `run`: timed set-ups, one untraced run, checks.
fn cmd_run(a: &Args) -> Line {
    let kernel_before = calib::kernel_samples();
    let mut setup_ns: Vec<u64> = Vec::new();
    let mut prepared: Option<Prepared> = None;
    while setup_ns.len() < MIN_SETUPS || setup_ns.iter().sum::<u64>() < MIN_SETUP_NS {
        drop(prepared.take());
        let t = Instant::now();
        prepared = Some(workload::prepare(
            a.workload,
            a.seed,
            a.workload.horizon(),
            a.workload.is_live(),
            None,
        ));
        setup_ns.push(elapsed_ns(t));
    }
    setup_ns.sort_unstable();
    let t = Instant::now();
    let mut out = workload::run(prepared.expect("at least one set-up"), None);
    let run_ns = elapsed_ns(t);
    let outcome = Outcome::of(&out.report);
    let digest = verify::digest(&mut out);
    let checked = verify::check(&out);
    // The report goes before the second kernel run, so the kernel's
    // memory does not add to the run's peak RSS.
    drop(out);
    let kernel_ns = kernel_median(kernel_before, calib::kernel_samples());
    let setup_median = setup_ns[setup_ns.len() / 2];

    let mut line = Line::default();
    line.str("workload", a.workload.name())
        .num("seed", a.seed)
        .secs("setup_s", setup_median)
        .num("setups", setup_ns.len())
        .secs("run_s", run_ns)
        .num("kernel_ns", kernel_ns)
        .num("kernel_reference_ns", calib::REFERENCE_NS);
    outcome_fields(&mut line, &outcome);
    line.str("digest", &digest);
    if let Err(e) = checked {
        line.str("error", &e);
    }
    line
}

/// One run made by `trace`, reduced to what it reports.
struct Measured {
    wall_ns: u64,
    probe: Arc<Probe>,
    outcome: Outcome,
    digest: String,
    sink_bytes: u64,
    epochs: u64,
    spans: u64,
    error: Option<String>,
}

fn measure(a: &Args, live: bool, traced: bool) -> Measured {
    let probe = Arc::new(Probe::default());
    let wrap = traced.then_some(&probe);
    let prepared = workload::prepare(a.workload, a.seed, a.workload.horizon(), live, wrap);
    let t = Instant::now();
    let mut out = workload::run(prepared, wrap);
    let wall_ns = elapsed_ns(t);
    Measured {
        wall_ns,
        outcome: Outcome::of(&out.report),
        error: verify::check(&out).err(),
        digest: verify::digest(&mut out),
        sink_bytes: out.stream.as_ref().map_or(0, |t| t.bytes),
        epochs: out.epochs,
        spans: out.spans,
        probe,
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// `trace`: rounds of an untraced run next to a traced one (and, for a
/// live workload, a traced silent twin of the same traffic) until
/// `--rounds-seconds` is used up, then the isolated per-layer drives.
/// Neighbouring runs share the host's speed, so per-round ratios and
/// differences cancel its drift.
fn cmd_trace(a: &Args) -> Line {
    let wl = a.workload;
    let live = wl.is_live();
    let (mut untraced, mut traced, mut silent) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while traced.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < a.rounds_s {
        // Alternate which arm goes first, so drift favours neither.
        if traced.len() % 2 == 0 {
            untraced.push(measure(a, live, false));
            traced.push(measure(a, live, true));
        } else {
            traced.push(measure(a, live, true));
            untraced.push(measure(a, live, false));
        }
        if live {
            silent.push(measure(a, false, true));
        }
    }
    // Every run conserves; the wrappers leave the digest unchanged.
    let digest = untraced[0].digest.clone();
    let all = || untraced.iter().chain(&traced).chain(&silent);
    let mut errors: Vec<String> = all().filter_map(|m| m.error.clone()).collect();
    let mut failed = errors.len();
    for m in untraced.iter().chain(&traced) {
        if m.digest != digest {
            failed += 1;
            errors.push(format!("digest {} != {digest}", m.digest));
        }
    }
    for m in &silent {
        if m.digest != silent[0].digest {
            failed += 1;
            errors.push(format!(
                "silent digest {} != {}",
                m.digest, silent[0].digest
            ));
        }
    }

    let overhead = median(
        traced
            .iter()
            .zip(&untraced)
            .map(|(t, u)| t.wall_ns as f64 / u.wall_ns as f64 - 1.0)
            .collect(),
    );
    // In-engine telemetry cost: live minus silent minus what the sink saw.
    let engine_s = if live {
        median(
            traced
                .iter()
                .zip(&silent)
                .map(|(t, s)| {
                    (t.wall_ns as f64 - s.wall_ns as f64 - t.probe.sink_ns() as f64) / 1e9
                })
                .collect(),
        )
    } else {
        0.0
    };
    // Spans are reported from the traced run of median wall time.
    let mut order: Vec<usize> = (0..traced.len()).collect();
    order.sort_by_key(|&i| traced[i].wall_ns);
    let m = &traced[order[order.len() / 2]];
    let probe = &m.probe;

    let d = layers::drive(wl, a.seed, &m.outcome.frames_per_switch);
    // The switch's self time is the remainder, so the three in-run spans
    // add up to the run's wall time exactly.
    let switch_ns = m.wall_ns - probe.source_ns() - probe.sink_ns();
    let layer_ns = d.batch_ns + d.hbm_ns + d.drain_ns;
    if d.traffic_pkts != m.outcome.offered_packets {
        errors.push(format!(
            "generators made {} packets but the router was offered {}",
            d.traffic_pkts, m.outcome.offered_packets
        ));
    }
    if d.frontend_pkts != probe.source_pkts() {
        errors.push(format!(
            "front-end drive yielded {} packets but the run pulled {}",
            d.frontend_pkts,
            probe.source_pkts()
        ));
    }

    let per = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
    let mut line = Line::default();
    line.str("workload", wl.name())
        .num("seed", a.seed)
        .num("runs", all().count())
        .num("failed", failed)
        .secs("run.wall_s", m.wall_ns)
        .secs("source.self_s", probe.source_ns())
        .num("source.pkts", probe.source_pkts())
        .secs("sink.self_s", probe.sink_ns())
        .num("sink.records", probe.sink_calls())
        .num("sink.bytes", m.sink_bytes)
        .secs("switch.self_s", switch_ns)
        .num("trace.overhead_frac", overhead)
        .num("telemetry.engine_s", engine_s)
        .num("telemetry.epochs", m.epochs)
        .num("telemetry.spans", m.spans)
        .num("traffic.ns_per_pkt", per(d.traffic_ns, d.traffic_pkts))
        .num("frontend.ns_per_pkt", per(d.frontend_ns, d.frontend_pkts))
        .num("batch.ns_per_pkt", per(d.batch_ns, d.frontend_pkts))
        .num("batch.batches", d.batches)
        .num("hbm.ns_per_frame", per(d.hbm_ns, d.hbm_frames))
        .num("hbm.frames", d.hbm_frames)
        .num("drain.ns_per_batch", per(d.drain_ns, d.batches))
        .num(
            "layers.unattributed_s",
            (switch_ns as f64 - layer_ns as f64) / 1e9,
        );
    outcome_fields(&mut line, &m.outcome);
    line.str("digest", &digest);
    if !errors.is_empty() {
        line.str("error", &errors.join("; "));
    }
    line
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let line = match args.command.as_str() {
        "run" => cmd_run(&args),
        "trace" => cmd_trace(&args),
        other => {
            eprintln!("perfbench: unknown command {other} (run | trace)");
            std::process::exit(2);
        }
    };
    line.print();
}
