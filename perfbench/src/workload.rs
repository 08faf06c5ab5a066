//! The three benchmark workloads: how each is set up from its seed and
//! how one closed batch run of it is driven through the public API.

use std::sync::{Arc, Mutex};

use rip_core::{
    FaultPlan, HbmSwitch, RouterConfig, SpsReport, SpsRouter, SpsWorkload, SwitchReport,
};
use rip_photonics::SplitPattern;
use rip_telemetry::{JsonlSink, TelemetrySink};
use rip_traffic::{
    ArrivalProcess, BoundedSource, MergedSource, PacketGenerator, SizeDistribution, TrafficMatrix,
};
use rip_units::{SimTime, TimeDelta};

use crate::probe::{CountingWriter, Probe, StreamTally, TimedSink, TimedSource};

/// The seed whose report digests are recorded in `golden.json`.
pub const DEFAULT_SEED: u64 = 42;

/// Flow pool per port generator (the `ripsim` spec default).
const FLOWS_PER_PORT: usize = 256;

/// Share of every input's traffic sent to output 0 on `hotspot-live`:
/// at load 0.9 over N = 4 inputs, output 0 is offered
/// 4 × 0.9 × 0.45 ≈ 1.6× its capacity.
const HOT_FRAC: f64 = 0.45;

/// Live epoch period and lifecycle sampling of `hotspot-live`.
const LIVE_PERIOD_NS: u64 = 2_000;
const LIVE_SAMPLE_ONE_IN: u64 = 256;

/// Fiber-to-plane split of `sps-uniform`.
const SPS_SPLIT: SplitPattern = SplitPattern::Striped;

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One paper-scale SPS plane (`RouterConfig::reference()`), uniform
    /// IMIX Poisson traffic at load 0.8, telemetry off.
    RefUniform,
    /// One small-geometry switch with output 0 oversubscribed, live
    /// epochs and lifecycle spans into a JSONL sink.
    HotspotLive,
    /// The full SPS router at the small geometry, planes run one at a
    /// time through `run_planes`, then stitched.
    SpsUniform,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::RefUniform,
        Workload::HotspotLive,
        Workload::SpsUniform,
    ];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::RefUniform => "ref-uniform",
            Workload::HotspotLive => "hotspot-live",
            Workload::SpsUniform => "sps-uniform",
        }
    }

    pub fn config(self) -> RouterConfig {
        match self {
            Workload::RefUniform => RouterConfig::reference(),
            Workload::HotspotLive | Workload::SpsUniform => RouterConfig::small(),
        }
    }

    /// Arrival horizon of one run; the switch then drains until the
    /// configuration's drain deadline.
    pub fn horizon(self) -> SimTime {
        match self {
            Workload::RefUniform => SimTime::from_ns(150_000),
            Workload::HotspotLive => SimTime::from_ns(2_000_000),
            Workload::SpsUniform => SimTime::from_ns(350_000),
        }
    }

    pub fn is_live(self) -> bool {
        self == Workload::HotspotLive
    }

    fn load(self) -> f64 {
        match self {
            Workload::HotspotLive => 0.9,
            Workload::RefUniform | Workload::SpsUniform => 0.8,
        }
    }

    fn matrix(self, n: usize) -> TrafficMatrix {
        match self {
            Workload::HotspotLive => TrafficMatrix::hotspot(n, 1.0, 0, HOT_FRAC),
            Workload::RefUniform | Workload::SpsUniform => TrafficMatrix::uniform(n, 1.0),
        }
    }

    /// The SPS router (`sps-uniform` only).
    pub fn sps_router(self) -> SpsRouter {
        SpsRouter::new(self.config(), SPS_SPLIT).expect("valid config")
    }

    /// The SPS workload spec (`sps-uniform` only).
    pub fn sps_workload(self, seed: u64) -> SpsWorkload {
        SpsWorkload::uniform(self.config().ribbons, self.load(), seed)
    }

    /// One bounded generator per switch port (single-switch workloads).
    pub fn port_sources(
        self,
        cfg: &RouterConfig,
        horizon: SimTime,
        seed: u64,
    ) -> Vec<BoundedSource<PacketGenerator>> {
        let tm = self.matrix(cfg.ribbons);
        (0..cfg.ribbons)
            .map(|port| {
                let g = PacketGenerator::new(
                    port,
                    cfg.port_rate(),
                    (self.load() * tm.row_load(port)).min(1.0),
                    tm.row(port).to_vec(),
                    SizeDistribution::Imix,
                    ArrivalProcess::Poisson,
                    FLOWS_PER_PORT,
                    rip_sim::rng::derive_seed(seed, port as u64),
                )
                .expect("valid generator");
                BoundedSource::new(g, horizon)
            })
            .collect()
    }

    /// One bounded generator per (ribbon, fiber) of the SPS front end,
    /// built exactly as `SpsRouter::plane_source` builds its lanes.
    pub fn fiber_sources(
        self,
        router: &SpsRouter,
        w: &SpsWorkload,
        horizon: SimTime,
    ) -> Vec<BoundedSource<PacketGenerator>> {
        let cfg = self.config();
        let f = cfg.fibers_per_ribbon;
        let mut out = Vec::new();
        for ribbon in 0..cfg.ribbons {
            for (fiber, &load) in w.fill.loads(f, w.load * f as f64).iter().enumerate() {
                if load <= 0.0 {
                    continue;
                }
                let g = PacketGenerator::new(
                    ribbon,
                    router.front_end().fiber_rate(),
                    load.min(1.0),
                    w.tm.row(ribbon).to_vec(),
                    w.sizes.clone(),
                    w.process,
                    w.flows,
                    rip_sim::rng::derive_seed(w.seed, (ribbon * f + fiber) as u64),
                )
                .expect("valid generator");
                out.push(BoundedSource::new(g, horizon));
            }
        }
        out
    }
}

pub type PortSource = MergedSource<BoundedSource<PacketGenerator>>;

/// Everything built between the spec and the first run call. Built once
/// per run and moved once, so the size gap between variants costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum Prepared {
    Switch {
        sw: HbmSwitch,
        src: PortSource,
        deadline: SimTime,
        stream: Option<Arc<Mutex<StreamTally>>>,
    },
    Sps {
        router: SpsRouter,
        cfg: RouterConfig,
        w: SpsWorkload,
        horizon: SimTime,
    },
}

/// The end-of-run report of either shape.
pub enum Report {
    Switch(SwitchReport),
    Sps(SpsReport),
}

/// What one run call produced.
pub struct RunOutput {
    pub report: Report,
    /// Byte count and hash of the JSONL stream (live runs only).
    pub stream: Option<StreamTally>,
    pub epochs: u64,
    pub spans: u64,
}

/// Build the router, its sources and (when `live`) its sink. With a
/// probe, the sink is wrapped so time spent inside it is recorded.
pub fn prepare(
    wl: Workload,
    seed: u64,
    horizon: SimTime,
    live: bool,
    probe: Option<&Arc<Probe>>,
) -> Prepared {
    let cfg = wl.config();
    match wl {
        Workload::SpsUniform => Prepared::Sps {
            router: wl.sps_router(),
            cfg,
            w: wl.sps_workload(seed),
            horizon,
        },
        Workload::RefUniform | Workload::HotspotLive => {
            let deadline = cfg.drain.deadline(horizon);
            let src = MergedSource::new(wl.port_sources(&cfg, horizon, seed));
            let mut sw = HbmSwitch::new(cfg).expect("valid config");
            let stream = live.then(|| {
                let tally = Arc::new(Mutex::new(StreamTally::default()));
                let jsonl = JsonlSink::new(CountingWriter::new(tally.clone()));
                let sink: Box<dyn TelemetrySink + Send> = match probe {
                    Some(p) => Box::new(TimedSink::new(jsonl, p.clone())),
                    None => Box::new(jsonl),
                };
                sw.enable_live_telemetry(
                    TimeDelta::from_ns(LIVE_PERIOD_NS),
                    LIVE_SAMPLE_ONE_IN,
                    sink,
                );
                tally
            });
            Prepared::Switch {
                sw,
                src,
                deadline,
                stream,
            }
        }
    }
}

/// Drive one run through the public run calls. With a probe, every
/// `next_packet` of the run's outermost source is timed.
pub fn run(prepared: Prepared, probe: Option<&Arc<Probe>>) -> RunOutput {
    let plan = FaultPlan::default();
    match prepared {
        Prepared::Switch {
            mut sw,
            mut src,
            deadline,
            stream,
        } => {
            match probe {
                Some(p) => {
                    let mut timed = TimedSource::new(&mut src);
                    sw.run_source(&mut timed, deadline, &plan);
                    p.add_source(timed.ns, timed.pkts);
                }
                None => sw.run_source(&mut src, deadline, &plan),
            }
            let (epochs, spans) = (sw.live_epochs_emitted(), sw.live_spans_emitted());
            // The sink (and with it the JSONL writer) is dropped here.
            let report = sw.into_report();
            RunOutput {
                report: Report::Switch(report),
                stream: stream.map(|t| t.lock().expect("tally").clone()),
                epochs,
                spans,
            }
        }
        Prepared::Sps {
            router,
            cfg,
            w,
            horizon,
        } => {
            let mut results = Vec::with_capacity(cfg.switches);
            for p in 0..cfg.switches {
                match probe {
                    // The traced path rebuilds what `run_planes` does for
                    // one silent plane, so its source can be wrapped.
                    Some(pr) => {
                        let mut src = router.plane_source(&w, horizon, &plan, p);
                        let mut sw = HbmSwitch::new(cfg.clone()).expect("valid config");
                        let mut timed = TimedSource::new(&mut src);
                        sw.run_source(&mut timed, router.drain_deadline(horizon), &plan);
                        pr.add_source(timed.ns, timed.pkts);
                        results.push((
                            sw.into_report(),
                            src.front_end_dropped_packets(),
                            src.front_end_dropped(),
                        ));
                    }
                    None => {
                        let run = router
                            .run_planes(&w, horizon, &plan, None, &[p])
                            .expect("valid plane")
                            .pop()
                            .expect("one plane");
                        results.push((run.report, run.fe_dropped_packets, run.fe_dropped));
                    }
                }
            }
            RunOutput {
                report: Report::Sps(router.stitch_report(results, horizon)),
                stream: None,
                epochs: 0,
                spans: 0,
            }
        }
    }
}
