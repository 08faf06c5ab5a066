//! The HBM switch (§3.2, Fig. 3): the full discrete-event composition of
//! input ports, cyclical crossbars, tail SRAM, the PFI-driven HBM group,
//! head SRAM and output ports.

use std::collections::{HashSet, VecDeque};

use rip_hbm::{HbmCommandKind, HbmGroup, PfiController};
use rip_sim::snapshot::SnapshotError;
use rip_sim::stats::Histogram;
use rip_sim::{
    EventQueue, EventSink, Feeder, QueueKind, Series, ShardedEventQueue, TraceLog, VecPool,
};
use rip_telemetry::{
    prof_add, prof_lap, prof_now, prof_now_sampled, prof_renew, EngineProfiler, EpochClock,
    MetricsRegistry, Phase, ProfileHub, Snapshot, SpanEvent, TelemetrySink, TraceRecorder,
    TraceWindow, PID_FRAMES, PID_HBM,
};
use rip_traffic::{MergedSource, Packet, PacketSource, ReplaySource, StatefulSource};
use rip_units::{DataRate, DataSize, SimTime, TimeDelta};
use serde::{DeError, Deserialize, Serialize, Value};

use crate::batch::{Batch, BatchAssembler, Chunk};
use crate::config::{EngineKind, RouterConfig};
use crate::error::ConfigError;
use crate::output::{OutputPort, PacketDeparture};
use crate::resilience::{FaultAction, FaultEvent, FaultKind, FaultPlan};
use crate::shard_engine::{ArrivalFx, FlushFx, ShardEngine, ShardParams, ShardStream, ShardTuning};
use crate::sram::{Frame, HeadSram, HeadSramState, TailSram, TailSramState};

/// Observable milestones recorded by the optional switch trace
/// ([`HbmSwitch::enable_trace`]) — the simulator's pcap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SwitchEvent {
    /// A full frame was written to the HBM for `output`.
    FrameWritten {
        /// Destination output.
        output: usize,
        /// Per-output frame index.
        index: u64,
    },
    /// A frame was read from the HBM for `output`.
    FrameRead {
        /// Destination output.
        output: usize,
        /// Per-output frame index.
        index: u64,
    },
    /// A padded frame bypassed the HBM straight to the head SRAM.
    Bypass {
        /// Destination output.
        output: usize,
    },
    /// A packet was dropped at a full input VOQ.
    InputDrop {
        /// Ingress port.
        input: usize,
    },
    /// A full frame was dropped at a full per-output HBM region.
    FrameDrop {
        /// Destination output.
        output: usize,
    },
}

/// Registry name the switch publishes live records under (the SPS
/// layer renames per-plane streams to `plane00`, `plane01`, …).
const LIVE_SOURCE: &str = "switch";

/// Live-streaming state, present only when
/// [`HbmSwitch::enable_live_telemetry`] was called. Everything here is
/// driven by sim time and the packet's own flow hash, so enabling it
/// never perturbs the simulation itself — two same-seed runs stream
/// byte-identical records, and the silent path is untouched.
struct LiveTelemetry {
    clock: EpochClock,
    /// Registry state at the last flushed boundary.
    prev: Snapshot,
    sink: Box<dyn TelemetrySink + Send>,
    /// Lifecycle sampling: packets whose flow hash satisfies
    /// `fnv1a(flow) % sample_one_in == 0` get span events (0 = off).
    sample_one_in: u64,
    /// Ids of sampled packets currently inside the switch.
    sampled: PacketIdSet,
    epochs_emitted: u64,
    spans_emitted: u64,
    /// `run_source` finished and the terminal records were emitted.
    finished: bool,
}

impl LiveTelemetry {
    fn samples_flow(&self, flow: &rip_traffic::FlowKey) -> bool {
        self.sample_one_in > 0
            && rip_traffic::hash::fnv1a(&flow.to_bytes()).is_multiple_of(self.sample_one_in)
    }
}

/// Track lane offsets of the per-output frame-lifecycle quartet on
/// [`PID_FRAMES`] (tid = `output * 4 + lane`).
const FRAME_LANE_FILL: u64 = 0;
const FRAME_LANE_WRITE: u64 = 1;
const FRAME_LANE_READ: u64 = 2;
const FRAME_LANE_DRAIN: u64 = 3;

/// Chrome trace-event capture state, present only when
/// [`HbmSwitch::enable_chrome_trace`] was called. Frame-lifecycle
/// spans are recorded as the run executes; the per-bank HBM command
/// tracks are post-processed from the device command log by
/// [`HbmSwitch::take_chrome_trace`]. Purely passive: it observes sim
/// times the pipeline already computes, so enabling it never perturbs
/// the simulation.
struct ChromeTrace {
    rec: TraceRecorder,
    /// Sim time the currently forming frame of each output started
    /// filling (first batch at the tail SRAM), `None` when no frame is
    /// forming.
    fill_start: Vec<Option<SimTime>>,
}

impl ChromeTrace {
    /// Record one frame-lifecycle span if it overlaps the window.
    fn frame_span(&mut self, o: usize, lane: u64, name: &str, start: SimTime, end: SimTime) {
        if self.rec.window().overlaps(start, end) {
            self.rec
                .complete(PID_FRAMES, o as u64 * 4 + lane, name, start, end);
        }
    }
}

/// Hasher for the sampled-packet id set. The set is probed once per
/// chunk on the live path, so SipHash would be measurable overhead; a
/// single Fibonacci multiply mixes the (near-sequential) packet ids
/// well enough for membership tests.
#[derive(Default)]
struct PacketIdHasher(u64);

impl std::hash::Hasher for PacketIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type PacketIdSet = HashSet<u64, std::hash::BuildHasherDefault<PacketIdHasher>>;

/// Events of the switch simulation.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum Ev {
    /// A packet arrives at an input port.
    Arrival(Packet),
    /// The last event of the trace was delivered.
    ArrivalsDone,
    /// A batch finished striping across the tail SRAM modules.
    BatchAtTail(Batch),
    /// A partial batch waited too long at an input port.
    FlushTimeout {
        /// Input port.
        input: usize,
        /// Output VOQ.
        output: usize,
    },
    /// The cyclical read engine's next turn.
    ReadTurn,
    /// A frame arrived at the head SRAM (HBM read or bypass).
    FrameAtHead(Frame),
    /// An output port pulls its next batch.
    Drain(usize),
    /// A component fails or recovers ([`FaultPlan`]).
    Fault(FaultEvent),
}

/// How a checkpointed run ([`HbmSwitch::run_source_checkpointed`])
/// ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The source drained (or the horizon was reached) and the terminal
    /// telemetry records were emitted — same end state as
    /// [`HbmSwitch::run_source`].
    Completed,
    /// The stop flag was observed at an epoch boundary: a final
    /// snapshot was persisted and the run returned early. Resume it
    /// with the persisted state to continue byte-identically.
    Interrupted,
}

/// A checkpointable clone of [`Feeder`]'s single-item lookahead,
/// holding the source by value so its position can be saved alongside
/// the buffered packet. Semantics (fill-on-demand, the non-decreasing
/// assert, and the `pulled` source-progress counter) mirror [`Feeder`]
/// exactly — the streaming-equivalence argument in
/// [`HbmSwitch::run_source`] carries over unchanged.
struct CkptFeeder<S> {
    source: S,
    buf: Option<(SimTime, Packet)>,
    source_done: bool,
    last_pulled: SimTime,
    pulled: u64,
}

impl<S: PacketSource> CkptFeeder<S> {
    fn new(source: S) -> Self {
        CkptFeeder {
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

    fn peek_time(&mut self) -> Option<SimTime> {
        self.fill();
        self.buf.map(|(t, _)| t)
    }

    fn pop(&mut self) -> Option<(SimTime, Packet)> {
        self.fill();
        self.buf.take()
    }

    fn is_exhausted(&mut self) -> bool {
        self.fill();
        self.source_done && self.buf.is_none()
    }

    fn pulled(&self) -> u64 {
        self.pulled
    }
}

impl<S: PacketSource + StatefulSource> CkptFeeder<S> {
    fn save(&self) -> FeederState {
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
    fn restore(mut source: S, st: &FeederState) -> Result<Self, DeError> {
        source.restore_state(&st.source)?;
        Ok(CkptFeeder {
            source,
            buf: st.buf,
            source_done: st.source_done,
            last_pulled: st.last_pulled,
            pulled: st.pulled,
        })
    }
}

/// Serialized [`CkptFeeder`]: the lookahead packet plus the source's
/// own position (via [`StatefulSource`]).
#[derive(Serialize, Deserialize)]
struct FeederState {
    buf: Option<(SimTime, Packet)>,
    source_done: bool,
    last_pulled: SimTime,
    pulled: u64,
    source: Value,
}

/// Serialized [`LiveTelemetry`] minus the sink (the resuming run
/// supplies its own sink; record counters carry over so the merged
/// stream is byte-identical).
#[derive(Serialize, Deserialize)]
struct LiveState {
    clock: EpochClock,
    prev: Snapshot,
    sample_one_in: u64,
    /// Sorted, so same-state snapshots serialize byte-identically.
    sampled: Vec<u64>,
    epochs_emitted: u64,
    spans_emitted: u64,
    finished: bool,
}

/// The complete mutable state of a mid-run [`HbmSwitch`], as written
/// into a snapshot by [`HbmSwitch::run_source_checkpointed`]. The
/// configuration rides along as a [`Value`] echo so a resume under a
/// different config is rejected instead of silently diverging.
#[derive(Serialize, Deserialize)]
struct SwitchState {
    cfg: Value,
    group: HbmGroup,
    pfi: PfiController,
    assemblers: Vec<BatchAssembler>,
    input_xbar_free: Vec<SimTime>,
    flush_pending: Vec<Vec<bool>>,
    tail: TailSramState,
    hbm_frames: Vec<VecDeque<(Frame, SimTime)>>,
    head: HeadSramState,
    pending_to_head: Vec<usize>,
    outputs: Vec<OutputPort>,
    drain_scheduled: Vec<bool>,
    read_cursor: usize,
    batches_in_flight: usize,
    arrivals_done: bool,
    /// Sorted, so same-state snapshots serialize byte-identically.
    dropped_ids: Vec<u64>,
    offered_packets: u64,
    offered_bytes: DataSize,
    delivered_packets: u64,
    delivered_bytes: DataSize,
    dropped_input: u64,
    dropped_frames: u64,
    dropped_bytes: DataSize,
    padded_bytes: DataSize,
    live_packets: u64,
    peak_in_flight: u64,
    active_faults: usize,
    dead_channels: usize,
    last_roll: SimTime,
    time_degraded: TimeDelta,
    capacity_lost: DataSize,
    baseline_occupancy: Option<u64>,
    pending_recovery: Option<SimTime>,
    recovery_drain: Option<TimeDelta>,
    dropped_packets_fault: u64,
    dropped_packets_congestion: u64,
    delays_ns: Histogram,
    departures: Vec<PacketDeparture>,
    first_arrival: Option<SimTime>,
    last_departure: SimTime,
    input_peak: DataSize,
    hbm_occupancy: Series,
    metrics: MetricsRegistry,
    output_depth: Vec<Series>,
    live: Option<LiveState>,
    /// Pending events in pop order with their original tie-break
    /// sequence numbers.
    queue: Vec<(SimTime, u64, Ev)>,
    queue_next_seq: u64,
    queue_last_popped: SimTime,
    feeder: FeederState,
}

/// End-of-run report of one HBM switch.
///
/// Serializes with declaration-order fields and `BTreeMap`-ordered
/// metrics, so two same-seed runs produce byte-identical JSON (the
/// golden-report snapshot tests rely on this).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SwitchReport {
    /// Packets offered by the trace.
    pub offered_packets: u64,
    /// Bytes offered.
    pub offered_bytes: DataSize,
    /// Packets fully delivered.
    pub delivered_packets: u64,
    /// Payload bytes drained at outputs.
    pub delivered_bytes: DataSize,
    /// Packets dropped at full input VOQs.
    pub dropped_input: u64,
    /// Frames dropped at full per-output HBM regions.
    pub dropped_frames: u64,
    /// Bytes dropped (input + frame drops).
    pub dropped_bytes: DataSize,
    /// Padding bytes injected (timeout flushes and padded/bypass frames).
    pub padded_bytes: DataSize,
    /// Peak number of packets simultaneously inside the switch
    /// (accepted at an input but not yet delivered or dropped). This is
    /// the streaming engine's memory high-water mark: it depends on
    /// load and congestion, not on the simulated horizon.
    pub peak_in_flight_packets: u64,
    /// Per-packet delay histogram, in nanoseconds.
    pub delays_ns: Histogram,
    /// All packet departures (for mimicking comparisons).
    pub departures: Vec<PacketDeparture>,
    /// Simulated span from first arrival to last departure.
    pub span: TimeDelta,
    /// Delivered aggregate rate over the span.
    pub delivered_rate: DataRate,
    /// `delivered_bytes / offered_bytes`.
    pub delivery_fraction: f64,
    /// HBM utilization over the span (moved data vs peak).
    pub hbm_utilization: f64,
    /// Peak input VOQ bytes over all ports.
    pub input_peak: DataSize,
    /// Peak tail SRAM bytes.
    pub tail_peak: DataSize,
    /// Peak head SRAM bytes.
    pub head_peak: DataSize,
    /// Mean egress lane-spread CV across outputs.
    pub lane_spread_cv: f64,
    /// Packets lost while a fault was active (input + frame drops).
    pub dropped_packets_fault: u64,
    /// Packets lost with no fault active — plain congestion.
    pub dropped_packets_congestion: u64,
    /// Total time at least one fault was active.
    pub time_degraded: TimeDelta,
    /// HBM bandwidth-time lost to dead channels (integrated
    /// `channel_rate × dead channels` over the run).
    pub capacity_lost: DataSize,
    /// Time from the last recovery until the HBM frame occupancy first
    /// returned to its pre-fault baseline (`None` if no fault ran or
    /// the backlog never drained within the run).
    pub recovery_drain: Option<TimeDelta>,
    /// Deterministic sim-time telemetry: frame path/fill metrics, HBM
    /// command mix and stall accounting, photonic lane/energy totals.
    pub metrics: MetricsRegistry,
}

/// The HBM switch simulator.
///
/// Feed an arrival-ordered packet trace (`input`/`output` are switch
/// port indices `0..N`) to [`HbmSwitch::run`]; the switch plays the
/// complete §3.2 pipeline against the cycle-exact HBM device model and
/// reports throughput, delay, loss, occupancy and utilization.
pub struct HbmSwitch {
    cfg: RouterConfig,
    group: HbmGroup,
    pfi: PfiController,
    assemblers: Vec<BatchAssembler>,
    input_xbar_free: Vec<SimTime>,
    flush_pending: Vec<Vec<bool>>,
    tail: TailSram,
    /// Simulator-side mirror of the HBM per-output FIFOs: frame
    /// contents + write-completion time. (The switch itself needs no
    /// such bookkeeping — the controller's two counters per output are
    /// its whole state, the paper's "no bookkeeping" claim.)
    hbm_frames: Vec<VecDeque<(Frame, SimTime)>>,
    head: HeadSram,
    pending_to_head: Vec<usize>,
    outputs: Vec<OutputPort>,
    drain_scheduled: Vec<bool>,
    read_cursor: usize,
    /// Batches striping toward the tail SRAM (scheduled BatchAtTail
    /// events) — tracked so the read engine does not shut down while
    /// data is still in flight.
    batches_in_flight: usize,
    arrivals_done: bool,
    dropped_ids: HashSet<u64>,
    // Statistics.
    offered_packets: u64,
    offered_bytes: DataSize,
    delivered_packets: u64,
    delivered_bytes: DataSize,
    dropped_input: u64,
    dropped_frames: u64,
    dropped_bytes: DataSize,
    padded_bytes: DataSize,
    /// Packets accepted but not yet delivered or dropped, and the
    /// high-water mark — the streaming engine's O(in-flight) memory
    /// argument, measured.
    live_packets: u64,
    peak_in_flight: u64,
    // Fault / degraded-mode accounting.
    active_faults: usize,
    dead_channels: usize,
    last_roll: SimTime,
    time_degraded: TimeDelta,
    capacity_lost: DataSize,
    baseline_occupancy: Option<u64>,
    pending_recovery: Option<SimTime>,
    recovery_drain: Option<TimeDelta>,
    dropped_packets_fault: u64,
    dropped_packets_congestion: u64,
    delays_ns: Histogram,
    departures: Vec<PacketDeparture>,
    first_arrival: Option<SimTime>,
    last_departure: SimTime,
    input_peak: DataSize,
    /// Optional event trace (None = tracing off).
    trace: Option<TraceLog<SwitchEvent>>,
    /// Total frames buffered in the HBM over time (sampled at frame
    /// writes/reads when tracing is on).
    hbm_occupancy: Series,
    /// Always-on deterministic telemetry accumulated during the run
    /// (completed by device/photonic aggregates in [`HbmSwitch::report`]).
    metrics: MetricsRegistry,
    /// Per-output HBM queue depth over time (frames), sampled at every
    /// frame write/read with bounded memory.
    output_depth: Vec<Series>,
    /// Chrome trace-event capture (None = off).
    chrome: Option<ChromeTrace>,
    /// Live epoch streaming + lifecycle sampling (None = silent).
    live: Option<LiveTelemetry>,
    /// Cached next epoch boundary in ps; `u64::MAX` when live telemetry
    /// is off or finished. Keeps the per-event flush check to one
    /// integer compare.
    live_boundary_ps: u64,
    /// Event-queue kernel for every run started on this switch (the
    /// timing wheel by default; the binary-heap oracle for differential
    /// runs). Snapshots are kernel-agnostic, so a snapshot taken under
    /// one kind resumes byte-identically under the other.
    queue_kind: QueueKind,
    /// Precomputed `switch.outNN.queue_depth_frames` metric names, so
    /// the per-frame depth sample does not format a fresh string.
    out_depth_keys: Vec<String>,
    /// Reusable buffer for batches completed by one arrival (hot-loop
    /// scratch; always drained back to empty before reuse).
    batch_scratch: Vec<Batch>,
    /// Recycled chunk vectors: batches formed at inputs retire their
    /// chunk storage here when drained or dropped, so steady-state
    /// batch formation allocates nothing.
    chunk_pool: VecPool<Chunk>,
    /// Sharded-engine mirror of each input's total VOQ occupancy,
    /// replayed from boundary effects (the assemblers themselves live
    /// on the shard workers). `None` outside a sharded run; the
    /// shutdown check reads it in place of `self.assemblers`.
    queued_mirror: Option<Vec<DataSize>>,
    /// Wall-clock self-profiler (`None` = off; the run loops then never
    /// read the monotonic clock). Profile records travel on the hub's
    /// own stream and never touch reports, telemetry, traces or
    /// checkpoints — profiled runs are byte-identical to silent ones.
    prof: Option<EngineProfiler>,
}

/// Routes the core's internally scheduled events onto the sharded
/// queue: the strictly periodic `ReadTurn` stream feeds a monotone
/// calendar lane, everything else the kernel wheel/heap. Sequence
/// numbers are assigned globally either way, so the pop order is
/// identical to the sequential engine's.
struct LaneRouter<'a> {
    q: &'a mut ShardedEventQueue<Ev>,
    read_lane: usize,
}

impl EventSink<Ev> for LaneRouter<'_> {
    fn schedule(&mut self, time: SimTime, event: Ev) {
        match event {
            Ev::ReadTurn => self.q.schedule_lane(self.read_lane, time, event),
            ev => self.q.schedule(time, ev),
        }
    }
}

impl HbmSwitch {
    /// Build a switch from a validated configuration.
    pub fn new(cfg: RouterConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let n = cfg.ribbons;
        let group = HbmGroup::new(cfg.stacks_per_switch, cfg.hbm_geometry, cfg.hbm_timing);
        let pfi = PfiController::new(cfg.pfi(), &group)?;
        let k = cfg.batch_size();
        Ok(HbmSwitch {
            assemblers: (0..n).map(|i| BatchAssembler::new(i, n, k)).collect(),
            input_xbar_free: vec![SimTime::ZERO; n],
            flush_pending: vec![vec![false; n]; n],
            tail: TailSram::new(n, cfg.batch_size(), cfg.batches_per_frame()),
            hbm_frames: vec![VecDeque::new(); n],
            head: HeadSram::new(n, cfg.batch_size(), cfg.head_frames),
            pending_to_head: vec![0; n],
            outputs: (0..n)
                .map(|o| {
                    let mut port =
                        OutputPort::new(o, cfg.port_rate(), cfg.alpha(), cfg.wavelengths);
                    if cfg.per_lane_egress {
                        port.set_lane_rate(Some(cfg.rate_per_wavelength));
                    }
                    port
                })
                .collect(),
            drain_scheduled: vec![false; n],
            read_cursor: 0,
            batches_in_flight: 0,
            arrivals_done: false,
            dropped_ids: HashSet::new(),
            offered_packets: 0,
            offered_bytes: DataSize::ZERO,
            delivered_packets: 0,
            delivered_bytes: DataSize::ZERO,
            dropped_input: 0,
            dropped_frames: 0,
            dropped_bytes: DataSize::ZERO,
            padded_bytes: DataSize::ZERO,
            live_packets: 0,
            peak_in_flight: 0,
            active_faults: 0,
            dead_channels: 0,
            last_roll: SimTime::ZERO,
            time_degraded: TimeDelta::ZERO,
            capacity_lost: DataSize::ZERO,
            baseline_occupancy: None,
            pending_recovery: None,
            recovery_drain: None,
            dropped_packets_fault: 0,
            dropped_packets_congestion: 0,
            delays_ns: Histogram::new(),
            departures: Vec::new(),
            first_arrival: None,
            last_departure: SimTime::ZERO,
            input_peak: DataSize::ZERO,
            trace: None,
            hbm_occupancy: Series::new(4096),
            metrics: MetricsRegistry::new(),
            output_depth: (0..n).map(|_| Series::new(1024)).collect(),
            chrome: None,
            live: None,
            live_boundary_ps: u64::MAX,
            queue_kind: QueueKind::default_kind(),
            out_depth_keys: (0..n)
                .map(|o| format!("switch.out{o:02}.queue_depth_frames"))
                .collect(),
            batch_scratch: Vec::new(),
            chunk_pool: VecPool::default(),
            queued_mirror: None,
            prof: None,
            group,
            pfi,
            cfg,
        })
    }

    /// Attach the wall-clock self-profiler: the run loops lap a
    /// monotonic clock across kernel pops, dispatch phases and
    /// telemetry export, flushing one record per telemetry epoch into
    /// `hub` under source `engine` (shard workers join the same hub as
    /// `shardNN`). Profiling never alters simulation state or any
    /// deterministic output surface.
    pub fn enable_profiler(&mut self, hub: ProfileHub) {
        self.enable_profiler_as(hub, "engine");
    }

    /// [`Self::enable_profiler`] under a caller-chosen source label —
    /// fleet plane workers profile as `planeNN` so the collector's
    /// merged exposition can tell planes apart.
    pub fn enable_profiler_as(&mut self, hub: ProfileHub, source: &str) {
        self.prof = Some(EngineProfiler::new(hub, source));
    }

    /// Select the event-queue kernel for subsequent runs: the timing
    /// wheel (default) or the binary-heap differential oracle. Both
    /// kernels realize the same `(time, insertion-seq)` total order, so
    /// reports, telemetry and snapshots are byte-identical across
    /// kinds — the kernel-equivalence suite runs both and compares.
    pub fn set_queue_kind(&mut self, kind: QueueKind) {
        self.queue_kind = kind;
    }

    /// The event-queue kernel runs on this switch will use.
    pub fn queue_kind(&self) -> QueueKind {
        self.queue_kind
    }

    /// The configuration in force.
    pub fn config(&self) -> &RouterConfig {
        &self.cfg
    }

    /// Record switch milestones into a bounded trace (keep the most
    /// recent `capacity` events) and sample the HBM frame occupancy.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(TraceLog::new(capacity));
    }

    /// The recorded trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&TraceLog<SwitchEvent>> {
        self.trace.as_ref()
    }

    /// Capture a Chrome trace-event timeline of the run, gated by
    /// `window`: per-output frame-lifecycle spans
    /// (fill → write → read → drain) recorded live, plus per-bank HBM
    /// command tracks post-processed from the device command log when
    /// [`HbmSwitch::take_chrome_trace`] is called. Also turns on HBM
    /// command recording (the same hook the timing-conformance checker
    /// replays).
    pub fn enable_chrome_trace(&mut self, window: TraceWindow) {
        self.group.set_record_commands(true);
        // Capture-time bound: keep only commands that can overlap the
        // window once their derived spans (ACT covers tRCD, PRE tRP,
        // REFsb tRFCsb) are attached — widen the start by the longest
        // such span so `take_chrome_trace`'s precise overlap filter
        // still sees every candidate.
        let t = self.group.timing();
        let timing_slack = t
            .t_rcd
            .as_ps()
            .max(t.t_rp.as_ps())
            .max(t.t_rfc_sb.as_ps())
            .max(t.t_faw.as_ps());
        // RD/WR spans run to bus release, which trails the issue time by
        // queueing + transfer; 100 ns dwarfs both on every geometry.
        let slack = timing_slack + 100_000;
        self.group.set_record_window(Some((
            SimTime::from_ps(window.start().as_ps().saturating_sub(slack)),
            window.end(),
        )));
        let mut rec = TraceRecorder::new(window);
        rec.set_process_name(PID_HBM, "hbm");
        rec.set_process_name(PID_FRAMES, "frames");
        for o in 0..self.cfg.ribbons {
            for (lane, name) in [
                (FRAME_LANE_FILL, "fill"),
                (FRAME_LANE_WRITE, "write"),
                (FRAME_LANE_READ, "read"),
                (FRAME_LANE_DRAIN, "drain"),
            ] {
                rec.set_thread_name(
                    PID_FRAMES,
                    o as u64 * 4 + lane,
                    &format!("out{o:02} {name}"),
                );
            }
        }
        self.chrome = Some(ChromeTrace {
            rec,
            fill_start: vec![None; self.cfg.ribbons],
        });
    }

    /// Whether [`HbmSwitch::enable_chrome_trace`] is active.
    pub fn chrome_trace_enabled(&self) -> bool {
        self.chrome.is_some()
    }

    /// Take the recorded Chrome trace, folding the HBM command log
    /// into per-bank duration tracks: one track per `(channel, bank)`
    /// carrying ACT (shown over its tRCD window), RD/WR (to bus
    /// release), PRE (tRP) and REFsb (tRFCsb), plus one `tFAW` lane per
    /// channel where every ACT opens its rolling four-activate window.
    /// Commands strictly outside the trace window are skipped; track
    /// names are emitted only for banks that recorded at least one
    /// in-window command.
    pub fn take_chrome_trace(&mut self) -> Option<TraceRecorder> {
        let mut ct = self.chrome.take()?;
        let window = ct.rec.window();
        let timing = *self.group.timing();
        let bpc = self.group.geometry().banks_per_channel;
        let lanes = bpc as u64 + 1;
        for (c, ch) in self.group.channels().enumerate() {
            let mut named = vec![false; bpc + 1];
            for cmd in ch.commands() {
                let (name, start, end) = match cmd.kind {
                    HbmCommandKind::Activate { .. } => ("ACT", cmd.at, cmd.at + timing.t_rcd),
                    HbmCommandKind::Read { end, .. } => ("RD", cmd.at, end),
                    HbmCommandKind::Write { end, .. } => ("WR", cmd.at, end),
                    HbmCommandKind::Precharge => ("PRE", cmd.at, cmd.at + timing.t_rp),
                    HbmCommandKind::RefreshSb => ("REFsb", cmd.at, cmd.at + timing.t_rfc_sb),
                };
                if window.overlaps(start, end) {
                    let tid = c as u64 * lanes + cmd.bank as u64;
                    if !named[cmd.bank] {
                        named[cmd.bank] = true;
                        ct.rec
                            .set_thread_name(PID_HBM, tid, &format!("ch{c:02}/b{:02}", cmd.bank));
                    }
                    ct.rec.complete(PID_HBM, tid, name, start, end);
                }
                if matches!(cmd.kind, HbmCommandKind::Activate { .. }) {
                    let faw_end = cmd.at + timing.t_faw;
                    if window.overlaps(cmd.at, faw_end) {
                        let tid = c as u64 * lanes + bpc as u64;
                        if !named[bpc] {
                            named[bpc] = true;
                            ct.rec
                                .set_thread_name(PID_HBM, tid, &format!("ch{c:02}/tFAW"));
                        }
                        ct.rec.complete(PID_HBM, tid, "tFAW", cmd.at, faw_end);
                    }
                }
            }
        }
        Some(ct.rec)
    }

    /// Stream live telemetry into `sink` while [`HbmSwitch::run_source`]
    /// executes: one [`rip_telemetry::EpochDelta`] per `period` of sim
    /// time, plus sampled packet-lifecycle span events when
    /// `sample_one_in > 0` (a packet is sampled when
    /// `fnv1a(flow) % sample_one_in == 0` — keyed on the flow hash, not
    /// an RNG, so the sampled set is identical across same-seed runs).
    ///
    /// Determinism rules: epoch boundaries are exact multiples of
    /// `period` in sim time (never wall-clock), all record maps are
    /// `BTreeMap`-ordered, and streaming never alters the simulation —
    /// a live run's report is the silent run's report plus the live
    /// gauge series. The final epoch delta is taken against the full
    /// end-of-run registry (device + photonic aggregates included), so
    /// replaying every emitted delta reconstructs
    /// [`SwitchReport::metrics`] byte-identically.
    ///
    /// Only [`HbmSwitch::run_source`] flushes; [`HbmSwitch::run_preloaded`]
    /// (the batch oracle) stays silent.
    pub fn enable_live_telemetry(
        &mut self,
        period: TimeDelta,
        sample_one_in: u64,
        sink: Box<dyn TelemetrySink + Send>,
    ) {
        let clock = EpochClock::new(period);
        self.live_boundary_ps = clock.next_boundary().as_ps();
        self.live = Some(LiveTelemetry {
            clock,
            prev: Snapshot::empty(),
            sink,
            sample_one_in,
            sampled: PacketIdSet::default(),
            epochs_emitted: 0,
            spans_emitted: 0,
            finished: false,
        });
    }

    /// Epoch records emitted so far (0 when live telemetry is off).
    pub fn live_epochs_emitted(&self) -> u64 {
        self.live.as_ref().map_or(0, |l| l.epochs_emitted)
    }

    /// Span records emitted so far (0 when live telemetry is off).
    pub fn live_spans_emitted(&self) -> u64 {
        self.live.as_ref().map_or(0, |l| l.spans_emitted)
    }

    /// Flush every epoch whose boundary is at or before the next event
    /// time `t` (an event exactly at a boundary belongs to the next
    /// epoch). `pulled` is the feeder's source-progress counter.
    ///
    /// Called before every event dispatch, so the no-flush case must be
    /// one integer compare: `live_boundary_ps` caches the next boundary
    /// and is `u64::MAX` whenever live telemetry is off or finished.
    #[inline]
    fn live_flush_epochs(&mut self, t: SimTime, pulled: u64) {
        while t.as_ps() >= self.live_boundary_ps {
            self.live_flush_one(pulled);
        }
    }

    /// Close the currently accumulating epoch and emit its delta.
    fn live_flush_one(&mut self, pulled: u64) {
        let t0 = prof_now(&self.prof);
        // Take `live` out so the sink call can borrow `self.metrics`
        // without aliasing.
        let mut live = self.live.take().expect("live checked by caller");
        let (epoch, _from, to) = live.clock.advance();
        self.live_boundary_ps = live.clock.next_boundary().as_ps();
        self.stamp_live_gauges(to, pulled);
        let snap = self.metrics.snapshot(to);
        let delta = snap.delta_since(&live.prev);
        live.sink.on_epoch(LIVE_SOURCE, epoch, &delta);
        live.prev = snap;
        live.epochs_emitted += 1;
        self.live = Some(live);
        prof_add(&mut self.prof, Phase::TelemetryExport, t0);
        // One profile record per telemetry epoch, emitted after the
        // epoch's own export time was attributed.
        if let Some(p) = self.prof.as_mut() {
            p.flush();
        }
    }

    /// The per-epoch gauge series: working-set and source progress,
    /// stamped at the epoch boundary so soak runs can watch growth live.
    fn stamp_live_gauges(&mut self, at: SimTime, pulled: u64) {
        self.metrics
            .set_gauge("switch.packets.in_flight", at, self.live_packets as f64);
        self.metrics.set_gauge(
            "switch.packets.peak_in_flight",
            at,
            self.peak_in_flight as f64,
        );
        self.metrics.set_gauge(
            "switch.packets.delivered",
            at,
            self.delivered_packets as f64,
        );
        self.metrics
            .set_gauge("switch.feeder.pulled_packets", at, pulled as f64);
        // Watchdog inputs: drop/offered/capacity state visible every
        // epoch, not just at run end.
        self.metrics
            .set_gauge("switch.packets.offered", at, self.offered_packets as f64);
        self.metrics.set_gauge(
            "switch.packets.dropped",
            at,
            (self.dropped_packets_fault + self.dropped_packets_congestion) as f64,
        );
        self.metrics.set_gauge(
            "switch.capacity.dead_channels",
            at,
            self.dead_channels as f64,
        );
    }

    /// Emit the terminal records: a final epoch delta taken against the
    /// complete end-of-run registry (so merged deltas reconstruct
    /// [`SwitchReport::metrics`] exactly), then `run_end` with the
    /// totals.
    fn live_finish(&mut self, pulled: u64) {
        if self.live.as_ref().is_none_or(|l| l.finished) {
            return;
        }
        // Same end-of-run instant the report derives.
        let first = self.first_arrival.unwrap_or(SimTime::ZERO);
        let span = self.last_departure.saturating_since(first);
        let end = first + span;
        let t0 = prof_now(&self.prof);
        let mut live = self.live.take().expect("checked above");
        let epoch = live.clock.epoch();
        self.stamp_live_gauges(end, pulled);
        let final_metrics = self.final_metrics(end, span);
        let snap = final_metrics.snapshot(end);
        let delta = snap.delta_since(&live.prev);
        live.sink.on_epoch(LIVE_SOURCE, epoch, &delta);
        live.epochs_emitted += 1;
        live.sink.on_run_end(LIVE_SOURCE, end, &final_metrics);
        live.prev = snap;
        live.finished = true;
        self.live_boundary_ps = u64::MAX;
        self.live = Some(live);
        prof_add(&mut self.prof, Phase::TelemetryExport, t0);
    }

    /// Flush whatever the profiler accumulated since the last epoch
    /// record — the end-of-run catch-all (and the only flush for runs
    /// without live telemetry).
    fn prof_finish(&mut self) {
        if let Some(p) = self.prof.as_mut() {
            p.flush_nonempty();
        }
    }

    /// The profile phase an event's handling is attributed to.
    fn phase_of(ev: &Ev) -> Phase {
        match ev {
            Ev::Arrival(_) | Ev::FlushTimeout { .. } => Phase::BatchAssembly,
            Ev::BatchAtTail(_) | Ev::ReadTurn | Ev::FrameAtHead(_) => Phase::HbmTiming,
            Ev::Drain(_) => Phase::BatchDrain,
            Ev::ArrivalsDone | Ev::Fault(_) => Phase::Dispatch,
        }
    }

    /// Emit `stage` for `packet` if it is being sampled.
    fn live_span(&mut self, packet: u64, stage: &'static str, at: SimTime, port: usize) {
        if let Some(live) = self.live.as_mut() {
            if live.sampled.contains(&packet) {
                live.spans_emitted += 1;
                live.sink.on_span(
                    LIVE_SOURCE,
                    &SpanEvent {
                        packet,
                        stage,
                        at,
                        port,
                    },
                );
            }
        }
    }

    /// Emit a terminal `stage` for `packet` and stop sampling it.
    fn live_span_end(&mut self, packet: u64, stage: &'static str, at: SimTime, port: usize) {
        if let Some(live) = self.live.as_mut() {
            if live.sampled.remove(&packet) {
                live.spans_emitted += 1;
                live.sink.on_span(
                    LIVE_SOURCE,
                    &SpanEvent {
                        packet,
                        stage,
                        at,
                        port,
                    },
                );
            }
        }
    }

    /// HBM frame-occupancy series (non-empty only when tracing is on).
    pub fn hbm_occupancy(&self) -> &Series {
        &self.hbm_occupancy
    }

    fn record(&mut self, now: SimTime, ev: SwitchEvent) {
        if let Some(log) = self.trace.as_mut() {
            log.push(now, ev);
            let buffered: u64 = (0..self.cfg.ribbons)
                .map(|o| self.pfi.frames_buffered(o))
                .sum();
            self.hbm_occupancy.record(now, buffered as f64);
        }
    }

    /// Time for one batch to cross an internal (sped-up) interface.
    fn batch_time(&self) -> TimeDelta {
        self.cfg
            .internal_rate()
            .transfer_time(self.cfg.batch_size())
    }

    /// Interval between cyclical read turns: one frame per output per
    /// `K / internal rate`, round-robin over N outputs.
    fn read_interval(&self) -> TimeDelta {
        self.cfg
            .internal_rate()
            .transfer_time(self.cfg.frame_size())
            / self.cfg.ribbons as u64
    }

    /// Tail→head bypass transit time: one frame over the full HBM-width
    /// path.
    fn bypass_latency(&self) -> TimeDelta {
        self.cfg.hbm_peak().transfer_time(self.cfg.frame_size())
    }

    fn send_batch(&mut self, q: &mut impl EventSink<Ev>, now: SimTime, batch: Batch) {
        let i = batch.input;
        let dt = self.batch_time();
        let t0 = now.max(self.input_xbar_free[i]);
        self.input_xbar_free[i] = t0 + dt;
        self.batches_in_flight += 1;
        // Serialization over N crossbar slots plus worst-case alignment
        // until the input faces module 0.
        q.schedule(t0 + dt + dt, Ev::BatchAtTail(batch));
    }

    fn write_frame(&mut self, now: SimTime, frame: Frame) {
        let o = frame.output;
        if self.live.is_some() {
            let mut last = u64::MAX;
            for batch in &frame.batches {
                for c in &batch.chunks {
                    if c.packet != last {
                        last = c.packet;
                        self.live_span(c.packet, "hbm_write", now, o);
                    }
                }
            }
        }
        // Frame fill efficiency: payload actually carried vs. the fixed
        // frame capacity the HBM write pays for.
        self.metrics.inc(
            "switch.frame.payload_bytes",
            frame.payload_in(self.cfg.batch_size()).bytes(),
        );
        self.metrics
            .inc("switch.frame.capacity_bytes", self.cfg.frame_size().bytes());
        self.metrics.inc("switch.frames.written", 1);
        let op = self.pfi.write_frame(&mut self.group, now, o);
        if let Some(ct) = self.chrome.as_mut() {
            ct.frame_span(o, FRAME_LANE_WRITE, "write", now, op.end);
        }
        self.hbm_frames[o].push_back((frame, op.end));
        self.sample_output_depth(now, o);
        self.record(
            now,
            SwitchEvent::FrameWritten {
                output: o,
                index: op.frame_index,
            },
        );
    }

    /// Sample output `o`'s HBM queue depth (frames) into its series and
    /// depth histogram.
    fn sample_output_depth(&mut self, now: SimTime, o: usize) {
        let depth = self.pfi.frames_buffered(o) as f64;
        self.output_depth[o].record(now, depth);
        self.metrics.observe(&self.out_depth_keys[o], depth);
    }

    /// Total frames currently buffered in the HBM across outputs.
    fn hbm_frames_total(&self) -> u64 {
        (0..self.cfg.ribbons)
            .map(|o| self.pfi.frames_buffered(o))
            .sum()
    }

    /// Integrate degraded-time and lost-capacity up to `now`.
    fn roll_capacity(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_roll);
        if !dt.is_zero() {
            if self.active_faults > 0 {
                self.time_degraded += dt;
            }
            if self.dead_channels > 0 {
                let lost = self.cfg.hbm_geometry.channel_rate() * self.dead_channels as u64;
                self.capacity_lost += lost.data_in(dt);
            }
        }
        self.last_roll = self.last_roll.max(now);
    }

    fn on_fault(&mut self, q: &mut impl EventSink<Ev>, now: SimTime, f: FaultEvent) {
        if f.kind.is_photonic() {
            return; // front-end scope; applied by the SPS layer
        }
        self.roll_capacity(now);
        if self.baseline_occupancy.is_none() && matches!(f.action, FaultAction::Inject) {
            self.baseline_occupancy = Some(self.hbm_frames_total());
        }
        match (f.kind, f.action) {
            (FaultKind::HbmChannelDown { channel }, FaultAction::Inject) => {
                self.group.fail_channel(channel);
                self.dead_channels += 1;
                self.active_faults += 1;
            }
            (FaultKind::HbmChannelDown { channel }, FaultAction::Recover) => {
                self.group.recover_channel(channel);
                self.dead_channels -= 1;
                self.active_faults -= 1;
            }
            (FaultKind::HbmBankStuck { channel, bank }, FaultAction::Inject) => {
                self.group.stick_bank(channel, bank);
                self.active_faults += 1;
            }
            (FaultKind::HbmBankStuck { channel, bank }, FaultAction::Recover) => {
                self.group.unstick_bank(channel, bank);
                self.active_faults -= 1;
            }
            (FaultKind::RefreshStorm { duration }, FaultAction::Inject) => {
                self.pfi.set_refresh_storm(now + duration);
                self.active_faults += 1;
                // Storms self-recover: schedule the bookkeeping event.
                q.schedule(
                    now + duration,
                    Ev::Fault(FaultEvent {
                        at: now + duration,
                        kind: f.kind,
                        action: FaultAction::Recover,
                    }),
                );
            }
            (FaultKind::RefreshStorm { .. }, FaultAction::Recover) => {
                self.active_faults -= 1;
            }
            (FaultKind::WavelengthLoss { .. } | FaultKind::PlaneDown { .. }, _) => {
                unreachable!("photonic faults returned above")
            }
        }
        if let Err(e) = self.pfi.check_degraded(&self.group) {
            panic!("fault plan drives the PFI engine past redistribution limits: {e}");
        }
        if self.active_faults == 0
            && self.pending_recovery.is_none()
            && self.recovery_drain.is_none()
        {
            self.pending_recovery = Some(now);
        }
    }

    fn system_empty(&self) -> bool {
        self.arrivals_done
            && self.batches_in_flight == 0
            && match &self.queued_mirror {
                // Sharded run: the assemblers live on the shard workers;
                // the replayed occupancy mirror is the authority.
                Some(m) => m.iter().all(|q| q.is_zero()),
                None => self.assemblers.iter().all(|a| a.total_queued().is_zero()),
            }
            && self.tail.occupancy().bytes.is_zero()
            && (0..self.cfg.ribbons).all(|o| {
                self.pfi.frames_buffered(o) == 0
                    && self.pending_to_head[o] == 0
                    && !self.head.has_data(o)
                    && !self.drain_scheduled[o]
            })
    }

    fn handle(&mut self, q: &mut impl EventSink<Ev>, now: SimTime, ev: Ev) {
        match ev {
            Ev::Arrival(p) => self.on_arrival(q, now, p),
            Ev::ArrivalsDone => self.arrivals_done = true,
            Ev::BatchAtTail(b) => {
                self.batches_in_flight -= 1;
                self.on_batch_at_tail(now, b);
            }
            Ev::FlushTimeout { input, output } => {
                self.flush_pending[input][output] = false;
                if !self.assemblers[input].queued(output).is_zero() {
                    if let Some(b) = self.assemblers[input].flush_with(output, &mut self.chunk_pool)
                    {
                        self.padded_bytes += b.padding;
                        self.send_batch(q, now, b);
                    }
                }
            }
            Ev::ReadTurn => self.on_read_turn(q, now),
            Ev::FrameAtHead(frame) => {
                let o = frame.output;
                self.pending_to_head[o] -= 1;
                self.head.push_frame(frame);
                if !self.drain_scheduled[o] && self.head.has_data(o) {
                    self.drain_scheduled[o] = true;
                    q.schedule(now, Ev::Drain(o));
                }
            }
            Ev::Drain(o) => self.on_drain(q, now, o),
            Ev::Fault(f) => self.on_fault(q, now, f),
        }
        // After the last recovery, watch for the HBM backlog returning
        // to its pre-fault level — the time-to-drain metric.
        if let (Some(t0), Some(base)) = (self.pending_recovery, self.baseline_occupancy) {
            if self.hbm_frames_total() <= base {
                self.recovery_drain = Some(now.saturating_since(t0));
                self.pending_recovery = None;
            }
        }
    }

    fn on_arrival(&mut self, q: &mut impl EventSink<Ev>, now: SimTime, p: Packet) {
        self.offered_packets += 1;
        self.offered_bytes += p.size;
        self.first_arrival.get_or_insert(now);
        let a = &mut self.assemblers[p.input];
        if a.total_queued() + p.size > self.cfg.input_queue_limit {
            self.dropped_input += 1;
            self.dropped_bytes += p.size;
            self.dropped_ids.insert(p.id);
            if self.active_faults > 0 {
                self.dropped_packets_fault += 1;
            } else {
                self.dropped_packets_congestion += 1;
            }
            self.record(now, SwitchEvent::InputDrop { input: p.input });
            // A would-be-sampled packet's drop is still visible in the
            // span stream (it was never admitted, so it is not tracked).
            if let Some(live) = self.live.as_mut() {
                if live.samples_flow(&p.flow) {
                    live.spans_emitted += 1;
                    live.sink.on_span(
                        LIVE_SOURCE,
                        &SpanEvent {
                            packet: p.id,
                            stage: "input_drop",
                            at: now,
                            port: p.input,
                        },
                    );
                }
            }
            return;
        }
        self.live_packets += 1;
        self.peak_in_flight = self.peak_in_flight.max(self.live_packets);
        if let Some(live) = self.live.as_mut() {
            if live.samples_flow(&p.flow) {
                live.sampled.insert(p.id);
                live.spans_emitted += 1;
                live.sink.on_span(
                    LIVE_SOURCE,
                    &SpanEvent {
                        packet: p.id,
                        stage: "arrival",
                        at: now,
                        port: p.input,
                    },
                );
            }
        }
        let was_empty = a.queued(p.output).is_zero();
        let mut batches = std::mem::take(&mut self.batch_scratch);
        debug_assert!(batches.is_empty());
        self.assemblers[p.input].push_into(&p, &mut self.chunk_pool, &mut batches);
        let queued = self.assemblers[p.input].total_queued();
        self.input_peak = self.input_peak.max(queued);
        if was_empty
            && self.cfg.batch_timeout_batches > 0
            && !self.assemblers[p.input].queued(p.output).is_zero()
            && !self.flush_pending[p.input][p.output]
        {
            self.flush_pending[p.input][p.output] = true;
            let timeout = self.batch_time() * self.cfg.batch_timeout_batches;
            q.schedule(
                now + timeout,
                Ev::FlushTimeout {
                    input: p.input,
                    output: p.output,
                },
            );
        }
        for b in batches.drain(..) {
            self.send_batch(q, now, b);
        }
        self.batch_scratch = batches;
    }

    fn on_batch_at_tail(&mut self, now: SimTime, b: Batch) {
        if self.live.is_some() {
            // A packet's chunks are contiguous within a batch, so
            // adjacent dedupe yields one span per packet per batch.
            let mut last = u64::MAX;
            for c in &b.chunks {
                if c.packet != last {
                    last = c.packet;
                    self.live_span(c.packet, "sram_enqueue", now, b.output);
                }
            }
        }
        let batch_output = b.output;
        if let Some(ct) = self.chrome.as_mut() {
            ct.fill_start[batch_output].get_or_insert(now);
        }
        if let Some(frame) = self.tail.push_batch(b) {
            let o = frame.output;
            if let Some(ct) = self.chrome.as_mut() {
                if let Some(start) = ct.fill_start[o].take() {
                    ct.frame_span(o, FRAME_LANE_FILL, "fill", start, now);
                }
            }
            if !self.pfi.can_accept_frame(&self.group, o) {
                // Per-output HBM region full: the frame is lost.
                self.dropped_frames += 1;
                self.dropped_bytes += frame.payload_in(self.cfg.batch_size());
                for batch in &frame.batches {
                    for c in &batch.chunks {
                        if self.dropped_ids.insert(c.packet) {
                            self.live_packets -= 1;
                            if self.active_faults > 0 {
                                self.dropped_packets_fault += 1;
                            } else {
                                self.dropped_packets_congestion += 1;
                            }
                            self.live_span_end(c.packet, "frame_drop", now, o);
                        }
                    }
                }
                self.record(now, SwitchEvent::FrameDrop { output: o });
                for batch in frame.batches {
                    self.chunk_pool.put(batch.chunks);
                }
            } else {
                self.write_frame(now, frame);
            }
        }
    }

    fn on_read_turn(&mut self, q: &mut impl EventSink<Ev>, now: SimTime) {
        let o = self.read_cursor;
        self.read_cursor = (self.read_cursor + 1) % self.cfg.ribbons;
        let room = self.head.frames_buffered(o) + self.pending_to_head[o] < self.cfg.head_frames;
        if room {
            let hbm_ready = self.hbm_frames[o]
                .front()
                .is_some_and(|&(_, ready)| ready <= now);
            if self.pfi.frames_buffered(o) > 0 && hbm_ready {
                let op = self
                    .pfi
                    .read_frame(&mut self.group, now, o)
                    .expect("frames_buffered > 0");
                let (frame, written) = self.hbm_frames[o].pop_front().expect("mirror in sync");
                self.pending_to_head[o] += 1;
                if let Some(ct) = self.chrome.as_mut() {
                    ct.frame_span(o, FRAME_LANE_READ, "read", now, op.end);
                }
                if self.live.is_some() {
                    let mut last = u64::MAX;
                    for batch in &frame.batches {
                        for c in &batch.chunks {
                            if c.packet != last {
                                last = c.packet;
                                self.live_span(c.packet, "hbm_read", now, o);
                            }
                        }
                    }
                }
                // HBM-path latency: write completion → head arrival.
                self.metrics
                    .observe("switch.path.hbm_ns", op.end.since(written).as_ns_f64());
                self.metrics.inc("switch.frames.read", 1);
                self.sample_output_depth(now, o);
                self.record(
                    now,
                    SwitchEvent::FrameRead {
                        output: o,
                        index: op.frame_index,
                    },
                );
                q.schedule(op.end, Ev::FrameAtHead(frame));
            } else if self.cfg.padding_and_bypass
                && self.pfi.frames_buffered(o) == 0
                && self.tail.forming_len(o) > 0
            {
                // HBM empty for this output: pad the partial frame and
                // bypass the HBM straight into the head SRAM (§4).
                let frame = self.tail.take_padded_frame(o).expect("forming_len > 0");
                self.padded_bytes += self.cfg.batch_size() * frame.padded_batches;
                self.pending_to_head[o] += 1;
                let bypass_end = now + self.bypass_latency();
                if let Some(ct) = self.chrome.as_mut() {
                    // A padded frame ends its fill here and bypasses the
                    // HBM, so its "read" lane carries the bypass hop.
                    if let Some(start) = ct.fill_start[o].take() {
                        ct.frame_span(o, FRAME_LANE_FILL, "fill", start, now);
                    }
                    ct.frame_span(o, FRAME_LANE_READ, "bypass", now, bypass_end);
                }
                if self.live.is_some() {
                    let mut last = u64::MAX;
                    for batch in &frame.batches {
                        for c in &batch.chunks {
                            if c.packet != last {
                                last = c.packet;
                                self.live_span(c.packet, "hbm_bypass", now, o);
                            }
                        }
                    }
                }
                self.metrics
                    .observe("switch.path.bypass_ns", self.bypass_latency().as_ns_f64());
                self.metrics.inc("switch.frames.bypass", 1);
                self.record(now, SwitchEvent::Bypass { output: o });
                q.schedule(now + self.bypass_latency(), Ev::FrameAtHead(frame));
            }
        }
        if !self.system_empty() {
            q.schedule(now + self.read_interval(), Ev::ReadTurn);
        }
    }

    fn on_drain(&mut self, q: &mut impl EventSink<Ev>, now: SimTime, o: usize) {
        match self.head.pop_batch(o) {
            Some(batch) => {
                let payload = batch.payload_in(self.cfg.batch_size());
                let (end, deps) = self.outputs[o].drain_batch(&batch, now);
                if let Some(ct) = self.chrome.as_mut() {
                    ct.frame_span(o, FRAME_LANE_DRAIN, "drain", now, end);
                }
                self.delivered_bytes += payload;
                // Loss-free runs keep the drop set empty; skip the
                // per-departure probe entirely then.
                let check_drops = !self.dropped_ids.is_empty();
                for d in deps {
                    if check_drops && self.dropped_ids.contains(&d.packet) {
                        continue; // partially dropped packet: not delivered
                    }
                    self.delivered_packets += 1;
                    self.live_packets -= 1;
                    self.delays_ns.record(d.time.since(d.arrival).as_ns_f64());
                    self.last_departure = self.last_departure.max(d.time);
                    self.live_span_end(d.packet, "departure", d.time, o);
                    self.departures.push(d);
                }
                // The batch's payload left the switch; recycle its
                // chunk storage for future batch formation.
                self.chunk_pool.put(batch.chunks);
                q.schedule(end, Ev::Drain(o));
            }
            None => {
                self.drain_scheduled[o] = false;
            }
        }
    }

    /// Run an arrival-ordered trace to completion (or `horizon`,
    /// whichever comes first) and report. Consumes the switch: the
    /// report takes ownership of the delay histogram and departure log
    /// instead of cloning them. Use [`HbmSwitch::run_source`] to keep
    /// the switch alive for post-run inspection.
    pub fn run(self, trace: &[Packet], horizon: SimTime) -> SwitchReport {
        self.run_with_faults(trace, horizon, &FaultPlan::default())
    }

    /// Run a trace while applying `plan` mid-flight: channels fail and
    /// recover, banks stick, refresh storms rage — and the report's
    /// degraded-mode fields account for it. Channel indices in the plan
    /// are switch-local (`0..T`); photonic events are ignored here (the
    /// SPS layer applies them at the front end). An empty plan is
    /// byte-identical to [`HbmSwitch::run`].
    ///
    /// Internally this replays the trace through the streaming engine
    /// ([`HbmSwitch::run_source`]); same-seed results are byte-identical
    /// to the materialized batch engine ([`HbmSwitch::run_preloaded`]).
    ///
    /// # Panics
    /// Panics if the plan degrades the device past what the PFI engine
    /// can redistribute (see `PfiController::check_degraded`).
    pub fn run_with_faults(
        mut self,
        trace: &[Packet],
        horizon: SimTime,
        plan: &FaultPlan,
    ) -> SwitchReport {
        self.run_source(ReplaySource::new(trace), horizon, plan);
        self.into_report()
    }

    /// The materialized-trace reference engine: pre-schedules every
    /// arrival into the event queue before running, exactly like the
    /// original batch pipeline (O(horizon) memory). Kept as the
    /// byte-identity oracle for the streaming engine — the equivalence
    /// property suite runs both and compares serialized reports.
    pub fn run_preloaded(
        &mut self,
        trace: &[Packet],
        horizon: SimTime,
        plan: &FaultPlan,
    ) -> SwitchReport {
        let mut q: EventQueue<Ev> = EventQueue::with_kind(self.queue_kind);
        let mut last_arrival = SimTime::ZERO;
        for p in trace {
            assert!(p.arrival >= last_arrival, "trace must be arrival-ordered");
            last_arrival = p.arrival;
            q.schedule(p.arrival, Ev::Arrival(*p));
        }
        for ev in plan.events() {
            if !ev.kind.is_photonic() {
                q.schedule(ev.at, Ev::Fault(*ev));
            }
        }
        q.schedule(last_arrival, Ev::ArrivalsDone);
        q.schedule(SimTime::ZERO, Ev::ReadTurn);
        while let Some(t) = q.peek_time() {
            if t > horizon {
                break;
            }
            let (now, ev) = q.pop().expect("peeked");
            self.handle(&mut q, now, ev);
        }
        self.roll_capacity(self.last_departure);
        self.report()
    }

    /// The streaming engine: pull arrivals incrementally from `source`
    /// as simulated time advances, instead of pre-scheduling the whole
    /// trace. Memory is O(in-flight packets + event queue), independent
    /// of the horizon, so soak runs can extend arbitrarily.
    ///
    /// Determinism / equivalence argument (the equivalence suite checks
    /// this byte-for-byte): the batch engine's only use of the
    /// pre-scheduled arrivals is that, at any instant `t`, arrivals pop
    /// before every other event at `t` (they were scheduled first, so
    /// they hold the lowest tie-break sequence numbers). This loop
    /// reproduces that order with a one-packet [`Feeder`] lookahead:
    /// the pending arrival is dispatched whenever its time is `<=` the
    /// queue's next event time, and static faults are scheduled before
    /// the initial `ReadTurn` just as the batch path orders them. The
    /// `arrivals_done` flag (batch: an `ArrivalsDone` event at the last
    /// arrival time) is set as soon as the source is exhausted; the
    /// flag is only read by the read engine's shutdown check, which in
    /// the batch order always runs after `ArrivalsDone` at equal times,
    /// so the earlier set is unobservable.
    ///
    /// Does not consume the switch — inspect traces/series afterwards,
    /// then call [`HbmSwitch::report`] or [`HbmSwitch::into_report`].
    pub fn run_source<S: PacketSource>(&mut self, source: S, horizon: SimTime, plan: &FaultPlan) {
        let mut source = source;
        let mut q: EventQueue<Ev> = EventQueue::with_kind(self.queue_kind);
        for ev in plan.events() {
            if !ev.kind.is_photonic() {
                q.schedule(ev.at, Ev::Fault(*ev));
            }
        }
        q.schedule(SimTime::ZERO, Ev::ReadTurn);
        let mut feeder = Feeder::new(|| source.next_packet().map(|p| (p.arrival, p)));
        loop {
            if feeder.is_exhausted() {
                self.arrivals_done = true;
            }
            // Lap structure when the profiler is attached: peeks and
            // pops are `KernelPop`, the epoch flush self-attributes to
            // `TelemetryExport` inside `live_flush_one`, and the
            // dispatch is attributed by event kind. Laps chain without
            // overlap, so summed phase time stays below wall time; the
            // lap starters are 1-in-64 sampled (see `prof_now_sampled`)
            // to keep the per-event clock cost inside the <3% budget.
            let mut t0 = prof_now_sampled(&mut self.prof);
            let take_arrival = match (feeder.peek_time(), q.peek_time()) {
                (Some(a), Some(t)) => a <= t,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if take_arrival {
                let at = feeder.peek_time().expect("peeked");
                if at > horizon {
                    break;
                }
                prof_lap(&mut self.prof, Phase::KernelPop, &mut t0);
                self.live_flush_epochs(at, feeder.pulled());
                let mut t0 = prof_renew(t0);
                let (_, p) = feeder.pop().expect("peeked");
                prof_lap(&mut self.prof, Phase::KernelPop, &mut t0);
                self.handle(&mut q, at, Ev::Arrival(p));
                prof_add(&mut self.prof, Phase::BatchAssembly, t0);
            } else {
                let t = q.peek_time().expect("peeked");
                if t > horizon {
                    break;
                }
                prof_lap(&mut self.prof, Phase::KernelPop, &mut t0);
                self.live_flush_epochs(t, feeder.pulled());
                let mut t0 = prof_renew(t0);
                let (now, ev) = q.pop().expect("peeked");
                prof_lap(&mut self.prof, Phase::KernelPop, &mut t0);
                let phase = Self::phase_of(&ev);
                self.handle(&mut q, now, ev);
                prof_add(&mut self.prof, phase, t0);
            }
        }
        self.roll_capacity(self.last_departure);
        let pulled = feeder.pulled();
        drop(feeder);
        self.live_finish(pulled);
        self.prof_finish();
    }

    /// Run per-port packet sources through the engine selected by
    /// [`RouterConfig`]'s `engine` field: [`EngineKind::Sequential`]
    /// merges the ports and runs [`HbmSwitch::run_source`] (bit-for-bit
    /// the classic path), [`EngineKind::Sharded`] partitions the ports
    /// over worker threads running [`ShardEngine`]s and replays their
    /// boundary effects in the serial core. Both engines produce
    /// byte-identical reports, traces and telemetry for the same ports
    /// and seed — the sequential engine is the differential oracle the
    /// equivalence suite holds the sharded one to.
    pub fn run_ports<S: PacketSource + Send>(
        &mut self,
        ports: Vec<S>,
        horizon: SimTime,
        plan: &FaultPlan,
    ) {
        self.run_ports_tuned(ports, horizon, plan, ShardTuning::default());
    }

    /// [`HbmSwitch::run_ports`] with explicit conservative-window
    /// tuning for the sharded engine. Any tuning is byte-identical to
    /// any other (the equivalence proptest randomizes it); the knobs
    /// only trade messaging overhead against shard run-ahead. Ignored
    /// by the sequential engine.
    pub fn run_ports_tuned<S: PacketSource + Send>(
        &mut self,
        ports: Vec<S>,
        horizon: SimTime,
        plan: &FaultPlan,
        tuning: ShardTuning,
    ) {
        match self.cfg.engine {
            EngineKind::Sequential => self.run_source(MergedSource::new(ports), horizon, plan),
            EngineKind::Sharded { shards } => {
                self.run_sharded(ports, shards, horizon, plan, tuning.sanitized())
            }
        }
    }

    fn shard_params(&self, tuning: ShardTuning) -> ShardParams {
        ShardParams {
            ribbons: self.cfg.ribbons,
            batch_size: self.cfg.batch_size(),
            input_queue_limit: self.cfg.input_queue_limit,
            batch_timeout_batches: self.cfg.batch_timeout_batches,
            batch_time: self.batch_time(),
            fibers: self.cfg.alpha(),
            wavelengths: self.cfg.wavelengths,
            window: self.cfg.hbm_timing.lookahead_bound() * tuning.window_mult,
            block_events: tuning.block_events,
        }
    }

    /// The sharded engine: partition the ports round-robin over worker
    /// threads, each simulating its slice of the input stage ahead of
    /// the core under conservative-window synchronization, and replay
    /// their timestamped boundary effects in the exact global
    /// `(time, seq)` order the sequential engine realizes.
    fn run_sharded<S: PacketSource + Send>(
        &mut self,
        ports: Vec<S>,
        shards: usize,
        horizon: SimTime,
        plan: &FaultPlan,
        tuning: ShardTuning,
    ) {
        assert!(shards > 0, "EngineKind::validate admits only 1..=ribbons");
        let shards = shards.min(ports.len().max(1));
        let params = self.shard_params(tuning);
        let mut buckets: Vec<Vec<S>> = (0..shards).map(|_| Vec::new()).collect();
        for (i, s) in ports.into_iter().enumerate() {
            buckets[i % shards].push(s);
        }
        let profiling = self.prof.is_some();
        crossbeam::thread::scope(|scope| {
            let mut streams = Vec::with_capacity(shards);
            for (s, bucket) in buckets.into_iter().enumerate() {
                let (tx, rx) = std::sync::mpsc::sync_channel(tuning.channel_blocks);
                // Shard workers join the engine's hub under their own
                // source names, flushing one record per shard run.
                let shard_prof = self
                    .prof
                    .as_ref()
                    .map(|p| EngineProfiler::new(p.hub().clone(), &format!("shard{s:02}")));
                let engine = ShardEngine::new(params, bucket).with_profiler(shard_prof);
                scope.spawn(move |_| engine.run(tx));
                streams.push(ShardStream::new(rx).timed(profiling));
            }
            self.run_sharded_core(streams, horizon, plan);
        })
        .expect("shard worker panicked");
    }

    /// The serial core of the sharded engine. Mirrors
    /// [`HbmSwitch::run_source`] exactly — same loop structure, same
    /// arrival-first tie rule, same feeder-progress accounting — except
    /// arrivals come from the k-way merge of shard effect streams and
    /// `Arrival`/`FlushTimeout` consequences are replayed from the
    /// shard-computed effects instead of recomputed.
    fn run_sharded_core(
        &mut self,
        mut streams: Vec<ShardStream>,
        horizon: SimTime,
        plan: &FaultPlan,
    ) {
        let n = self.cfg.ribbons;
        let shards = streams.len();
        // Lane layout: `0..n` per-input BatchAtTail calendars (each
        // input's crossbar dispatch times are strictly increasing),
        // `n` the flush calendar (fire = arm + constant), `n + 1` the
        // strictly periodic read turns. Everything else (drains,
        // frame-at-head, faults) keeps the kernel wheel/heap.
        let read_lane = n + 1;
        let mut q: ShardedEventQueue<Ev> = ShardedEventQueue::new(self.queue_kind, n + 2);
        for ev in plan.events() {
            if !ev.kind.is_photonic() {
                q.schedule(ev.at, Ev::Fault(*ev));
            }
        }
        q.schedule_lane(read_lane, SimTime::ZERO, Ev::ReadTurn);
        self.queued_mirror = Some(vec![DataSize::ZERO; n]);
        let mut dispatched: u64 = 0;
        let mut pulled: u64;
        loop {
            // Same lap structure (and 1-in-64 lap sampling) as
            // `run_source`, with two extra phases: blocked `recv` time
            // accumulates inside the streams (summed below as
            // `ChannelRecv`) and shard-effect replay is `SerialReplay`.
            let mut t0 = prof_now_sampled(&mut self.prof);
            let next = Self::peek_min_arrival(&mut streams);
            if next.is_none() {
                self.arrivals_done = true;
            }
            // Feeder-progress mirror: the sequential feeder holds one
            // lookahead packet whenever the merged stream has more.
            pulled = dispatched + u64::from(next.is_some());
            let take_arrival = match (next.map(|(t, _)| t), q.peek_time()) {
                (Some(a), Some(t)) => a <= t,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if take_arrival {
                let (at, s) = next.expect("peeked");
                if at > horizon {
                    break;
                }
                prof_lap(&mut self.prof, Phase::KernelPop, &mut t0);
                self.live_flush_epochs(at, pulled);
                let mut t0 = prof_renew(t0);
                let fx = streams[s].pop_arrival();
                dispatched += 1;
                prof_lap(&mut self.prof, Phase::KernelPop, &mut t0);
                self.apply_arrival(&mut q, at, fx);
                prof_add(&mut self.prof, Phase::SerialReplay, t0);
            } else {
                let t = q.peek_time().expect("peeked");
                if t > horizon {
                    break;
                }
                prof_lap(&mut self.prof, Phase::KernelPop, &mut t0);
                self.live_flush_epochs(t, pulled);
                let mut t0 = prof_renew(t0);
                let (now, ev) = q.pop().expect("peeked");
                prof_lap(&mut self.prof, Phase::KernelPop, &mut t0);
                match ev {
                    Ev::FlushTimeout { input, output } => {
                        let fx = streams[input % shards]
                            .next_flush()
                            .expect("armed flush must have a boundary effect");
                        assert!(
                            fx.input == input && fx.output == output && fx.fire == now,
                            "flush replay out of order: event ({input},{output})@{now} \
                             vs effect ({},{})@{}",
                            fx.input,
                            fx.output,
                            fx.fire
                        );
                        self.apply_flush(&mut q, fx);
                        prof_add(&mut self.prof, Phase::SerialReplay, t0);
                    }
                    ev => {
                        let phase = Self::phase_of(&ev);
                        let mut sink = LaneRouter {
                            q: &mut q,
                            read_lane,
                        };
                        self.handle(&mut sink, now, ev);
                        prof_add(&mut self.prof, phase, t0);
                    }
                }
            }
        }
        self.roll_capacity(self.last_departure);
        if self.prof.is_some() {
            let (recv_ns, recv_blocks) = streams.iter().fold((0u64, 0u64), |(ns, n), s| {
                (ns + s.recv_wait_ns(), n + s.recv_waits())
            });
            if let Some(p) = self.prof.as_mut() {
                p.acc_mut()
                    .add_ns_n(Phase::ChannelRecv, recv_ns, recv_blocks);
            }
        }
        drop(streams);
        self.queued_mirror = None;
        self.live_finish(pulled);
        self.prof_finish();
    }

    /// The earliest undispatched arrival across the shard streams, by
    /// the same strict `(arrival, input, id)` key [`MergedSource`]
    /// merges with — a two-level merge under one total order yields the
    /// sequential engine's global arrival order.
    fn peek_min_arrival(streams: &mut [ShardStream]) -> Option<(SimTime, usize)> {
        let mut best: Option<((SimTime, usize, u64), usize)> = None;
        for (s, stream) in streams.iter_mut().enumerate() {
            if let Some(fx) = stream.peek_arrival() {
                let key = (fx.p.arrival, fx.p.input, fx.p.id);
                if best.as_ref().is_none_or(|(b, _)| key < *b) {
                    best = Some((key, s));
                }
            }
        }
        best.map(|((at, _, _), s)| (at, s))
    }

    /// Replay one arrival's boundary effect — statement-for-statement
    /// the sequential `on_arrival`, with the assembler work replaced by
    /// the shard's precomputed results and the drop classification
    /// (fault vs congestion) applied here, where `active_faults` lives.
    fn apply_arrival(&mut self, q: &mut ShardedEventQueue<Ev>, now: SimTime, fx: ArrivalFx) {
        let ArrivalFx {
            p,
            admitted,
            arm_flush,
            batches,
            queued_after,
        } = fx;
        self.offered_packets += 1;
        self.offered_bytes += p.size;
        self.first_arrival.get_or_insert(now);
        if !admitted {
            self.dropped_input += 1;
            self.dropped_bytes += p.size;
            self.dropped_ids.insert(p.id);
            if self.active_faults > 0 {
                self.dropped_packets_fault += 1;
            } else {
                self.dropped_packets_congestion += 1;
            }
            self.record(now, SwitchEvent::InputDrop { input: p.input });
            if let Some(live) = self.live.as_mut() {
                if live.samples_flow(&p.flow) {
                    live.spans_emitted += 1;
                    live.sink.on_span(
                        LIVE_SOURCE,
                        &SpanEvent {
                            packet: p.id,
                            stage: "input_drop",
                            at: now,
                            port: p.input,
                        },
                    );
                }
            }
            return;
        }
        self.live_packets += 1;
        self.peak_in_flight = self.peak_in_flight.max(self.live_packets);
        if let Some(live) = self.live.as_mut() {
            if live.samples_flow(&p.flow) {
                live.sampled.insert(p.id);
                live.spans_emitted += 1;
                live.sink.on_span(
                    LIVE_SOURCE,
                    &SpanEvent {
                        packet: p.id,
                        stage: "arrival",
                        at: now,
                        port: p.input,
                    },
                );
            }
        }
        if let Some(m) = self.queued_mirror.as_mut() {
            m[p.input] = queued_after;
        }
        self.input_peak = self.input_peak.max(queued_after);
        // Schedule order matches the sequential handler (flush timer
        // before batch sends) so global sequence numbers line up.
        if arm_flush {
            let timeout = self.batch_time() * self.cfg.batch_timeout_batches;
            q.schedule_lane(
                self.cfg.ribbons,
                now + timeout,
                Ev::FlushTimeout {
                    input: p.input,
                    output: p.output,
                },
            );
        }
        for (at, b) in batches {
            self.batches_in_flight += 1;
            q.schedule_lane(p.input, at, Ev::BatchAtTail(b));
        }
    }

    /// Replay one flush-timer effect — the sequential `FlushTimeout`
    /// handler with the assembler flush replaced by the shard's result.
    fn apply_flush(&mut self, q: &mut ShardedEventQueue<Ev>, fx: FlushFx) {
        if let Some(m) = self.queued_mirror.as_mut() {
            m[fx.input] = fx.queued_after;
        }
        if let Some((at, b)) = fx.batch {
            self.padded_bytes += b.padding;
            self.batches_in_flight += 1;
            q.schedule_lane(fx.input, at, Ev::BatchAtTail(b));
        }
    }

    /// Serialize the complete mid-run state (plus the pending event
    /// queue and feeder position) into a [`Value`] for a snapshot.
    ///
    /// Diagnostic captures that exist for post-run inspection — the
    /// bounded event trace and the Chrome trace recorder — are not
    /// checkpointable; a run with either enabled is rejected here
    /// rather than resumed with silently truncated diagnostics.
    fn save_state(&self, q: &EventQueue<Ev>, feeder: FeederState) -> Result<Value, SnapshotError> {
        if self.trace.is_some() {
            return Err(SnapshotError::Unsupported(
                "switch event tracing cannot be checkpointed".into(),
            ));
        }
        if self.chrome.is_some() {
            return Err(SnapshotError::Unsupported(
                "chrome trace capture cannot be checkpointed".into(),
            ));
        }
        let mut dropped_ids: Vec<u64> = self.dropped_ids.iter().copied().collect();
        dropped_ids.sort_unstable();
        let live = self.live.as_ref().map(|l| {
            let mut sampled: Vec<u64> = l.sampled.iter().copied().collect();
            sampled.sort_unstable();
            LiveState {
                clock: l.clock.clone(),
                prev: l.prev.clone(),
                sample_one_in: l.sample_one_in,
                sampled,
                epochs_emitted: l.epochs_emitted,
                spans_emitted: l.spans_emitted,
                finished: l.finished,
            }
        });
        Ok(SwitchState {
            cfg: self.cfg.to_value(),
            group: self.group.clone(),
            pfi: self.pfi.clone(),
            assemblers: self.assemblers.clone(),
            input_xbar_free: self.input_xbar_free.clone(),
            flush_pending: self.flush_pending.clone(),
            tail: self.tail.state(),
            hbm_frames: self.hbm_frames.clone(),
            head: self.head.state(),
            pending_to_head: self.pending_to_head.clone(),
            outputs: self.outputs.clone(),
            drain_scheduled: self.drain_scheduled.clone(),
            read_cursor: self.read_cursor,
            batches_in_flight: self.batches_in_flight,
            arrivals_done: self.arrivals_done,
            dropped_ids,
            offered_packets: self.offered_packets,
            offered_bytes: self.offered_bytes,
            delivered_packets: self.delivered_packets,
            delivered_bytes: self.delivered_bytes,
            dropped_input: self.dropped_input,
            dropped_frames: self.dropped_frames,
            dropped_bytes: self.dropped_bytes,
            padded_bytes: self.padded_bytes,
            live_packets: self.live_packets,
            peak_in_flight: self.peak_in_flight,
            active_faults: self.active_faults,
            dead_channels: self.dead_channels,
            last_roll: self.last_roll,
            time_degraded: self.time_degraded,
            capacity_lost: self.capacity_lost,
            baseline_occupancy: self.baseline_occupancy,
            pending_recovery: self.pending_recovery,
            recovery_drain: self.recovery_drain,
            dropped_packets_fault: self.dropped_packets_fault,
            dropped_packets_congestion: self.dropped_packets_congestion,
            delays_ns: self.delays_ns.clone(),
            departures: self.departures.clone(),
            first_arrival: self.first_arrival,
            last_departure: self.last_departure,
            input_peak: self.input_peak,
            hbm_occupancy: self.hbm_occupancy.clone(),
            metrics: self.metrics.clone(),
            output_depth: self.output_depth.clone(),
            live,
            queue: q.entries(),
            queue_next_seq: q.next_seq(),
            queue_last_popped: q.now(),
            feeder,
        }
        .to_value())
    }

    /// Overwrite this (freshly built, same-config) switch with a
    /// snapshotted mid-run state, rebuild the event queue, and rewind
    /// `source` to the checkpointed position. The snapshot's config
    /// echo must match `self.cfg` and the live-telemetry shape (period,
    /// sampling rate, on/off) must match how this switch was set up —
    /// anything else is a [`SnapshotError::Mismatch`].
    fn restore_from<S: PacketSource + StatefulSource>(
        &mut self,
        st: SwitchState,
        q: &mut EventQueue<Ev>,
        source: S,
    ) -> Result<CkptFeeder<S>, SnapshotError> {
        if self.cfg.to_value() != st.cfg {
            return Err(SnapshotError::Mismatch(
                "router configuration differs from the checkpointed run".into(),
            ));
        }
        match (self.live.as_mut(), st.live) {
            (None, None) => {}
            (Some(live), Some(ls)) => {
                if live.clock.period() != ls.clock.period() {
                    return Err(SnapshotError::Mismatch(format!(
                        "telemetry epoch period differs: run has {}, snapshot has {}",
                        live.clock.period(),
                        ls.clock.period()
                    )));
                }
                if live.sample_one_in != ls.sample_one_in {
                    return Err(SnapshotError::Mismatch(format!(
                        "span sampling rate differs: run has 1-in-{}, snapshot has 1-in-{}",
                        live.sample_one_in, ls.sample_one_in
                    )));
                }
                live.clock = ls.clock;
                live.prev = ls.prev;
                live.sampled = ls.sampled.into_iter().collect();
                live.epochs_emitted = ls.epochs_emitted;
                live.spans_emitted = ls.spans_emitted;
                live.finished = ls.finished;
                self.live_boundary_ps = if ls.finished {
                    u64::MAX
                } else {
                    self.live
                        .as_ref()
                        .expect("just matched")
                        .clock
                        .next_boundary()
                        .as_ps()
                };
            }
            (Some(_), None) => {
                return Err(SnapshotError::Mismatch(
                    "run streams live telemetry but the snapshot was taken without it".into(),
                ));
            }
            (None, Some(_)) => {
                return Err(SnapshotError::Mismatch(
                    "snapshot streams live telemetry but this run has it off".into(),
                ));
            }
        }
        self.group = st.group;
        self.pfi = st.pfi;
        self.assemblers = st.assemblers;
        self.input_xbar_free = st.input_xbar_free;
        self.flush_pending = st.flush_pending;
        self.tail = TailSram::from_state(self.cfg.batch_size(), st.tail);
        self.hbm_frames = st.hbm_frames;
        self.head = HeadSram::from_state(self.cfg.batch_size(), st.head);
        self.pending_to_head = st.pending_to_head;
        self.outputs = st.outputs;
        self.drain_scheduled = st.drain_scheduled;
        self.read_cursor = st.read_cursor;
        self.batches_in_flight = st.batches_in_flight;
        self.arrivals_done = st.arrivals_done;
        self.dropped_ids = st.dropped_ids.into_iter().collect();
        self.offered_packets = st.offered_packets;
        self.offered_bytes = st.offered_bytes;
        self.delivered_packets = st.delivered_packets;
        self.delivered_bytes = st.delivered_bytes;
        self.dropped_input = st.dropped_input;
        self.dropped_frames = st.dropped_frames;
        self.dropped_bytes = st.dropped_bytes;
        self.padded_bytes = st.padded_bytes;
        self.live_packets = st.live_packets;
        self.peak_in_flight = st.peak_in_flight;
        self.active_faults = st.active_faults;
        self.dead_channels = st.dead_channels;
        self.last_roll = st.last_roll;
        self.time_degraded = st.time_degraded;
        self.capacity_lost = st.capacity_lost;
        self.baseline_occupancy = st.baseline_occupancy;
        self.pending_recovery = st.pending_recovery;
        self.recovery_drain = st.recovery_drain;
        self.dropped_packets_fault = st.dropped_packets_fault;
        self.dropped_packets_congestion = st.dropped_packets_congestion;
        self.delays_ns = st.delays_ns;
        self.departures = st.departures;
        self.first_arrival = st.first_arrival;
        self.last_departure = st.last_departure;
        self.input_peak = st.input_peak;
        self.hbm_occupancy = st.hbm_occupancy;
        self.metrics = st.metrics;
        self.output_depth = st.output_depth;
        *q = EventQueue::from_entries_in(
            self.queue_kind,
            st.queue,
            st.queue_next_seq,
            st.queue_last_popped,
        );
        CkptFeeder::restore(source, &st.feeder)
            .map_err(|e| SnapshotError::Mismatch(format!("feeder state does not decode: {e}")))
    }

    /// Snapshot-if-due gate, called at the run loop's checkpoint point
    /// (after the epoch flush, before the event dispatch). Returns
    /// `Ok(true)` when the stop flag fired and a final snapshot was
    /// persisted — the caller returns [`RunOutcome::Interrupted`].
    fn checkpoint_if_due<S: PacketSource + StatefulSource>(
        &self,
        q: &EventQueue<Ev>,
        feeder: &CkptFeeder<S>,
        every_epochs: u64,
        last_ckpt: &mut u64,
        should_stop: &mut dyn FnMut() -> bool,
        persist: &mut dyn FnMut(&Value, u64, u64) -> Result<(), SnapshotError>,
    ) -> Result<bool, SnapshotError> {
        let epochs = self.live_epochs_emitted();
        if epochs == *last_ckpt {
            return Ok(false);
        }
        let stop = should_stop();
        if !stop && epochs - *last_ckpt < every_epochs {
            return Ok(false);
        }
        let state = self.save_state(q, feeder.save())?;
        persist(&state, epochs, self.live_spans_emitted())?;
        *last_ckpt = epochs;
        Ok(stop)
    }

    /// [`HbmSwitch::run_source`] with crash-safe checkpointing: every
    /// `every_epochs` closed telemetry epochs (and whenever
    /// `should_stop` returns true at an epoch boundary) the complete
    /// mid-run state — switch, pending event queue, feeder/source
    /// position, telemetry clock and record counters — is handed to
    /// `persist` as a [`Value`], together with the epoch and span
    /// record counts emitted so far.
    ///
    /// Pass `resume: Some(state)` (a previously persisted value) to
    /// continue an interrupted run: the final report and every
    /// telemetry record emitted after the checkpoint are byte-identical
    /// to the uninterrupted same-seed run, because snapshots are taken
    /// at the loop's idempotent point — after the epoch flush, before
    /// the next dispatch — and capture the exact pop order of the event
    /// queue. On resume the fault `plan` is ignored: pending fault
    /// events live in the snapshotted queue.
    ///
    /// Checkpoints ride the telemetry epoch clock, so live telemetry
    /// must be enabled ([`HbmSwitch::enable_live_telemetry`]) with the
    /// same period and sampling rate as the checkpointed run; the
    /// driver-facing validation for that is
    /// [`ConfigError::CheckpointNeedsEpochs`].
    ///
    /// # Panics
    /// Panics if `every_epochs` is zero.
    #[allow(clippy::too_many_arguments)]
    pub fn run_source_checkpointed<S, FStop, FPersist>(
        &mut self,
        source: S,
        horizon: SimTime,
        plan: &FaultPlan,
        resume: Option<&Value>,
        every_epochs: u64,
        mut should_stop: FStop,
        mut persist: FPersist,
    ) -> Result<RunOutcome, SnapshotError>
    where
        S: PacketSource + StatefulSource,
        FStop: FnMut() -> bool,
        FPersist: FnMut(&Value, u64, u64) -> Result<(), SnapshotError>,
    {
        assert!(every_epochs > 0, "checkpoint interval must be positive");
        let mut q: EventQueue<Ev> = EventQueue::with_kind(self.queue_kind);
        let mut feeder = match resume {
            Some(v) => {
                let t0 = prof_now(&self.prof);
                let st = SwitchState::from_value(v).map_err(|e| {
                    SnapshotError::Mismatch(format!(
                        "snapshot does not decode as a switch state: {e}"
                    ))
                })?;
                let feeder = self.restore_from(st, &mut q, source)?;
                prof_add(&mut self.prof, Phase::CheckpointRestore, t0);
                feeder
            }
            None => {
                for ev in plan.events() {
                    if !ev.kind.is_photonic() {
                        q.schedule(ev.at, Ev::Fault(*ev));
                    }
                }
                q.schedule(SimTime::ZERO, Ev::ReadTurn);
                CkptFeeder::new(source)
            }
        };
        let mut last_ckpt = self.live_epochs_emitted();
        loop {
            if feeder.is_exhausted() {
                self.arrivals_done = true;
            }
            let take_arrival = match (feeder.peek_time(), q.peek_time()) {
                (Some(a), Some(t)) => a <= t,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if take_arrival {
                let at = feeder.peek_time().expect("peeked");
                if at > horizon {
                    break;
                }
                self.live_flush_epochs(at, feeder.pulled());
                // Mirror `checkpoint_if_due`'s quick-return guard so
                // the per-event path pays no clock read; only epoch
                // boundaries time the snapshot work.
                let tck = if self.live_epochs_emitted() != last_ckpt {
                    prof_now(&self.prof)
                } else {
                    None
                };
                let stop = self.checkpoint_if_due(
                    &q,
                    &feeder,
                    every_epochs,
                    &mut last_ckpt,
                    &mut should_stop,
                    &mut persist,
                )?;
                prof_add(&mut self.prof, Phase::CheckpointSave, tck);
                if stop {
                    self.prof_finish();
                    return Ok(RunOutcome::Interrupted);
                }
                let (_, p) = feeder.pop().expect("peeked");
                self.handle(&mut q, at, Ev::Arrival(p));
            } else {
                let t = q.peek_time().expect("peeked");
                if t > horizon {
                    break;
                }
                self.live_flush_epochs(t, feeder.pulled());
                let tck = if self.live_epochs_emitted() != last_ckpt {
                    prof_now(&self.prof)
                } else {
                    None
                };
                let stop = self.checkpoint_if_due(
                    &q,
                    &feeder,
                    every_epochs,
                    &mut last_ckpt,
                    &mut should_stop,
                    &mut persist,
                )?;
                prof_add(&mut self.prof, Phase::CheckpointSave, tck);
                if stop {
                    self.prof_finish();
                    return Ok(RunOutcome::Interrupted);
                }
                let (now, ev) = q.pop().expect("peeked");
                self.handle(&mut q, now, ev);
            }
        }
        self.roll_capacity(self.last_departure);
        let pulled = feeder.pulled();
        drop(feeder);
        self.live_finish(pulled);
        self.prof_finish();
        Ok(RunOutcome::Completed)
    }

    /// Build the report from current state, cloning the delay histogram
    /// and departure log (use [`HbmSwitch::into_report`] at end of run
    /// to avoid the clones).
    pub fn report(&self) -> SwitchReport {
        self.build_report(self.delays_ns.clone(), self.departures.clone())
    }

    /// Build the end-of-run report, consuming the switch: the delay
    /// histogram and the (potentially very large) departure log move
    /// into the report instead of being cloned.
    pub fn into_report(mut self) -> SwitchReport {
        let delays_ns = std::mem::replace(&mut self.delays_ns, Histogram::new());
        let departures = std::mem::take(&mut self.departures);
        self.build_report(delays_ns, departures)
    }

    fn build_report(&self, delays_ns: Histogram, departures: Vec<PacketDeparture>) -> SwitchReport {
        let first = self.first_arrival.unwrap_or(SimTime::ZERO);
        let span = self.last_departure.saturating_since(first);
        let delivered_rate = if span.is_zero() {
            DataRate::ZERO
        } else {
            DataRate::from_bps(
                u64::try_from(
                    self.delivered_bytes.bits() as u128 * rip_units::PS_PER_S as u128
                        / span.as_ps() as u128,
                )
                .expect("rate overflow"),
            )
        };
        let end = first + span;
        let lane_cv = if self.outputs.is_empty() {
            0.0
        } else {
            self.outputs.iter().map(|p| p.lane_spread_cv()).sum::<f64>() / self.outputs.len() as f64
        };
        let metrics = self.final_metrics(end, span);
        SwitchReport {
            offered_packets: self.offered_packets,
            offered_bytes: self.offered_bytes,
            delivered_packets: self.delivered_packets,
            delivered_bytes: self.delivered_bytes,
            dropped_input: self.dropped_input,
            dropped_frames: self.dropped_frames,
            dropped_bytes: self.dropped_bytes,
            padded_bytes: self.padded_bytes,
            peak_in_flight_packets: self.peak_in_flight,
            delays_ns,
            departures,
            span,
            delivered_rate,
            delivery_fraction: if self.offered_bytes.is_zero() {
                1.0
            } else {
                self.delivered_bytes.bits() as f64 / self.offered_bytes.bits() as f64
            },
            hbm_utilization: if span.is_zero() {
                0.0
            } else {
                self.group.utilization(first, end)
            },
            input_peak: self.input_peak,
            tail_peak: self.tail.occupancy().peak,
            head_peak: self.head.occupancy().peak,
            lane_spread_cv: lane_cv,
            dropped_packets_fault: self.dropped_packets_fault,
            dropped_packets_congestion: self.dropped_packets_congestion,
            time_degraded: self.time_degraded,
            capacity_lost: self.capacity_lost,
            recovery_drain: self.recovery_drain,
            metrics,
        }
    }

    /// The run-time registry plus the end-of-run aggregates pulled from
    /// the HBM device model and the photonic egress stages. Every value
    /// derives from sim time and deterministic counters — never
    /// wall-clock — so repeated same-seed runs serialize identically.
    fn final_metrics(&self, end: SimTime, span: TimeDelta) -> MetricsRegistry {
        let mut m = self.metrics.clone();
        // HBM command mix, row locality and stall accounting.
        let (mut act, mut pre, mut rd, mut wr, mut refr) = (0u64, 0u64, 0u64, 0u64, 0u64);
        let (mut hits, mut misses) = (0u64, 0u64);
        let (mut faw_ps, mut turn_ps, mut bus_ps) = (0u64, 0u64, 0u64);
        for ch in self.group.channels() {
            let s = ch.stats();
            act += s.activates.get();
            pre += s.precharges.get();
            rd += s.reads.get();
            wr += s.writes.get();
            refr += s.refreshes.get();
            hits += s.row_hits.get();
            misses += s.row_misses.get();
            faw_ps += s.faw_stall.total().as_ps();
            turn_ps += s.turnaround.total().as_ps();
            bus_ps += s.bus_busy.total().as_ps();
            if !span.is_zero() {
                for b in 0..ch.num_banks() {
                    m.observe(
                        "hbm.bank_busy_frac",
                        ch.bank_busy(b).as_ps() as f64 / span.as_ps() as f64,
                    );
                }
            }
        }
        m.inc("hbm.cmd.act", act);
        m.inc("hbm.cmd.pre", pre);
        m.inc("hbm.cmd.rd", rd);
        m.inc("hbm.cmd.wr", wr);
        m.inc("hbm.cmd.ref", refr);
        m.inc("hbm.row_hits", hits);
        m.inc("hbm.row_misses", misses);
        m.inc("hbm.faw_stall_ps", faw_ps);
        m.inc("hbm.wtr_turnaround_ps", turn_ps);
        m.inc("hbm.bus_busy_ps", bus_ps);
        if hits + misses > 0 {
            m.set_gauge(
                "hbm.row_hit_ratio",
                end,
                hits as f64 / (hits + misses) as f64,
            );
        }
        // Streaming-memory high-water mark; summed across planes when
        // SPS merges registries, giving an upper bound on the router's
        // total in-flight footprint.
        m.inc("switch.packets.peak_in_flight", self.peak_in_flight);
        // Run totals as counters (additive across planes under the SPS
        // merge; the live gauge series of the same names carries the
        // per-epoch view).
        m.inc("switch.packets.offered", self.offered_packets);
        m.inc("switch.packets.delivered", self.delivered_packets);
        m.inc(
            "switch.packets.dropped",
            self.dropped_packets_fault + self.dropped_packets_congestion,
        );
        // Frame fill efficiency over everything written to the HBM.
        let cap = m.counter("switch.frame.capacity_bytes");
        if cap > 0 {
            m.set_gauge(
                "switch.frame.fill_efficiency",
                end,
                m.counter("switch.frame.payload_bytes") as f64 / cap as f64,
            );
        }
        // Photonic egress: per-lane utilization and E/O energy totals.
        let mut oeo_bits = 0u64;
        let mut oeo_events = 0u64;
        let mut oeo_joules = 0.0f64;
        let lane_bps = self.cfg.rate_per_wavelength.bps();
        for p in &self.outputs {
            oeo_bits += p.oeo().total_converted().bits();
            oeo_events += p.oeo().conversions();
            oeo_joules += p.oeo_energy_joules();
            if !span.is_zero() && lane_bps > 0 {
                let span_s = span.as_ps() as f64 * 1e-12;
                for &bytes in p.lane_bytes() {
                    m.observe(
                        "phy.lane_util",
                        bytes as f64 * 8.0 / (lane_bps as f64 * span_s),
                    );
                }
            }
        }
        m.inc("phy.oeo_bits", oeo_bits);
        m.inc("phy.oeo_conversions", oeo_events);
        m.set_gauge("phy.oeo_energy_j", end, oeo_joules);
        m
    }

    /// Access to the HBM group (device-level stats).
    pub fn hbm(&self) -> &HbmGroup {
        &self.group
    }

    /// The live telemetry registry (run-time metrics only; the full
    /// set including device/photonic aggregates is in
    /// [`SwitchReport::metrics`]).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Per-output HBM queue depth series (frames over sim time).
    pub fn output_depth(&self, o: usize) -> &Series {
        &self.output_depth[o]
    }

    /// Toggle HBM command recording on every channel, so a run's
    /// complete ACT/RD/WR/PRE/REFsb stream can be replayed through an
    /// independent timing-conformance checker afterwards.
    pub fn set_hbm_command_recording(&mut self, on: bool) {
        self.group.set_record_commands(on);
    }

    /// Access to an output port (lane stats, OEO energy).
    pub fn output_port(&self, o: usize) -> &OutputPort {
        &self.outputs[o]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rip_traffic::{ArrivalProcess, PacketGenerator, SizeDistribution, TrafficMatrix};

    /// Build an arrival-ordered trace for the small config.
    fn trace(load: f64, tm: &TrafficMatrix, horizon: SimTime, seed: u64) -> Vec<Packet> {
        let cfg = RouterConfig::small();
        let streams: Vec<Vec<Packet>> = (0..cfg.ribbons)
            .map(|i| {
                let mut g = PacketGenerator::new(
                    i,
                    cfg.port_rate(),
                    load * tm.row_load(i),
                    tm.row(i).to_vec(),
                    SizeDistribution::Imix,
                    ArrivalProcess::Poisson,
                    256,
                    seed,
                )
                .unwrap();
                g.generate_until(horizon)
            })
            .collect();
        rip_traffic::merge_streams(streams)
    }

    fn horizon_us(us: u64) -> SimTime {
        SimTime::from_ns(us * 1000)
    }

    #[test]
    fn delivers_everything_at_moderate_uniform_load() {
        let cfg = RouterConfig::small();
        let sw = HbmSwitch::new(cfg.clone()).unwrap();
        let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
        let t = trace(0.7, &tm, horizon_us(100), 42);
        assert!(!t.is_empty());
        let r = sw.run(&t, horizon_us(400));
        assert_eq!(r.dropped_input, 0, "input drops at moderate load");
        assert_eq!(r.dropped_frames, 0, "frame drops at moderate load");
        assert!(
            r.delivery_fraction > 0.999,
            "delivered only {}",
            r.delivery_fraction
        );
        assert_eq!(r.delivered_packets + r.dropped_input, r.offered_packets);
    }

    #[test]
    fn high_admissible_load_sustains_throughput() {
        let cfg = RouterConfig::small();
        let sw = HbmSwitch::new(cfg.clone()).unwrap();
        let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
        let t = trace(0.92, &tm, horizon_us(150), 7);
        let offered: u64 = t.iter().map(|p| p.size.bits()).sum();
        let r = sw.run(&t, horizon_us(600));
        // E3: ~100% throughput for admissible traffic.
        assert!(
            r.delivery_fraction > 0.995,
            "delivered {} of offered",
            r.delivery_fraction
        );
        let offered_rate = offered as f64 / (150e-6) / 1e9; // Gb/s
        assert!(offered_rate > 0.8 * 0.92 * 4.0 * 640.0 * 0.9 / 1.0); // sanity
    }

    #[test]
    fn departures_per_output_are_fifo_per_flow_pair() {
        let cfg = RouterConfig::small();
        let sw = HbmSwitch::new(cfg.clone()).unwrap();
        let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
        let t = trace(0.8, &tm, horizon_us(60), 3);
        let r = sw.run(&t, horizon_us(400));
        // Packets of the same (input, output) pair must depart in
        // arrival (id) order — PFI's frame ordering guarantee.
        use std::collections::HashMap;
        let mut key_of: HashMap<u64, (usize, usize)> = HashMap::new();
        for p in &t {
            key_of.insert(p.id, (p.input, p.output));
        }
        let mut last_id: HashMap<(usize, usize), u64> = HashMap::new();
        let mut by_time = r.departures.clone();
        by_time.sort_by_key(|d| (d.time, d.packet));
        for d in &by_time {
            let key = key_of[&d.packet];
            if let Some(&prev) = last_id.get(&key) {
                assert!(
                    d.packet > prev,
                    "pair {key:?}: packet {} departed after {}",
                    prev,
                    d.packet
                );
            }
            last_id.insert(key, d.packet);
        }
        assert!(r.delivered_packets > 100);
    }

    #[test]
    fn hotspot_inadmissible_load_drops_but_keeps_hot_output_saturated() {
        // Shrink the HBM so the per-output region (stack/4/32 KiB
        // frames) fills within a short run — at the real 64 GB stack the
        // router would absorb ~50 ms of oversubscription, the paper's
        // §4 buffering headline.
        let mut cfg = RouterConfig::small();
        cfg.hbm_geometry.stack_capacity = rip_units::DataSize::from_mib(32);
        cfg.validate().unwrap();
        assert_eq!(cfg.region_frames(), 256);
        let sw = HbmSwitch::new(cfg.clone()).unwrap();
        // Every input sends 60% of its traffic to output 0: column load
        // 4 x 0.9 x 0.6 = 2.16 -> inadmissible.
        let tm = TrafficMatrix::hotspot(cfg.ribbons, 1.0, 0, 0.6);
        let t = trace(0.9, &tm, horizon_us(500), 5);
        let r = sw.run(&t, horizon_us(650));
        assert!(
            r.dropped_input + r.dropped_frames > 0,
            "oversubscription must drop"
        );
        // The hot output's line stays busy: delivered >= what output 0
        // can carry, i.e. delivery fraction ~ capacity/offered.
        assert!(r.delivery_fraction > 0.5, "{}", r.delivery_fraction);
        assert!(r.delivery_fraction < 0.95, "{}", r.delivery_fraction);
    }

    #[test]
    fn low_load_latency_is_bounded_by_padding_and_bypass() {
        let cfg = RouterConfig::small();
        let sw = HbmSwitch::new(cfg.clone()).unwrap();
        let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
        let t = trace(0.05, &tm, horizon_us(50), 9);
        let r = sw.run(&t, horizon_us(4000));
        assert!(
            r.delivery_fraction > 0.999,
            "padding/bypass must flush everything: {}",
            r.delivery_fraction
        );
        assert!(r.padded_bytes.bytes() > 0, "padding must have been used");
        // Delay bounded by the flush timeout + pipeline, far below the
        // horizon.
        let p99 = r.delays_ns.quantile(0.99).unwrap();
        assert!(p99 < 200_000.0, "p99 delay {p99} ns too large");
    }

    #[test]
    fn without_padding_low_load_strands_data() {
        let mut cfg = RouterConfig::small();
        cfg.padding_and_bypass = false;
        cfg.batch_timeout_batches = 0;
        let sw = HbmSwitch::new(cfg.clone()).unwrap();
        let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
        let t = trace(0.05, &tm, horizon_us(50), 9);
        let r = sw.run(&t, horizon_us(4000));
        // Partial frames and partial batches strand without padding;
        // full frames do still fill eventually at 5% load, so the loss
        // is partial but must be visible.
        assert!(
            r.delivery_fraction < 0.99,
            "expected stranding, delivered {}",
            r.delivery_fraction
        );
        // And the padded run of the sibling test delivers everything,
        // strictly more than this run.
        let mut padded_cfg = RouterConfig::small();
        padded_cfg.padding_and_bypass = true;
        let padded = HbmSwitch::new(padded_cfg).unwrap();
        let rp = padded.run(&t, horizon_us(4000));
        assert!(rp.delivery_fraction > r.delivery_fraction);
    }

    #[test]
    fn hbm_utilization_tracks_load() {
        let cfg = RouterConfig::small();
        let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
        let lo = HbmSwitch::new(cfg.clone()).unwrap();
        let r_lo = lo.run(&trace(0.3, &tm, horizon_us(100), 11), horizon_us(500));
        let hi = HbmSwitch::new(cfg.clone()).unwrap();
        let r_hi = hi.run(&trace(0.9, &tm, horizon_us(100), 11), horizon_us(500));
        assert!(
            r_hi.hbm_utilization > r_lo.hbm_utilization,
            "hi {} vs lo {}",
            r_hi.hbm_utilization,
            r_lo.hbm_utilization
        );
        // At 90% offered, both directions cross the HBM: utilization
        // approaches 0.9 (of the 2NP-rated group).
        assert!(r_hi.hbm_utilization > 0.6, "{}", r_hi.hbm_utilization);
    }

    #[test]
    fn dynamic_pages_absorb_hotspots_better_than_static_regions() {
        // Same tiny memory, same inadmissible hotspot: dynamic pages let
        // the hot output borrow idle outputs' buffer and drop less.
        let mk = |mode| {
            let mut cfg = RouterConfig::small();
            cfg.hbm_geometry.stack_capacity = rip_units::DataSize::from_mib(32);
            cfg.region_mode = mode;
            cfg
        };
        let tm = TrafficMatrix::hotspot(4, 1.0, 0, 0.6);
        let t = trace(0.9, &tm, horizon_us(500), 5);
        let s = HbmSwitch::new(mk(rip_hbm::RegionMode::Static)).unwrap();
        let rs = s.run(&t, horizon_us(650));
        let d = HbmSwitch::new(mk(rip_hbm::RegionMode::DynamicPages { page_rows: 8 })).unwrap();
        let rd = d.run(&t, horizon_us(650));
        assert!(rs.dropped_bytes.bytes() > 0, "static must drop here");
        assert!(
            rd.dropped_bytes < rs.dropped_bytes,
            "dynamic {} !< static {}",
            rd.dropped_bytes,
            rs.dropped_bytes
        );
        assert!(rd.delivery_fraction > rs.delivery_fraction);
    }

    #[test]
    fn per_lane_egress_adds_wavelength_serialization_delay() {
        let tm = TrafficMatrix::uniform(4, 1.0);
        let base = RouterConfig::small();
        let t = trace(0.6, &tm, horizon_us(80), 31);
        let agg = HbmSwitch::new(base.clone()).unwrap();
        let ra = agg.run(&t, horizon_us(400));
        let mut cfg = base;
        cfg.per_lane_egress = true;
        let lane = HbmSwitch::new(cfg).unwrap();
        let rl = lane.run(&t, horizon_us(400));
        // Both deliver everything at moderate load...
        assert!(ra.delivery_fraction > 0.999);
        assert!(rl.delivery_fraction > 0.999, "{}", rl.delivery_fraction);
        // ...but the lane model pays per-wavelength serialization.
        let ma = ra.delays_ns.mean().unwrap();
        let ml = rl.delays_ns.mean().unwrap();
        assert!(ml > ma, "lane mean {ml} !> aggregate mean {ma}");
    }

    #[test]
    fn trace_records_frame_lifecycle() {
        let cfg = RouterConfig::small();
        let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
        let t = trace(0.8, &tm, horizon_us(60), 37);
        let mut sw = HbmSwitch::new(cfg).unwrap();
        sw.enable_trace(100_000);
        sw.run_source(
            ReplaySource::new(&t),
            horizon_us(300),
            &FaultPlan::default(),
        );
        assert!(sw.report().delivered_packets > 0);
        let log = sw.trace().expect("tracing enabled");
        let mut writes = 0u64;
        let mut reads = 0u64;
        let mut last_t = rip_units::SimTime::ZERO;
        for &(at, ev) in log.events() {
            assert!(at >= last_t, "trace must be time-ordered");
            last_t = at;
            match ev {
                SwitchEvent::FrameWritten { .. } => writes += 1,
                SwitchEvent::FrameRead { .. } => reads += 1,
                _ => {}
            }
        }
        assert!(writes > 0, "frames must have been written");
        assert!(reads <= writes, "cannot read more frames than written");
        // Occupancy series populated and bounded by what was written.
        let occ = sw.hbm_occupancy();
        assert!(occ.samples_seen() > 0);
        assert!(occ.max().unwrap() <= writes as f64);
    }

    #[test]
    fn tracing_off_records_nothing() {
        let cfg = RouterConfig::small();
        let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
        let t = trace(0.5, &tm, horizon_us(20), 38);
        let mut sw = HbmSwitch::new(cfg).unwrap();
        sw.run_source(
            ReplaySource::new(&t),
            horizon_us(100),
            &FaultPlan::default(),
        );
        assert!(sw.trace().is_none());
        assert_eq!(sw.hbm_occupancy().samples_seen(), 0);
    }

    #[test]
    fn streaming_engine_matches_preloaded_engine() {
        let cfg = RouterConfig::small();
        let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
        let t = trace(0.8, &tm, horizon_us(80), 19);
        let mut batch = HbmSwitch::new(cfg.clone()).unwrap();
        let rb = batch.run_preloaded(&t, horizon_us(400), &FaultPlan::default());
        let rs = HbmSwitch::new(cfg).unwrap().run(&t, horizon_us(400));
        assert_eq!(
            format!("{rb:?}"),
            format!("{rs:?}"),
            "streaming run must be indistinguishable from the batch engine"
        );
    }

    #[test]
    fn in_flight_telemetry_balances() {
        let cfg = RouterConfig::small();
        let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
        let t = trace(0.7, &tm, horizon_us(100), 23);
        let r = HbmSwitch::new(cfg).unwrap().run(&t, horizon_us(400));
        assert!(r.peak_in_flight_packets > 0);
        assert!(r.peak_in_flight_packets <= r.offered_packets);
        // The run drained fully, so the peak is far below the horizon's
        // total packet count — the O(in-flight) memory claim.
        assert!(
            r.peak_in_flight_packets < r.offered_packets / 2,
            "peak {} vs offered {}",
            r.peak_in_flight_packets,
            r.offered_packets
        );
        assert_eq!(
            r.metrics.counter("switch.packets.peak_in_flight"),
            r.peak_in_flight_packets
        );
    }

    #[test]
    fn empty_trace_is_safe() {
        let cfg = RouterConfig::small();
        let sw = HbmSwitch::new(cfg).unwrap();
        let r = sw.run(&[], horizon_us(1));
        assert_eq!(r.offered_packets, 0);
        assert_eq!(r.delivery_fraction, 1.0);
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let cfg = RouterConfig::small();
        let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
        let t = trace(0.6, &tm, horizon_us(40), 21);
        let a = HbmSwitch::new(cfg.clone()).unwrap();
        let ra = a.run(&t, horizon_us(200));
        let b = HbmSwitch::new(cfg).unwrap();
        let rb = b.run(&t, horizon_us(200));
        assert_eq!(ra.delivered_packets, rb.delivered_packets);
        assert_eq!(ra.delivered_bytes, rb.delivered_bytes);
        assert_eq!(ra.departures.len(), rb.departures.len());
        assert_eq!(
            ra.departures.last().map(|d| (d.packet, d.time)),
            rb.departures.last().map(|d| (d.packet, d.time))
        );
    }

    /// Split an arrival-ordered trace into per-port lanes (re-merging
    /// them by `(arrival, input, id)` reproduces the original order).
    fn port_lanes(t: &[Packet], n: usize) -> Vec<Vec<Packet>> {
        let mut lanes = vec![Vec::new(); n];
        for p in t {
            lanes[p.input].push(*p);
        }
        lanes
    }

    fn run_ports_report(mut cfg: RouterConfig, engine: EngineKind, t: &[Packet]) -> String {
        cfg.engine = engine;
        let lanes = port_lanes(t, cfg.ribbons);
        let mut sw = HbmSwitch::new(cfg).unwrap();
        sw.run_ports(
            lanes.iter().map(|l| ReplaySource::new(l)).collect(),
            horizon_us(400),
            &FaultPlan::default(),
        );
        format!("{:?}", sw.into_report())
    }

    #[test]
    fn sharded_engine_matches_sequential_byte_for_byte() {
        let cfg = RouterConfig::small();
        let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
        let t = trace(0.8, &tm, horizon_us(80), 19);
        let base = run_ports_report(cfg.clone(), EngineKind::Sequential, &t);
        for shards in [1, 2, 4] {
            let got = run_ports_report(cfg.clone(), EngineKind::Sharded { shards }, &t);
            assert_eq!(got, base, "sharded({shards}) diverged from sequential");
        }
    }

    #[test]
    fn sharded_engine_matches_sequential_with_flush_heavy_low_load() {
        // Low load exercises the flush-timer replay path heavily.
        let cfg = RouterConfig::small();
        let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
        let t = trace(0.05, &tm, horizon_us(80), 9);
        let base = run_ports_report(cfg.clone(), EngineKind::Sequential, &t);
        for shards in [2, 4] {
            let got = run_ports_report(cfg.clone(), EngineKind::Sharded { shards }, &t);
            assert_eq!(got, base, "sharded({shards}) diverged at low load");
        }
    }

    #[test]
    fn sharded_engine_matches_sequential_under_drops_and_faults() {
        // Tiny input limit forces input drops; the fault plan flips
        // `active_faults` mid-run, so the core-side drop classification
        // (fault vs congestion) must replay at the exact same events.
        let mut cfg = RouterConfig::small();
        cfg.input_queue_limit = rip_units::DataSize::from_kib(24);
        let tm = TrafficMatrix::hotspot(cfg.ribbons, 1.0, 0, 0.6);
        let t = trace(0.9, &tm, horizon_us(120), 5);
        let plan = FaultPlan::new()
            .inject(
                SimTime::from_ns(20_000),
                FaultKind::RefreshStorm {
                    duration: TimeDelta::from_ns(40_000),
                },
            )
            .inject(
                SimTime::from_ns(30_000),
                FaultKind::HbmChannelDown { channel: 1 },
            )
            .recover(
                SimTime::from_ns(70_000),
                FaultKind::HbmChannelDown { channel: 1 },
            );
        let lanes = port_lanes(&t, cfg.ribbons);
        let run = |engine: EngineKind| {
            let mut c = cfg.clone();
            c.engine = engine;
            let mut sw = HbmSwitch::new(c).unwrap();
            sw.enable_trace(100_000);
            sw.run_ports(
                lanes.iter().map(|l| ReplaySource::new(l)).collect(),
                horizon_us(400),
                &plan,
            );
            let events = format!(
                "{:?}",
                sw.trace().expect("tracing on").events().collect::<Vec<_>>()
            );
            (format!("{:?}", sw.into_report()), events)
        };
        let (base_report, base_events) = run(EngineKind::Sequential);
        assert!(base_report.contains("dropped_input"), "sanity");
        for shards in [2, 4] {
            let (report, events) = run(EngineKind::Sharded { shards });
            assert_eq!(report, base_report, "sharded({shards}) report diverged");
            assert_eq!(events, base_events, "sharded({shards}) trace diverged");
        }
    }

    #[test]
    fn sharded_engine_streams_identical_live_telemetry() {
        let cfg = RouterConfig::small();
        let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
        let t = trace(0.8, &tm, horizon_us(60), 42);
        let lanes = port_lanes(&t, cfg.ribbons);
        let run = |engine: EngineKind| {
            let mut c = cfg.clone();
            c.engine = engine;
            let staged = rip_telemetry::SharedSink::new();
            let mut sw = HbmSwitch::new(c).unwrap();
            sw.enable_live_telemetry(TimeDelta::from_ns(2_000), 64, Box::new(staged.clone()));
            sw.run_ports(
                lanes.iter().map(|l| ReplaySource::new(l)).collect(),
                horizon_us(300),
                &FaultPlan::default(),
            );
            (format!("{:?}", sw.into_report()), staged.take())
        };
        let (base_report, base_records) = run(EngineKind::Sequential);
        for shards in [2, 4] {
            let (report, records) = run(EngineKind::Sharded { shards });
            assert_eq!(report, base_report, "sharded({shards}) report diverged");
            assert_eq!(
                records.records(),
                base_records.records(),
                "sharded({shards}) live stream diverged"
            );
        }
    }

    #[test]
    fn window_tuning_never_changes_the_answer() {
        let cfg = RouterConfig::small();
        let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
        let t = trace(0.6, &tm, horizon_us(40), 21);
        let lanes = port_lanes(&t, cfg.ribbons);
        let run = |tuning: ShardTuning| {
            let mut c = cfg.clone();
            c.engine = EngineKind::Sharded { shards: 2 };
            let mut sw = HbmSwitch::new(c).unwrap();
            sw.run_ports_tuned(
                lanes.iter().map(|l| ReplaySource::new(l)).collect(),
                horizon_us(200),
                &FaultPlan::default(),
                tuning,
            );
            format!("{:?}", sw.into_report())
        };
        let base = run(ShardTuning::default());
        for tuning in [
            ShardTuning {
                block_events: 1,
                window_mult: 1,
                channel_blocks: 1,
            },
            ShardTuning {
                block_events: 7,
                window_mult: 3,
                channel_blocks: 2,
            },
            ShardTuning {
                block_events: 4096,
                window_mult: 100_000,
                channel_blocks: 16,
            },
        ] {
            assert_eq!(run(tuning), base, "{tuning:?} changed the report");
        }
    }

    const CKPT_PERIOD: TimeDelta = TimeDelta::from_ns(2_000);

    /// A live-streaming switch for the checkpoint tests, with the
    /// staged sink handle to read records back out.
    fn ckpt_switch() -> (HbmSwitch, rip_telemetry::SharedSink) {
        let staged = rip_telemetry::SharedSink::new();
        let mut sw = HbmSwitch::new(RouterConfig::small()).unwrap();
        sw.enable_live_telemetry(CKPT_PERIOD, 64, Box::new(staged.clone()));
        (sw, staged)
    }

    #[test]
    fn checkpointing_does_not_perturb_the_run() {
        let cfg = RouterConfig::small();
        let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
        let t = trace(0.8, &tm, horizon_us(40), 42);
        let (mut plain, plain_sink) = ckpt_switch();
        plain.run_source(
            ReplaySource::new(&t),
            horizon_us(200),
            &FaultPlan::default(),
        );
        let (mut ck, ck_sink) = ckpt_switch();
        let mut snapshots = 0u64;
        let outcome = ck
            .run_source_checkpointed(
                ReplaySource::new(&t),
                horizon_us(200),
                &FaultPlan::default(),
                None,
                1,
                || false,
                |_, _, _| {
                    snapshots += 1;
                    Ok(())
                },
            )
            .unwrap();
        assert_eq!(outcome, RunOutcome::Completed);
        assert!(snapshots >= 3, "expected one snapshot per epoch");
        assert_eq!(
            format!("{:?}", plain.into_report()),
            format!("{:?}", ck.into_report()),
            "taking checkpoints changed the simulation"
        );
        assert_eq!(plain_sink.take().records(), ck_sink.take().records());
    }

    #[test]
    fn resume_from_any_checkpoint_continues_byte_identically() {
        let cfg = RouterConfig::small();
        let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
        let t = trace(0.8, &tm, horizon_us(40), 42);
        let (mut base, base_sink) = ckpt_switch();
        let mut snaps: Vec<(Value, u64, u64)> = Vec::new();
        base.run_source_checkpointed(
            ReplaySource::new(&t),
            horizon_us(200),
            &FaultPlan::default(),
            None,
            1,
            || false,
            |v, epochs, spans| {
                snaps.push((v.clone(), epochs, spans));
                Ok(())
            },
        )
        .unwrap();
        let base_report = format!("{:?}", base.into_report());
        let base_records = base_sink.take();
        let base_records = base_records.records();
        assert!(snaps.len() >= 3);
        for (snap, epochs, spans) in &snaps {
            let (mut sw, sink) = ckpt_switch();
            let outcome = sw
                .run_source_checkpointed(
                    ReplaySource::new(&t),
                    horizon_us(200),
                    &FaultPlan::default(),
                    Some(snap),
                    1,
                    || false,
                    |_, _, _| Ok(()),
                )
                .unwrap();
            assert_eq!(outcome, RunOutcome::Completed);
            assert_eq!(
                format!("{:?}", sw.into_report()),
                base_report,
                "report diverged resuming from epoch {epochs}"
            );
            // Stream records emitted before the checkpoint plus the
            // resumed stream must equal the uninterrupted stream.
            let keep = (epochs + spans) as usize;
            let resumed = sink.take();
            let merged: Vec<_> = base_records
                .iter()
                .take(keep)
                .chain(resumed.records().iter())
                .cloned()
                .collect();
            let expect: Vec<_> = base_records.iter().cloned().collect();
            assert_eq!(
                merged, expect,
                "stream diverged resuming from epoch {epochs}"
            );
        }
    }

    #[test]
    fn stop_flag_snapshots_at_the_next_boundary_and_resumes() {
        let cfg = RouterConfig::small();
        let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
        let t = trace(0.8, &tm, horizon_us(40), 42);
        let (mut base, base_sink) = ckpt_switch();
        base.run_source(
            ReplaySource::new(&t),
            horizon_us(200),
            &FaultPlan::default(),
        );
        let base_report = format!("{:?}", base.into_report());
        let base_records = base_sink.take();

        let (mut sw, sink) = ckpt_switch();
        let mut snap = None;
        let mut boundaries = 0u32;
        let outcome = sw
            .run_source_checkpointed(
                ReplaySource::new(&t),
                horizon_us(200),
                &FaultPlan::default(),
                None,
                1_000_000, // interval never fires; only the stop flag snapshots
                || {
                    boundaries += 1;
                    boundaries >= 3
                },
                |v, epochs, spans| {
                    snap = Some((v.clone(), epochs, spans));
                    Ok(())
                },
            )
            .unwrap();
        assert_eq!(outcome, RunOutcome::Interrupted);
        let (snap, epochs, spans) = snap.expect("stop must have persisted a snapshot");
        // Nothing is emitted after the final snapshot, so the partial
        // stream is exactly the first epochs+spans records.
        let partial = sink.take();
        assert_eq!(partial.records().len() as u64, epochs + spans);

        let (mut resumed_sw, resumed_sink) = ckpt_switch();
        let outcome = resumed_sw
            .run_source_checkpointed(
                ReplaySource::new(&t),
                horizon_us(200),
                &FaultPlan::default(),
                Some(&snap),
                1_000_000,
                || false,
                |_, _, _| Ok(()),
            )
            .unwrap();
        assert_eq!(outcome, RunOutcome::Completed);
        assert_eq!(format!("{:?}", resumed_sw.into_report()), base_report);
        let resumed = resumed_sink.take();
        let merged: Vec<_> = partial
            .records()
            .iter()
            .chain(resumed.records().iter())
            .cloned()
            .collect();
        let expect: Vec<_> = base_records.records().iter().cloned().collect();
        assert_eq!(merged, expect);
    }

    #[test]
    fn resume_rejects_a_different_configuration() {
        let cfg = RouterConfig::small();
        let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
        let t = trace(0.8, &tm, horizon_us(40), 42);
        let (mut sw, _sink) = ckpt_switch();
        let mut snap = None;
        sw.run_source_checkpointed(
            ReplaySource::new(&t),
            horizon_us(200),
            &FaultPlan::default(),
            None,
            1,
            || false,
            |v, _, _| {
                snap = Some(v.clone());
                Ok(())
            },
        )
        .unwrap();
        let snap = snap.unwrap();

        // Different config: rejected before any state is overwritten.
        let mut other_cfg = RouterConfig::small();
        other_cfg.head_frames += 1;
        let staged = rip_telemetry::SharedSink::new();
        let mut other = HbmSwitch::new(other_cfg).unwrap();
        other.enable_live_telemetry(CKPT_PERIOD, 64, Box::new(staged.clone()));
        let err = other
            .run_source_checkpointed(
                ReplaySource::new(&t),
                horizon_us(200),
                &FaultPlan::default(),
                Some(&snap),
                1,
                || false,
                |_, _, _| Ok(()),
            )
            .unwrap_err();
        assert!(
            format!("{err}").contains("configuration differs"),
            "unexpected error: {err}"
        );

        // Live telemetry off: the snapshot carries a stream position
        // the run could not continue.
        let mut silent = HbmSwitch::new(RouterConfig::small()).unwrap();
        let err = silent
            .run_source_checkpointed(
                ReplaySource::new(&t),
                horizon_us(200),
                &FaultPlan::default(),
                Some(&snap),
                1,
                || false,
                |_, _, _| Ok(()),
            )
            .unwrap_err();
        assert!(
            format!("{err}").contains("live telemetry"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn diagnostic_captures_cannot_be_checkpointed() {
        let cfg = RouterConfig::small();
        let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
        let t = trace(0.8, &tm, horizon_us(40), 42);
        let (mut sw, _sink) = ckpt_switch();
        sw.enable_trace(1000);
        let err = sw
            .run_source_checkpointed(
                ReplaySource::new(&t),
                horizon_us(200),
                &FaultPlan::default(),
                None,
                1,
                || false,
                |_, _, _| Ok(()),
            )
            .unwrap_err();
        assert!(
            format!("{err}").contains("tracing"),
            "unexpected error: {err}"
        );
    }
}
