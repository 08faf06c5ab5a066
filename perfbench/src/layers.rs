//! Isolated drives: each layer run alone, from outside, over the same
//! packet stream and frame count as the measured run.

use std::time::Instant;

use rip_core::{BatchAssembler, FaultPlan, OutputPort, RouterConfig};
use rip_hbm::{HbmGroup, PfiController};
use rip_sim::VecPool;
use rip_traffic::{MergedSource, PacketSource};
use rip_units::SimTime;

use crate::probe::elapsed_ns;
use crate::workload::Workload;

/// Packets handed from the front end to the batching drive at a time.
const CHUNK: usize = 1 << 16;

/// Work counts and wall time of every isolated drive.
#[derive(Debug, Clone, Default)]
pub struct Drives {
    pub traffic_ns: u64,
    pub traffic_pkts: u64,
    pub frontend_ns: u64,
    pub frontend_pkts: u64,
    pub batch_ns: u64,
    pub batches: u64,
    pub drain_ns: u64,
    pub hbm_ns: u64,
    pub hbm_frames: u64,
}

/// Run every isolated drive of `wl`. `frames_per_switch` holds the HBM
/// frames each switch (plane) wrote in the measured run.
pub fn drive(wl: Workload, seed: u64, frames_per_switch: &[u64]) -> Drives {
    let cfg = wl.config();
    let horizon = wl.horizon();
    let mut d = Drives::default();
    let sps = (wl == Workload::SpsUniform).then(|| (wl.sps_router(), wl.sps_workload(seed)));
    // Traffic generation: every generator drained on its own, unmerged.
    let generators = match &sps {
        Some((router, w)) => wl.fiber_sources(router, w, horizon),
        None => wl.port_sources(&cfg, horizon, seed),
    };
    for mut g in generators {
        let t = Instant::now();
        while g.next_packet().is_some() {
            d.traffic_pkts += 1;
        }
        d.traffic_ns += elapsed_ns(t);
    }
    // Front end, batching and drain over the stream each switch sees.
    match &sps {
        Some((router, w)) => {
            for plane in 0..cfg.switches {
                let mut src = router.plane_source(w, horizon, &FaultPlan::default(), plane);
                stage_drive(&cfg, &mut src, &mut d);
            }
        }
        None => {
            let mut src = MergedSource::new(wl.port_sources(&cfg, horizon, seed));
            stage_drive(&cfg, &mut src, &mut d);
        }
    }
    for &frames in frames_per_switch {
        hbm_drive(&cfg, frames, &mut d);
    }
    d
}

/// Pull the switch's source in chunks (front end), push each chunk
/// through per-input `BatchAssembler`s (batching), then drain the
/// formed batches at `OutputPort`s (drain). Partial batches are flushed
/// once the source ends.
fn stage_drive<S: PacketSource>(cfg: &RouterConfig, src: &mut S, d: &mut Drives) {
    let n = cfg.ribbons;
    let mut assemblers: Vec<BatchAssembler> = (0..n)
        .map(|i| BatchAssembler::new(i, n, cfg.batch_size()))
        .collect();
    let mut outputs: Vec<OutputPort> = (0..n)
        .map(|o| OutputPort::new(o, cfg.port_rate(), cfg.alpha(), cfg.wavelengths))
        .collect();
    let mut pool = VecPool::default();
    let mut buf = Vec::with_capacity(CHUNK);
    let mut batches = Vec::new();
    loop {
        let t = Instant::now();
        buf.clear();
        while buf.len() < CHUNK {
            match src.next_packet() {
                Some(p) => buf.push(p),
                None => break,
            }
        }
        d.frontend_ns += elapsed_ns(t);
        d.frontend_pkts += buf.len() as u64;
        let done = buf.len() < CHUNK;

        let t = Instant::now();
        for p in &buf {
            assemblers[p.input].push_into(p, &mut pool, &mut batches);
        }
        if done {
            for a in &mut assemblers {
                for o in 0..n {
                    batches.extend(a.flush_with(o, &mut pool));
                }
            }
        }
        d.batch_ns += elapsed_ns(t);
        d.batches += batches.len() as u64;

        let t = Instant::now();
        for b in batches.drain(..) {
            outputs[b.output].drain_batch(&b, SimTime::ZERO);
            pool.put(b.chunks);
        }
        d.drain_ns += elapsed_ns(t);
        if done {
            return;
        }
    }
}

/// Write and read back `frames` frames through a fresh PFI controller,
/// cycling over the outputs.
fn hbm_drive(cfg: &RouterConfig, frames: u64, d: &mut Drives) {
    let mut group = HbmGroup::new(cfg.stacks_per_switch, cfg.hbm_geometry, cfg.hbm_timing);
    let mut pfi = PfiController::new(cfg.pfi(), &group).expect("valid PFI config");
    let t = Instant::now();
    for i in 0..frames {
        let o = (i % cfg.ribbons as u64) as usize;
        pfi.write_frame(&mut group, pfi.last_issue_time(), o);
        pfi.read_frame(&mut group, pfi.last_issue_time(), o)
            .expect("the frame just written is buffered");
    }
    d.hbm_ns += elapsed_ns(t);
    d.hbm_frames += frames;
}
