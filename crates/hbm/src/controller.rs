//! Memory controllers: the paper's PFI engine and the random-access
//! baseline it is compared against (§3.1 Challenge 6 / Design 6).

use std::collections::BTreeMap;

use rand::Rng;
use rip_sim::rng::rng_for;
use rip_units::{DataRate, DataSize, SimTime, TimeDelta};
use serde::{DeError, Deserialize, Serialize, Value};

use crate::channel::Direction;
use crate::error::PfiConfigError;
use crate::group::HbmGroup;
use crate::region::{RegionAllocator, RegionMode};

/// Write-time placement of one degraded frame: the alive mask of its
/// stripe subset plus the stuck `(channel, bank)` pairs at write time.
type DegradedPlacement = (u128, Vec<(usize, usize)>);

/// Configuration of the Parallel Frame Interleaving engine.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PfiConfig {
    /// γ — banks per interleaving group (paper: 4).
    pub gamma: usize,
    /// S — segment size written per (channel, bank) per frame (paper: 1 KiB).
    pub segment: DataSize,
    /// N — number of outputs sharing the memory (per-output FIFO regions).
    pub num_outputs: usize,
    /// T' — stripe a frame over only this many channels instead of all
    /// `T` (§5 datacenter variant: smaller frames `K' = γ·T'·S`, with
    /// different outputs mapped to disjoint channel subsets that run
    /// concurrently). `None` = full stripe, the paper's WAN design.
    pub stripe_channels: Option<usize>,
    /// How HBM rows are divided among the per-output FIFO regions
    /// (§3.2: static, or dynamic with large per-output pages).
    pub region_mode: RegionMode,
}

impl PfiConfig {
    /// The paper's reference PFI parameters: γ = 4, S = 1 KiB, N = 16.
    pub const fn reference() -> Self {
        PfiConfig {
            gamma: 4,
            segment: DataSize::from_kib(1),
            num_outputs: 16,
            stripe_channels: None,
            region_mode: RegionMode::Static,
        }
    }

    /// The stripe width actually used on a group with `t` channels.
    pub fn stripe(&self, t: usize) -> usize {
        self.stripe_channels.unwrap_or(t)
    }

    /// Frame size for a group with `t` channels: `K = γ · T' · S`.
    pub fn frame_size(&self, t: usize) -> DataSize {
        self.segment * (self.gamma as u64 * self.stripe(t) as u64)
    }

    /// Validate against a device group, checking every constraint §3.2
    /// places on S and γ:
    ///
    /// * S is an integer multiple of the burst granule and a unit
    ///   fraction of the row length;
    /// * the bank count is divisible into whole γ-groups;
    /// * γ segment-times cover tRC, so the precharge of the first bank of
    ///   one group completes before that bank's next activation could be
    ///   needed by the following group (seamless group chaining);
    /// * the ACT stagger obeys the four-activation window: at most 4
    ///   activations per tFAW.
    pub fn validate(&self, group: &HbmGroup) -> Result<(), PfiConfigError> {
        let g = group.geometry();
        if self.gamma == 0 || self.num_outputs == 0 {
            return Err(PfiConfigError::ZeroParameter);
        }
        if !g.banks_per_channel.is_multiple_of(self.gamma) {
            return Err(PfiConfigError::GammaBanks {
                banks: g.banks_per_channel,
                gamma: self.gamma,
            });
        }
        if !self.segment.is_multiple_of(g.burst_size()) {
            return Err(PfiConfigError::SegmentBurst {
                segment: self.segment,
                burst: g.burst_size(),
            });
        }
        if !g.row_size.is_multiple_of(self.segment) {
            return Err(PfiConfigError::SegmentRow {
                segment: self.segment,
                row: g.row_size,
            });
        }
        let seg_time = g.channel_rate().transfer_time(self.segment);
        let t = group.timing();
        // Seamless group chaining: a bank finishes ACT..PRE within the
        // γ segment slots of its group.
        let group_span = seg_time * self.gamma as u64;
        if group_span < t.t_rc() {
            return Err(PfiConfigError::GammaTrc {
                gamma: self.gamma,
                span: group_span,
                t_rc: t.t_rc(),
            });
        }
        // Four-activation window: ACTs are staggered one per segment
        // time, so 5 consecutive ACTs span 4 segment times.
        if seg_time * 4 < t.t_faw {
            return Err(PfiConfigError::SegmentFaw {
                seg_time,
                t_faw: t.t_faw,
            });
        }
        let banks_per_output = g.banks_per_channel / self.gamma;
        if banks_per_output == 0 || g.rows_per_bank() < self.num_outputs as u64 {
            return Err(PfiConfigError::OutputBudget);
        }
        if let Some(stripe) = self.stripe_channels {
            if stripe == 0 || !group.num_channels().is_multiple_of(stripe) {
                return Err(PfiConfigError::Stripe {
                    stripe,
                    channels: group.num_channels(),
                });
            }
        }
        // The region allocator has its own constraints (page divisibility,
        // enough rows); build one to validate them.
        RegionAllocator::new(
            self.region_mode,
            g.rows_per_bank(),
            g.row_size.chunks(self.segment),
            self.num_outputs,
        )
        .map_err(PfiConfigError::Region)?;
        Ok(())
    }
}

/// One completed frame transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrameOp {
    /// The output whose FIFO region was accessed.
    pub output: usize,
    /// Per-output frame sequence number `n`.
    pub frame_index: u64,
    /// Bank interleaving group `h = n mod (L/γ)`.
    pub group: usize,
    /// When the first column access started (max across channels).
    pub first_cas: SimTime,
    /// When the last column access ended (max across channels).
    pub end: SimTime,
}

/// Report of a sustained PFI run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SustainedReport {
    /// Frames transferred (writes + reads).
    pub frames: u64,
    /// Total data moved.
    pub data: DataSize,
    /// Measurement window (first CAS to last CAS end).
    pub elapsed: TimeDelta,
    /// Achieved aggregate data rate.
    pub achieved: DataRate,
    /// Device peak rate.
    pub peak: DataRate,
    /// `achieved / peak`.
    pub utilization: f64,
    /// Peak rate of the channels in service at the end of the run
    /// (equals `peak` on a healthy device).
    pub effective_peak: DataRate,
    /// `achieved / effective_peak` — how close the survivors run to
    /// their own ceiling under degradation.
    pub effective_utilization: f64,
    /// Fraction of the window lost to read↔write turnaround gaps
    /// (the paper's ≈2 % "frame interleaving cycle" transitions).
    pub turnaround_fraction: f64,
    /// REFsb commands issued during the run.
    pub refreshes: u64,
    /// Worst observed gap between consecutive refreshes of any bank.
    pub max_refresh_gap: TimeDelta,
}

/// Banks refreshed per channel per frame op, at most.
const REFRESH_PUMP_DEPTH: usize = 4;

/// The [`REFRESH_PUMP_DEPTH`] smallest `(last_refresh, bank)` keys
/// offered, ascending.
#[derive(Default)]
struct RefreshCandidates {
    keys: [(SimTime, usize); REFRESH_PUMP_DEPTH],
    len: usize,
}

impl RefreshCandidates {
    /// Offer a key; it is kept if it is among the smallest.
    fn insert(&mut self, key: (SimTime, usize)) {
        if self.len == REFRESH_PUMP_DEPTH {
            if key >= self.keys[REFRESH_PUMP_DEPTH - 1] {
                return;
            }
            self.len -= 1; // the largest makes room
        }
        let mut i = self.len;
        while i > 0 && self.keys[i - 1] > key {
            self.keys[i] = self.keys[i - 1];
            i -= 1;
        }
        self.keys[i] = key;
        self.len += 1;
    }

    /// Remove and return the smallest key.
    fn pop_first(&mut self) -> Option<(SimTime, usize)> {
        if self.len == 0 {
            return None;
        }
        let first = self.keys[0];
        self.keys.copy_within(1..self.len, 0);
        self.len -= 1;
        Some(first)
    }
}

/// The Parallel Frame Interleaving controller (§3.2 steps ➂ and ➃).
///
/// ```
/// use rip_hbm::{HbmGroup, PfiConfig, PfiController};
/// let mut group = HbmGroup::reference(); // 4 HBM4 stacks, 128 channels
/// let mut pfi = PfiController::new(PfiConfig::reference(), &group).unwrap();
/// let report = pfi.run_sustained(&mut group, 50);
/// assert!(report.utilization > 0.9); // peak-rate operation
/// ```
///
/// Writes the `n`-th frame for output `o` into bank interleaving group
/// `h = n mod (L/γ)`, as γ staggered segments per channel across all `T`
/// channels in lockstep; reads cycle through outputs in the same order,
/// so frame order per output is preserved with **no bookkeeping** beyond
/// two counters per output — exactly the paper's claim.
#[derive(Debug, Clone)]
pub struct PfiController {
    cfg: PfiConfig,
    /// Next frame sequence number to write, per output.
    next_write: Vec<u64>,
    /// Next frame sequence number to read, per output.
    next_read: Vec<u64>,
    /// Monotonicity guard for command issue order.
    last_start: SimTime,
    /// Refresh bookkeeping: worst inter-refresh gap seen per bank is
    /// tracked lazily from channel state at report time.
    refresh_enabled: bool,
    /// Refresh-storm fault: until this instant every pump refreshes the
    /// maximum number of banks with no staleness threshold and no group
    /// exclusion, so REFsb collides with imminent activations.
    storm_until: SimTime,
    /// Write-time placement of frames written while the device was
    /// degraded, per output: frame index → (alive mask of the stripe
    /// subset, stuck `(channel, bank)` pairs). Reads replay this
    /// placement; the maps stay empty on a healthy device, preserving
    /// the paper's counters-only FIFO state in the common case.
    degraded: Vec<BTreeMap<u64, DegradedPlacement>>,
    /// Row mapping / page churn for the per-output FIFO regions.
    region: RegionAllocator,
}

impl PfiController {
    /// Build a controller for `group`, validating the configuration.
    pub fn new(cfg: PfiConfig, group: &HbmGroup) -> Result<Self, PfiConfigError> {
        cfg.validate(group)?;
        let g = group.geometry();
        let region = RegionAllocator::new(
            cfg.region_mode,
            g.rows_per_bank(),
            g.row_size.chunks(cfg.segment),
            cfg.num_outputs,
        )
        .map_err(PfiConfigError::Region)?;
        Ok(PfiController {
            cfg,
            next_write: vec![0; cfg.num_outputs],
            next_read: vec![0; cfg.num_outputs],
            last_start: SimTime::ZERO,
            refresh_enabled: true,
            storm_until: SimTime::ZERO,
            degraded: vec![BTreeMap::new(); cfg.num_outputs],
            region,
        })
    }

    /// Disable the opportunistic refresh engine (for ablation benches).
    pub fn set_refresh_enabled(&mut self, enabled: bool) {
        self.refresh_enabled = enabled;
    }

    /// Run the refresh engine in storm mode until `until` (sim time):
    /// every pump fires indiscriminately — no staleness threshold, no
    /// group exclusion — modeling a runaway refresh controller whose
    /// tRFCsb windows collide with imminent activations.
    pub fn set_refresh_storm(&mut self, until: SimTime) {
        self.storm_until = until;
    }

    /// Whether the refresh storm is still in force at `now`.
    pub fn refresh_storm_active(&self, now: SimTime) -> bool {
        now < self.storm_until
    }

    /// The configuration in force.
    pub fn config(&self) -> &PfiConfig {
        &self.cfg
    }

    /// Number of bank interleaving groups `L/γ`.
    pub fn num_groups(&self, group: &HbmGroup) -> usize {
        group.geometry().banks_per_channel / self.cfg.gamma
    }

    /// Frames currently buffered in the HBM for `output`
    /// (write counter − read counter: the "counters only" FIFO state).
    pub fn frames_buffered(&self, output: usize) -> u64 {
        self.next_write[output] - self.next_read[output]
    }

    /// The latest `start` time passed to a frame op — subsequent ops
    /// must use a start no earlier than this.
    pub fn last_issue_time(&self) -> SimTime {
        self.last_start
    }

    /// Whether a new frame for `output` can be placed in the HBM —
    /// static: the output's region has a free slot; dynamic: the
    /// output's tail page has space or a free page exists. The switch
    /// must check this before calling [`PfiController::write_frame`].
    pub fn can_accept_frame(&self, group: &HbmGroup, output: usize) -> bool {
        let num_groups = self.num_groups(group) as u64;
        let write_slot = self.next_write[output] / num_groups;
        match self.cfg.region_mode {
            RegionMode::Static => {
                // Occupied row-slot span must stay inside the region.
                let read_slot = self.next_read[output] / num_groups;
                write_slot - read_slot < self.region.static_slots_per_output()
            }
            RegionMode::DynamicPages { .. } => self.region.can_accept(output, write_slot, 0),
        }
    }

    /// The page-pointer SRAM the current region mode needs (§3.2:
    /// counters only for static; "a small extra amount of SRAM" for
    /// dynamic pages).
    pub fn pointer_sram(&self) -> rip_units::DataSize {
        self.region.pointer_sram()
    }

    /// Region allocator view (pages held/free, for experiments).
    pub fn region(&self) -> &RegionAllocator {
        &self.region
    }

    /// Alive mask covering a full stripe subset (bit `i` = channel
    /// `base + i` in service; channels ≥ 128 are implicitly alive).
    fn full_mask(stripe: usize) -> u128 {
        if stripe >= 128 {
            u128::MAX
        } else {
            (1u128 << stripe) - 1
        }
    }

    /// `(first channel, width)` of the stripe subset serving `output`.
    fn subset_base(&self, group: &HbmGroup, output: usize) -> (usize, usize) {
        let t = group.num_channels();
        let stripe = self.cfg.stripe(t);
        let subsets = t / stripe;
        ((output % subsets) * stripe, stripe)
    }

    /// Snapshot the health of `output`'s stripe subset: the alive mask
    /// plus the stuck `(channel, bank)` pairs on its live channels.
    fn subset_health(&self, group: &HbmGroup, output: usize) -> (u128, Vec<(usize, usize)>) {
        let (base, stripe) = self.subset_base(group, output);
        if group.fully_healthy() {
            return (Self::full_mask(stripe), Vec::new());
        }
        assert!(
            stripe <= 128,
            "degraded mode supports stripes up to 128 channels"
        );
        let mut mask = 0u128;
        let mut stuck = Vec::new();
        for idx in 0..stripe {
            let ci = base + idx;
            if group.channel_alive(ci) {
                mask |= 1u128 << idx;
                for bank in 0..group.geometry().banks_per_channel {
                    if group.bank_stuck(ci, bank) {
                        stuck.push((ci, bank));
                    }
                }
            }
        }
        (mask, stuck)
    }

    /// Whether the controller can still place every new frame on the
    /// current (possibly degraded) device. Each stripe subset must keep
    /// at least one live channel; no live channel may have a fully-stuck
    /// interleaving group; and the segments displaced from failed
    /// channels/banks must fit in the spare column slots of the
    /// surviving open rows (one base segment per episode leaves
    /// `segs_per_row − 1` spare slots in its row).
    pub fn check_degraded(&self, group: &HbmGroup) -> Result<(), PfiConfigError> {
        if group.fully_healthy() {
            return Ok(());
        }
        let g = group.geometry();
        let t = group.num_channels();
        let stripe = self.cfg.stripe(t);
        let subsets = t / stripe;
        let gamma = self.cfg.gamma;
        let num_groups = g.banks_per_channel / gamma;
        let segs_per_row = g.row_size.chunks(self.cfg.segment) as usize;
        for s in 0..subsets {
            let base = s * stripe;
            let alive: Vec<usize> = (base..base + stripe)
                .filter(|&ci| group.channel_alive(ci))
                .collect();
            if alive.is_empty() {
                return Err(PfiConfigError::SubsetDead { subset: s });
            }
            for &ci in &alive {
                for h in 0..num_groups {
                    if (0..gamma).all(|j| group.bank_stuck(ci, h * gamma + j)) {
                        return Err(PfiConfigError::GroupStuck {
                            channel: ci,
                            group: h,
                        });
                    }
                }
            }
            let dead = stripe - alive.len();
            for h in 0..num_groups {
                let stuck_live: usize = alive
                    .iter()
                    .map(|&ci| {
                        (0..gamma)
                            .filter(|&j| group.bank_stuck(ci, h * gamma + j))
                            .count()
                    })
                    .sum();
                let displaced = dead * gamma + stuck_live;
                let episodes = alive.len() * gamma - stuck_live;
                let spare = episodes * (segs_per_row - 1);
                if displaced > spare {
                    return Err(PfiConfigError::RedistributionOverflow {
                        subset: s,
                        displaced,
                        spare,
                    });
                }
            }
        }
        Ok(())
    }

    /// Transfer one frame for `output` in direction `dir`, starting no
    /// earlier than `start`. Returns the completed op.
    #[allow(clippy::too_many_arguments)]
    fn frame_op(
        &mut self,
        group: &mut HbmGroup,
        start: SimTime,
        output: usize,
        n: u64,
        row: u64,
        dir: Direction,
        mask: u128,
        stuck: &[(usize, usize)],
    ) -> FrameOp {
        assert!(
            start >= self.last_start,
            "frame ops must be issued with non-decreasing start times"
        );
        self.last_start = start;
        let num_groups = self.num_groups(group);
        let h = (n % num_groups as u64) as usize;
        let seg = self.cfg.segment;
        let mut first_cas: Option<SimTime> = None;
        let mut end = SimTime::ZERO;
        let refresh_due = group.timing().t_refi_sb * 3 / 4;
        let refresh_enabled = self.refresh_enabled;
        let storm_until = self.storm_until;
        let gamma = self.cfg.gamma;
        // Channel subset for this frame: full stripe by default; with a
        // narrower stripe, output o uses subset o mod (T/T') so subsets
        // serve disjoint output sets concurrently.
        let t_all = group.num_channels();
        let stripe = self.cfg.stripe(t_all);
        let subsets = t_all / stripe;
        let first_channel = (output % subsets) * stripe;
        // Episode plan: one ACT→CAS→PRE episode per live (channel, bank)
        // of group h. Segments displaced from dead channels and stuck
        // banks ride as *extra CAS bursts on already-open rows* of the
        // surviving episodes — no extra ACT, so the staggered schedule
        // stays legal — rotated by frame index so no single bank absorbs
        // the displaced load on every frame.
        let mut episodes: Vec<(usize, usize, usize)> = Vec::with_capacity(stripe * gamma);
        let mut displaced = 0usize;
        for idx in 0..stripe {
            let ci = first_channel + idx;
            let ch_alive = idx >= 128 || mask & (1u128 << idx) != 0;
            for j in 0..gamma {
                let bank = h * gamma + j;
                if ch_alive && !stuck.contains(&(ci, bank)) {
                    episodes.push((ci, bank, 0));
                } else {
                    displaced += 1;
                }
            }
        }
        assert!(
            !episodes.is_empty(),
            "no live (channel, bank) for output {output} group {h}: \
             callers must gate on check_degraded"
        );
        for e in 0..displaced {
            let k = (n as usize).wrapping_add(e) % episodes.len();
            episodes[k].2 += 1;
        }
        let mut i = 0usize;
        for ci in first_channel..first_channel + stripe {
            let ch = group.channel_mut(ci);
            let mut prev_cas_end: Option<SimTime> = None;
            let mut channel_end = SimTime::ZERO;
            let mut first_on_channel = true;
            let mut any = false;
            while i < episodes.len() && episodes[i].0 == ci {
                let (_, bank, extra) = episodes[i];
                i += 1;
                any = true;
                // Issue the ACT as early as legal (pipelined behind the
                // previous bank's transfer), but not before the frame
                // became available.
                let act_t = ch.earliest_activate(bank).max(start);
                let ready = ch
                    .activate(act_t, bank, row)
                    .unwrap_or_else(|e| panic!("PFI ACT schedule bug: {e}"));
                let cas_t = ready
                    .max(ch.earliest_cas(bank, dir))
                    .max(prev_cas_end.unwrap_or(SimTime::ZERO));
                let mut cas_end = ch
                    .access(cas_t, bank, row, seg, dir)
                    .unwrap_or_else(|e| panic!("PFI CAS schedule bug: {e}"));
                // Displaced segments: extra bursts on the row this
                // episode already opened.
                for _ in 0..extra {
                    let t2 = cas_end.max(ch.earliest_cas(bank, dir));
                    cas_end = ch
                        .access(t2, bank, row, seg, dir)
                        .unwrap_or_else(|e| panic!("PFI extra-CAS schedule bug: {e}"));
                }
                if first_on_channel {
                    first_cas = Some(first_cas.map_or(cas_t, |f| f.max(cas_t)));
                    first_on_channel = false;
                }
                prev_cas_end = Some(cas_end);
                channel_end = channel_end.max(cas_end);
                // Close the bank as soon as legal; it is next needed a
                // whole group cycle away.
                let pre_t = ch.earliest_precharge(bank);
                ch.precharge(pre_t, bank)
                    .unwrap_or_else(|e| panic!("PFI PRE schedule bug: {e}"));
            }
            if !any {
                continue; // dead channel: no episodes, no refresh pump
            }
            end = end.max(channel_end);
            // Hidden refresh (§4 "frame interleaving cycle"): while group
            // `h` is on the bus, banks of *distant* groups are guaranteed
            // idle for many group slots — refresh the most starved ones
            // there. Excluding the group just serviced and the next one
            // keeps REFsb (tRFCsb = 120 ns) from colliding with imminent
            // activations, which is what makes refresh invisible. A
            // refresh storm removes both safeguards.
            if refresh_enabled {
                if channel_end < storm_until {
                    Self::pump_refresh(
                        ch,
                        channel_end,
                        h,
                        gamma,
                        num_groups,
                        TimeDelta::ZERO,
                        true,
                    );
                } else {
                    Self::pump_refresh(ch, channel_end, h, gamma, num_groups, refresh_due, false);
                }
            }
        }
        FrameOp {
            output,
            frame_index: n,
            group: h,
            first_cas: first_cas.unwrap_or(SimTime::ZERO),
            end,
        }
    }

    /// Refresh up to [`REFRESH_PUMP_DEPTH`] due banks on `ch` at `now`,
    /// avoiding groups `h` and `h+1` (imminently reusable) when more
    /// than 2 groups exist. `ignore_exclusion` (storm mode) drops the
    /// group safeguard.
    ///
    /// Banks are refreshed most-starved first, ties to the lower index,
    /// stopping at the first one not yet `due`. One scan suffices: it
    /// keeps the smallest eligible `(last_refresh, bank)` keys, and a
    /// refresh changes only the refreshed bank, so the later picks are
    /// the next keys in that list. A refreshed bank stays eligible only
    /// when tRFCsb is zero; it then re-enters the list under its new key.
    fn pump_refresh(
        ch: &mut crate::channel::Channel,
        now: SimTime,
        h: usize,
        gamma: usize,
        num_groups: usize,
        due: TimeDelta,
        ignore_exclusion: bool,
    ) {
        let excluded = |bank: usize| {
            if ignore_exclusion || num_groups <= 2 {
                return false;
            }
            let g = bank / gamma;
            g == h || g == (h + 1) % num_groups
        };
        let eligible = |ch: &crate::channel::Channel, b: usize| {
            ch.bank(b).is_idle() && ch.bank(b).idle_at() <= now
        };
        // The smallest eligible keys, ascending.
        let mut best = RefreshCandidates::default();
        for b in 0..ch.num_banks() {
            if !excluded(b) && eligible(ch, b) {
                best.insert((ch.bank(b).last_refresh(), b));
            }
        }
        for _ in 0..REFRESH_PUMP_DEPTH {
            let Some((last, bank)) = best.pop_first() else {
                break;
            };
            if now.saturating_since(last) < due {
                break; // nothing due yet
            }
            ch.refresh_bank(now, bank)
                .unwrap_or_else(|e| panic!("PFI REFsb schedule bug: {e}"));
            if eligible(ch, bank) {
                best.insert((ch.bank(bank).last_refresh(), bank));
            }
        }
    }

    /// Write the next frame for `output` (available in tail SRAM at
    /// `start`). Returns the completed op.
    ///
    /// # Panics
    /// Panics if the output's region cannot accept a frame — callers
    /// check [`PfiController::can_accept_frame`] first (and drop the
    /// frame otherwise, the loss path of an oversubscribed output).
    pub fn write_frame(&mut self, group: &mut HbmGroup, start: SimTime, output: usize) -> FrameOp {
        let n = self.next_write[output];
        let num_groups = self.num_groups(group) as u64;
        let row = self
            .region
            .row_for_write(output, n / num_groups)
            .unwrap_or_else(|| panic!("write_frame on a full region for output {output}"));
        self.next_write[output] += 1;
        // Record where a degraded frame lands so its read can replay the
        // placement exactly (nothing is recorded on a healthy device).
        let (mask, stuck) = self.subset_health(group, output);
        let (_, stripe) = self.subset_base(group, output);
        if mask != Self::full_mask(stripe) || !stuck.is_empty() {
            self.degraded[output].insert(n, (mask, stuck.clone()));
        }
        self.frame_op(group, start, output, n, row, Direction::Write, mask, &stuck)
    }

    /// Read the next frame for `output`, if one is buffered.
    pub fn read_frame(
        &mut self,
        group: &mut HbmGroup,
        start: SimTime,
        output: usize,
    ) -> Option<FrameOp> {
        if self.frames_buffered(output) == 0 {
            return None;
        }
        let n = self.next_read[output];
        let num_groups = self.num_groups(group) as u64;
        let row = self.region.row_for_read(output, n / num_groups);
        self.next_read[output] += 1;
        // Replay the write-time placement: a frame written degraded is
        // read from exactly the banks it landed on, and a frame written
        // healthy drains even off channels that have failed since
        // ("drain before dark" — a failed channel completes reads of
        // data written before the failure; it only refuses new writes).
        let (_, stripe) = self.subset_base(group, output);
        let (mask, stuck) = self.degraded[output]
            .remove(&n)
            .unwrap_or((Self::full_mask(stripe), Vec::new()));
        let op = self.frame_op(group, start, output, n, row, Direction::Read, mask, &stuck);
        self.region
            .reads_advanced_to(output, self.next_read[output] / num_groups);
        Some(op)
    }

    /// Drive a sustained 50/50 write/read duty cycle — the steady state
    /// of a switch, where every bit written is eventually read — cycling
    /// outputs round-robin, and report achieved bandwidth, turnaround
    /// loss and refresh behaviour.
    pub fn run_sustained(&mut self, group: &mut HbmGroup, frames: u64) -> SustainedReport {
        assert!(frames >= 2, "need at least one write and one read");
        let mut first_cas: Option<SimTime> = None;
        let mut end = SimTime::ZERO;
        let mut done = 0u64;
        let mut out = 0usize;
        let start = SimTime::ZERO;
        while done < frames {
            let op = self.write_frame(group, start.max(self.last_start), out);
            first_cas.get_or_insert(op.first_cas);
            end = end.max(op.end);
            done += 1;
            if done >= frames {
                break;
            }
            if let Some(op) = self.read_frame(group, start.max(self.last_start), out) {
                end = end.max(op.end);
                done += 1;
            }
            out = (out + 1) % self.cfg.num_outputs;
        }
        let t0 = first_cas.expect("at least one frame ran");
        let elapsed = end.since(t0);
        let data = self.cfg.frame_size(group.num_channels()) * done;
        let achieved = if elapsed.is_zero() {
            DataRate::ZERO
        } else {
            DataRate::from_bps(
                u64::try_from(
                    data.bits() as u128 * rip_units::PS_PER_S as u128 / elapsed.as_ps() as u128,
                )
                .expect("rate overflow"),
            )
        };
        let peak = group.peak_rate();
        let turnaround_ps: u64 = group
            .channels()
            .map(|c| c.stats().turnaround.total().as_ps())
            .sum();
        let turnaround_fraction = if group.num_channels() == 0 || elapsed.is_zero() {
            0.0
        } else {
            (turnaround_ps as f64 / group.num_channels() as f64) / elapsed.as_ps() as f64
        };
        let refreshes: u64 = group.channels().map(|c| c.stats().refreshes.get()).sum();
        // Worst staleness: oldest un-refreshed bank relative to run end.
        let max_refresh_gap = group
            .channels()
            .flat_map(|c| {
                (0..c.num_banks()).map(move |b| end.saturating_since(c.bank(b).last_refresh()))
            })
            .max()
            .unwrap_or(TimeDelta::ZERO);
        let effective_peak = group.effective_peak_rate();
        SustainedReport {
            frames: done,
            data,
            elapsed,
            achieved,
            peak,
            utilization: achieved.fraction_of(peak),
            effective_peak,
            effective_utilization: achieved.fraction_of(effective_peak),
            turnaround_fraction,
            refreshes,
            max_refresh_gap,
        }
    }
}

/// One degraded frame in snapshot form: `(frame, (mask_hi, mask_lo), stuck bank coords)`.
type DegradedFrameState = (u64, (u64, u64), Vec<(usize, usize)>);

/// Snapshot mirror of [`PfiController`]: `degraded` maps become sorted
/// `(frame, (mask_hi, mask_lo), stuck)` triples because the snapshot
/// format has no native u128 or integer-keyed maps. `BTreeMap`
/// iteration is already sorted, so the mirror is canonical and the
/// round trip is lossless.
#[derive(Serialize, Deserialize)]
struct PfiControllerState {
    cfg: PfiConfig,
    next_write: Vec<u64>,
    next_read: Vec<u64>,
    last_start: SimTime,
    refresh_enabled: bool,
    storm_until: SimTime,
    degraded: Vec<Vec<DegradedFrameState>>,
    region: RegionAllocator,
}

impl Serialize for PfiController {
    fn to_value(&self) -> Value {
        PfiControllerState {
            cfg: self.cfg,
            next_write: self.next_write.clone(),
            next_read: self.next_read.clone(),
            last_start: self.last_start,
            refresh_enabled: self.refresh_enabled,
            storm_until: self.storm_until,
            degraded: self
                .degraded
                .iter()
                .map(|m| {
                    m.iter()
                        .map(|(&n, &(mask, ref stuck))| {
                            (n, ((mask >> 64) as u64, mask as u64), stuck.clone())
                        })
                        .collect()
                })
                .collect(),
            region: self.region.clone(),
        }
        .to_value()
    }
}

impl Deserialize for PfiController {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let s = PfiControllerState::from_value(v)?;
        Ok(PfiController {
            cfg: s.cfg,
            next_write: s.next_write,
            next_read: s.next_read,
            last_start: s.last_start,
            refresh_enabled: s.refresh_enabled,
            storm_until: s.storm_until,
            degraded: s
                .degraded
                .into_iter()
                .map(|m| {
                    m.into_iter()
                        .map(|(n, (hi, lo), stuck)| (n, (((hi as u128) << 64) | lo as u128, stuck)))
                        .collect()
                })
                .collect(),
            region: s.region,
        })
    }
}

/// How the random-access baseline spreads accesses over the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessPattern {
    /// Packets spread over the `T` parallel channels (the paper's
    /// "benefit of the doubt" variant: reduction 2.6×–39×).
    ParallelChannels,
    /// Every access striped across the whole ultra-wide interface as one
    /// logical word (the paper's "don't leverage parallel channels"
    /// variant: reduction up to ≈1,250×).
    SingleLogicalInterface,
}

/// Report of a random-access baseline run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AccessReport {
    /// Number of packet accesses performed.
    pub accesses: u64,
    /// Total data moved.
    pub data: DataSize,
    /// Measurement window.
    pub elapsed: TimeDelta,
    /// Achieved aggregate data rate.
    pub achieved: DataRate,
    /// Device peak rate.
    pub peak: DataRate,
    /// Throughput reduction factor vs peak (`peak / achieved`).
    pub reduction: f64,
}

/// The literature baseline of §3.1 Challenge 6: per-packet random bank
/// accesses with worst-case activate+precharge around every access
/// (\[7, 30, 54, 55, 59\] in the paper).
#[derive(Debug)]
pub struct RandomAccessController {
    pattern: AccessPattern,
    /// Strict (closed-page, single outstanding access per channel —
    /// the paper's model) vs pipelined (next ACT may overlap the
    /// previous transfer; an ablation that is still far from peak).
    strict: bool,
    /// Pad sub-burst transfers up to the burst granule (realistic DRAM
    /// behaviour) instead of the paper's idealized exact-size transfer.
    pad_to_burst: bool,
    rng: rand::rngs::StdRng,
}

impl RandomAccessController {
    /// Build a baseline controller.
    pub fn new(pattern: AccessPattern, seed: u64) -> Self {
        RandomAccessController {
            pattern,
            strict: true,
            pad_to_burst: false,
            rng: rng_for(seed, 0xACC),
        }
    }

    /// Toggle strict (paper-model) vs pipelined scheduling.
    pub fn set_strict(&mut self, strict: bool) {
        self.strict = strict;
    }

    /// Toggle burst padding (realistic) vs exact-size transfers
    /// (paper's benefit of the doubt).
    pub fn set_pad_to_burst(&mut self, pad: bool) {
        self.pad_to_burst = pad;
    }

    fn effective_share(&self, group: &HbmGroup, packet: DataSize) -> DataSize {
        match self.pattern {
            AccessPattern::ParallelChannels => {
                if self.pad_to_burst {
                    let burst = group.geometry().burst_size();
                    let n = packet.bits().div_ceil(burst.bits());
                    burst * n
                } else {
                    packet
                }
            }
            AccessPattern::SingleLogicalInterface => {
                let t = group.num_channels() as u64;
                let share = DataSize::from_bits(packet.bits().div_ceil(t));
                if self.pad_to_burst {
                    let burst = group.geometry().burst_size();
                    let n = share.bits().div_ceil(burst.bits());
                    burst * n
                } else {
                    share
                }
            }
        }
    }

    /// Perform `accesses` random accesses of `packet` size in direction
    /// `dir` and report the achieved bandwidth.
    pub fn run(
        &mut self,
        group: &mut HbmGroup,
        accesses: u64,
        packet: DataSize,
        dir: Direction,
    ) -> AccessReport {
        let t = group.num_channels();
        let banks = group.geometry().banks_per_channel;
        let rows = group.geometry().rows_per_bank();
        let share = self.effective_share(group, packet);
        let mut cursors = vec![SimTime::ZERO; t];
        let mut first: Option<SimTime> = None;
        let mut last = SimTime::ZERO;
        for i in 0..accesses {
            match self.pattern {
                AccessPattern::ParallelChannels => {
                    let ci = (i % t as u64) as usize;
                    let bank = self.rng.random_range(0..banks);
                    let row = self.rng.random_range(0..rows);
                    let (cas_t, done) =
                        self.one_access(group, ci, cursors[ci], bank, row, share, dir);
                    first.get_or_insert(cas_t);
                    cursors[ci] = done;
                    last = last.max(done);
                }
                AccessPattern::SingleLogicalInterface => {
                    // Lockstep across the whole interface: one logical
                    // access occupies every channel.
                    let bank = self.rng.random_range(0..banks);
                    let row = self.rng.random_range(0..rows);
                    let mut done_max = SimTime::ZERO;
                    let start = cursors[0];
                    for ci in 0..t {
                        let (cas_t, done) =
                            self.one_access(group, ci, start, bank, row, share, dir);
                        if ci == 0 {
                            first.get_or_insert(cas_t);
                        }
                        done_max = done_max.max(done);
                    }
                    for c in cursors.iter_mut() {
                        *c = done_max;
                    }
                    last = last.max(done_max);
                }
            }
        }
        let t0 = first.expect("at least one access");
        // Measure from the start of the run (time 0 cursor) so ACT/PRE
        // overheads of the first access are included — the baseline's
        // whole problem is that overhead.
        let elapsed = last.since(SimTime::ZERO.min(t0));
        let data = packet * accesses;
        let achieved = if elapsed.is_zero() {
            DataRate::ZERO
        } else {
            DataRate::from_bps(
                u64::try_from(
                    data.bits() as u128 * rip_units::PS_PER_S as u128 / elapsed.as_ps() as u128,
                )
                .expect("rate overflow"),
            )
        };
        let peak = group.peak_rate();
        AccessReport {
            accesses,
            data,
            elapsed,
            achieved,
            peak,
            reduction: peak.bps() as f64 / achieved.bps().max(1) as f64,
        }
    }

    /// One strict/pipelined ACT→CAS→PRE episode on channel `ci`,
    /// starting no earlier than `start`. Returns (CAS start, episode end).
    #[allow(clippy::too_many_arguments)]
    fn one_access(
        &mut self,
        group: &mut HbmGroup,
        ci: usize,
        start: SimTime,
        bank: usize,
        row: u64,
        share: DataSize,
        dir: Direction,
    ) -> (SimTime, SimTime) {
        let ch = group.channel_mut(ci);
        let act_t = ch.earliest_activate(bank).max(start);
        let ready = ch
            .activate(act_t, bank, row)
            .unwrap_or_else(|e| panic!("baseline ACT bug: {e}"));
        let cas_t = ready.max(ch.earliest_cas(bank, dir));
        let cas_end = ch
            .access(cas_t, bank, row, share, dir)
            .unwrap_or_else(|e| panic!("baseline CAS bug: {e}"));
        let pre_t = ch.earliest_precharge(bank);
        let idle_at = ch
            .precharge(pre_t, bank)
            .unwrap_or_else(|e| panic!("baseline PRE bug: {e}"));
        let episode_end = if self.strict { idle_at } else { cas_end };
        (cas_t, episode_end)
    }
}

/// An open-page random-access controller: the strongest "smart but
/// PFI-less" baseline. Rows are left open after an access; an access
/// that hits the open row skips the ACT/PRE envelope entirely, and
/// misses overlap their PRE/ACT with other banks' transfers (fully
/// pipelined — more generous than the paper's worst-case model, whose
/// strict envelope is reproduced by [`RandomAccessController`]).
/// At zero locality it is tFAW-limited (~13× reduction for 64 B);
/// `locality` is the probability that an access reuses the previous
/// (bank, row) on its channel — sweeping it shows how much row locality
/// a demand-oblivious design would need to approach peak. Internet
/// traffic interleaved across flows has essentially none; PFI
/// *manufactures* perfect locality by construction (the E1b ablation).
#[derive(Debug)]
pub struct OpenPageController {
    /// P(next access on a channel hits the currently open row).
    locality: f64,
    rng: rand::rngs::StdRng,
}

impl OpenPageController {
    /// Build with the given row-hit probability in `[0, 1]`.
    pub fn new(locality: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&locality), "locality out of range");
        OpenPageController {
            locality,
            rng: rng_for(seed, 0x09E4),
        }
    }

    /// Perform `accesses` packet accesses of `packet` size spread
    /// round-robin over the channels, leaving rows open, and report the
    /// achieved bandwidth.
    pub fn run(
        &mut self,
        group: &mut HbmGroup,
        accesses: u64,
        packet: DataSize,
        dir: Direction,
    ) -> AccessReport {
        let t = group.num_channels();
        let banks = group.geometry().banks_per_channel;
        let rows = group.geometry().rows_per_bank();
        // Per-channel open page: (bank, row) if any.
        let mut open: Vec<Option<(usize, u64)>> = vec![None; t];
        let mut last = SimTime::ZERO;
        for i in 0..accesses {
            let ci = (i % t as u64) as usize;
            let hit = open[ci].is_some() && self.rng.random_bool(self.locality);
            let (bank, row) = match open[ci] {
                Some(page) if hit => page,
                _ => (
                    self.rng.random_range(0..banks),
                    self.rng.random_range(0..rows),
                ),
            };
            let ch = group.channel_mut(ci);
            if !hit {
                // Close the previously open row (if any), then open the
                // new one.
                if let Some((old_bank, _)) = open[ci] {
                    let pre_t = ch.earliest_precharge(old_bank);
                    ch.precharge(pre_t, old_bank)
                        .unwrap_or_else(|e| panic!("open-page PRE bug: {e}"));
                }
                let act_t = ch.earliest_activate(bank);
                ch.activate(act_t, bank, row)
                    .unwrap_or_else(|e| panic!("open-page ACT bug: {e}"));
                open[ci] = Some((bank, row));
            }
            let cas_t = ch
                .bank(bank)
                .ready_for_cas()
                .max(ch.earliest_cas(bank, dir));
            let end = ch
                .access(cas_t, bank, row, packet, dir)
                .unwrap_or_else(|e| panic!("open-page CAS bug: {e}"));
            last = last.max(end);
        }
        let elapsed = last.since(SimTime::ZERO);
        let data = packet * accesses;
        let achieved = if elapsed.is_zero() {
            DataRate::ZERO
        } else {
            DataRate::from_bps(
                u64::try_from(
                    data.bits() as u128 * rip_units::PS_PER_S as u128 / elapsed.as_ps() as u128,
                )
                .expect("rate overflow"),
            )
        };
        let peak = group.peak_rate();
        AccessReport {
            accesses,
            data,
            elapsed,
            achieved,
            peak,
            reduction: peak.bps() as f64 / achieved.bps().max(1) as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::HbmGeometry;
    use crate::timing::HbmTiming;

    /// A small group for fast tests: 1 stack of 4 channels, 16 banks.
    fn small_group() -> HbmGroup {
        let geo = HbmGeometry {
            channels_per_stack: 4,
            channel_width_bits: 64,
            gbps_per_pin: 10,
            banks_per_channel: 16,
            row_size: DataSize::from_kib(2),
            stack_capacity: DataSize::from_gib(8),
            burst_length: 8,
        };
        HbmGroup::new(1, geo, HbmTiming::hbm4())
    }

    fn small_cfg() -> PfiConfig {
        PfiConfig {
            gamma: 4,
            segment: DataSize::from_kib(1),
            num_outputs: 4,
            stripe_channels: None,
            region_mode: RegionMode::Static,
        }
    }

    #[test]
    fn reference_config_validates() {
        let group = HbmGroup::reference();
        let cfg = PfiConfig::reference();
        cfg.validate(&group).expect("reference PFI config is valid");
        assert_eq!(
            cfg.frame_size(group.num_channels()),
            DataSize::from_kib(512)
        );
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let group = small_group();
        // gamma not dividing bank count
        let mut cfg = small_cfg();
        cfg.gamma = 3;
        assert!(cfg.validate(&group).is_err());
        // segment not burst-aligned
        let mut cfg = small_cfg();
        cfg.segment = DataSize::from_bytes(100);
        assert!(cfg.validate(&group).is_err());
        // segment not a unit fraction of the row
        let mut cfg = small_cfg();
        cfg.segment = DataSize::from_bytes(1536);
        assert!(cfg.validate(&group).is_err());
        // gamma too small for tRC (gamma=1: span 12.8 ns < tRC 30 ns)
        let mut cfg = small_cfg();
        cfg.gamma = 1;
        assert!(cfg.validate(&group).is_err());
        // segment too small for tFAW (4 x 64B = 4 x 0.8 ns << 40 ns)
        let mut cfg = small_cfg();
        cfg.segment = DataSize::from_bytes(64);
        assert!(cfg.validate(&group).is_err());
    }

    #[test]
    fn frame_counters_track_fifo_occupancy() {
        let mut group = small_group();
        let mut pfi = PfiController::new(small_cfg(), &group).unwrap();
        assert_eq!(pfi.frames_buffered(0), 0);
        assert!(pfi.read_frame(&mut group, SimTime::ZERO, 0).is_none());
        pfi.write_frame(&mut group, SimTime::ZERO, 0);
        let t = pfi.last_start;
        pfi.write_frame(&mut group, t, 0);
        assert_eq!(pfi.frames_buffered(0), 2);
        let op = pfi.read_frame(&mut group, t, 0).unwrap();
        assert_eq!(op.frame_index, 0);
        assert_eq!(pfi.frames_buffered(0), 1);
    }

    #[test]
    fn consecutive_frames_use_consecutive_groups() {
        let mut group = small_group();
        let mut pfi = PfiController::new(small_cfg(), &group).unwrap();
        let num_groups = pfi.num_groups(&group); // 16/4 = 4
        assert_eq!(num_groups, 4);
        let mut t = SimTime::ZERO;
        for n in 0..6u64 {
            let op = pfi.write_frame(&mut group, t, 1);
            assert_eq!(op.frame_index, n);
            assert_eq!(op.group as u64, n % num_groups as u64);
            t = pfi.last_start;
        }
    }

    #[test]
    fn outputs_use_disjoint_rows() {
        let group = small_group();
        let pfi = PfiController::new(small_cfg(), &group).unwrap();
        let num_groups = pfi.num_groups(&group) as u64;
        // Same frame index, different outputs -> different rows.
        let r0 = pfi.region().row_for_read(0, 0);
        let r1 = pfi.region().row_for_read(1, 0);
        assert_ne!(r0, r1);
        // Region wrap keeps rows inside the per-output static region.
        let rows_per_region = group.geometry().rows_per_bank() / 4;
        for n in 0..10_000u64 {
            let r = pfi.region().row_for_read(2, n / num_groups);
            assert!(r >= 2 * rows_per_region && r < 3 * rows_per_region);
        }
    }

    #[test]
    fn dynamic_region_mode_runs_sustained_at_peak_too() {
        let mut group = small_group();
        let mut cfg = small_cfg();
        cfg.region_mode = RegionMode::DynamicPages { page_rows: 64 };
        let mut pfi = PfiController::new(cfg, &group).unwrap();
        let report = pfi.run_sustained(&mut group, 200);
        assert!(report.utilization > 0.95, "{}", report.utilization);
        // Pointer SRAM stays small.
        assert!(pfi.pointer_sram() < rip_units::DataSize::from_kib(64));
    }

    #[test]
    fn static_can_accept_caps_at_region_capacity() {
        let mut group = small_group();
        let mut cfg = small_cfg();
        // Shrink the device so the region fills quickly: 1 GiB stack.
        let geo = HbmGeometry {
            stack_capacity: DataSize::from_gib(1),
            ..*group.geometry()
        };
        let small = HbmGroup::new(1, geo, HbmTiming::hbm4());
        cfg.num_outputs = 4;
        let mut pfi = PfiController::new(cfg, &small).unwrap();
        group = small;
        let mut t = SimTime::ZERO;
        let mut accepted = 0u64;
        while pfi.can_accept_frame(&group, 0) {
            pfi.write_frame(&mut group, t, 0);
            t = pfi.last_start;
            accepted += 1;
            assert!(accepted < 1_000_000, "never filled");
        }
        assert!(accepted > 0);
        // Draining one frame re-opens capacity.
        pfi.read_frame(&mut group, t, 0).unwrap();
        // One read frees a slot only once a whole row-slot drains; drain
        // a full group cycle to be sure.
        for _ in 0..pfi.num_groups(&group) {
            if pfi.read_frame(&mut group, t, 0).is_none() {
                break;
            }
        }
        assert!(pfi.can_accept_frame(&group, 0));
    }

    #[test]
    fn sustained_write_read_reaches_near_peak() {
        let mut group = small_group();
        let mut pfi = PfiController::new(small_cfg(), &group).unwrap();
        let report = pfi.run_sustained(&mut group, 200);
        // Paper claim (E2): PFI runs at peak minus ~2% transitions.
        assert!(
            report.utilization > 0.95,
            "utilization {} too low",
            report.utilization
        );
        assert!(
            report.turnaround_fraction < 0.03,
            "turnaround fraction {} too high",
            report.turnaround_fraction
        );
    }

    #[test]
    fn sustained_run_hides_refresh() {
        let mut group = small_group();
        let mut pfi = PfiController::new(small_cfg(), &group).unwrap();
        // Run long enough to force many refresh periods: 500 frames
        // x ~51.2 ns ~= 25.6 us >> tREFIsb = 3.9 us.
        let report = pfi.run_sustained(&mut group, 500);
        assert!(report.refreshes > 0, "refresh engine never ran");
        // Every bank refreshed within 2x the nominal period.
        let t_refi = group.timing().t_refi_sb;
        assert!(
            report.max_refresh_gap <= t_refi * 2,
            "refresh starved: {} > {}",
            report.max_refresh_gap,
            t_refi * 2
        );
        // And refresh did not dent utilization.
        assert!(
            report.utilization > 0.95,
            "utilization {}",
            report.utilization
        );
    }

    #[test]
    fn refresh_disabled_runs_clean_but_starves() {
        let mut group = small_group();
        let mut pfi = PfiController::new(small_cfg(), &group).unwrap();
        pfi.set_refresh_enabled(false);
        let report = pfi.run_sustained(&mut group, 300);
        assert_eq!(report.refreshes, 0);
        assert!(report.max_refresh_gap > group.timing().t_refi_sb);
    }

    #[test]
    fn stripe_validation() {
        let group = small_group(); // 4 channels
        let mut cfg = small_cfg();
        cfg.stripe_channels = Some(2);
        cfg.validate(&group).expect("2 divides 4");
        assert_eq!(cfg.frame_size(4), DataSize::from_kib(8));
        cfg.stripe_channels = Some(3);
        assert!(cfg.validate(&group).is_err());
        cfg.stripe_channels = Some(0);
        assert!(cfg.validate(&group).is_err());
    }

    #[test]
    fn striped_frames_use_disjoint_channel_subsets() {
        let mut group = small_group(); // 4 channels
        let mut cfg = small_cfg();
        cfg.stripe_channels = Some(2); // 2 subsets of 2 channels
        let mut pfi = PfiController::new(cfg, &group).unwrap();
        // Output 0 -> subset 0 (channels 0..2); output 1 -> subset 1.
        pfi.write_frame(&mut group, SimTime::ZERO, 0);
        assert!(group.channel(0).stats().writes.get() > 0);
        assert!(group.channel(1).stats().writes.get() > 0);
        assert_eq!(group.channel(2).stats().writes.get(), 0);
        pfi.write_frame(&mut group, SimTime::ZERO, 1);
        assert!(group.channel(2).stats().writes.get() > 0);
        assert!(group.channel(3).stats().writes.get() > 0);
    }

    #[test]
    fn striped_sustained_still_near_peak() {
        // Different outputs run on disjoint subsets concurrently, so the
        // aggregate still approaches peak.
        let mut group = small_group();
        let mut cfg = small_cfg();
        cfg.stripe_channels = Some(2);
        let mut pfi = PfiController::new(cfg, &group).unwrap();
        let report = pfi.run_sustained(&mut group, 400);
        assert!(
            report.utilization > 0.90,
            "striped utilization {}",
            report.utilization
        );
    }

    #[test]
    fn random_access_64b_strict_reduction_matches_paper() {
        // Paper: 39x reduction for 64-byte packets with parallel channels.
        let mut group = small_group();
        let mut ctl = RandomAccessController::new(AccessPattern::ParallelChannels, 7);
        let report = ctl.run(&mut group, 2000, DataSize::from_bytes(64), Direction::Write);
        // Expected: (30 ns + 0.8 ns) / 0.8 ns = 38.5.
        assert!(
            (report.reduction - 38.5).abs() < 1.5,
            "reduction {} != ~38.5",
            report.reduction
        );
    }

    #[test]
    fn random_access_1500b_strict_reduction_matches_paper() {
        // Paper: 2.6x reduction for 1,500-byte packets.
        let mut group = small_group();
        let mut ctl = RandomAccessController::new(AccessPattern::ParallelChannels, 7);
        let report = ctl.run(
            &mut group,
            2000,
            DataSize::from_bytes(1500),
            Direction::Write,
        );
        // Expected: (30 + 18.75) / 18.75 = 2.6.
        assert!(
            (report.reduction - 2.6).abs() < 0.1,
            "reduction {} != ~2.6",
            report.reduction
        );
    }

    #[test]
    fn single_interface_64b_reduction_is_extreme() {
        // Paper: up to ~1,250x without parallel channels. On this small
        // 4-channel group the share is 64B/4 = 16B = 0.2 ns vs 30 ns
        // overhead: reduction ~151x; the full-size figure is checked in
        // the integration tests against the 32-channel stack.
        let mut group = small_group();
        let mut ctl = RandomAccessController::new(AccessPattern::SingleLogicalInterface, 7);
        let report = ctl.run(&mut group, 500, DataSize::from_bytes(64), Direction::Write);
        let expect = (30.0 + 0.2) / 0.2;
        assert!(
            (report.reduction - expect).abs() / expect < 0.05,
            "reduction {} != ~{expect}",
            report.reduction
        );
    }

    #[test]
    fn pipelined_random_access_still_far_from_peak() {
        let mut group = small_group();
        let mut ctl = RandomAccessController::new(AccessPattern::ParallelChannels, 7);
        ctl.set_strict(false);
        let report = ctl.run(&mut group, 2000, DataSize::from_bytes(64), Direction::Write);
        // tFAW caps each channel at 4 ACTs / 40 ns -> 1 access per 10 ns;
        // 0.8 ns of data per 10 ns -> reduction ~12.5x. Even the generous
        // variant loses an order of magnitude.
        assert!(
            report.reduction > 8.0,
            "pipelined reduction {} unexpectedly small",
            report.reduction
        );
        // But it must beat the strict variant.
        let mut group2 = small_group();
        let mut strict = RandomAccessController::new(AccessPattern::ParallelChannels, 7);
        let strict_report = strict.run(
            &mut group2,
            2000,
            DataSize::from_bytes(64),
            Direction::Write,
        );
        assert!(report.reduction < strict_report.reduction);
    }

    #[test]
    fn burst_padding_makes_baseline_worse() {
        let mut g1 = small_group();
        let mut a = RandomAccessController::new(AccessPattern::ParallelChannels, 7);
        let r1 = a.run(&mut g1, 1000, DataSize::from_bytes(80), Direction::Write);
        let mut g2 = small_group();
        let mut b = RandomAccessController::new(AccessPattern::ParallelChannels, 7);
        b.set_pad_to_burst(true);
        let r2 = b.run(&mut g2, 1000, DataSize::from_bytes(80), Direction::Write);
        assert!(r2.reduction > r1.reduction);
    }

    #[test]
    fn open_page_zero_locality_is_tfaw_limited() {
        // With no row reuse every access needs an ACT; the pipelined
        // open-page engine is then capped by the four-activation window
        // at 4 accesses per tFAW = 40 ns -> 0.8 ns of data per 10 ns
        // -> ~12.5x reduction (still an order of magnitude off peak,
        // and *better* than the paper's worst-case 38.5x envelope).
        let mut g1 = small_group();
        let mut op = OpenPageController::new(0.0, 3);
        let r1 = op.run(&mut g1, 4000, DataSize::from_bytes(64), Direction::Write);
        assert!(
            r1.reduction > 10.0 && r1.reduction < 20.0,
            "{}",
            r1.reduction
        );
        // And it must not beat the strict baseline's analytic factor.
        let mut g2 = small_group();
        let mut strict = RandomAccessController::new(AccessPattern::ParallelChannels, 3);
        let rs = strict.run(&mut g2, 4000, DataSize::from_bytes(64), Direction::Write);
        assert!(r1.reduction < rs.reduction);
    }

    #[test]
    fn open_page_high_locality_recovers_bandwidth_but_not_peak() {
        let mut g = small_group();
        let mut op = OpenPageController::new(0.9, 3);
        let r = op.run(&mut g, 4000, DataSize::from_bytes(64), Direction::Write);
        // 90% hits with overlapped misses: most of the envelope hides,
        // but the residual ACT pressure still costs nearly 2x.
        assert!(r.reduction < 3.0, "{}", r.reduction);
        assert!(r.reduction > 1.3, "{}", r.reduction);
    }

    #[test]
    fn open_page_locality_sweep_is_monotone() {
        let mut prev = f64::INFINITY;
        for loc in [0.0, 0.5, 0.9, 0.99] {
            let mut g = small_group();
            let mut op = OpenPageController::new(loc, 7);
            let r = op.run(&mut g, 3000, DataSize::from_bytes(64), Direction::Write);
            assert!(r.reduction < prev + 0.5, "locality {loc}: {}", r.reduction);
            prev = r.reduction;
        }
    }

    #[test]
    #[should_panic(expected = "locality out of range")]
    fn open_page_rejects_bad_locality() {
        OpenPageController::new(1.5, 0);
    }

    #[test]
    fn validation_reports_typed_errors() {
        let group = small_group();
        let mut cfg = small_cfg();
        cfg.gamma = 3;
        assert_eq!(
            cfg.validate(&group),
            Err(PfiConfigError::GammaBanks {
                banks: 16,
                gamma: 3
            })
        );
        let mut cfg = small_cfg();
        cfg.gamma = 1;
        assert!(matches!(
            cfg.validate(&group),
            Err(PfiConfigError::GammaTrc { .. })
        ));
        let mut cfg = small_cfg();
        cfg.stripe_channels = Some(3);
        assert!(matches!(
            cfg.validate(&group),
            Err(PfiConfigError::Stripe {
                stripe: 3,
                channels: 4
            })
        ));
        // The typed error formats like the old string did.
        let msg = cfg.validate(&group).unwrap_err().to_string();
        assert!(msg.contains("stripe width 3"), "{msg}");
    }

    #[test]
    fn one_dead_channel_sustains_alive_fraction_of_peak() {
        let mut group = small_group();
        let mut pfi = PfiController::new(small_cfg(), &group).unwrap();
        group.fail_channel(3);
        pfi.check_degraded(&group).expect("1-of-4 dead is feasible");
        let report = pfi.run_sustained(&mut group, 300);
        // Survivors still run near their own ceiling...
        assert!(
            report.effective_utilization > 0.90,
            "effective utilization {}",
            report.effective_utilization
        );
        // ...so the aggregate lands at ~3/4 of the healthy device peak.
        assert!(
            report.utilization > 0.68 && report.utilization < 0.78,
            "degraded utilization {}",
            report.utilization
        );
        assert_eq!(report.effective_peak, group.geometry().channel_rate() * 3);
    }

    #[test]
    fn fail_recover_before_traffic_is_identical_to_healthy() {
        let mut g1 = small_group();
        let mut p1 = PfiController::new(small_cfg(), &g1).unwrap();
        let r1 = p1.run_sustained(&mut g1, 100);
        let mut g2 = small_group();
        let mut p2 = PfiController::new(small_cfg(), &g2).unwrap();
        g2.fail_channel(2);
        g2.stick_bank(0, 5);
        g2.recover_channel(2);
        g2.unstick_bank(0, 5);
        let r2 = p2.run_sustained(&mut g2, 100);
        assert_eq!(r1.achieved, r2.achieved);
        assert_eq!(r1.elapsed, r2.elapsed);
        assert_eq!(r1.refreshes, r2.refreshes);
    }

    #[test]
    fn stuck_bank_costs_little() {
        let mut group = small_group();
        let mut pfi = PfiController::new(small_cfg(), &group).unwrap();
        group.stick_bank(1, 0);
        pfi.check_degraded(&group)
            .expect("one stuck bank is feasible");
        let report = pfi.run_sustained(&mut group, 300);
        // One stuck bank of 64 (4 channels x 16) barely dents the rate.
        assert!(report.utilization > 0.90, "{}", report.utilization);
    }

    #[test]
    fn fully_stuck_group_is_rejected() {
        let mut group = small_group();
        let pfi = PfiController::new(small_cfg(), &group).unwrap();
        for j in 0..4 {
            group.stick_bank(2, j); // all of interleaving group 0
        }
        assert_eq!(
            pfi.check_degraded(&group),
            Err(PfiConfigError::GroupStuck {
                channel: 2,
                group: 0
            })
        );
    }

    #[test]
    fn all_channels_dead_is_rejected() {
        let mut group = small_group();
        let pfi = PfiController::new(small_cfg(), &group).unwrap();
        for ci in 0..4 {
            group.fail_channel(ci);
        }
        assert_eq!(
            pfi.check_degraded(&group),
            Err(PfiConfigError::SubsetDead { subset: 0 })
        );
    }

    #[test]
    fn too_many_dead_channels_overflow_redistribution() {
        // 2 KiB rows / 1 KiB segments leave one spare slot per open row:
        // 2-of-4 dead is exactly absorbable, 3-of-4 is not.
        let mut group = small_group();
        let pfi = PfiController::new(small_cfg(), &group).unwrap();
        group.fail_channel(0);
        group.fail_channel(1);
        pfi.check_degraded(&group)
            .expect("2-of-4 dead is the boundary case");
        group.fail_channel(2);
        assert_eq!(
            pfi.check_degraded(&group),
            Err(PfiConfigError::RedistributionOverflow {
                subset: 0,
                displaced: 12,
                spare: 4
            })
        );
    }

    #[test]
    fn degraded_write_replays_placement_on_read() {
        let mut group = small_group();
        let mut pfi = PfiController::new(small_cfg(), &group).unwrap();
        group.fail_channel(3);
        pfi.write_frame(&mut group, SimTime::ZERO, 0);
        assert_eq!(group.channel(3).stats().writes.get(), 0);
        // The channel comes back before the frame drains: the read must
        // replay the degraded placement, not touch the recovered channel.
        group.recover_channel(3);
        let t = pfi.last_issue_time();
        pfi.read_frame(&mut group, t, 0).unwrap();
        assert_eq!(group.channel(3).stats().reads.get(), 0);
        // The next (healthy) frame uses all four channels again.
        let t = pfi.last_issue_time();
        pfi.write_frame(&mut group, t, 0);
        let t = pfi.last_issue_time();
        pfi.read_frame(&mut group, t, 0).unwrap();
        assert!(group.channel(3).stats().writes.get() > 0);
        assert!(group.channel(3).stats().reads.get() > 0);
    }

    #[test]
    fn controller_snapshot_roundtrip_is_behaviour_identical() {
        // Run a degraded workload so the `degraded` placement maps are
        // non-empty, snapshot mid-run, and check the restored controller
        // produces the exact same subsequent ops as the original.
        let mut group = small_group();
        let mut pfi = PfiController::new(small_cfg(), &group).unwrap();
        group.fail_channel(3);
        group.stick_bank(0, 2);
        let mut t = SimTime::ZERO;
        for out in 0..4 {
            pfi.write_frame(&mut group, t, out);
            t = pfi.last_issue_time();
        }
        let v = pfi.to_value();
        let mut restored = PfiController::from_value(&v).expect("roundtrip");
        let mut group2 = group.clone();
        for out in 0..4 {
            let a = pfi.read_frame(&mut group, t, out).unwrap();
            let b = restored.read_frame(&mut group2, t, out).unwrap();
            assert_eq!(a, b);
            t = pfi.last_issue_time();
        }
        assert_eq!(pfi.frames_buffered(0), restored.frames_buffered(0));
    }

    #[test]
    fn refresh_storm_tanks_utilization() {
        let mut g1 = small_group();
        let mut p1 = PfiController::new(small_cfg(), &g1).unwrap();
        let healthy = p1.run_sustained(&mut g1, 300);
        let mut g2 = small_group();
        let mut p2 = PfiController::new(small_cfg(), &g2).unwrap();
        p2.set_refresh_storm(SimTime::from_ns(1_000_000));
        assert!(p2.refresh_storm_active(SimTime::ZERO));
        let storm = p2.run_sustained(&mut g2, 300);
        assert!(
            storm.utilization < healthy.utilization - 0.05,
            "storm {} vs healthy {}",
            storm.utilization,
            healthy.utilization
        );
        assert!(
            storm.refreshes > healthy.refreshes,
            "storm {} vs healthy {} refreshes",
            storm.refreshes,
            healthy.refreshes
        );
        // Device health is unaffected — the storm is a controller fault.
        assert_eq!(storm.effective_peak, storm.peak);
    }

    /// The repeated-scan refresh pump: up to four times, pick the most
    /// refresh-starved eligible idle bank by a fresh scan. The oracle
    /// the one-pass [`PfiController::pump_refresh`] must equal.
    fn pump_refresh_rescan(
        ch: &mut crate::channel::Channel,
        now: SimTime,
        h: usize,
        gamma: usize,
        num_groups: usize,
        due: TimeDelta,
        ignore_exclusion: bool,
    ) {
        let excluded = |bank: usize| {
            if ignore_exclusion || num_groups <= 2 {
                return false;
            }
            let g = bank / gamma;
            g == h || g == (h + 1) % num_groups
        };
        for _ in 0..4 {
            let candidate = (0..ch.num_banks())
                .filter(|&b| !excluded(b))
                .filter(|&b| ch.bank(b).is_idle() && ch.bank(b).idle_at() <= now)
                .min_by_key(|&b| ch.bank(b).last_refresh());
            let Some(bank) = candidate else { break };
            if now.saturating_since(ch.bank(bank).last_refresh()) < due {
                break;
            }
            ch.refresh_bank(now, bank)
                .unwrap_or_else(|e| panic!("PFI REFsb schedule bug: {e}"));
        }
    }

    /// A channel of `setup.len()` banks in the states `setup` names:
    /// `(0, _)` untouched, `(1, slot)` refreshed at `slot × 100 ns`,
    /// `(2, slot)` refreshed there and then holding an open row. Shared
    /// slots force `last_refresh` ties.
    fn channel_in_state(rfc: TimeDelta, setup: &[(u8, u64)]) -> crate::channel::Channel {
        let timing = HbmTiming {
            t_rfc_sb: rfc,
            ..HbmTiming::hbm4()
        };
        let mut ch = crate::channel::Channel::new(timing, DataRate::from_gbps(640), setup.len());
        for (b, &(kind, slot)) in setup.iter().enumerate() {
            if kind > 0 {
                ch.refresh_bank(SimTime::from_ns(slot * 100), b)
                    .expect("fresh bank is idle");
            }
        }
        for (b, &(kind, _)) in setup.iter().enumerate() {
            if kind == 2 {
                let t = ch.earliest_activate(b);
                ch.activate(t, b, 0).expect("earliest ACT is legal");
            }
        }
        ch.set_record_commands(true);
        ch
    }

    #[test]
    fn refresh_pump_takes_the_most_starved_first_and_breaks_ties_low() {
        // Banks 1 and 3 tie oldest (100 ns), then bank 0 (200 ns), bank 4
        // (300 ns) and bank 2 (400 ns).
        let setup = [(1, 2), (1, 1), (1, 4), (1, 1), (1, 3)];
        let mut ch = channel_in_state(TimeDelta::from_ns(120), &setup);
        let now = SimTime::from_ns(700);
        PfiController::pump_refresh(&mut ch, now, 0, 1, 5, TimeDelta::from_ns(450), true);
        let order: Vec<usize> = ch.commands().iter().map(|c| c.bank).collect();
        // Bank 4, refreshed 400 ns ago, is the first one not yet due.
        assert_eq!(order, [1, 3, 0]);
    }

    proptest::proptest! {
        #[test]
        fn one_pass_refresh_pump_matches_the_repeated_scan(
            num_groups in 1usize..6,
            gamma in 1usize..4,
            h_pick in 0usize..8,
            setup in proptest::collection::vec((0u8..3, 0u64..6), 15),
            now_ns in 0u64..800,
            rfc_ns in proptest::sample::select(vec![0u64, 60, 120]),
            due_ns in proptest::sample::select(vec![0u64, 100, 250, 500]),
            ignore_exclusion in proptest::prelude::any::<bool>(),
        ) {
            let banks = num_groups * gamma;
            let h = h_pick % num_groups;
            let now = SimTime::from_ns(now_ns);
            let due = TimeDelta::from_ns(due_ns);
            let base = channel_in_state(TimeDelta::from_ns(rfc_ns), &setup[..banks]);
            let mut one_pass = base.clone();
            let mut rescan = base;
            PfiController::pump_refresh(&mut one_pass, now, h, gamma, num_groups, due, ignore_exclusion);
            pump_refresh_rescan(&mut rescan, now, h, gamma, num_groups, due, ignore_exclusion);
            proptest::prop_assert_eq!(one_pass.commands(), rescan.commands());
            for b in 0..banks {
                let (x, y) = (one_pass.bank(b), rescan.bank(b));
                proptest::prop_assert_eq!(
                    (x.last_refresh(), x.idle_at(), x.is_idle()),
                    (y.last_refresh(), y.idle_at(), y.is_idle())
                );
            }
        }
    }
}
