//! Crash-safe checkpoint/resume integration suite.
//!
//! The checkpoint subsystem must satisfy three cross-crate contracts:
//!
//! * **Byte-identical continuation** — a run interrupted at any
//!   checkpoint and resumed from the on-disk snapshot produces the
//!   same final report and the same telemetry stream as the
//!   uninterrupted same-seed run, through the real container on disk
//!   (CRC envelope, atomic rename, two-slot rotation) and the real
//!   pull-based sources `ripsim` uses.
//! * **Rotation resilience** — truncating the newest snapshot slot
//!   falls back to `.prev`, and resuming from that older checkpoint
//!   still converges to the identical end state.
//! * **SPS plane ordering** — the sequential checkpointed SPS runner
//!   emits the exact stream and report of the threaded
//!   `run_streamed`, interrupted mid-plane or not.

use std::cell::{Cell, RefCell};
use std::path::PathBuf;

use rip_core::{
    FaultPlan, HbmSwitch, LiveOptions, RouterConfig, RunOutcome, SpsRouter, SpsWorkload,
};
use rip_integration_tests::source_for;
use rip_photonics::SplitPattern;
use rip_sim::snapshot::{load_latest, prev_slot, write_snapshot, SnapshotError};
use rip_telemetry::{MemorySink, SharedSink, SinkRecord};
use rip_traffic::StatefulSource;
use rip_traffic::TrafficMatrix;
use rip_units::{SimTime, TimeDelta};
use serde::{Deserialize, Serialize, Value};

const PERIOD: TimeDelta = TimeDelta::from_ns(2_000);

fn json<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("serializes")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("rip-checkpoint-resume-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(prev_slot(&path));
    path
}

/// The standard single-switch live workload of this suite.
fn live_setup() -> (RouterConfig, TrafficMatrix, SimTime) {
    let cfg = RouterConfig::small();
    let tm = TrafficMatrix::uniform(cfg.ribbons, 1.0);
    (cfg, tm, SimTime::from_ns(40_000))
}

/// Uninterrupted live baseline: the stream and report every
/// checkpointed variant must reproduce byte-for-byte.
fn baseline(seed: u64) -> (Vec<SinkRecord>, String) {
    let (cfg, tm, horizon) = live_setup();
    let staged = SharedSink::new();
    let mut sw = HbmSwitch::new(cfg.clone()).expect("valid config");
    sw.enable_live_telemetry(PERIOD, 64, Box::new(staged.clone()));
    sw.run_source(
        source_for(&cfg, &tm, 0.8, horizon, seed),
        cfg.drain.deadline(horizon),
        &FaultPlan::default(),
    );
    let records = staged.take().records().iter().cloned().collect();
    (records, json(&sw.into_report()))
}

/// Run the checkpointed engine against the real on-disk container,
/// stopping after `stop_after` snapshots; returns the partial stream,
/// the outcome, and the `(epochs, spans)` counts of every snapshot
/// written (in order).
fn run_until(
    seed: u64,
    path: &std::path::Path,
    every: u64,
    stop_after: u64,
) -> (Vec<SinkRecord>, RunOutcome, Vec<(u64, u64)>) {
    let (cfg, tm, horizon) = live_setup();
    let staged = SharedSink::new();
    let mut sw = HbmSwitch::new(cfg.clone()).expect("valid config");
    sw.enable_live_telemetry(PERIOD, 64, Box::new(staged.clone()));
    let written = Cell::new(0u64);
    let counts = RefCell::new(Vec::new());
    let outcome = sw
        .run_source_checkpointed(
            source_for(&cfg, &tm, 0.8, horizon, seed),
            cfg.drain.deadline(horizon),
            &FaultPlan::default(),
            None,
            every,
            || written.get() >= stop_after,
            |state: &Value, epochs: u64, spans: u64| {
                write_snapshot(path, json(state).as_bytes())?;
                written.set(written.get() + 1);
                counts.borrow_mut().push((epochs, spans));
                Ok(())
            },
        )
        .expect("checkpointed run");
    let partial = staged.take().records().iter().cloned().collect();
    (partial, outcome, counts.into_inner())
}

/// Resume the engine from an on-disk snapshot payload and run to
/// completion; returns the continuation stream and the report JSON.
fn resume_from(seed: u64, payload: &[u8]) -> (Vec<SinkRecord>, String) {
    try_resume(seed, &parse_payload(payload)).expect("resumed run")
}

/// Decode an on-disk snapshot payload into its JSON state.
fn parse_payload(payload: &[u8]) -> Value {
    let text = std::str::from_utf8(payload).expect("snapshot payload is JSON");
    serde_json::parse(text).expect("snapshot payload parses")
}

/// Resume from a decoded snapshot state and run to completion, passing
/// a restore failure back to the caller.
fn try_resume(seed: u64, state: &Value) -> Result<(Vec<SinkRecord>, String), SnapshotError> {
    let (cfg, tm, horizon) = live_setup();
    let staged = SharedSink::new();
    let mut sw = HbmSwitch::new(cfg.clone()).expect("valid config");
    sw.enable_live_telemetry(PERIOD, 64, Box::new(staged.clone()));
    let outcome = sw.run_source_checkpointed(
        source_for(&cfg, &tm, 0.8, horizon, seed),
        cfg.drain.deadline(horizon),
        &FaultPlan::default(),
        Some(state),
        1_000_000,
        || false,
        |_, _, _| Ok(()),
    )?;
    assert_eq!(outcome, RunOutcome::Completed);
    let records = staged.take().records().iter().cloned().collect();
    Ok((records, json(&sw.into_report())))
}

#[test]
fn killed_and_resumed_run_is_byte_identical_through_the_disk_container() {
    let seed = 11;
    let path = scratch("engine.snap");
    let (base_records, base_report) = baseline(seed);

    let (partial, outcome, counts) = run_until(seed, &path, 2, 3);
    assert_eq!(outcome, RunOutcome::Interrupted);
    assert!(counts.len() >= 3, "expected at least 3 snapshots");

    // The newest slot resumes to the identical end state.
    let (payload, slot) = load_latest(&path).expect("snapshot loads");
    assert_eq!(slot, path);
    let (resumed, report) = resume_from(seed, &payload);
    assert_eq!(report, base_report, "resumed report diverged");

    // Stream: baseline prefix up to the last snapshot, then the
    // continuation. The partial stream must cover at least that prefix
    // (records after the snapshot are cut by the resume bookkeeping).
    let &(epochs, spans) = counts.last().unwrap();
    let keep = (epochs + spans) as usize;
    assert!(partial.len() >= keep);
    assert_eq!(partial[..keep], base_records[..keep]);
    let merged: Vec<SinkRecord> = base_records[..keep]
        .iter()
        .cloned()
        .chain(resumed)
        .collect();
    assert_eq!(merged, base_records, "merged stream diverged");
}

#[test]
fn truncated_newest_slot_falls_back_to_prev_and_still_converges() {
    let seed = 23;
    let path = scratch("rotated.snap");
    let (base_records, base_report) = baseline(seed);

    let (_, outcome, counts) = run_until(seed, &path, 2, 3);
    assert_eq!(outcome, RunOutcome::Interrupted);
    assert!(prev_slot(&path).exists(), "rotation left no .prev slot");

    // Crash mid-write: the newest slot is cut short. Loading must fall
    // back to the previous rotation slot...
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    let (payload, slot) = load_latest(&path).expect("fallback loads");
    assert_eq!(slot, prev_slot(&path));

    // ...and resuming from that older checkpoint still reproduces the
    // uninterrupted run exactly.
    let (resumed, report) = resume_from(seed, &payload);
    assert_eq!(report, base_report);
    let &(epochs, spans) = &counts[counts.len() - 2];
    let keep = (epochs + spans) as usize;
    let merged: Vec<SinkRecord> = base_records[..keep]
        .iter()
        .cloned()
        .chain(resumed)
        .collect();
    assert_eq!(merged, base_records);
}

/// A snapshot that passes its CRC but contradicts itself or the router
/// must resume with a typed [`SnapshotError::Mismatch`] — never an
/// index panic or a failed assert deep inside the run.
#[test]
fn crc_valid_but_inconsistent_snapshots_resume_with_a_typed_mismatch() {
    let seed = 29;
    let path = scratch("inconsistent.snap");
    let (_, outcome, _) = run_until(seed, &path, 2, 1);
    assert_eq!(outcome, RunOutcome::Interrupted);
    let (payload, _) = load_latest(&path).expect("snapshot loads");
    let good = parse_payload(&payload);
    // The untouched snapshot resumes: the cases below fail on their
    // edit alone.
    try_resume(seed, &good).expect("untouched snapshot resumes");

    type Edit = fn(&mut Value);
    let cases: [(&str, Edit); 4] = [
        ("queue_next_seq = 0", |v| {
            *field_mut(v, "queue_next_seq") = 0u64.to_value();
        }),
        ("assemblers cut to one entry", |v| {
            let Value::Array(a) = field_mut(v, "assemblers") else {
                panic!("assemblers: not an array")
            };
            a.truncate(1);
        }),
        ("pending_to_head = []", |v| {
            *field_mut(v, "pending_to_head") = Value::Array(Vec::new());
        }),
        // A count above the output's pending `FrameAtHead` events never
        // drains back to zero; one below them underflows when they fire.
        ("pending_to_head[0] bumped by one", |v| {
            let field = field_mut(v, "pending_to_head");
            let mut counts = Vec::<u64>::from_value(field).expect("a count vector");
            counts[0] += 1;
            *field = counts.to_value();
        }),
    ];
    for (what, edit) in cases {
        let mut state = good.clone();
        edit(&mut state);
        match try_resume(seed, &state) {
            Err(SnapshotError::Mismatch(msg)) => assert!(!msg.is_empty(), "{what}"),
            Err(other) => panic!("{what}: expected a mismatch, got {other}"),
            Ok(_) => panic!("{what}: an inconsistent snapshot resumed"),
        }
    }
}

/// The fields of a JSON object.
type Fields = Vec<(String, Value)>;

/// Visit every JSON object nested anywhere in `v`, depth first.
fn for_each_object(v: &mut Value, f: &mut dyn FnMut(&mut Fields)) {
    match v {
        Value::Object(fields) => {
            f(fields);
            for (_, x) in fields.iter_mut() {
                for_each_object(x, f);
            }
        }
        Value::Array(items) => items.iter_mut().for_each(|x| for_each_object(x, f)),
        _ => {}
    }
}

/// True if `fields` has exactly the keys `keys`, in any order.
fn has_keys(fields: &[(String, Value)], keys: &[&str]) -> bool {
    fields.len() == keys.len() && keys.iter().all(|k| fields.iter().any(|(f, _)| f == k))
}

/// Rewrite a switch snapshot into the layout written while chunks
/// carried an egress-lane tag: every batch chunk gains a `lane` field
/// (the "hash at egress" sentinel, `u32::MAX`), and with `voq_tags`
/// every queued VOQ entry gains the same tag as its sixth element.
/// Returns the number of VOQ entries so tagged.
fn lane_tagged_layout(v: &mut Value, voq_tags: bool) -> usize {
    const CHUNK: [&str; 6] = ["packet", "offset", "len", "is_last", "arrival", "flow"];
    let mut tagged = 0;
    for_each_object(v, &mut |fields| {
        if has_keys(fields, &CHUNK) {
            fields.push(("lane".into(), u32::MAX.to_value()));
        } else if voq_tags && has_keys(fields, &["pending", "queued", "next_seq"]) {
            let (_, pending) = fields
                .iter_mut()
                .find(|(k, _)| k == "pending")
                .expect("pending");
            let Value::Array(pending) = pending else {
                panic!("pending: not an array")
            };
            for entry in pending {
                let Value::Array(tuple) = entry else {
                    panic!("pending entry: not a tuple")
                };
                tuple.push(u32::MAX.to_value());
                tagged += 1;
            }
        }
    });
    tagged
}

#[test]
fn switch_checkpoint_from_before_lane_tag_removal_resumes_or_fails_typed() {
    // Chunks and VOQ entries no longer carry a pre-hashed egress-lane
    // tag. A snapshot written in the tagged layout must either resume
    // to the uninterrupted run byte for byte, or be refused with a
    // typed error — never a panic or a silently different run.
    let seed = 43;
    let path = scratch("lane-tagged.snap");
    let (base_records, base_report) = baseline(seed);
    let (_, outcome, counts) = run_until(seed, &path, 2, 2);
    assert_eq!(outcome, RunOutcome::Interrupted);
    let (payload, _) = load_latest(&path).expect("snapshot loads");
    let state = parse_payload(&payload);

    // Chunk tags alone are an unknown field: ignored, and the resume
    // is byte-identical (a tag only ever named the lane the egress
    // hash picks anyway).
    let mut chunk_tagged = state.clone();
    lane_tagged_layout(&mut chunk_tagged, false);
    assert_ne!(chunk_tagged, state, "the snapshot holds no batch chunks");
    let (resumed, report) = try_resume(seed, &chunk_tagged).expect("chunk tags are ignored");
    assert_eq!(report, base_report, "lane-tagged resume diverged");
    let &(epochs, spans) = counts.last().unwrap();
    let keep = (epochs + spans) as usize;
    let merged: Vec<SinkRecord> = base_records[..keep]
        .iter()
        .cloned()
        .chain(resumed)
        .collect();
    assert_eq!(merged, base_records, "lane-tagged merged stream diverged");

    // A six-element VOQ entry no longer decodes: a typed mismatch.
    let mut old = state;
    assert!(
        lane_tagged_layout(&mut old, true) > 0,
        "the snapshot holds no queued VOQ entries"
    );
    match try_resume(seed, &old) {
        Err(SnapshotError::Mismatch(msg)) => assert!(
            msg.contains("expected tuple of 5 elements, found 6"),
            "{msg}"
        ),
        Err(other) => panic!("expected a typed mismatch, got {other}"),
        Ok(_) => panic!("a six-element VOQ entry resumed"),
    }
}

// ------------------------------------------------------------------
// SPS router: sequential checkpointed runner vs threaded run_streamed.
// ------------------------------------------------------------------

fn sps_setup() -> (SpsRouter, SpsWorkload, SimTime, LiveOptions) {
    let cfg = RouterConfig::small();
    let router = SpsRouter::new(cfg.clone(), SplitPattern::Striped).expect("valid config");
    let w = SpsWorkload::uniform(cfg.ribbons, 0.8, 0xC0FF);
    let opts = LiveOptions {
        period: PERIOD,
        sample_one_in: 64,
    };
    (router, w, SimTime::from_ns(40_000), opts)
}

/// `v`'s field `key`, for a JSON object `v`.
fn field_mut<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
    let Value::Object(fields) = v else {
        panic!("{key}: not an object")
    };
    &mut fields.iter_mut().find(|(k, _)| k == key).expect(key).1
}

/// A plane-source snapshot in the layout written before plane sources
/// were pruned to their own fibers: one `{source, pending, done}` lane
/// per loaded fiber of the whole router — here, every plane's lanes.
fn unpruned_plane_state(router: &SpsRouter, w: &SpsWorkload, horizon: SimTime) -> Value {
    let mut lanes = Vec::new();
    for plane in 0..RouterConfig::small().switches {
        let mut state = router
            .plane_source(w, horizon, &FaultPlan::default(), plane)
            .save_state();
        let Value::Array(plane_lanes) =
            std::mem::replace(field_mut(&mut state, "lanes"), Value::Null)
        else {
            panic!("lanes: not an array")
        };
        for mut lane in plane_lanes {
            if let Value::Object(fields) = &mut lane {
                for (k, _) in fields.iter_mut().filter(|(k, _)| k == "inner") {
                    *k = "source".into();
                }
            }
            lanes.push(lane);
        }
    }
    Value::Object(vec![
        ("lanes".into(), Value::Array(lanes)),
        ("fe_dropped_packets".into(), 0u64.to_value()),
        ("fe_dropped".into(), rip_units::DataSize::ZERO.to_value()),
    ])
}

/// Swap the plane-source state nested anywhere in `v` for `with`.
fn replace_plane_state(v: &mut Value, with: &Value) -> bool {
    match v {
        Value::Object(fields) if fields.iter().any(|(k, _)| k == "fe_dropped_packets") => {
            *v = with.clone();
            true
        }
        Value::Object(fields) => fields.iter_mut().any(|(_, x)| replace_plane_state(x, with)),
        Value::Array(items) => items.iter_mut().any(|x| replace_plane_state(x, with)),
        _ => false,
    }
}

#[test]
fn sps_checkpoint_from_before_plane_pruning_fails_to_resume_typed() {
    // A plane source now holds only its own α·N fibers; a snapshot
    // written when every plane held all F·N fibers must be refused with
    // the typed lane-count error, never a panic or a wrong resume.
    let (router, w, horizon, opts) = sps_setup();
    let unpruned = unpruned_plane_state(&router, &w, horizon);
    let mut src = router.plane_source(&w, horizon, &FaultPlan::default(), 0);
    let err = src.restore_state(&unpruned).unwrap_err();
    assert_eq!(
        err.to_string(),
        "plane source has 16 lanes, snapshot has 64"
    );

    let last: RefCell<Option<Value>> = RefCell::new(None);
    let outcome = router
        .run_streamed_checkpointed(
            &w,
            horizon,
            &FaultPlan::default(),
            opts,
            &mut MemorySink::new(),
            None,
            1,
            &mut || last.borrow().is_some(),
            &mut |state, _| {
                *last.borrow_mut() = Some(state.clone());
                Ok(())
            },
        )
        .expect("interruptible run");
    assert!(outcome.is_none(), "run was not interrupted");
    let mut state = last.into_inner().expect("a snapshot was taken");
    assert!(
        replace_plane_state(&mut state, &unpruned),
        "the snapshot was taken mid-plane, with a plane source inside"
    );
    let err = router
        .run_streamed_checkpointed(
            &w,
            horizon,
            &FaultPlan::default(),
            opts,
            &mut MemorySink::new(),
            Some(&state),
            1,
            &mut || false,
            &mut |_, _| Ok(()),
        )
        .expect_err("resume must be refused");
    match err {
        SnapshotError::Mismatch(msg) => assert!(
            msg.contains("plane source has 16 lanes, snapshot has 64"),
            "{msg}"
        ),
        other => panic!("expected a typed mismatch, got {other:?}"),
    }
}

#[test]
fn sps_checkpointed_runner_matches_threaded_stream_and_report() {
    let (router, w, horizon, opts) = sps_setup();
    let mut base = MemorySink::new();
    let base_report = router.run_streamed(&w, horizon, &FaultPlan::default(), opts, &mut base);

    let mut sink = MemorySink::new();
    let snapshots = Cell::new(0u64);
    let report = router
        .run_streamed_checkpointed(
            &w,
            horizon,
            &FaultPlan::default(),
            opts,
            &mut sink,
            None,
            4,
            &mut || false,
            &mut |_, _| {
                snapshots.set(snapshots.get() + 1);
                Ok(())
            },
        )
        .expect("checkpointed run")
        .expect("ran to completion");
    assert!(snapshots.get() > 0, "no snapshots were taken");
    assert_eq!(json(&report), json(&base_report), "reports diverged");
    assert_eq!(
        sink.records(),
        base.records(),
        "checkpointed stream diverged from the threaded stream"
    );
}

#[test]
fn sps_interrupted_mid_run_resumes_byte_identically() {
    let (router, w, horizon, opts) = sps_setup();
    let mut base = MemorySink::new();
    let base_report = router.run_streamed(&w, horizon, &FaultPlan::default(), opts, &mut base);

    // Interrupt after a few snapshots; keep the last snapshot and the
    // count of records already replayed into the driver sink.
    let mut partial = MemorySink::new();
    let taken = Cell::new(0u64);
    let last: RefCell<Option<(Value, u64)>> = RefCell::new(None);
    let outcome = router
        .run_streamed_checkpointed(
            &w,
            horizon,
            &FaultPlan::default(),
            opts,
            &mut partial,
            None,
            3,
            &mut || taken.get() >= 4,
            &mut |state, records_done| {
                taken.set(taken.get() + 1);
                *last.borrow_mut() = Some((state.clone(), records_done));
                Ok(())
            },
        )
        .expect("interruptible run");
    assert!(outcome.is_none(), "run was not interrupted");
    let (state, records_done) = last.into_inner().expect("a snapshot was taken");

    // The partial driver sink holds exactly the completed planes'
    // replayed records.
    assert_eq!(partial.records().len() as u64, records_done);

    let mut cont = MemorySink::new();
    let report = router
        .run_streamed_checkpointed(
            &w,
            horizon,
            &FaultPlan::default(),
            opts,
            &mut cont,
            Some(&state),
            1_000_000,
            &mut || false,
            &mut |_, _| Ok(()),
        )
        .expect("resumed run")
        .expect("ran to completion");
    assert_eq!(json(&report), json(&base_report), "resumed report diverged");

    let merged: Vec<SinkRecord> = partial
        .records()
        .iter()
        .chain(cont.records().iter())
        .cloned()
        .collect();
    let expected: Vec<SinkRecord> = base.records().iter().cloned().collect();
    assert_eq!(merged, expected, "merged SPS stream diverged");
}

#[test]
fn sps_resume_rejects_a_different_configuration() {
    let (router, w, horizon, opts) = sps_setup();
    let mut sink = MemorySink::new();
    let taken = Cell::new(0u64);
    let last: RefCell<Option<Value>> = RefCell::new(None);
    let outcome = router
        .run_streamed_checkpointed(
            &w,
            horizon,
            &FaultPlan::default(),
            opts,
            &mut sink,
            None,
            3,
            &mut || taken.get() >= 2,
            &mut |state, _| {
                taken.set(taken.get() + 1);
                *last.borrow_mut() = Some(state.clone());
                Ok(())
            },
        )
        .expect("interruptible run");
    assert!(outcome.is_none());
    let state = last.into_inner().expect("a snapshot was taken");

    let mut other_cfg = RouterConfig::small();
    other_cfg.head_frames += 1;
    let other = SpsRouter::new(other_cfg, SplitPattern::Striped).expect("valid config");
    let mut cont = MemorySink::new();
    let err = other
        .run_streamed_checkpointed(
            &w,
            horizon,
            &FaultPlan::default(),
            opts,
            &mut cont,
            Some(&state),
            1_000_000,
            &mut || false,
            &mut |_, _| Ok(()),
        )
        .expect_err("a different configuration must be rejected");
    assert!(
        err.to_string().contains("configuration differs"),
        "unexpected error: {err}"
    );
}
