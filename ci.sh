#!/usr/bin/env bash
# Repository CI gate: formatting, lints, and the full test suite.
# Everything runs offline against the vendored dependencies.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test"
cargo test --workspace -q

echo "==> perfbench tests (conservation checks, traced == untraced digests)"
# perfbench is a Cargo workspace of its own, so the workspace run above
# does not reach it; a conservation or digest break in the simulator
# must fail here, not only in the benchmark pipeline.
cargo test --release -q --manifest-path perfbench/Cargo.toml

echo "==> perfbench golden digests (seed 42, every workload)"
# A short run of each benchmark workload: the last stdout line is a JSON
# summary whose "correct" is false when a run's report digest differs
# from perfbench/golden.json, so a simulated-output change fails here.
for workload in ref-uniform hotspot-live sps-uniform; do
  summary="$(python3 perfbench/run.py --workload "$workload" --seconds 1 --trace 0 | tail -n 1)" \
    || summary="run.py exited nonzero"
  python3 -c 'import json, sys
try:
    r = json.loads(sys.argv[1])
except ValueError:
    sys.exit(1)
sys.exit(0 if r.get("correct") is True and r.get("failed") == 0 else 1)' "$summary" \
    || { echo "perfbench $workload: digest mismatch or failed run: $summary"; exit 1; }
done

echo "==> bench smoke (schema check, live epoch streaming on)"
bench_dir="$(mktemp -d)"
trap 'rm -rf "$bench_dir"' EXIT
cargo build --release -q -p rip-bench --bin repro --bin ripsim

# The sorted set of JSON keys a BENCH file emits — the schema contract
# pinned by tests/bench_schema_expected.txt.
bench_keys() {
  grep -o '"[a-z_0-9]*":' "$1" | sort -u
}

# scrape_metrics <port-file> <out-file> <required-regex>... — wait for
# the port file, then scrape the Prometheus endpoint with retries and
# exponential backoff (0.1 s doubling to a 1.6 s cap) until one
# response carries every required regex. A freshly bound endpoint or a
# family that appears only after the first epoch flush is a retry, not
# a flake.
scrape_metrics() {
  local port_file="$1" out="$2" port delay pat ok
  shift 2
  for _ in $(seq 1 100); do
    [ -s "$port_file" ] && break
    sleep 0.1
  done
  test -s "$port_file" || return 1
  port="$(tr -d '[:space:]' < "$port_file")"
  delay=0.1
  for _ in $(seq 1 40); do
    if exec 3<>"/dev/tcp/127.0.0.1/$port" 2> /dev/null; then
      printf 'GET /metrics HTTP/1.0\r\n\r\n' >&3
      cat <&3 > "$out"
      exec 3<&- 3>&-
      ok=yes
      for pat in "$@"; do
        grep -q "$pat" "$out" || ok=""
      done
      if [ -n "$ok" ]; then
        return 0
      fi
    fi
    sleep "$delay"
    delay="$(awk -v d="$delay" 'BEGIN { printf "%.1f", (d * 2 > 1.6) ? 1.6 : d * 2 }')"
  done
  return 1
}

(cd "$bench_dir" && "$OLDPWD/target/release/repro" bench --quick --live-epochs > /dev/null)
# kernel-speed runs in full mode: the wheel-vs-heap ratio needs enough
# ops to amortize the wheel's initial cascade, and the regression gate
# below needs a stable number.
(cd "$bench_dir" && "$OLDPWD/target/release/repro" kernel-speed > /dev/null)
# parallel-speed also runs in full mode: it asserts byte-identical
# reports across engines and its speedup ratio feeds the gate below.
(cd "$bench_dir" && "$OLDPWD/target/release/repro" parallel-speed > /dev/null)
# fleet asserts the collector's merged stream is byte-identical to the
# single-process oracle across several worker partitionings.
(cd "$bench_dir" && "$OLDPWD/target/release/repro" fleet --quick > /dev/null)
# profile-overhead asserts byte-identical outputs with the profiler on
# and exits nonzero above 3% overhead; the gate below re-checks the
# emitted file so a stale artifact can never pass.
(cd "$bench_dir" && "$OLDPWD/target/release/repro" profile-overhead --quick > /dev/null)
for f in BENCH_sps_throughput.json BENCH_hbm_access.json BENCH_streaming_memory.json \
         BENCH_telemetry_overhead.json BENCH_kernel_speed.json BENCH_parallel_speed.json \
         BENCH_fleet_collector.json BENCH_profile_overhead.json; do
  bench_keys "$bench_dir/$f" > "$bench_dir/$f.keys"
done
cat "$bench_dir"/BENCH_sps_throughput.json.keys "$bench_dir"/BENCH_hbm_access.json.keys \
  "$bench_dir"/BENCH_streaming_memory.json.keys \
  "$bench_dir"/BENCH_telemetry_overhead.json.keys \
  "$bench_dir"/BENCH_kernel_speed.json.keys \
  "$bench_dir"/BENCH_parallel_speed.json.keys \
  "$bench_dir"/BENCH_fleet_collector.json.keys \
  "$bench_dir"/BENCH_profile_overhead.json.keys \
  | sort -u > "$bench_dir/bench.keys"
diff -u tests/bench_schema_expected.txt "$bench_dir/bench.keys" \
  || { echo "BENCH_*.json schema drifted from tests/bench_schema_expected.txt"; exit 1; }
test -s "$bench_dir/BENCH_sps_epochs.jsonl" \
  || { echo "bench --live-epochs produced no BENCH_sps_epochs.jsonl"; exit 1; }

echo "==> event-kernel speed gate (wheel vs heap, >10% regression fails)"
# The gated quantity is the dimensionless microkernel speedup ratio —
# absolute events/sec vary with the machine, the ratio does not. The
# committed baseline is a deliberately conservative measured run.
base_ratio="$(grep -o '"speedup_vs_heap": *[0-9.]*' tests/bench_kernel_speed_baseline.json \
  | grep -o '[0-9.]*$')"
cur_ratio="$(grep -o '"speedup_vs_heap": *[0-9.]*' "$bench_dir/BENCH_kernel_speed.json" \
  | grep -o '[0-9.]*$')"
test -n "$base_ratio" && test -n "$cur_ratio" \
  || { echo "kernel-speed ratio missing from bench or baseline"; exit 1; }
awk -v c="$cur_ratio" -v b="$base_ratio" 'BEGIN { exit !(c >= 0.9 * b) }' \
  || { echo "kernel speedup regressed: $cur_ratio vs baseline $base_ratio (>10% slowdown)"; exit 1; }
echo "kernel speedup_vs_heap $cur_ratio (baseline $base_ratio)"

echo "==> sharded-engine speed gate (vs sequential oracle, >10% regression fails)"
# Same shape as the kernel gate: the gated quantity is the 4-shard
# wall-clock ratio against the sequential engine. The committed
# baseline was measured on a single-core host (cores_available=1,
# recorded in the bench file), where the ratio captures coordination
# overhead under time-slicing — a conservative floor that a real
# serialization regression would still fall through.
base_par="$(grep -o '"speedup_sharded4": *[0-9.]*' tests/bench_parallel_speed_baseline.json \
  | grep -o '[0-9.]*$')"
cur_par="$(grep -o '"speedup_sharded4": *[0-9.]*' "$bench_dir/BENCH_parallel_speed.json" \
  | grep -o '[0-9.]*$')"
test -n "$base_par" && test -n "$cur_par" \
  || { echo "parallel-speed ratio missing from bench or baseline"; exit 1; }
awk -v c="$cur_par" -v b="$base_par" 'BEGIN { exit !(c >= 0.9 * b) }' \
  || { echo "sharded-engine speedup regressed: $cur_par vs baseline $base_par (>10% slowdown)"; exit 1; }
echo "sharded speedup_sharded4 $cur_par (baseline $base_par)"

echo "==> self-profiler overhead gate (<3%, outputs byte-identical)"
grep -q '"byte_identical": true' "$bench_dir/BENCH_profile_overhead.json" \
  || { echo "profiler changed a deterministic output"; exit 1; }
prof_frac="$(grep -o '"overhead_frac": *[-0-9.e]*' "$bench_dir/BENCH_profile_overhead.json" \
  | grep -o '[-0-9.e]*$')"
test -n "$prof_frac" || { echo "overhead_frac missing from BENCH_profile_overhead.json"; exit 1; }
awk -v o="$prof_frac" 'BEGIN { exit !(o < 0.03) }' \
  || { echo "self-profiler overhead $prof_frac is at or above the 3% budget"; exit 1; }
echo "profiler overhead_frac $prof_frac (budget < 0.03)"

echo "==> kernel + engine equivalence suite (engines x kernels, byte-identical outputs)"
cargo test --release -q -p rip-integration-tests --test kernel_equivalence \
  || { echo "kernel/engine equivalence suite failed"; exit 1; }

echo "==> streaming soak smoke (bounded in-flight memory + live epoch determinism)"
for d in soak_a soak_b; do
  mkdir "$bench_dir/$d"
  (cd "$bench_dir/$d" && "$OLDPWD/target/release/repro" soak --quick --live-epochs)
done
cmp "$bench_dir/soak_a/SOAK_epochs.jsonl" "$bench_dir/soak_b/SOAK_epochs.jsonl" \
  || { echo "same-seed live soak streams are not byte-identical"; exit 1; }

echo "==> chrome trace export (same-seed byte identity)"
target/release/ripsim trace --chrome "$bench_dir/trace_a.json" configs/soak_live.json 2> /dev/null
target/release/ripsim trace --chrome "$bench_dir/trace_b.json" configs/soak_live.json 2> /dev/null
cmp "$bench_dir/trace_a.json" "$bench_dir/trace_b.json" \
  || { echo "same-seed chrome trace exports are not byte-identical"; exit 1; }
grep -q '"ph":"X"' "$bench_dir/trace_a.json" \
  || { echo "chrome trace export carries no duration events"; exit 1; }
grep -q '"name":"ch00/b00"' "$bench_dir/trace_a.json" \
  || { echo "chrome trace export carries no per-bank HBM tracks"; exit 1; }

echo "==> metrics endpoint smoke (live scrape during soak, profiler on)"
target/release/ripsim soak configs/soak_live.json --profile \
  --metrics 127.0.0.1:0 --metrics-port-file "$bench_dir/metrics.port" \
  --metrics-hold-ms 8000 \
  > "$bench_dir/soak_live.jsonl" 2> "$bench_dir/soak_live.log" &
soak_pid=$!
scrape_metrics "$bench_dir/metrics.port" "$bench_dir/scrape.txt" \
  '^rip_switch_packets_delivered_total{source="switch"} [0-9]' \
  '^ripsim_profile_phase_seconds_total{source="engine"' \
  || true # asserted below, after the soak is reaped
wait "$soak_pid" || { echo "healthy live soak exited nonzero"; exit 1; }
grep -q '^rip_switch_packets_delivered_total{source="switch"} [0-9]' "$bench_dir/scrape.txt" \
  || { echo "metrics scrape never returned switch totals"; exit 1; }
# The profiler's wall-clock families ride the same endpoint, on their
# own ripsim_profile_* names.
grep -q '^ripsim_profile_phase_seconds_total{source="engine"' "$bench_dir/scrape.txt" \
  || { echo "metrics scrape carries no ripsim_profile_* families"; exit 1; }
grep -q '^ripsim_profile_records_total{source="engine"} [0-9]' "$bench_dir/scrape.txt" \
  || { echo "metrics scrape is missing ripsim_profile_records_total"; exit 1; }
# Exposition grammar spot-checks: HELP and TYPE exactly once per family.
grep -q '^# HELP rip_switch_packets_delivered_total ' "$bench_dir/scrape.txt" \
  || { echo "scrape is missing HELP lines"; exit 1; }
test "$(grep -c '^# TYPE rip_switch_packets_delivered_total counter$' "$bench_dir/scrape.txt")" = 1 \
  || { echo "scrape repeats TYPE for a family"; exit 1; }
test "$(grep -c '^# TYPE ripsim_profile_phase_seconds_total counter$' "$bench_dir/scrape.txt")" = 1 \
  || { echo "scrape repeats TYPE for the profile family"; exit 1; }
grep -q 'le="+Inf"' "$bench_dir/scrape.txt" \
  || { echo "scrape is missing histogram +Inf buckets"; exit 1; }

echo "==> SLO watchdog smoke (injected channel fault must fail the soak)"
if target/release/ripsim soak configs/soak_live.json --inject-channel-fault 0 \
     > /dev/null 2> "$bench_dir/soak_fault.log"; then
  echo "fault-injected soak unexpectedly exited zero"; exit 1
fi
grep -q 'DegradedCapacity' "$bench_dir/soak_fault.log" \
  || { echo "fault-injected soak fired no degraded-capacity watchdog"; exit 1; }

echo "==> flight recorder smoke (watchdog trip dumps a parseable bundle)"
mkdir "$bench_dir/flight"
if target/release/ripsim soak configs/soak_live.json --inject-channel-fault 0 \
     --profile --flight-dir "$bench_dir/flight" \
     > /dev/null 2> "$bench_dir/flight_fault.log"; then
  echo "fault-injected soak with flight recorder unexpectedly exited zero"; exit 1
fi
test -f "$bench_dir/flight/flight_watchdog.json" \
  || { echo "watchdog trip left no flight_watchdog.json"; exit 1; }
target/release/ripsim flight-check "$bench_dir/flight/flight_watchdog.json" \
  || { echo "flight bundle failed validation"; exit 1; }

echo "==> checkpoint/resume smoke (SIGKILL mid-soak, byte-identical continuation)"
target/release/ripsim soak configs/soak_ckpt.json \
  > "$bench_dir/ckpt_base.jsonl" 2> /dev/null
# 2-shard soak smoke: the sharded engine must stream the byte-identical
# JSONL the sequential baseline just produced.
target/release/ripsim soak configs/soak_ckpt.json --threads 2 \
  > "$bench_dir/ckpt_sharded.jsonl" 2> /dev/null \
  || { echo "2-shard soak smoke exited nonzero"; exit 1; }
cmp "$bench_dir/ckpt_sharded.jsonl" "$bench_dir/ckpt_base.jsonl" \
  || { echo "2-shard soak stream is not byte-identical to the sequential one"; exit 1; }
# Checkpointing under the sharded engine must be refused with the typed
# error — never a silently wrong resume.
if target/release/ripsim soak configs/soak_ckpt.json --threads 2 --checkpoint-every 25 \
     > /dev/null 2> "$bench_dir/ckpt_sharded_reject.log"; then
  echo "sharded checkpointed soak unexpectedly exited zero"; exit 1
fi
grep -q 'requires the sequential engine' "$bench_dir/ckpt_sharded_reject.log" \
  || { echo "sharded checkpoint produced no typed rejection"; exit 1; }
snap="$bench_dir/soak.snapshot"
target/release/ripsim soak configs/soak_ckpt.json \
  --checkpoint-every 25 --checkpoint-path "$snap" \
  > "$bench_dir/ckpt_part1.jsonl" 2> /dev/null &
ckpt_pid=$!
for _ in $(seq 1 2000); do
  [ -f "$snap" ] && break
  sleep 0.01
done
sleep 0.3
kill -9 "$ckpt_pid" 2> /dev/null || true
wait "$ckpt_pid" 2> /dev/null || true
test -f "$snap" || { echo "checkpointing soak wrote no snapshot"; exit 1; }
target/release/ripsim soak configs/soak_ckpt.json --resume "$snap" \
  > "$bench_dir/ckpt_part2.jsonl" 2> "$bench_dir/ckpt_resume.log" \
  || { echo "resume from snapshot failed"; exit 1; }
keep="$(grep -o 'keep_lines=[0-9]*' "$bench_dir/ckpt_resume.log" | cut -d= -f2)"
test -n "$keep" || { echo "resume reported no keep_lines"; exit 1; }
head -n "$keep" "$bench_dir/ckpt_part1.jsonl" \
  | cat - "$bench_dir/ckpt_part2.jsonl" > "$bench_dir/ckpt_merged.jsonl"
cmp "$bench_dir/ckpt_merged.jsonl" "$bench_dir/ckpt_base.jsonl" \
  || { echo "killed-and-resumed soak stream is not byte-identical"; exit 1; }
# A truncated snapshot (with no .prev fallback) must be rejected cleanly.
head -c 512 "$snap" > "$bench_dir/trunc.snapshot"
if target/release/ripsim soak configs/soak_ckpt.json \
     --resume "$bench_dir/trunc.snapshot" \
     > /dev/null 2> "$bench_dir/ckpt_trunc.log"; then
  echo "resume from a truncated snapshot unexpectedly exited zero"; exit 1
fi
grep -q 'truncated' "$bench_dir/ckpt_trunc.log" \
  || { echo "truncated snapshot produced no typed error"; exit 1; }

echo "==> fleet collector smoke (2 plane workers over TCP, byte-identical merge, profiler on)"
target/release/ripsim collect configs/fleet_small.json --oracle \
  > "$bench_dir/fleet_oracle.jsonl" 2> /dev/null \
  || { echo "fleet oracle run failed"; exit 1; }
target/release/ripsim collect configs/fleet_small.json --profile \
  --listen 127.0.0.1:0 --port-file "$bench_dir/fleet.port" \
  --timeout-ms 60000 \
  --metrics 127.0.0.1:0 --metrics-port-file "$bench_dir/fleet_metrics.port" \
  --metrics-hold-ms 8000 \
  > "$bench_dir/fleet_merged.jsonl" 2> "$bench_dir/fleet_collect.log" &
collect_pid=$!
for _ in $(seq 1 100); do
  [ -s "$bench_dir/fleet.port" ] && break
  sleep 0.1
done
test -s "$bench_dir/fleet.port" || { echo "collector never published its port"; exit 1; }
fleet_port="$(tr -d '[:space:]' < "$bench_dir/fleet.port")"
target/release/ripsim plane-worker configs/fleet_small.json --profile \
  --worker 0 --planes 0,2 --connect "127.0.0.1:$fleet_port" 2> /dev/null &
w0_pid=$!
target/release/ripsim plane-worker configs/fleet_small.json --profile \
  --worker 1 --planes 1,3 --connect "127.0.0.1:$fleet_port" 2> /dev/null &
w1_pid=$!
wait "$w0_pid" || { echo "plane worker 0 exited nonzero"; exit 1; }
wait "$w1_pid" || { echo "plane worker 1 exited nonzero"; exit 1; }
# Scrape the fleet endpoint while the collector holds it open: the
# merged families must carry per-plane source labels, the
# ripsim_build_info / uptime preamble, and — with --profile on both
# ends — the collector's own phases plus the worker records it merged
# under their w<NN>/ source prefix.
scrape_metrics "$bench_dir/fleet_metrics.port" "$bench_dir/fleet_scrape.txt" \
  'source="plane00"' \
  '^ripsim_profile_phase_seconds_total{source="collect"' \
  '^ripsim_profile_records_total{source="w00/plane00"} [0-9]' \
  || true # asserted below, after the collector is reaped
wait "$collect_pid" || { echo "fleet collector exited nonzero"; exit 1; }
grep -q 'source="plane00"' "$bench_dir/fleet_scrape.txt" \
  || { echo "fleet scrape never returned per-plane families"; exit 1; }
grep -q '^ripsim_build_info{version="' "$bench_dir/fleet_scrape.txt" \
  || { echo "fleet scrape is missing ripsim_build_info"; exit 1; }
grep -q '^ripsim_uptime_seconds ' "$bench_dir/fleet_scrape.txt" \
  || { echo "fleet scrape is missing ripsim_uptime_seconds"; exit 1; }
grep -q '^ripsim_profile_phase_seconds_total{source="collect"' "$bench_dir/fleet_scrape.txt" \
  || { echo "fleet scrape carries no collector profile phases"; exit 1; }
grep -q '^ripsim_profile_records_total{source="w00/plane00"} [0-9]' "$bench_dir/fleet_scrape.txt" \
  || { echo "fleet scrape carries no merged per-worker profile records"; exit 1; }
cmp "$bench_dir/fleet_merged.jsonl" "$bench_dir/fleet_oracle.jsonl" \
  || { echo "fleet merged stream is not byte-identical to the single-process oracle"; exit 1; }

echo "==> fleet killed-worker smoke (typed watchdog event, nonzero exit, no hang)"
target/release/ripsim plane-worker configs/fleet_small.json \
  --worker 5 --planes 0,1,2,3 --out "$bench_dir/fleet_w5.bin" 2> /dev/null \
  || { echo "file-mode plane worker failed"; exit 1; }
w5_bytes="$(wc -c < "$bench_dir/fleet_w5.bin")"
head -c "$((w5_bytes / 2))" "$bench_dir/fleet_w5.bin" > "$bench_dir/fleet_w5_cut.bin"
if target/release/ripsim collect configs/fleet_small.json \
     --from "$bench_dir/fleet_w5_cut.bin" \
     > "$bench_dir/fleet_cut.jsonl" 2> "$bench_dir/fleet_cut.log"; then
  echo "collector on a killed worker stream unexpectedly exited zero"; exit 1
fi
grep -q 'worker 5 lost' "$bench_dir/fleet_cut.log" \
  || { echo "killed worker raised no typed collector error"; exit 1; }
grep -q 'WorkerLost' "$bench_dir/fleet_cut.jsonl" \
  || { echo "killed worker emitted no WorkerLost watchdog record"; exit 1; }

echo "CI OK"
