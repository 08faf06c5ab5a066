#!/usr/bin/env python3
"""Outside-in benchmark of the RiP simulator.

Builds the `perfbench` harness (a package of its own next to this file)
and runs one workload for a fixed wall-time budget:

    python3 perfbench/run.py --workload ref-uniform --seed 42 --seconds 40 --trace 0

With `--trace 0`, every run of the workload is a separate `perfbench run`
process pinned to one CPU: a closed batch run over a fixed simulated
horizon, generated from the seed. Each run is checked (exit status, packet
conservation, report digest equal across runs and, for the default seed,
equal to `golden.json`), and the last stdout line is a JSON object of the
end-to-end metrics. Times are in reference seconds: the wall-clock median
scaled by the median calibration-kernel time (see src/calib.rs). With
`--trace 1`, one `perfbench trace` process makes paired untraced and
traced runs and the isolated layer drives, and the JSON holds the
per-layer metrics. See README.md.

`--record-golden` re-records `golden.json` (the default-seed digest of
every workload); run it only when the simulated outputs are meant to
change.
"""

import argparse
import collections
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
GOLDEN = os.path.join(HERE, "golden.json")
WORKLOADS = ("ref-uniform", "hotspot-live", "sps-uniform")
DEFAULT_SEED = 42
# Untraced runs per invocation, at least; more fill the time budget.
MIN_RUNS = 3
# A child that takes longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 150
# Share of --seconds a traced invocation spends on paired rounds; the
# isolated layer drives take the rest.
TRACE_ROUNDS_SHARE = 0.6

END_TO_END = (
    ("pkts_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_delay_p99_us", "us"),
    ("verified_frac", "frac"),
    ("delivered_frac", "frac"),
)

PER_LAYER = (
    ("run.wall_s", "s"),
    ("source.self_s", "s"),
    ("source.pkts", "count"),
    ("sink.self_s", "s"),
    ("sink.records", "count"),
    ("sink.bytes", "bytes"),
    ("switch.self_s", "s"),
    ("trace.overhead_frac", "frac"),
    ("traffic.ns_per_pkt", "ns"),
    ("frontend.ns_per_pkt", "ns"),
    ("telemetry.engine_s", "s"),
    ("batch.ns_per_pkt", "ns"),
    ("batch.batches", "count"),
    ("hbm.ns_per_frame", "ns"),
    ("hbm.frames", "count"),
    ("drain.ns_per_batch", "ns"),
    ("layers.unattributed_s", "s"),
    ("sim.peak_in_flight", "count"),
    ("switch.frames.written", "count"),
    ("switch.frames.bypass", "count"),
    ("hbm.cmd.act", "count"),
    ("telemetry.epochs", "count"),
    ("telemetry.spans", "count"),
)


class Run:
    """One child process: its JSON result, failure reason and peak RSS."""

    def __init__(self, result, error, rss_mb):
        self.result = result
        self.error = error
        self.rss_mb = rss_mb


def build():
    """Build the harness; return its path, or None if the build failed."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, check=False)
    except OSError as e:
        print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
        return None
    if done.returncode != 0 or not os.path.exists(MANIFEST):
        return None
    return os.path.join(target, "release", "perfbench")


def pin_to_one_cpu():
    """Keep a run, its plane threads and its calibration kernel on one
    CPU, so the kernel measures the CPU the run used."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def child(binary, args):
    """Run the harness once; wait for it and collect its peak RSS."""
    proc = subprocess.Popen([binary, *args], stdout=subprocess.PIPE, preexec_fn=pin_to_one_cpu)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    if proc.returncode != 0:
        return Run(None, f"exit status {proc.returncode}", rss_mb)
    try:
        result = json.loads(out.decode().strip().splitlines()[-1])
    except (ValueError, IndexError):
        return Run(None, "no result line", rss_mb)
    return Run(result, result.get("error"), rss_mb)


def run_args(cmd, workload, seed):
    return [cmd, "--workload", workload, "--seed", str(seed)]


def untraced_runs(binary, workload, seed, budget_s, min_runs):
    """Untraced runs until the next one would overrun `budget_s`."""
    runs, durations = [], []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        runs.append(child(binary, run_args("run", workload, seed)))
        durations.append(time.monotonic() - t)
        elapsed = time.monotonic() - start
        if len(runs) >= min_runs and elapsed + statistics.median(durations) > budget_s:
            return runs


def load_golden():
    try:
        with open(GOLDEN) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def verify(runs, workload, seed):
    """Fail every run whose digest differs from the reference: the
    recorded digest for the default seed, else the most common one."""
    digests = [r.result["digest"] for r in runs if r.error is None]
    if not digests:
        return
    if seed == DEFAULT_SEED:
        reference = load_golden().get(workload)
    else:
        reference = collections.Counter(digests).most_common(1)[0][0]
    for r in runs:
        if r.error is None and r.result["digest"] != reference:
            r.error = f"digest {r.result['digest']} != reference {reference}"


def median_of(runs, key):
    return statistics.median(r.result[key] for r in runs)


def host_scale(runs):
    """Reference seconds per wall second over these runs: the reference
    kernel time over the median measured kernel time (see src/calib.rs)."""
    return runs[0].result["kernel_reference_ns"] / median_of(runs, "kernel_ns")


def end_to_end(runs):
    ok = [r for r in runs if r.error is None]
    failed = len(runs) - len(ok)
    scale = host_scale(ok)
    wall_pkts_per_s = statistics.median(r.result["offered_packets"] / r.result["run_s"] for r in ok)
    wall_setup_s = median_of(ok, "setup_s")
    print(f"# wall clock: pkts_per_s {wall_pkts_per_s:.6g} 1/s, setup_s {wall_setup_s:.6g} s, "
          f"reference seconds per wall second {scale:.4f}")
    return {
        "pkts_per_s": wall_pkts_per_s / scale,
        "setup_s": wall_setup_s * scale,
        "peak_rss_mb": statistics.median(r.rss_mb for r in ok),
        "sim_delay_p99_us": median_of(ok, "delay_p99_us"),
        "verified_frac": 1.0 - failed / len(runs),
        "delivered_frac": 1.0 - median_of(ok, "loss_frac"),
    }


def report(workload, metrics, units, attempted, failed, errors):
    for e in errors:
        print(f"# {workload}: failure: {e}")
    print(f"# {workload}: {attempted} runs, {failed} failed (error_rate {failed / attempted:.4g})")
    for name, value in metrics.items():
        print(f"# {workload}: {name} = {value:.6g} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def record_golden(binary):
    golden = {}
    for w in WORKLOADS:
        runs = [child(binary, run_args("run", w, DEFAULT_SEED)) for _ in range(2)]
        digests = {r.result["digest"] for r in runs if r.error is None}
        if len(digests) != 1 or any(r.error for r in runs):
            print(f"perfbench: {w} is not reproducible: {[r.error for r in runs]}", file=sys.stderr)
            return 1
        golden[w] = digests.pop()
    with open(GOLDEN, "w") as f:
        json.dump(golden, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args()
    if not args.record_golden and args.workload is None:
        ap.error("--workload is required")

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    if args.record_golden:
        return record_golden(binary)

    if args.trace == 0:
        runs = untraced_runs(binary, args.workload, args.seed, args.seconds, MIN_RUNS)
        verify(runs, args.workload, args.seed)
        if all(r.error for r in runs):
            print(f"perfbench: every run failed: {runs[0].error}", file=sys.stderr)
            return 1
        metrics = end_to_end(runs)
        errors = [r.error for r in runs if r.error is not None]
        result = report(args.workload, metrics, dict(END_TO_END), len(runs), len(errors), errors)
    else:
        # One process makes every traced round, then the layer drives.
        rounds_s = f"{args.seconds * TRACE_ROUNDS_SHARE:.3f}"
        trace = child(binary, run_args("trace", args.workload, args.seed)
                      + ["--rounds-seconds", rounds_s])
        if trace.result is None:
            print(f"perfbench: traced run failed: {trace.error}", file=sys.stderr)
            return 1
        verify([trace], args.workload, args.seed)
        metrics = {name: trace.result[name] for name, _ in PER_LAYER}
        errors = [trace.error] if trace.error is not None else []
        # A failed check inside the traced process fails at least one run.
        failed = max(trace.result["failed"], 1) if errors else 0
        result = report(args.workload, metrics, dict(PER_LAYER), trace.result["runs"], failed,
                        errors)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
