#!/usr/bin/env python3
"""Repository benchmark entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds the release `shbf-cli` server and the benchmark's own binaries
(into $CARGO_TARGET_DIR, default `.bench_build`), then:

* `--trace 0`: runs `perfbench-load`, which serves the workload from a
  spawned `shbf-cli serve` over loopback TCP and checks every reply, and
  prints the end-to-end metrics;
* `--trace 1`: runs the same end-to-end window; then the durable phase,
  half as long, which drives the `mixed` stream against a server with a
  WAL under `--fsync always` and periodic snapshots and ends in a
  SIGKILL-and-recover check; then `perfbench-trace`, which replays the
  workload's exact request bytes in-process through each layer's public
  functions. Prints the per-layer metrics.

The last line of standard output is the result object
`{"correct", "attempted", "failed", "metrics"}`; the line before it is the
full report with its provenance, also written under
`<target>/perfbench/results/`.
"""

import argparse
import datetime
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("query_small", "mquery_large", "mixed")
# Each child gets at most this long; the whole run must end within 180 s
# once built.
CHILD_TIMEOUT_S = 150

# End-to-end metrics: name -> (key in perfbench-load's report, unit). The
# `_norm` figures and `setup_s` are scaled by a bare loopback echo timed
# beside them (see perfbench-load); the unscaled ones are in the report.
END_TO_END = {
    "ops_per_s_norm": ("ops_per_s_norm", "1/s"),
    "latency_p50_us_norm": ("latency_p50_us_norm", "us"),
    "latency_p99_us_norm": ("latency_p99_us_norm", "us"),
    "server_cpu_us_per_op_norm": ("server_cpu_us_per_op_norm", "us"),
    "setup_s": ("setup_s_norm", "s"),
    "server_rss_mib": ("server_rss_mib", "MiB"),
}

# Per-layer metrics taken as they are: name -> (source, key, unit), where
# the source is perfbench-trace ("trace"), the end-to-end run ("load"), or
# the durable phase ("durable").
PER_LAYER = {
    "core.contains_ns": ("trace", "core.contains_ns", "ns"),
    "core.contains_batch_ns": ("trace", "core.contains_batch_ns", "ns"),
    "core.insert_ns": ("trace", "core.insert_ns", "ns"),
    "core.words_per_query": ("trace", "core.words_per_query", "count"),
    "core.fpr": ("trace", "core.fpr", "fraction"),
    "protocol.scan_ns": ("trace", "protocol.scan_ns", "ns"),
    "protocol.parse_ns": ("trace", "protocol.parse_ns", "ns"),
    "protocol.encode_ns": ("trace", "protocol.encode_ns", "ns"),
    "protocol.allocs_per_cmd": ("trace", "protocol.allocs_per_cmd", "count"),
    "engine.dispatch_ns": ("trace", "engine.dispatch_ns", "ns"),
    "engine.self_ns": ("trace", "engine.self_ns", "ns"),
    "engine.allocs_per_cmd": ("trace", "engine.allocs_per_cmd", "count"),
    "session.ns_per_cmd": ("trace", "session.ns_per_cmd", "ns"),
    "transport.bytes_in_per_op": ("load", "bytes_in_per_op", "B"),
    "transport.bytes_out_per_op": ("load", "bytes_out_per_op", "B"),
    "wal.append_us": ("trace", "wal.append_us", "us"),
    "wal.fsync_us": ("durable", "fsync_us", "us"),
    "wal.fsyncs_per_mutation": ("durable", "fsyncs_per_mutation", "count"),
    "wal.recovery_s": ("durable", "recovery_s", "s"),
    "snapshot.write_ms": ("trace", "snapshot.write_ms", "ms"),
    "snapshot.count": ("durable", "snapshots_window", "count"),
    "snapshot.stall_ms": ("durable", "snapshot_stall_ms", "ms"),
    "setup.load_keys_per_s": ("load", "load_keys_per_s", "1/s"),
    "trace.overhead_frac": ("trace", "trace.overhead_frac", "fraction"),
}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    t = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return t if os.path.isabs(t) else os.path.join(ROOT, t)


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "shbf-cli"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml"), "--bins"],
    ]
    for cmd in steps:
        if not os.path.exists(os.path.join(ROOT, "Cargo.toml")):
            fail("no Cargo.toml at the checkout root: nothing to build")
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if r.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def bench_cpu():
    """The one CPU the server, the load generator and the in-process replay
    are pinned to: the last this process may use, or None without
    `taskset`. In a closed loop server and client take turns anyway;
    pinned, no round waits for another vCPU to wake up, which on a shared
    VM took a different time from run to run. The other CPUs stay free for
    the rest of the system."""
    if shutil.which("taskset") is None:
        return None
    return max(os.sched_getaffinity(0))


def run_child(argv, cpu=None):
    """Runs a benchmark binary (pinned to `cpu` when given); returns its
    last stdout line as JSON. The child gets a process group of its own,
    so a timeout also stops any server it started."""
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    p = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                         text=True, preexec_fn=pin, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        fail(f"{os.path.basename(argv[0])} timed out")
    lines = out.strip().splitlines()
    if p.returncode != 0 or not lines:
        fail(f"{os.path.basename(argv[0])} failed (exit {p.returncode})")
    return json.loads(lines[-1])


def source_digest():
    """SHA-256 over the sources the benchmark builds (the checkout may not
    be a git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            if os.path.isfile(f):
                h.update(os.path.relpath(f, ROOT).encode())
                with open(f, "rb") as fh:
                    h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        return r.stdout.strip() or None
    except OSError:
        return None


def l2_bytes():
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for idx in sorted(os.listdir(base)):
            with open(os.path.join(base, idx, "level")) as f:
                if f.read().strip() != "2":
                    continue
            with open(os.path.join(base, idx, "size")) as f:
                size = f.read().strip()
            mult = {"K": 1 << 10, "M": 1 << 20}.get(size[-1], 1)
            return int(size.rstrip("KM")) * mult
    except OSError:
        pass
    return None


def provenance(args, load, cpu):
    m_bits = int(load["create"].split()[3])
    return {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "pinned_cpu": cpu,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "server_flags": load["server_flags"],
        "create": load["create"],
        "filter_bits_bytes": m_bits // 8,
        "filter_counter_bytes": m_bits // 2,
        "l2_bytes": l2_bytes(),
        "latency_samples": load["latency_samples"],
        "sub_windows": load["sub_windows"],
        "sub_window_rounds": load["sub_window_rounds"],
        "sub_windows_used": load["sub_windows_used"],
        "steal_ticks_window": load["steal_ticks_window"],
        "rounds_beyond_p99_per_sub_window": load["sub_window_rounds"] // 100,
        "rounds_beyond_p999": load["rounds_beyond_p999"],
        "fpr_probes": load["fpr_probes"],
    }


def layer_shares(load, trace, transport_us):
    """Each layer's share of the median end-to-end round, from the
    untraced per-layer timings (per operation, times operations per
    round)."""
    round_us = load["latency_p50_us"]
    ops = load["ops"] / load["rounds"]
    per_round = lambda ns: ns * ops / 1e3
    protocol = per_round(trace["protocol.scan_ns"] + trace["protocol.parse_ns"]
                         + trace["protocol.encode_ns"])
    parts = {
        "core": per_round(trace["engine.core_ns"]),
        "engine_self": per_round(trace["engine.self_ns"]),
        "protocol": protocol,
        "session_glue": trace["session.us_per_round"] - protocol
        - per_round(trace["engine.dispatch_ns"]),
        "transport": transport_us,
    }
    return {name: us / round_us for name, us in parts.items()}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    target = target_dir()
    build(target)
    release = os.path.join(target, "release")
    out_dir = os.path.join(target, "perfbench")
    work = os.path.join(out_dir, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    cpu = bench_cpu()
    def load_argv(workload, seconds):
        argv = [os.path.join(release, "perfbench-load"),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(seconds),
                "--server", os.path.join(release, "shbf-cli"),
                "--work-dir", os.path.join(work, "load")]
        return argv + ([] if cpu is None else ["--cpu", str(cpu)])

    trace = durable = None
    try:
        if args.trace == 0:
            load = run_child(load_argv(args.workload, args.seconds), cpu)
        else:
            # One set-up is enough here: setup_s is not reported.
            load = run_child(load_argv(args.workload, args.seconds) + ["--setups", "1"], cpu)
            # The WAL and snapshot layers' figures: the one stream with
            # writes, against a durable server.
            durable = run_child(load_argv("mixed", max(1.0, args.seconds / 2))
                                + ["--setups", "1", "--durable", "1"], cpu)
            trace = run_child([
                os.path.join(release, "perfbench-trace"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds / 2),
                "--work-dir", os.path.join(work, "trace"),
                "--spans-out", os.path.join(
                    out_dir, "spans", f"{args.workload}-seed{args.seed}.json"),
            ], cpu)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    runs = [r for r in (load, durable) if r is not None]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = failed == 0
    report = {"provenance": provenance(args, load, cpu), "trace": args.trace,
              "end_to_end": load}
    if trace is None:
        metrics = {name: {"value": load[key], "unit": unit}
                   for name, (key, unit) in END_TO_END.items()}
    else:
        sources = {"load": load, "trace": trace, "durable": durable}
        metrics = {name: {"value": sources[src][key], "unit": unit}
                   for name, (src, key, unit) in PER_LAYER.items()}
        # The rest of the end-to-end round is the loopback transport.
        transport_us = load["latency_p50_us"] - trace["session.us_per_round"]
        metrics["transport.self_us_per_round"] = {"value": transport_us, "unit": "us"}
        # Server and in-process replay must agree on the filter's answers.
        if load["fpr"] != trace["core.fpr"]:
            print(f"perfbench: fpr differs: server {load['fpr']}, "
                  f"in-process {trace['core.fpr']}", file=sys.stderr)
            correct = False
        report["layers"] = trace
        report["durable_phase"] = durable
        report["layer_shares"] = layer_shares(load, trace, transport_us)
    report["metrics"] = metrics
    results = os.path.join(out_dir, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w") as f:
        json.dump(report, f, indent=1)
    print(json.dumps(report))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
