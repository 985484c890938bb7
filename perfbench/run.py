#!/usr/bin/env python3
"""Trace-replay benchmark of the byc workspace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload stream-decode --seed 1 --seconds 10 --trace 0

The script builds the `perfbench` worker (perfbench/Cargo.toml) in
release mode, then times one workload in separate worker processes:
set-up, repeated runs for `--seconds`, and the output checks. The last
line of stdout is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`. Each invocation also writes its own
record under perfbench/records/. The exit status is 0 only when every
output check holds; see perfbench/README.md for the workloads, the
metrics and how to read a traced run.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# BENCHMARK.json lists the workloads the benchmark is judged on; the
# other two run by hand (see "Workloads" in README.md).
WORKLOADS = ("stream-decode", "mem-thin-cache", "stream-observed", "stream-sharded")

# Set-ups timed per invocation; setup_s is their median.
SETUP_REPEATS = 5
# Fewest timed runs per invocation, however short --seconds is.
MIN_RUNS = 3

GIB = float(1 << 30)
MIB = float(1 << 20)

# (name, unit) of every metric, in BENCHMARK.json order.
END_TO_END = (
    ("queries_per_s", "queries/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)
PER_LAYER = (
    ("workload.decode_s", "s"),
    ("workload.decode_mib_per_s", "MiB/s"),
    ("workload.decode_queries", "count"),
    ("workload.generate_s", "s"),
    ("workload.encode_write_s", "s"),
    ("workload.trace_bytes_per_query", "B/query"),
    ("sql.parse_s", "s"),
    ("sql.analyze_s", "s"),
    ("engine.yield_s", "s"),
    ("federation.compile_s", "s"),
    ("federation.slices", "count"),
    ("federation.slices_per_query", "ratio"),
    ("federation.replay_self_s", "s"),
    ("federation.wan_cost_gib", "GiB"),
    ("federation.retries", "count"),
    ("federation.retried_gib", "GiB"),
    ("federation.degraded_queries", "count"),
    ("core.decide_s", "s"),
    ("core.decide_ns_per_access", "ns"),
    ("core.decisions", "count"),
    ("core.hits", "count"),
    ("core.bypasses", "count"),
    ("core.loads", "count"),
    ("core.evictions", "count"),
    ("core.evictions_per_load", "ratio"),
    ("core.useful_load_ratio", "ratio"),
    ("core.shard_decide_s_max", "s"),
    ("core.shard_imbalance", "ratio"),
    ("process.cpu_per_wall", "ratio"),
    ("telemetry.observe_s", "s"),
    ("telemetry.event_log_bytes", "B"),
    ("analysis.render_s", "s"),
    ("trace_overhead_s", "s"),
)

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


class BenchError(Exception):
    """A step that cannot produce a result: the benchmark prints none."""


def summary(values):
    """Median and quartiles of `values`, as statistics.quantiles(n=4)
    gives them (the exclusive method), plus the sample count."""
    values = list(values)
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        only = values[0]
        return {"median": only, "q1": only, "q3": only, "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def ratio(part, whole):
    return part / whole if whole else 0.0


def build():
    """Build the worker; return the path of its executable."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates")
    ):
        raise BenchError(f"{ROOT} is not a byc workspace checkout (no Cargo.toml or crates/)")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo",
        "build",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        os.path.join(HERE, "Cargo.toml"),
    ]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        raise BenchError("building the perfbench worker failed")
    binary = os.path.join(target, "release", "perfbench")
    if not os.path.isfile(binary):
        raise BenchError(f"no worker executable at {binary}")
    return binary


class Worker:
    """Runs worker steps, each in its own process."""

    def __init__(self, binary, workload, seed, workdir):
        self.binary = binary
        self.workload = workload
        self.seed = seed
        self.workdir = workdir

    def step(self, name, traced=False):
        """Run one step. Returns (output, process stats); output is None
        when the step failed."""
        cmd = [self.binary, name, self.workload, str(self.seed), self.workdir]
        if traced:
            cmd.append("--trace")
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
        stdout = proc.stdout.read()
        proc.stdout.close()
        # wait4 reaps the child and returns its own resource usage, so
        # peak memory and CPU time are isolated per step.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - start
        stats = {
            "exit": proc.returncode,
            "wall_s": wall,
            "peak_rss_mib": usage.ru_maxrss * 1024 / MIB,
            "cpu_s": usage.ru_utime + usage.ru_stime,
        }
        output = None
        lines = stdout.decode("utf-8", "replace").strip().splitlines()
        if lines:
            try:
                output = json.loads(lines[-1])
            except ValueError:
                output = None
        if proc.returncode != 0 and name != "check":
            output = None
        return output, stats

    def setups(self, count, traced=False):
        outs = []
        for _ in range(count):
            out, _ = self.step("setup", traced)
            if out is None:
                raise BenchError(f"set-up of {self.workload} failed")
            outs.append(out)
        return outs


def run_is_sound(out, reference_wan):
    """A run's own checks: every query replayed, delivery conserved, and
    the same WAN total as the checked reference replay."""
    return (
        out["queries"] == out["expected_queries"]
        and out["conserves"]
        and out["wan_bytes"] == reference_wan
    )


def reference_wan(workload, check):
    """The WAN bytes a run must report, from the check step's reports:
    file workloads list [streamed, reference]; mem-thin-cache lists
    [compiled, streamed] per cache fraction."""
    wan = check["wan_bytes"]
    if workload == "mem-thin-cache":
        return sum(wan[0::2])
    return wan[0]


def timed_runs(worker, seconds, kinds):
    """Alternate run steps of each kind in `kinds` (traced or not) until
    `seconds` have passed and each kind has MIN_RUNS runs."""
    runs = {kind: [] for kind in kinds}
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or min(len(r) for r in runs.values()) < MIN_RUNS:
        for kind in kinds:
            runs[kind].append(worker.step("run", traced=kind))
    return runs


def tally(runs, ref, expected):
    """(attempted, failed) queries over `runs`, `expected` queries per
    timed repetition. A failed or unsound run counts all of its queries
    as failed; a run process that died counts one repetition."""
    attempted = failed = 0
    for out, _ in runs:
        queries = expected * len(out["walls_s"]) if out else expected
        attempted += queries
        if out is None or not run_is_sound(out, ref):
            failed += queries
    return attempted, failed


def measure(worker, seconds, traced):
    """Time one workload. Returns (correct, attempted, failed, metrics,
    record details)."""
    if traced:
        setups = worker.setups(1, traced=True)
    else:
        setups = worker.setups(SETUP_REPEATS)
    setup = setups[-1]
    expected = setup["queries"] * len(setup["cache_fractions"])
    kinds = (False, True) if traced else (False,)
    runs = timed_runs(worker, seconds, kinds)
    check, _ = worker.step("check")
    if check is None:
        raise BenchError(f"the output checks of {worker.workload} could not run")
    ref = reference_wan(worker.workload, check)
    correct = bool(check["ok"])
    for failure in check.get("failures", []):
        print(f"check failed: {failure['failure']}", file=sys.stderr)
    attempted = failed = 0
    for kind in kinds:
        a, f = tally(runs[kind], ref, expected)
        attempted += a
        failed += f
    correct = correct and failed == 0
    good = {kind: [(o, s) for o, s in runs[kind] if o is not None] for kind in kinds}
    if not all(good.values()):
        raise BenchError(f"no run of {worker.workload} succeeded")
    samples = {}
    if traced:
        layers, _ = worker.step("layers")
        if layers is None:
            raise BenchError(f"the layer split of {worker.workload} failed")
        metrics = layer_metrics(setup, layers, good[False], good[True], samples)
    else:
        metrics = end_to_end_metrics(setups, good[False], samples)
    details = {
        "setup": setup,
        "check": check,
        "runs": {
            ("traced" if kind else "untraced"): [dict(o, process=s) for o, s in runs[kind] if o]
            for kind in kinds
        },
        "samples": samples,
    }
    return correct, attempted, failed, metrics, details


def median_of(name, values, samples):
    s = summary(values)
    samples[name] = dict(s, values=list(values))
    return s["median"]


def end_to_end_metrics(setups, runs, samples):
    return {
        "queries_per_s": median_of(
            "queries_per_s",
            [o["queries"] / wall for o, _ in runs for wall in o["walls_s"]],
            samples,
        ),
        "setup_s": median_of("setup_s", [s["setup_s"] for s in setups], samples),
        "peak_rss_mib": median_of("peak_rss_mib", [s["peak_rss_mib"] for _, s in runs], samples),
    }


def layer_metrics(setup, layers, plain, traced, samples):
    first = traced[0][0]
    wall = median_of("traced_wall_s", [w for o, _ in traced for w in o["walls_s"]], samples)
    plain_wall = median_of("untraced_wall_s", [w for o, _ in plain for w in o["walls_s"]], samples)
    decide = median_of("core.decide_s", [o["decide_s"] for o, _ in traced], samples)
    observe = median_of("telemetry.observe_s", [o["observe_s"] for o, _ in traced], samples)
    render = median_of("analysis.render_s", [o["render_s"] for o, _ in traced], samples)
    sharded = setup["shards"] > 1
    # Shards decide in parallel: the slowest one is on the critical path.
    shard_max = median_of(
        "core.shard_decide_s_max",
        [max(o["policy_decide_s"]) if sharded else o["decide_s"] for o, _ in traced],
        samples,
    )
    imbalance = median_of(
        "core.shard_imbalance",
        [
            ratio(max(o["policy_decide_s"]), statistics.fmean(o["policy_decide_s"])) if sharded else 1.0
            for o, _ in traced
        ],
        samples,
    )
    cpu_per_wall = median_of(
        "process.cpu_per_wall", [s["cpu_s"] / s["wall_s"] for _, s in plain], samples
    )
    critical_decide = shard_max if sharded else decide
    self_time = wall - layers["decode_s"] - layers["compile_s"] - critical_decide - observe - render
    return {
        "workload.decode_s": layers["decode_s"],
        "workload.decode_mib_per_s": ratio(layers["decode_bytes"] / MIB, layers["decode_s"]),
        "workload.decode_queries": layers["decode_queries"],
        "workload.generate_s": setup["generate_s"],
        "workload.encode_write_s": setup["encode_write_s"],
        "workload.trace_bytes_per_query": ratio(setup["file_bytes"], setup["queries"]),
        "sql.parse_s": layers["parse_s"],
        "sql.analyze_s": layers["analyze_s"],
        "engine.yield_s": layers["yield_s"],
        "federation.compile_s": layers["compile_s"],
        "federation.slices": layers["slices"],
        "federation.slices_per_query": ratio(layers["slices"], layers["compiled_queries"]),
        "federation.replay_self_s": self_time,
        "federation.wan_cost_gib": first["wan_bytes"] / GIB,
        "federation.retries": first["retries"],
        "federation.retried_gib": first["retried_bytes"] / GIB,
        "federation.degraded_queries": first["degraded_queries"],
        "core.decide_s": decide,
        "core.decide_ns_per_access": ratio(decide * 1e9, first["decisions"]),
        "core.decisions": first["decisions"],
        "core.hits": first["hits"],
        "core.bypasses": first["bypasses"],
        "core.loads": first["loads"],
        "core.evictions": first["evictions"],
        "core.evictions_per_load": ratio(first["evictions"], first["loads"]),
        "core.useful_load_ratio": ratio(first["useful_loads"], first["loads"]),
        "core.shard_decide_s_max": shard_max,
        "core.shard_imbalance": imbalance,
        "process.cpu_per_wall": cpu_per_wall,
        "telemetry.observe_s": observe,
        "telemetry.event_log_bytes": first["event_log_bytes"],
        "analysis.render_s": render,
        "trace_overhead_s": wall - plain_wall,
    }


def git_revision():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the workspace sources the worker builds from, so a
    record identifies its code even outside a git repository."""
    digest = hashlib.sha256()
    tops = ["Cargo.toml", "Cargo.lock", "crates", "perfbench"]
    for top in tops:
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files = [path]
        else:
            files = []
            for base, dirs, names in os.walk(path):
                dirs[:] = sorted(d for d in dirs if d not in ("target", "work", "records"))
                files.extend(
                    os.path.join(base, n)
                    for n in sorted(names)
                    if n.endswith((".rs", ".toml", ".lock", ".py"))
                )
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def write_record(args, result, details, seconds_taken):
    setup = details["setup"]
    record = {
        "benchmark": "perfbench",
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "elapsed_s": seconds_taken,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "host": platform.machine(),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "release": setup["release"],
        "scale": setup["scale"],
        "granularity": setup["granularity"],
        "policy": setup["policy"],
        "cache_fractions": setup["cache_fractions"],
        "queries": setup["queries"],
        "trace_file_bytes": setup["file_bytes"],
        "result": result,
        "samples": details["samples"],
        "check": details["check"],
        "runs": details["runs"],
    }
    directory = os.path.join(HERE, "records")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    return path


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv):
    args = parse_args(argv)
    started = time.perf_counter()
    try:
        binary = build()
        workdir = os.path.join(HERE, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
        os.makedirs(workdir)
        try:
            worker = Worker(binary, args.workload, args.seed, workdir)
            correct, attempted, failed, values, details = measure(
                worker, args.seconds, bool(args.trace)
            )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                os.rmdir(os.path.dirname(workdir))
            except OSError:
                pass  # another invocation is still using it
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    units = dict(PER_LAYER if args.trace else END_TO_END)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    path = write_record(args, result, details, time.perf_counter() - started)
    for name, s in sorted(details["samples"].items()):
        print(
            f"{name}: median {s['median']:.6g} (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})",
            file=sys.stderr,
        )
    print(f"record: {os.path.relpath(path, ROOT)}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
