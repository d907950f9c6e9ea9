#!/usr/bin/env python3
"""The repo benchmark: builds the simulator, runs one workload, checks it.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--size full|toy]

--seed makes SUBSEEDS inputs (simulator seeds seed*SUBSEEDS+k). Repetitions
cycle through them, each in a fresh `esm_perf` process, until --seconds have
been measured; a metric is the mean over the inputs of each input's median.
--trace 0 prints every end-to-end metric; --trace 1 adds one traced run
(`esm_perf_traced`) on the first input and prints the per-layer metrics.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. A failed output check makes the command exit nonzero.
perfbench/README.md documents workloads, metrics and checks.
"""

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("paper_sweep", "saturation")
# saturation's inputs at 4 shards. Its wall time swings by up to 2x between
# repetitions on a shared 4-vCPU host, too much for a bounded end-to-end
# metric, so it runs only in saturation's traced run and feeds sim.shard_*.
SHARDED = "saturation_sharded"
SHARDED_RUNS = 2
# Inputs per seed. Averaging over several worlds keeps one world's size
# (events, RSS, latencies) from moving a run's figures.
SUBSEEDS = 3
DEFAULT_SEED = 2007
# Reserved for confirming a later performance claim on inputs that were
# not used while the change was written.
HELD_OUT_SEED = 4099
REP_TIMEOUT_S = 170
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Per-workload floors, each checked on every run (every sweep point): a
# description and a predicate over the run's fingerprint. Taken from what
# the simulator achieved on seeds 1-20, 2007 and 4099 when this benchmark
# was added; see README.md.
NO_STALLS = ("recovery_stalled == 0", lambda p: p["recovery_stalled"] == 0)
NO_LOSS = ("packets_lost == 0", lambda p: p["packets_lost"] == 0)
FLOORS = {
    "paper_sweep": [
        ("delivery_fraction >= 0.999",
         lambda p: p["delivery_fraction"] >= 0.999),
        NO_STALLS,
        NO_LOSS,
        ("buffer_drops == 0", lambda p: p["buffer_drops"] == 0),
    ],
    "saturation": [
        ("delivery_fraction >= 0.9999",
         lambda p: p["delivery_fraction"] >= 0.9999),
        NO_STALLS,
        ("buffer_drops <= 0.1% of payload_packets",
         lambda p: p["buffer_drops"] <= 0.001 * p["payload_packets"]),
    ],
}
FLOORS[SHARDED] = FLOORS["saturation"]

# (name, unit, time base) in BENCHMARK.json order.
END_TO_END = [
    ("wall_s", "s", "host"),
    ("setup_s", "s", "host"),
    ("loop_events_per_s", "events/s", "host"),
    ("peak_rss_mb", "MB", "host"),
    ("success_rate", "ratio", "none"),
    ("model_delivery_fraction", "ratio", "sim"),
    ("model_latency_p50_ms", "ms", "sim"),
    ("model_latency_p95_ms", "ms", "sim"),
    ("model_payload_per_delivery", "ratio", "sim"),
    ("model_goodput_msgs_per_s", "msg/s", "sim"),
]

PER_LAYER = [
    ("net.topology_s", "s"),
    ("net.path_model_s", "s"),
    ("net.path_rows", "count"),
    ("net.path_model_mb", "MB"),
    ("net.closeness_s", "s"),
    ("load.plan_s", "s"),
    ("load.arrivals", "count"),
    ("harness.point_s_p50", "s"),
    ("harness.point_s_max", "s"),
    ("harness.pool_busy_fraction", "ratio"),
    ("sim.events", "count"),
    ("sim.loop_s", "s"),
    ("sim.ns_per_event", "ns"),
    ("sim.shard_windows", "count"),
    ("sim.shard_lookahead_ms", "ms"),
    ("sim.shard_cross_fraction", "ratio"),
    ("sim.shard_busy_s", "s"),
    ("sim.shard_wait_s", "s"),
    ("sim.shard_wait_share", "ratio"),
    ("sim.shard_wall_s", "s"),
    ("sim.shard_speedup", "ratio"),
    ("net.payload_packets", "count"),
    ("net.control_packets", "count"),
    ("net.bytes_mb", "MB"),
    ("net.egress_serialized", "count"),
    ("net.queue_delay_mean_ms", "ms"),
    ("net.egress_peak_depth", "count"),
    ("net.buffer_drops", "count"),
    ("net.packets_lost", "count"),
    ("core.redundancy_ratio", "ratio"),
    ("core.duplicate_payloads", "count"),
    ("core.requests_sent", "count"),
    ("core.iwant_retries", "count"),
    ("core.recovery_stalled", "count"),
    ("core.eager_deferred", "count"),
    ("core.replies_deferred", "count"),
    ("obs.tree_stats_s", "s"),
    ("trace.rows", "count"),
    ("common.allocs_per_event", "count"),
    ("common.alloc_mb", "MB"),
    ("bench.trace_overhead", "ratio"),
]


class BenchError(Exception):
    """A failure that stops the run before any result is printed."""


# --- statistics -------------------------------------------------------------


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def subseeds(seed):
    """The simulator seeds of one benchmark seed; disjoint across seeds."""
    return [seed * SUBSEEDS + k for k in range(SUBSEEDS)]


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


# --- checks -----------------------------------------------------------------


def valid_name(name):
    return NAME_RE.fullmatch(name) is not None


def compare_fingerprints(expected, actual):
    """Differences between two runs' fingerprints (lists of per-run dicts)."""
    if len(expected) != len(actual):
        return [f"{len(actual)} runs, expected {len(expected)}"]
    diffs = []
    for i, (a, b) in enumerate(zip(expected, actual)):
        for key in sorted(set(a) | set(b)):
            if a.get(key) != b.get(key):
                diffs.append(f"run {i} {key}: {b.get(key)!r} != {a.get(key)!r}")
    return diffs


def floor_violations(workload, fingerprint):
    out = []
    for i, point in enumerate(fingerprint):
        for text, holds in FLOORS[workload]:
            if not holds(point):
                out.append(f"run {i} fails floor {text}")
    return out


# --- build and host ---------------------------------------------------------


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures and builds both programs; returns their paths."""
    if not os.path.isfile(os.path.join(ROOT, "src", "harness", "experiment.cpp")):
        raise BenchError("simulator sources (src/) not found next to perfbench/")
    bdir = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j4"])
    for cmd in steps:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=880)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))
    timed = os.path.join(bdir, "esm_perf")
    traced = os.path.join(bdir, "esm_perf_traced")
    with open(timed, "rb") as f:
        if b"_ZN3esm5alloc" in f.read():
            raise BenchError("the timed program links the counting allocator")
    return timed, traced


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


# --- runs -------------------------------------------------------------------


def run_program(binary, workload, seed, size, extra=()):
    """One repetition in a fresh process: (record or None, error text, secs)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--size", size]
    cmd += list(extra)
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {REP_TIMEOUT_S} s", time.monotonic() - start
    took = time.monotonic() - start
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}", took
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), "", took
    except (ValueError, IndexError):
        return None, "unreadable output", took


def failed_points(problems, points):
    """Points a run's problems fail: those named "run i ...", or all of them
    when a problem names no point (a crash, an unwritable span file)."""
    named = set()
    for message in problems:
        match = re.match(r"run (\d+)\b", message)
        if match is None:
            return points
        named.add(int(match.group(1)))
    return len(named)


class Checker:
    """Counts runs (sweep points) attempted and failed, with the reasons.
    Every record is compared with the first record of the same seed."""

    def __init__(self, workload, points):
        self.workload = workload
        self.points = points
        self.attempted = 0
        self.failed = 0
        self.references = {}
        self.messages = []

    def add(self, label, record, error):
        self.attempted += self.points
        problems = []
        if record is None:
            problems.append(error)
        else:
            problems += record["failed_checks"]
            problems += floor_violations(self.workload, record["fingerprint"])
            reference = self.references.setdefault(record["seed"],
                                                   record["fingerprint"])
            problems += compare_fingerprints(reference, record["fingerprint"])
        if problems:
            self.failed += failed_points(problems, self.points)
            self.messages += [f"{label}: {m}" for m in problems]


def timed_reps(binary, workload, seeds, size, seconds, first, checker):
    """Fresh-process repetitions after `first` (on seeds[0]), cycling through
    `seeds`, until `seconds` have been measured. A rep is not started when a
    typical rep would overrun, unless some seed has not run yet."""
    records, durations = [first[0]], [first[1]]
    start = time.monotonic() - first[1]
    while (len(durations) < len(seeds) or
           time.monotonic() - start + statistics.median(durations) <= seconds):
        seed = seeds[len(durations) % len(seeds)]
        record, error, took = run_program(binary, workload, seed, size)
        checker.add(f"rep {len(durations) + 1}", record, error)
        durations.append(took)
        if record is not None:
            records.append(record)
    return records


def end_to_end(records, setup):
    """The per-repetition end-to-end metrics: {name: [samples]}, one sample
    per record. `setup` is the median world build time of the run."""
    samples = {name: [] for name, _, _ in END_TO_END
               if name not in ("setup_s", "success_rate")}
    for r in records:
        samples["wall_s"].append(r["wall_s"])
        samples["peak_rss_mb"].append(r["peak_rss_mb"])
        events = r["counters"]["sim.events"]
        if "point_s" in r:
            # A sweep's loop time: the pool's busy time minus one world
            # build per point.
            busy = sum(r["point_s"]) - setup * r["points"]
        else:
            busy = r["wall_s"] - setup
        samples["loop_events_per_s"].append(events / busy)
        for name, value in r["model"].items():
            samples[name].append(value)
    return samples


def by_seed_mean(records, setup):
    """Each per-repetition metric as the mean over seeds of that seed's
    median, so an uneven number of repetitions per seed weighs no input
    more than another."""
    seeds = sorted({r["seed"] for r in records})
    per_seed = [end_to_end([r for r in records if r["seed"] == s], setup)
                for s in seeds]
    return {name: statistics.mean(quartiles(p[name])[1] for p in per_seed)
            for name in per_seed[0]}


def per_layer(traced, timed, serial_wall, sharded):
    """Per-layer metrics from the traced record, the timed runs of the same
    seed and, on saturation, the sharded runs."""
    layers = dict(traced["counters"])
    layers.update({k: v for k, v in traced["layers"].items()
                   if k != "harness.point_s"})
    point_s = traced["layers"]["harness.point_s"]
    _, p50, _ = quartiles(point_s)
    layers["harness.point_s_p50"] = p50
    layers["harness.point_s_max"] = max(point_s)
    wall = statistics.median(r["wall_s"] for r in timed)
    jobs = timed[0]["jobs"]
    layers["harness.pool_busy_fraction"] = sum(point_s) / (jobs * wall)
    baseline = serial_wall if serial_wall is not None else wall
    layers["bench.trace_overhead"] = traced["wall_s"] / baseline - 1.0
    layers["sim.shard_wall_s"] = 0.0
    layers["sim.shard_speedup"] = 0.0
    if sharded:
        layers.update({k: v for k, v in sharded[0]["counters"].items()
                       if k.startswith("sim.shard_")})
        shard_wall = statistics.median(r["wall_s"] for r in sharded)
        layers["sim.shard_wall_s"] = shard_wall
        layers["sim.shard_speedup"] = wall / shard_wall
    return layers


def fmt(value):
    return f"{value:.6g}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy: tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        timed_bin, traced_bin = build()
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        sys.stderr.write(f"perfbench: {e}\n")
        return 1

    load1, load5, load15 = os.getloadavg()
    print(f"perfbench {args.workload}: seed {args.seed} (held-out seed "
          f"{HELD_OUT_SEED}), size {args.size}, {args.seconds:g} s, "
          f"trace {args.trace}")
    print(f"  host: nproc {os.cpu_count()}, load average {load1:.2f} "
          f"{load5:.2f} {load15:.2f}")
    print(f"  source: commit {commit()}, digest {source_digest()}")

    seeds = subseeds(args.seed)
    print(f"  inputs: simulator seeds {', '.join(map(str, seeds))}")
    first, error, took = run_program(timed_bin, args.workload, seeds[0],
                                     args.size)
    if first is None:
        sys.stderr.write(f"perfbench: first repetition failed: {error}\n")
        return 1
    print(f"  build: {first['build']}, compiler {first['compiler']}, "
          f"points {first['points']}, jobs {first['jobs']}")
    checker = Checker(args.workload, first["points"])
    checker.add("rep 1", first, "")
    records = timed_reps(timed_bin, args.workload, seeds, args.size,
                         args.seconds, (first, took), checker)

    # Reported: setup_s is the median of every world build; the others are
    # means over seeds of per-seed medians. Quartiles are over repetitions.
    setups = [s for r in records for s in r["setup_s"]]
    setup = quartiles(setups)[1]
    samples = end_to_end(records, setup)
    samples["setup_s"] = setups
    samples["success_rate"] = [1.0 - checker.failed / checker.attempted]
    values = by_seed_mean(records, setup)
    values["setup_s"] = setup
    values["success_rate"] = samples["success_rate"][0]
    print(f"  end-to-end ({len(records)} timed repetitions over "
          f"{len(seeds)} seeds, fresh process each):")
    for name, unit, base in END_TO_END:
        q1, _, q3 = quartiles(samples[name])
        print(f"    {name:28s} {fmt(values[name]):>12s} {unit:9s} q1 {fmt(q1)} "
              f"q3 {fmt(q3)} spread {spread(samples[name]):.1%} "
              f"n={len(samples[name])} ({base})")
    print(f"    {'fail_rate':28s} {fmt(checker.failed / checker.attempted):>12s} "
          f"{'ratio':9s} {checker.failed}/{checker.attempted} runs")
    if "point_s" in first:
        per_point = [statistics.median(r["point_s"][i] for r in records)
                     for i in range(first["points"])]
        _, p50, _ = quartiles(per_point)
        print(f"    per-point time (pool of {first['jobs']}): p50 {fmt(p50)} s, "
              f"max {fmt(max(per_point))} s, points {len(per_point)}")

    metrics = {}
    if args.trace == 0:
        for name, unit, _ in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
    else:
        serial_wall = None
        if first["jobs"] > 1:
            serial, error, _ = run_program(timed_bin, args.workload, seeds[0],
                                           args.size, ["--jobs", "1"])
            checker.add("serial rep", serial, error)
            serial_wall = serial["wall_s"] if serial else None
        spans_dir = os.path.join(build_dir(), "spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans = os.path.join(spans_dir, f"{args.workload}-seed{seeds[0]}.csv")
        traced, error, _ = run_program(traced_bin, args.workload, seeds[0],
                                       args.size, ["--spans", spans])
        checker.add("traced run", traced, error)
        sharded = []
        if args.workload == "saturation":
            shard_checker = Checker(SHARDED, 1)
            for k in range(SHARDED_RUNS):
                record, error, _ = run_program(timed_bin, SHARDED, seeds[0],
                                               args.size)
                shard_checker.add(f"{SHARDED} run {k + 1}", record, error)
                if record is not None:
                    sharded.append(record)
            checker.attempted += shard_checker.attempted
            checker.failed += shard_checker.failed
            checker.messages += shard_checker.messages
        complete = serial_wall is not None or first["jobs"] == 1
        if traced is not None and complete:
            same_seed = [r for r in records if r["seed"] == seeds[0]]
            layers = per_layer(traced, same_seed, serial_wall, sharded)
            print(f"  per-layer (one traced run; spans in "
                  f"{os.path.relpath(spans, ROOT)}):")
            for name, unit in PER_LAYER:
                print(f"    {name:28s} {fmt(layers[name]):>12s} {unit}")
                metrics[name] = {"value": layers[name], "unit": unit}

    for name in metrics:
        if not valid_name(name):
            checker.messages.append(f"metric name {name!r} is malformed")
    correct = not checker.messages
    for message in checker.messages:
        print(f"  CHECK FAILED {message}")
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
