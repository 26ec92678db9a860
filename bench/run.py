"""The sphroots benchmark: one workload, measured or traced.

    python3 bench/run.py --workload regen|cli_queries|large_rank \\
        --seed N --seconds S --trace 0|1 [--size full|tiny]

Run it from the root of a checkout.  Every operation runs in a fresh
interpreter against ``src/`` of that checkout; every output is checked.

``--trace 0`` measures set-up time, then runs whole rounds of the
workload until ``--seconds`` have passed, and reports the end-to-end
metrics: throughput and set-up time, both scaled to a reference host
speed, and peak memory.  ``--trace 1`` runs a fixed amount of the workload
twice, plain
and then under the tracer, and reports per-layer calls and self times,
counts that do not depend on the machine, and the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a JSON
report with the run context and the figures that are not metrics.
``--size tiny`` shrinks every workload for the smoke test.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field

import harness
import tracer as tracing
import workloads

WORKLOADS = ("regen", "cli_queries", "large_rank")
#: rounds run by a traced run, once plain and once traced.
TRACE_ROUNDS = {"regen": 3, "cli_queries": 3, "large_rank": 1}
TIMEOUT = 150.0
#: the speed probe runs once for each this many seconds of operations,
#: and a set-up sample follows every other probe.
PROBE_EVERY_S = 0.5
#: the probe time that normalized figures are scaled to: about its mean
#: on a 2-vCPU Intel Xeon guest with Python 3.11.
PROBE_REF_S = 0.16
#: share of the fastest and of the slowest processes a trimmed mean drops.
TRIM = 0.1


@dataclass
class Round:
    """Outcome of one round: per-process walls and memory, and checks."""

    walls: list = field(default_factory=list)
    rss: list = field(default_factory=list)
    ops: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def add(self, child: harness.Child) -> None:
        self.walls.append(child.wall_s)
        self.rss.append(child.maxrss_mb)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(message)


class Probe:
    """Gauges of the host's speed and of set-up time, taken through a run.

    For each half second of operations it runs the speed probe, and after
    every other probe one set-up sample: a fresh interpreter importing
    ``sphroots.cli``.  Both see the same mix of slow and fast host states
    as the operations around them, so the run's figures can be scaled to
    the speed at which the probe takes ``PROBE_REF_S``.
    """

    PROBE = [harness.PYTHON, str(harness.BENCH / "probe.py")]
    SETUP = [harness.PYTHON, "-c", "import sphroots.cli"]

    def __init__(self, launcher: harness.Launcher):
        self.launcher = launcher
        self.walls, self.errors, self.due = [], [], 0.0
        #: (set-up time, time of the probe run just before it)
        self.setup: list[tuple[float, float]] = []

    def tick(self, op_wall: float) -> None:
        self.due += op_wall
        while self.due >= PROBE_EVERY_S:
            self.due -= PROBE_EVERY_S
            self.run()

    def run(self) -> None:
        probe = self.spawn(self.PROBE)
        self.walls.append(probe)
        if len(self.walls) % 2:
            self.setup.append((self.spawn(self.SETUP), probe))

    def spawn(self, argv: list) -> float:
        child = self.launcher.run(argv, TIMEOUT)
        if child.code != 0:
            self.errors.append(
                f"{argv[1]} exited {child.code}: "
                f"{child.stderr.decode(errors='replace')[-200:]}")
        return child.wall_s


class Workload:
    """Seeded rounds of operations; each round can run plain or traced."""

    def __init__(self, seed: int, size: str, launcher: harness.Launcher):
        self.seed, self.size, self.launcher = seed, size, launcher
        self.op_ids = itertools.count()
        self.probe: Probe | None = None

    def timed(self, argv: list) -> harness.Child:
        """Run one operation's process; let the probe follow when due."""
        child = self.launcher.run(argv, TIMEOUT)
        if self.probe is not None:
            self.probe.tick(child.wall_s)
        return child

    def rounds(self):
        raise NotImplementedError

    def run(self, ops, trace_dir: str | None) -> Round:
        raise NotImplementedError

    def query(self, out: Round, args: list, trace_dir: str | None):
        """Run one CLI query into ``out``; plain, or under the tracer."""
        if trace_dir is None:
            argv = harness.cli_argv(args)
        else:
            op = next(self.op_ids)
            argv = [harness.PYTHON, str(harness.BENCH / "child.py"), "cli",
                    "--op", str(op), "--trace",
                    os.path.join(trace_dir, f"op{op}.json"), "--", *args]
        child = self.timed(argv)
        out.add(child)
        out.ops += 1
        out.attempted += 1
        return child


class Regen(Workload):
    """``enumeration.verify_tables`` over the slice, one process per pass."""

    def rounds(self):
        units = workloads.regen_units(self.seed, self.size)
        while True:
            yield units

    def run(self, units, trace_dir):
        argv = [harness.PYTHON, str(harness.BENCH / "child.py"), "regen",
                "--units", ",".join(units)]
        if trace_dir is not None:
            op = next(self.op_ids)
            argv += ["--trace", os.path.join(trace_dir, f"regen{op}.json")]
        pinned = workloads.REGEN_PINNED_CASES[self.size]
        out = Round(attempted=pinned)
        child = self.timed(argv)
        out.add(child)
        try:
            result = json.loads(child.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            out.fail(f"regen worker exited {child.code}: "
                     f"{child.stderr.decode(errors='replace')[-300:]}", pinned)
            return out
        checked = sum(u["checked"] for u in result["units"])
        entries = sum(u["entries"] for u in result["units"])
        bad = [u["unit"] for u in result["units"] if not u["empty"]]
        out.ops = checked
        if child.code != 0 or bad or checked != pinned:
            out.fail(f"regen: exit {child.code}, non-empty diffs {bad}, "
                     f"{checked} cases checked, {pinned} pinned",
                     min(pinned, max(1, entries + abs(checked - pinned))))
        return out


class CliQueries(Workload):
    """Distinct enumerated data of rank <= 8, one CLI process per query."""

    def __init__(self, seed, size, launcher):
        super().__init__(seed, size, launcher)
        self.cases = workloads.load_refs("cli_queries")["cases"]

    def rounds(self):
        return workloads.cli_rounds(self.cases, self.seed)

    def run(self, pairs, trace_dir):
        out = Round()
        for case, command in pairs:
            args = workloads.CLI_COMMANDS[command] + workloads.datum_args(case)
            child = self.query(out, args, trace_dir)
            if child.code != 0:
                out.fail(f"{args}: exit {child.code}")
            elif sha(child.stdout) != case["stdout_sha256"][command]:
                out.fail(f"{args}: stdout differs from the reference")
        return out


class LargeRank(Workload):
    """Table-1 leaves of A-D at ranks 20-24, one CLI process per query."""

    def __init__(self, seed, size, launcher):
        super().__init__(seed, size, launcher)
        self.refs = workloads.load_refs("large_rank")["stdout_sha256"]
        sys.path.insert(0, str(harness.SRC))
        from sphroots.tables import instantiate_row
        self.instantiate_row = instantiate_row

    def rounds(self):
        return workloads.leaf_rounds(self.seed, self.size)

    def run(self, queries, trace_dir):
        out = Round()
        for query in queries:
            child = self.query(out, query["argv"], trace_dir)
            inst = self.instantiate_row(1, query["row"], query["n"],
                                        query["params"])
            if child.code != 0:
                out.fail(f"{query['key']}: exit {child.code}")
            elif sha(child.stdout) != self.refs.get(query["key"]):
                out.fail(f"{query['key']}: stdout differs from the reference")
            elif ({tuple(v) for v in json.loads(child.stdout)["spherical_roots"]}
                  != set(inst.sigma)):
                out.fail(f"{query['key']}: roots differ from the table row")
        return out


WORKLOAD_TYPES = {"regen": Regen, "cli_queries": CliQueries,
                  "large_rank": LargeRank}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# --- measuring -----------------------------------------------------------


def warm_up(launcher: harness.Launcher) -> list:
    """Compile the sources once; return three bare-interpreter start-ups.

    Raises SystemExit when the package cannot be imported.
    """
    warm = launcher.run(Probe.SETUP, TIMEOUT)
    if warm.code != 0:
        raise SystemExit("cannot import sphroots.cli: "
                         + warm.stderr.decode(errors="replace")[-500:])
    bare = [harness.PYTHON, "-c", "pass"]
    return [launcher.run(bare, TIMEOUT).wall_s for _ in range(3)]


def trimmed_mean(values: list) -> float:
    """Mean of the values left when the lowest and highest TRIM go."""
    ordered = sorted(values)
    cut = int(len(ordered) * TRIM)
    return statistics.mean(ordered[cut:len(ordered) - cut])


def tail(values: list) -> dict | None:
    """Highest percentile above the median with ten samples beyond it."""
    n = len(values)
    ordered = sorted(values)
    for p in (99.9, 99, 95, 90, 75):
        if n * (1 - p / 100) >= 10:
            return {"percentile": p, "samples": n,
                    "value": ordered[math.ceil(p / 100 * n) - 1]}
    return None


def measured_run(work: Workload, seconds: float) -> tuple[dict, dict, Round]:
    """End-to-end metrics from whole rounds, all wall clock.

    The CPU speed a shared host gives a process switches between states
    that last seconds to tens of seconds, so raw times of one run differ
    from those of the next by up to a third.  The probe runs through the
    run and sees the same mix of states, so the throughput is scaled by
    the probe's time, and each set-up sample by the probe run just before
    it.  Throughput and probe time are trimmed means: a few rank-8 CLI
    queries cost five times the typical one, and how many of them a seed
    draws would otherwise move the figure.  The raw figures are reported
    beside the scaled ones.
    """
    interp = warm_up(work.launcher)
    work.probe = probe = Probe(work.launcher)
    probe.run()
    rounds = []
    start = time.perf_counter()
    for ops in work.rounds():
        rounds.append(work.run(ops, None))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            break
        # do not start a round that would end far past the time asked for
        typical = statistics.median(sum(r.walls) for r in rounds)
        if len(rounds) >= 2 and elapsed + typical > 1.25 * seconds:
            break
    elapsed = time.perf_counter() - start
    total = merge(rounds)
    for message in probe.errors:
        total.fail(message)
    walls = total.walls
    latency_tail = tail(walls)
    ops_per_s = total.ops / sum(walls)
    typical_rate = total.ops / len(walls) / trimmed_mean(walls)
    probe_mean = trimmed_mean(probe.walls)
    setup_walls = [s for s, _ in probe.setup]
    setup_ratios = [s / p for s, p in probe.setup]
    metrics = {
        "ops_per_s_norm": (typical_rate * probe_mean / PROBE_REF_S, "ops/s"),
        "peak_rss_mb": (statistics.median(total.rss), "MB"),
        "setup_s": (statistics.median(setup_ratios) * PROBE_REF_S, "s"),
    }
    report = {
        "ops_per_s": {"value": ops_per_s, "unit": "ops/s"},
        "setup_raw_s": {"value": statistics.median(setup_walls), "unit": "s"},
        "probe_trimmed_mean_s": {"value": probe_mean, "unit": "s"},
        "latency_p50_s": {"value": statistics.median(walls), "unit": "s"},
        "failed_frac": {"value": total.failed / total.attempted,
                        "unit": "ratio"},
        "latency_tail_s": (
            {"value": latency_tail["value"], "unit": "s",
             "percentile": latency_tail["percentile"],
             "samples": latency_tail["samples"]}
            if latency_tail else
            {"value": None, "unit": "s", "samples": len(walls),
             "note": "too few samples: no percentile above the median "
                     "has ten samples beyond it"}),
        "peak_rss_max_mb": {"value": max(total.rss), "unit": "MB"},
        "interpreter_s": {"value": statistics.median(interp), "unit": "s"},
        "probe_walls_s": probe.walls,
        "setup_walls_s": setup_walls,
        "rounds": len(rounds),
        "process_walls_s": walls,
        "processes": len(walls),
        "ops": total.ops,
        "measured_s": elapsed,
    }
    return metrics, report, total


def merge(rounds: list) -> Round:
    total = Round()
    for r in rounds:
        total.walls += r.walls
        total.rss += r.rss
        total.ops += r.ops
        total.attempted += r.attempted
        total.failed += r.failed
        total.errors += r.errors[:5 - len(total.errors)]
    return total


# --- tracing -------------------------------------------------------------


def traced_run(work: Workload, name: str) -> tuple[dict, dict, Round]:
    """The same fixed rounds plain, then traced; per-layer metrics."""
    gen = work.rounds()
    count = 1 if work.size == "tiny" else TRACE_ROUNDS[name]
    fixed = [next(gen) for _ in range(count)]
    plain = merge([work.run(ops, None) for ops in fixed])
    trace_dir = tempfile.mkdtemp(prefix=".bench_tmp-", dir=harness.ROOT)
    try:
        traced = merge([work.run(ops, trace_dir) for ops in fixed])
        summaries = []
        for entry in sorted(os.listdir(trace_dir)):
            with open(os.path.join(trace_dir, entry), encoding="utf-8") as fh:
                text = fh.read()
            if text:
                summaries.append(json.loads(text))
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
    metrics, report = layer_metrics(summaries, plain, traced)
    total = merge([plain, traced])
    if len(summaries) != len(traced.walls):
        total.fail(f"{len(summaries)} trace files for "
                   f"{len(traced.walls)} traced processes")
    for problem in report["trace_check"]["problems"]:
        total.fail(problem)
    return metrics, report, total


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summaries: list, plain: Round, traced: Round):
    calls, self_s, counts = {}, {}, {}
    raised = {}
    delta_pairs = spans = checks_run = 0
    op_wall = 0.0
    missing = set()
    for s in summaries:
        for k, v in s["calls"].items():
            calls[k] = calls.get(k, 0) + v
        for k, v in s["self_s"].items():
            self_s[k] = self_s.get(k, 0.0) + v
        for k, v in s["counts"].items():
            counts[k] = counts.get(k, 0) + v
        for fn, exc, v in s["raised"]:
            raised[fn, exc] = raised.get((fn, exc), 0) + v
        delta_pairs += s["delta_pairs"]
        spans += s["spans"]
        op_wall += s["op_wall_s"]
        checks_run += s["checks_run"] or 0
        missing.update(s["missing"])

    metrics = {}
    for layer, names in tracing.TIMED.items():
        layer_self = 0.0
        for fname in names:
            full = f"{layer}.{fname}"
            metrics[f"{full}.calls"] = (calls.get(full, 0), "count")
            metrics[f"{full}.self_s"] = (self_s.get(full, 0.0), "s")
            layer_self += self_s.get(full, 0.0)
        metrics[f"{layer}.self_s"] = (layer_self, "s")
    for layer, names in tracing.COUNTED.items():
        for fname in names:
            metrics[f"{layer}.{fname}.calls"] = (
                counts.get(f"{layer}.{fname}", 0), "count")

    def n_calls(full):
        return calls.get(full, 0)

    builds = counts.get("croots.LeviDatum.__init__", 0)
    violations = raised.get(("subgroup.make_subgroup", "ClosureViolation"), 0)
    match_failures = sum(v for (fn, _), v in raised.items()
                         if fn == "tables.match_datum")
    matches = n_calls("tables.match_datum") - match_failures
    metrics.update({
        "degeneration.delta_strings.distinct": (delta_pairs, "count"),
        "degeneration.delta_strings.distinct_ratio": (
            ratio(delta_pairs, n_calls("degeneration.delta_strings")), "ratio"),
        "croots.levi_datum.builds": (builds, "count"),
        "croots.levi_datum.build_ratio": (
            ratio(builds, n_calls("croots.levi_datum")), "ratio"),
        "sphericity.knop_reduce.miss_ratio": (
            ratio(n_calls("sphericity.knop_reduce"),
                  n_calls("sphericity.is_spherical_and_rank")), "ratio"),
        "subgroup.make_subgroup.closure_violations": (violations, "count"),
        "subgroup.make_subgroup.accept_ratio": (
            1 - ratio(violations, n_calls("subgroup.make_subgroup")), "ratio"),
        "tables.match_datum.matches": (matches, "count"),
        "tables.match_datum.match_ratio": (
            ratio(matches, n_calls("tables.match_datum")), "ratio"),
        "degeneration.checks_run": (checks_run, "count"),
    })

    # self times of all spans, the root op spans included, add up to the
    # traced in-process wall of the operations; the part no package span
    # covers must stay within the tracing overhead.
    self_sum = sum(self_s.values())
    unattributed = self_s.get(tracing.OP_SPAN, 0.0)
    traced_wall, plain_wall = sum(traced.walls), sum(plain.walls)
    overhead_s = traced_wall - plain_wall
    problems = []
    if abs(self_sum - op_wall) > 1e-6 * max(1.0, op_wall):
        problems.append(f"self times sum to {self_sum} s, "
                        f"operations took {op_wall} s")
    if unattributed > max(overhead_s, 0.0) + 0.02 * op_wall:
        problems.append(f"{unattributed} s of {op_wall} s lies outside every "
                        f"package span, more than the overhead {overhead_s} s")
    traced_rate = ratio(traced.ops, traced_wall)
    plain_rate = ratio(plain.ops, plain_wall)
    metrics.update({
        "trace.ops": (traced.ops, "count"),
        "trace.spans": (spans, "count"),
        "trace.ops_per_s": (traced_rate, "ops/s"),
        "trace.untraced_ops_per_s": (plain_rate, "ops/s"),
        "trace.overhead_ratio": (ratio(plain_rate, traced_rate) - 1, "ratio"),
        "trace.self_sum_s": (self_sum, "s"),
        "trace.op_wall_s": (op_wall, "s"),
        "trace.unattributed_s": (unattributed, "s"),
    })
    report = {
        "trace_check": {"self_sum_s": self_sum, "op_wall_s": op_wall,
                        "unattributed_s": unattributed,
                        "traced_wall_s": traced_wall,
                        "untraced_wall_s": plain_wall,
                        "overhead_s": overhead_s, "problems": problems},
        "ratio_bases": {
            "degeneration.delta_strings.distinct_ratio":
                n_calls("degeneration.delta_strings"),
            "croots.levi_datum.build_ratio": n_calls("croots.levi_datum"),
            "sphericity.knop_reduce.miss_ratio":
                n_calls("sphericity.is_spherical_and_rank"),
            "subgroup.make_subgroup.accept_ratio":
                n_calls("subgroup.make_subgroup"),
            "tables.match_datum.match_ratio": n_calls("tables.match_datum"),
        },
        "untraced_failures": plain.failed,
        "functions_not_found": sorted(missing),
    }
    return metrics, report


# --- output --------------------------------------------------------------


def run_context(args) -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "commit": harness.checkout_commit(),
        "source_sha256": harness.source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_start": list(os.getloadavg()),
        "platform": platform.platform(),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(prog="bench/run.py",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    return parser.parse_args(argv)


def _terminate(signum, frame):
    # unwind, so that the running child is killed and reaped on the way out
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (harness.SRC / "sphroots" / "__init__.py").is_file():
        print(f"error: no package sources at {harness.SRC / 'sphroots'}; "
              "run from the root of a sphroots checkout", file=sys.stderr)
        return 2
    context = run_context(args)
    with harness.Launcher() as launcher:
        work = WORKLOAD_TYPES[args.workload](args.seed, args.size, launcher)
        if args.trace:
            metrics, report, total = traced_run(work, args.workload)
        else:
            metrics, report, total = measured_run(work, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"{name:50s} {value:>14.6g} {unit}")
    for name, entry in report.items():
        if isinstance(entry, dict) and "unit" in entry:
            value = "n/a" if entry["value"] is None else f"{entry['value']:.6g}"
            print(f"{name:50s} {value:>14s} {entry['unit']}")
    for message in total.errors:
        print(f"FAILED: {message}", file=sys.stderr)
    report.update(context=context, errors=total.errors)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": total.failed == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
