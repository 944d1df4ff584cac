"""Run one finspace benchmark workload and print its metrics.

    python3 bench/run.py --workload poset-maps --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; finspace is imported from
./src.  The load is a closed loop: one caller, in one process and one
thread, sends the next query when the previous one has returned.  Passes
over the workload's query set repeat while another one fits in --seconds;
the time left goes to rounds over the queries below the 95th percentile of
latency, each sent back to back a few times if it is fast, so that
heavy-tailed workloads get more than one or two samples of each query for
p50 and p90.  Every answer is checked against the
benchmark's own reference.  Times are scaled to the host's reference
speed, sampled on a timer during the run (hostspeed.py); raw times are
printed too.

The last line of standard output is one JSON object.  With --trace 0 its
metrics are the end-to-end metrics of BENCHMARK.json.  With --trace 1 one
more pass runs with every finspace layer wrapped, and the metrics are the
per-layer ones; its spans are written to .bench_out/.  ``--workload all``
runs each workload in a process of its own.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import types
from array import array
from collections import Counter, defaultdict
from pathlib import Path

from hostspeed import HostSpeed
from tracing import PER_LAYER, Tracer
from workloads import WORKLOADS

ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_REPEATS = 15
# rounds after the last pass that fits re-time only the queries at or below
# this percentile of latency; the slower ones do not move p50 or p90
ROUND_PCT = 95
# a query in those rounds is sent back to back as many times as fit in
# ROUND_QUERY_S, at most ROUND_REPEATS, so that fast queries, whose times
# swing most, get more timings
ROUND_QUERY_S = 0.005
ROUND_REPEATS = 10
MODULES = ("space", "homotopy", "circles", "invariants", "witness", "cli")


def import_finspace():
    """A fresh import of every finspace module, as a namespace."""
    for key in [k for k in sys.modules if k == "finspace" or k.startswith("finspace.")]:
        del sys.modules[key]
    importlib.import_module("finspace")
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"finspace.{name}") for name in MODULES}
    )


def timed(speed, fn, *args):
    """(fn(*args) or the exception it raised, (seconds less host speed
    sampling, start, end))."""
    paused, t0 = speed.paused, time.perf_counter()
    try:
        answer = fn(*args)
    except Exception as exc:  # counted as a failed query, reported below
        answer = exc
    t1 = time.perf_counter()
    return answer, (t1 - t0 - (speed.paused - paused), t0, t1)


def run_round(wl, fs, queries, logs, speed, tag=-1):
    """Send each query once, in order; returns (seconds, answers).  Appends
    (tag, seconds, start, end) to the query's log, an array of doubles so
    that the logs hardly add to the run's peak RSS."""
    answers = []
    start = time.perf_counter()
    for q, log in zip(queries, logs):
        answer, timing = timed(speed, wl.query, fs, q)
        log.extend((tag, *timing))
        answers.append(answer)
    return time.perf_counter() - start, answers


def logged(log):
    """The (tag, seconds, start, end) timings in a query's log."""
    for j in range(0, len(log), 4):
        yield log[j], log[j + 1], log[j + 2], log[j + 3]


def tally(wl, queries, answers, counts: Counter):
    for q, answer in zip(queries, answers):
        if isinstance(answer, Exception):
            if not counts["exceptions"]:
                traceback.print_exception(answer, file=sys.stderr)
            counts["exceptions"] += 1
            outcomes = ["wrong"] * wl.items
        else:
            outcomes = wl.check(q, answer)
        counts.update(outcomes)
        counts["attempted"] += len(outcomes)


def git_commit(root: Path):
    """HEAD of the checkout's git repository, read from .git, or None."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "finspace").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(ROOT),
        "source_sha256": digest.hexdigest(),
    }


def percentile(values, pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "1"
    return "count"


def measure(wl, fs, queries, seconds, speed):
    """Whole passes while another fits in ``seconds``, then rounds over the
    queries at or below ROUND_PCT of latency, each sent back to back up to
    ROUND_REPEATS times, as often as fits in ROUND_QUERY_S; returns (each
    query's log, tagged with the pass number or -1, the passes' wall
    seconds, answer counts, answer counts of whole passes)."""
    n = len(queries)
    logs = [array("d") for _ in queries]
    walls, picks = [], None
    counts, pass_counts = Counter(), Counter()
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        left = seconds - (time.perf_counter() - start)
        whole = not walls or left >= statistics.median(walls)
        if whole:
            chosen = range(n)
        else:
            if picks is None:
                raw = [statistics.median(x for _, x, _, _ in logged(log)) for log in logs]
                cutoff = percentile(raw, ROUND_PCT)
                picks = [i for i in range(n) if raw[i] <= cutoff
                         for _ in range(max(1, min(ROUND_REPEATS, int(ROUND_QUERY_S / raw[i]))))]
            chosen = picks
        batch = [queries[i] for i in chosen]
        wall, answers = run_round(wl, fs, batch, [logs[i] for i in chosen], speed,
                                  len(walls) if whole else -1)
        tally(wl, batch, answers, counts)
        if whole:
            walls.append(wall)
            tally(wl, batch, answers, pass_counts)
    return logs, walls, counts, pass_counts


def run_workload(args) -> int:
    wl = WORKLOADS[args.workload]
    sys.path.insert(0, str(SRC))

    def set_up():
        fs = import_finspace()
        return fs, wl.generate(fs, args.seed)

    with HostSpeed() as speed:
        setups = []
        for _ in range(SETUP_REPEATS):
            (fs, queries), timing = timed(speed, set_up)
            setups.append(timing)
        logs, pass_wall, counts, pass_counts = measure(wl, fs, queries, args.seconds, speed)
    # decided_ratio comes from whole passes, so it does not depend on how
    # many rounds over the faster queries fit in the run
    attempted = pass_counts["attempted"]
    decided = attempted - pass_counts["undecided"]
    # a query's latency is the median of its timings, so one slow round or
    # a boundary between clusters of similar queries does not move p50/p90
    per_query, per_query_raw, factors = [], [], []
    pass_sums = defaultdict(float)  # a pass's time is the sum of its queries' scaled times
    for log in logs:
        scaled, raw, fac = [], [], []
        for tag, seconds, t0, t1 in logged(log):
            fac.append(speed.factor(t0, t1))
            raw.append(seconds)
            scaled.append(seconds * fac[-1])
            if tag >= 0:
                pass_sums[tag] += scaled[-1]
        per_query.append(statistics.median(scaled))
        per_query_raw.append(statistics.median(raw))
        factors.append(statistics.median(fac))
    pass_s = statistics.median(pass_sums.values())
    p90 = percentile(per_query, 90)
    samples = sorted(len(log) // 4 for log in logs)

    print(f"workload {args.workload}  seed {args.seed}  closed loop: 1 caller, "
          f"1 thread, {len(queries)} queries per pass, {wl.items} answers per query")
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"host speed: {len(speed.times)} samples; queries' times scaled by {min(factors):.3f} "
          f"to {max(factors):.3f}, median {statistics.median(factors):.3f}")
    metrics = {
        "setup_s": (statistics.median(speed.scale(*x) for x in setups), "s",
                    f"median of {len(setups)} set-ups: import finspace + input generation; "
                    f"raw {statistics.median(x for x, _, _ in setups):.4g} s"),
        "pass_s": (pass_s, "s", f"median of {len(pass_wall)} passes, tracing off; scaled min "
                   f"{min(pass_sums.values()):.4g} max {max(pass_sums.values()):.4g}; raw wall "
                   f"median {statistics.median(pass_wall):.4g} min {min(pass_wall):.4g} max {max(pass_wall):.4g} s"),
        "query_p50_ms": (statistics.median(per_query) * 1e3, "ms",
                         f"{len(queries)} queries, each the median of its {samples[0]} to {samples[-1]} timings; "
                         f"raw {statistics.median(per_query_raw) * 1e3:.4g} ms"),
        "query_p90_ms": (p90 * 1e3, "ms", f"{len(queries)} queries, {sum(x > p90 for x in per_query)} beyond p90; "
                         f"raw {percentile(per_query_raw, 90) * 1e3:.4g} ms"),
        "decided_ratio": (decided / attempted, "1", f"{decided}/{attempted} answers in whole passes; "
                          f"{pass_counts['undecided']} undecided, {counts['unchecked']} unchecked "
                          f"by the reference in all {counts['attempted']} answers"),
        "failed_ratio": (counts["wrong"] / attempted, "1", f"{counts['wrong']}/{attempted} answers wrong or raised "
                         f"({counts['exceptions']} queries raised)"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "ru_maxrss"),
    }
    for name, (value, unit, note) in metrics.items():
        print(f"{name} {value!r} {unit}  ({note})")

    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced_s, answers = run_round(wl, fs, queries, [array("d") for _ in queries], HostSpeed())
        finally:
            tracer.uninstall()
        tally(wl, queries, answers, counts)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"spans-{args.workload}-seed{args.seed}.tsv")
        layers = tracer.layer_metrics()
        layers["trace.overhead_s"] = traced_s - statistics.median(pass_wall)
        result = {name: {"value": layers[name], "unit": layer_unit(name)} for name in PER_LAYER}
        for name, m in result.items():
            print(f"{name} {m['value']!r} {m['unit']}")
        top = sorted((k for k in layers if k.endswith(".self_s")), key=layers.get, reverse=True)[:3]
        print(f"traced pass {traced_s!r} s, {len(tracer.spans)} spans; largest self time: " + ", ".join(
            f"{k[:-7]} {layers[k]:.3f} s" for k in top))
    else:
        result = {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in metrics.items()
            if name != "failed_ratio"  # always 0 when correct; carried by "failed"
        }
    print(json.dumps({
        "correct": counts["wrong"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["wrong"],
        "metrics": result,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "finspace" / "__init__.py").is_file():
        print(f"error: no finspace sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_workload(args)
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(cmd, check=False).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
