"""wildrows benchmark.

    python3 wrbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its `src`.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 reports the end-to-end metrics of
timed passes over the workload's queries, --trace 1 the per-layer metrics of
a traced replay of the same queries.  See wrbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

from measure import (
    BENCH_DIR,
    SRC,
    QueryTimeout,
    SpeedGauge,
    environment,
    median_child_ms,
    percentile,
    self_peak_rss_mb,
    time_limit,
    time_to_ready,
)
from spans import Tracer

QUERY_LIMIT_S = 30.0  # one query, or one check of one query
RUN_LIMIT_S = 150.0  # everything after start-up; the run must end within 180 s
MIN_SAMPLES = 100  # p90 needs ten samples beyond it
SETUP_PROBES = 9
INTERPRETER_PROBES = 5


class Run:
    """Bookkeeping of one benchmark run: the deadline, the queries executed
    with their status, the summary of each distinct query's first result,
    and the failures found."""

    def __init__(self, workload):
        self.wl = workload
        self.end = perf_counter() + RUN_LIMIT_S
        self.results: dict[int, object] = {}
        self.executed: list[tuple[int, float, bool]] = []  # (query index, seconds, ok)
        self.errors: list[str] = []

    def limit(self) -> float:
        left = self.end - perf_counter()
        if left <= 0:
            raise QueryTimeout("run limit reached")
        return min(QUERY_LIMIT_S, left)

    def note(self, msg: str) -> None:
        self.errors.append(msg)
        if len(self.errors) <= 5:
            print(f"failure: {msg}", file=sys.stderr)

    def guarded(self, label: str, fn, *args):
        """fn(*args) under the wall-clock limit; (result, seconds, ok).  An
        exception or a timeout is a failure of the call."""
        t0 = perf_counter()
        try:
            with time_limit(self.limit()):
                result = fn(*args)
        except QueryTimeout as e:
            self.note(f"{label}: timed out ({e})")
            return None, perf_counter() - t0, False
        except Exception:
            self.note(f"{label}: {traceback.format_exc(limit=3)}")
            return None, perf_counter() - t0, False
        return result, perf_counter() - t0, True

    def execute(self, i: int, run) -> None:
        q = self.wl.queries[i]
        result, seconds, ok = self.guarded(f"query {i} {q}", run, q)
        if ok:
            summary, _, ok = self.guarded(f"summary {i} {q}", self.wl.summarize, q, result)
            del result
        if ok:
            if i not in self.results:
                self.results[i] = summary
            elif summary != self.results[i]:
                self.note(f"query {i} {q}: repeated run gave another result")
                ok = False
        self.executed.append((i, seconds, ok))

    def check(self, check_fn) -> tuple[set[int], bool]:
        """Check each distinct result once with check_fn(index, result),
        then the workload's self checks; (indices with wrong answers, self
        checks passed)."""
        bad = set()
        for i, result in self.results.items():
            error, _, ok = self.guarded(f"check {i}", check_fn, i, result)
            if error:
                self.note(f"query {i}: {error}")
            if error or not ok:
                bad.add(i)
        errors, _, ok = self.guarded("self checks", self.wl.self_checks)
        for e in errors or []:
            self.note(f"self check: {e}")
        return bad, ok and not errors

    def tally(self, bad: set[int], self_ok: bool) -> tuple[int, int]:
        """(attempted, failed) over the executed queries and the self checks."""
        failed = sum(1 for i, _, ok in self.executed if not ok or i in bad)
        return len(self.executed) + 1, failed + (not self_ok)


def end_to_end(wl, seconds: float, seed: int, setup: list[tuple[float, float]]) -> dict:
    run = Run(wl)
    queries = wl.queries
    gauge = wl.speed_gauge()
    started = []  # start of each executed query, for the speed gauge
    passes = 0
    t_start = perf_counter()
    # whole passes only, so every query is timed equally often and the mix
    # measured depends on the seed alone, not on the speed of the library
    while (perf_counter() - t_start < seconds or len(run.executed) < MIN_SAMPLES) \
            and perf_counter() < run.end:
        for i in range(len(queries)):
            if perf_counter() >= run.end:
                break
            gauge.tick()
            started.append(perf_counter())
            run.execute(i, wl.run)
        passes += 1
    gauge.measure()
    measured_s = perf_counter() - t_start
    peak_rss_mb = wl.peak_rss_mb(self_peak_rss_mb())
    bad, self_ok = run.check(lambda i, summary: wl.check(queries[i], summary))
    attempted, failed = run.tally(bad, self_ok)
    unrun = len(queries) - len({i for i, _, _ in run.executed})
    if unrun:
        run.note(f"run limit reached with {unrun} queries never run")
        attempted, failed = attempted + unrun, failed + unrun

    # (query, wall seconds, seconds on the reference core) of good samples
    good = [(i, s, s * gauge.factor(t)) for (i, s, ok), t in zip(run.executed, started)
            if ok and i not in bad]
    times_ms = [ref * 1e3 for _, _, ref in good] or [0.0]
    wall_ms = [s * 1e3 for _, s, _ in good] or [0.0]
    rates = [wl.size(queries[i], run.results[i])[1] / ref for i, _, ref in good]
    sizes = [wl.size(q, run.results[i]) for i, q in enumerate(queries) if i in run.results]
    metrics = {
        "setup_s": (statistics.median(ref for _, ref in setup), "s"),
        "query_ms_p50": (statistics.median(times_ms), "ms"),
        "query_ms_p90": (percentile(times_ms, 90), "ms"),
        # geometric means: answer counts span orders of magnitude between
        # queries, and a plain ratio of sums would follow the largest few
        "answers_per_s": (geometric_mean(rates), "1/s"),
        "rows_per_answer": (geometric_mean([r / a for r, a in sizes if a]), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    info = {"samples": len(run.executed), "queries": len(queries), "passes": passes,
            "setup_probes": len(setup), "measured_s": round(measured_s, 3),
            "calibrations": len(gauge.at),
            "calibration_ms_median": round(statistics.median(gauge.probe_s) * 1e3, 4),
            # the same figures in plain wall time, not scaled to the reference core
            "wall": {"setup_s": round(statistics.median(s for s, _ in setup), 4),
                     "query_ms_p50": round(statistics.median(wall_ms), 4),
                     "query_ms_p90": round(percentile(wall_ms, 90), 4)}}
    return finish(wl, seed, attempted, failed, metrics, info)


def per_layer(wl, seconds: float, seed: int, workdir: Path) -> dict:
    from workloads import Cli

    run = Run(wl)
    items = [(wl, q) for q in wl.queries]
    if wl.name != "cli":
        # one small call of each CLI kind, replayed in-process, so that every
        # layer is timed in every traced run
        sweep = Cli(seed, workdir, variants=1, large=False)
        items += [(sweep, q) for q in sweep.queries]
    passes = []  # (untraced seconds, traced seconds, tracer) per pass
    mismatched = set()
    t_start = perf_counter()
    while not passes or (perf_counter() - t_start < seconds and perf_counter() < run.end):
        tr = Tracer()
        spent = {"untraced": 0.0, "traced": 0.0}
        for i, (owner, q) in enumerate(items):
            # each query runs untraced and traced back to back, in alternating
            # order, so drifts of machine speed hit both sides alike
            modes = [("untraced", owner.replay, (q,)), ("traced", owner.run_traced, (q, tr))]
            if (i + len(passes)) % 2:
                modes.reverse()
            out = {}
            for label, fn, args in modes:
                result, s, ok = run.guarded(f"{label} query {i} {q}", fn, *args)
                spent[label] += s
                run.executed.append((i, s, ok))
                if ok:
                    out[label] = result
            if len(out) < 2:
                continue
            if owner.render(q, out["untraced"]) != owner.render(q, out["traced"]):
                run.note(f"query {i} {q}: traced rows differ from untraced rows")
                mismatched.add(i)
            run.results.setdefault(i, out["untraced"])
        passes.append((spent["untraced"], spent["traced"], tr))
    bad, self_ok = run.check(lambda i, result: items[i][0].check_replay(items[i][1], result))
    bad |= mismatched
    try:
        interpreter = median_child_ms([sys.executable, "-c", "pass"], INTERPRETER_PROBES, 30)
        with_import = median_child_ms([sys.executable, "-c", "import wildrows"], INTERPRETER_PROBES, 30)
    except (RuntimeError, QueryTimeout) as e:
        run.note(f"interpreter probe: {e}")
        self_ok = False
        interpreter = with_import = 0.0
    attempted, failed = run.tally(bad, self_ok)

    tracers = [tr for _, _, tr in passes]

    def ms(name, self_time=False):
        return statistics.median(t.self_ms(name) if self_time else t.ms(name) for t in tracers)

    untraced_ms = statistics.median(u for u, _, _ in passes) * 1e3
    traced_ms = statistics.median(t for _, t, _ in passes) * 1e3
    tr = tracers[0]
    counts = tr.counts
    sons, killed = counts["engine.candidate_sons"], counts["engine.killed_candidates"]
    metrics = {
        "core.poset_build_ms": (ms("core.poset_build"), "ms"),
        "core.tree_build_ms": (ms("core.tree_build"), "ms"),
        "cli.import_ms": (with_import - interpreter, "ms"),
        "cli.interpreter_ms": (interpreter, "ms"),
        "abrows.enumerate_ms": (ms("abrows.enumerate"), "ms"),
        "abrows.rows": (counts["abrows.rows"], "count"),
        "abrows.cardinality_poly_ms": (ms("abrows.cardinality_poly"), "ms"),
        "core.poly_sum_ms": (ms("core.poly_sum"), "ms"),
        "rankpoly.recursive_ms": (ms("rankpoly.recursive"), "ms"),
        "rankpoly.leaves": (counts["rankpoly.leaves"], "count"),
        "engine.self_ms": (ms("engine.enumerate", self_time=True), "ms"),
        "engine.impositions": (counts["engine.impositions"], "count"),
        "engine.carryovers": (counts["engine.carryovers"], "count"),
        "engine.candidate_sons": (sons, "count"),
        "engine.killed_candidates": (killed, "count"),
        "engine.final_rows": (counts["engine.final_rows"], "count"),
        "engine.son_yield": ((sons - killed) / sons if sons else 0.0, "ratio"),
    }
    for layer in ("ideals", "subtrees"):
        metrics[f"{layer}.base_ms"] = (ms(f"{layer}.base"), "ms")
        if layer == "subtrees":
            metrics["subtrees.implications"] = (counts["subtrees.implications"], "count")
        for part in ("oracle", "closure"):
            metrics[f"{layer}.{part}_calls"] = (tr.calls[f"{layer}.{part}"], "count")
            metrics[f"{layer}.{part}_ms"] = (ms(f"{layer}.{part}"), "ms")
    metrics["closure.calls"] = (tr.calls["closure.close_mask"], "count")
    metrics["closure.decrements"] = (counts["closure.decrements"], "count")
    metrics["trace.overhead_ms"] = (traced_ms - untraced_ms, "ms")
    info = {"traced_queries": len(items), "passes": len(passes),
            "untraced_pass_ms": round(untraced_ms, 3), "traced_pass_ms": round(traced_ms, 3)}
    return finish(wl, seed, attempted, failed, metrics, info)


def geometric_mean(values: list[float]) -> float:
    return statistics.geometric_mean(values) if values else 0.0


def finish(wl, seed, attempted, failed, metrics, info) -> dict:
    """Print the run record and a metric table; return the result object."""
    print(json.dumps({"workload": wl.name, "seed": seed, **info, "env": environment()}))
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:16.6f} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def setup_probe(workload: str, seed: int) -> None:
    """Child side of the set-up measurement: import, generate, warm up."""
    from workloads import WORKLOADS

    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR))
    try:
        WORKLOADS[workload](seed, workdir).warm_up()
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["whitney", "kideals", "ksubtrees", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "wildrows" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    setup = []  # (wall seconds, seconds on the reference core) per probe
    if not args.trace:
        probe = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                 "--workload", args.workload, "--seed", str(args.seed)]
        gauge = SpeedGauge.interpreter()
        started = []
        for _ in range(SETUP_PROBES):
            gauge.measure()
            started.append(perf_counter())
            setup.append(time_to_ready(probe, 60))
        gauge.measure()
        setup = [(s, s * gauge.factor(t)) for s, t in zip(setup, started)]

    from workloads import WORKLOADS

    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR))
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.warm_up()
        if args.trace:
            result = per_layer(wl, args.seconds, args.seed, workdir)
        else:
            result = end_to_end(wl, args.seconds, args.seed, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
