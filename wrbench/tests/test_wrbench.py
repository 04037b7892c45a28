"""Tests of the benchmark itself: a smoke run of both modes, the answer
checks, the carry-over count, and the refusal to run without sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from measure import ChildRun, time_to_ready  # noqa: E402
from wildrows import (  # noqa: E402
    Closer,
    FinalStack,
    RankPolynomial,
    Row012,
    SplitMix64,
    Tree,
    brute_oracle,
    brute_subtrees,
    candidate_sons,
    enumerate_k_models,
)
from wildrows.core import from_mask  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Shrink the workloads so a whole run takes about a second."""
    monkeypatch.setattr(run, "MIN_SAMPLES", 3)
    monkeypatch.setattr(run, "INTERPRETER_PROBES", 1)
    monkeypatch.setattr(workloads.Whitney, "CYCLE", [(4, 5, 2), (3, 4, 1)])
    monkeypatch.setattr(workloads.Whitney, "INSTANCES", 4)
    monkeypatch.setattr(workloads.KIdeals, "CYCLE", [(3, 4, 2)])
    monkeypatch.setattr(workloads.KIdeals, "INSTANCES", 2)


def test_smoke_run_both_modes(tiny, tmp_path):
    wl = workloads.Whitney(5, tmp_path)
    wl.warm_up()
    probe = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
             "--workload", "ksubtrees", "--seed", "5"]
    ready_s = time_to_ready(probe, 60)
    result = run.end_to_end(wl, 0.2, 5, [(ready_s, ready_s)])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())

    traced = run.per_layer(workloads.KIdeals(5, tmp_path), 0.1, 5, tmp_path)
    assert traced["correct"] and traced["failed"] == 0
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    layer_ms = {n: m["value"] for n, m in traced["metrics"].items() if m["unit"] == "ms"}
    del layer_ms["trace.overhead_ms"]
    assert all(v > 0 for v in layer_ms.values()), layer_ms


def test_checks_reject_corrupted_answers(tiny, tmp_path):
    wl = workloads.KIdeals(7, tmp_path)
    q = workloads.Query("k", 0, 5)
    stack = wl.run(q)
    assert wl.check(q, wl.summarize(q, stack)) is None
    dropped = FinalStack(stack.rows[:-1], stack.stats)
    assert wl.check(q, wl.summarize(q, dropped)) is not None

    wl = workloads.Whitney(7, tmp_path)
    q = wl.queries[0]
    rows, poly, rec, nsum = wl.run(q)
    assert wl.check(q, wl.summarize(q, (rows, poly, rec, nsum))) is None
    wrong = poly + RankPolynomial((0, 1))
    assert wl.check(q, wl.summarize(q, (rows, wrong, wrong, nsum))) is not None

    wl = workloads.Cli(7, tmp_path)
    q = wl.queries[1]
    stdout = wl.expected(q)[2].encode()
    assert wl.check(q, wl.summarize(q, ChildRun(0, stdout, 1))) is None
    assert wl.check(q, wl.summarize(q, ChildRun(0, stdout[:-2] + b"\n", 1))) is not None
    assert wl.check(q, wl.summarize(q, ChildRun(1, stdout, 1))) is not None


def direct_carryovers(family, k):
    """Replay the deletion-free engine with the public candidate_sons and
    count the impositions that hand back the row unchanged."""
    oracle, closer = brute_oracle(family), Closer(family)
    full = (1 << family.w) - 1

    def feasible(r):
        zeros = full & ~(r.ones_mask | r.twos_mask)
        z0 = closer.close_mask(r.ones_mask)
        return z0.bit_count() <= k and not z0 & zeros and oracle(from_mask(z0), from_mask(zeros), k)

    stack = [Row012.full(family.w)] if feasible(Row012.full(family.w)) else []
    carried = 0
    while stack:
        r = stack.pop()
        if r.pending > family.h:
            continue
        sons = candidate_sons(r, family[r.pending - 1])
        if len(sons) == 1 and (sons[0].ones_mask, sons[0].twos_mask) == (r.ones_mask, r.twos_mask):
            carried += 1
            stack.append(sons[0])
        else:
            stack.extend(reversed([s for s in sons if feasible(s)]))
    return carried


def test_carryovers_match_a_direct_count():
    seen = set()
    for seed in range(4):
        family = workloads.random_family(9, 12, seed)
        for k in range(family.w + 1):
            stats = enumerate_k_models(family, k, brute_oracle(family)).stats
            assert workloads.carryovers(stats) == direct_carryovers(family, k)
            seen.add(workloads.carryovers(stats) > 0)
    assert seen == {True, False}


def test_subtree_counts_match_brute_force():
    for seed in range(3):
        w, edges = workloads.tree_edges(4 + SplitMix64(seed).below(9), seed)
        tree = Tree(w, edges)
        assert workloads.subtree_counts(w, edges) == [len(brute_subtrees(tree, k)) for k in range(w + 1)]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "whitney", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
