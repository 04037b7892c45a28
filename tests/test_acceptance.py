"""Acceptance suite.

Each criterion runs at its stated tolerance (exact integer equality unless
noted) and prints one PASS/FAIL line; run with `pytest -s` to see the lines,
or rely on the per-test verdicts of `pytest -v`.

Criterion 9 is a soft scaling check: it warns instead of failing.
"""

import itertools
import time
import warnings

import pytest
import sympy

from conftest import random_poset, sets_of

from wildrows import (
    Implication,
    ImplicationFamily,
    LayeredSpec,
    Poset,
    SplitMix64,
    brute_ideals,
    brute_rank_poly,
    brute_subtrees,
    cardinality_poly,
    enumerate_k_ideals,
    enumerate_k_subtrees,
    enumerate_models,
    gen_layered_poset,
    gen_random_tree,
    parse_row,
    rank_poly_recursive,
    rowab_count,
    run_bench,
    whitney,
)
from wildrows.core import to_mask

TOY = ImplicationFamily(7, [
    Implication({5}, {6, 7}),
    Implication({6}, {3}),
    Implication({1, 2, 3}, {7}),
    Implication({3}, {4, 5}),
])

TOY_FINAL = {
    (2, 2, 1, 1, 1, 1, 1),
    (1, 1, 0, 2, 0, 0, 2),
    (1, 0, 0, 2, 0, 0, 2),
    (0, 2, 0, 2, 0, 0, 2),
}


def _verdict(num, name, ok, detail=""):
    print(f"[acceptance {num}] {name}: {'PASS' if ok else 'FAIL'}{detail}")
    assert ok, f"criterion {num} ({name}) failed{detail}"


def rows_pairwise_disjoint(stack):
    """Membership-level disjointness: two powerset intervals share a member
    iff the union of their forced ones fits inside both upper bounds (the
    witness being exactly that union)."""
    rows = stack.rows
    for i in range(len(rows)):
        hi_i = rows[i].ones_mask | rows[i].twos_mask
        for j in range(i + 1, len(rows)):
            lo = rows[i].ones_mask | rows[j].ones_mask
            hi = hi_i & (rows[j].ones_mask | rows[j].twos_mask)
            if lo & ~hi == 0:
                return False
    return True


def members_unique(stack, cap=20000):
    """Materialized double-check where affordable: every member that
    `FinalStack.sets()` lists, counted and collected as its int mask, since
    cyclic garbage collection walks every frozenset a collection holds."""
    total = sum(1 << r.twos_mask.bit_count() for r in stack.rows)
    if total > cap:
        return True
    listed, masks = 0, set()
    for member in stack.sets():
        listed += 1
        masks.add(to_mask(member))
    return listed == len(masks)


# ---------------------------------------------------------------------------
# instance batches shared by criteria 3-6

def _poset_instances():
    instances = []
    layered = [
        (1, 14), (2, 7), (7, 2), (2, 6), (3, 4), (4, 3), (2, 5), (5, 2),
        (14, 1), (3, 3), (6, 2), (2, 4), (4, 2), (13, 1),
    ]
    seed = 900
    for m, l in layered:
        for t in range(0 if l == 1 else 1, min(m, 3) + 1):
            instances.append((f"W({m},{l},{t})", gen_layered_poset(LayeredSpec(m, l, t, seed))))
            seed += 1
    rng = SplitMix64(2024)
    for i in range(50):
        w = 2 + rng.below(13)
        density = 0.1 + 0.05 * rng.below(9)
        instances.append((f"random{i}(w={w})", random_poset(rng, w, density)))
    for w in range(1, 7):
        instances.append((f"chain{w}", Poset.chain(w)))
        instances.append((f"antichain{w}", Poset.antichain(w)))
    instances.append(("vee", Poset(3, [(1, 3), (2, 3)])))
    instances.append(("diamond", Poset(4, [(1, 2), (1, 3), (2, 4), (3, 4)])))
    instances.append(("fence", Poset(5, [(1, 2), (3, 2), (3, 4), (5, 4)])))
    return instances


@pytest.fixture(scope="module")
def ideal_batch():
    started = time.perf_counter()
    records = []
    for name, p in _poset_instances():
        grouped = brute_ideals(p)
        stacks = [enumerate_k_ideals(p, k) for k in range(p.w + 1)]
        records.append((name, p.w, stacks, grouped))
    return records, time.perf_counter() - started


@pytest.fixture(scope="module")
def subtree_batch():
    started = time.perf_counter()
    records = []
    seed = 5000
    for w in range(1, 15):
        for _ in range(8):
            t = gen_random_tree(w, seed)
            seed += 1
            brute = [brute_subtrees(t, k) for k in range(w + 1)]
            stacks = [enumerate_k_subtrees(t, k) for k in range(w + 1)]
            records.append((f"tree(w={w},seed={seed - 1})", w, stacks, brute))
    return records, time.perf_counter() - started


# ---------------------------------------------------------------------------
# criteria

def test_criterion_1_toy_golden_final_stack():
    started = time.perf_counter()
    stack = enumerate_models(TOY)
    elapsed = time.perf_counter() - started
    ok = (
        len(stack.rows) == 4
        and {r.entries for r in stack.rows} == TOY_FINAL
        and stack.model_count() == 20
        and elapsed < 1.0
    )
    _verdict(1, "toy final stack equals the four golden rows, 20 models, <1s",
             ok, f" ({elapsed * 1e3:.1f} ms)")


def test_criterion_2_cardinality_polynomial_golden():
    row = parse_row("0 0 1 1 2 2 2 a1 b1 b1 a2 b2 b2 b2 a3 b3")
    poly = cardinality_poly(row)
    x = sympy.symbols("x")
    product = sympy.Poly(sympy.expand(
        x**2 * (1 + x)**3 * (1 + 2*x + x**2 + x**3)
        * (1 + 3*x + 3*x**2 + x**3 + x**4) * (1 + x + x**2)
    ), x)
    independent = tuple(reversed([int(c) for c in product.all_coeffs()]))
    pinned = {2: 1, 3: 9, 4: 37, 5: 93, 13: 6, 14: 1}
    ok = (
        poly.coefficients == independent
        and all(poly.coefficient(k) == v for k, v in pinned.items())
        and poly.evaluate(1) == 1080 == rowab_count(row)
    )
    _verdict(2, "worked-row polynomial: pinned coefficients, product, 1080 total", ok)


def test_criterion_3_k_ideal_oracle_equivalence(ideal_batch):
    records, build_elapsed = ideal_batch
    started = time.perf_counter()
    mismatches = []
    for name, w, stacks, grouped in records:
        for k in range(w + 1):
            if sets_of(stacks[k].sets(k)) != sets_of(grouped[k]):
                mismatches.append((name, k))
    elapsed = build_elapsed + (time.perf_counter() - started)
    ok = not mismatches and len(records) >= 100 and elapsed < 60.0
    _verdict(3, f"{len(records)} posets, every k: enumeration equals brute force",
             ok, f" ({elapsed:.1f} s{', mismatch: %s' % mismatches[:3] if mismatches else ''})")


def test_criterion_4_k_subtree_oracle_equivalence(subtree_batch):
    records, build_elapsed = subtree_batch
    started = time.perf_counter()
    mismatches = []
    for name, w, stacks, brute in records:
        for k in range(w + 1):
            if sets_of(stacks[k].sets(k)) != sets_of(brute[k]):
                mismatches.append((name, k))
    elapsed = build_elapsed + (time.perf_counter() - started)
    ok = not mismatches and len(records) >= 100 and elapsed < 60.0
    _verdict(4, f"{len(records)} trees, every k: enumeration equals brute force",
             ok, f" ({elapsed:.1f} s{', mismatch: %s' % mismatches[:3] if mismatches else ''})")


def test_criterion_5_deletion_freeness(ideal_batch, subtree_batch):
    bad = []
    for records in (ideal_batch[0], subtree_batch[0]):
        for name, w, stacks, reference in records:
            for k in range(w + 1):
                stats = stacks[k].stats
                if stats.wasteful_deletions != 0:
                    bad.append((name, k, "wasteful deletion"))
                if stats.final_row_count > len(reference[k]):
                    bad.append((name, k, "row count exceeds model count"))
    _verdict(5, "no wasteful deletions, final rows never exceed k-model count",
             not bad, f" ({bad[:3]})" if bad else "")


def test_criterion_6_disjointness(ideal_batch, subtree_batch):
    bad = []
    toy_stack = enumerate_models(TOY)
    if not rows_pairwise_disjoint(toy_stack) or not members_unique(toy_stack):
        bad.append("toy")
    for records in (ideal_batch[0], subtree_batch[0]):
        for name, w, stacks, _ in records:
            for k, stack in enumerate(stacks):
                if not rows_pairwise_disjoint(stack) or not members_unique(stack):
                    bad.append((name, k))
    _verdict(6, "final rows pairwise disjoint on all instances",
             not bad, f" ({bad[:3]})" if bad else "")


CRITERION_7_SPECS = [
    (2, 3, 1), (3, 3, 1), (2, 5, 2), (3, 4, 2), (4, 3, 2), (2, 7, 1),
    (5, 3, 2), (4, 4, 3), (3, 6, 2), (6, 3, 2), (5, 4, 2), (4, 5, 2),
    (10, 2, 3), (3, 7, 1), (2, 11, 1), (6, 4, 2), (5, 5, 3), (4, 7, 2),
    (10, 3, 3), (3, 10, 1), (8, 4, 3), (5, 7, 2), (6, 6, 2), (4, 9, 2),
    (3, 13, 1), (5, 8, 2), (10, 4, 3), (7, 6, 3), (3, 15, 1), (6, 8, 2),
    (4, 13, 1), (5, 11, 2), (6, 10, 2),
]


def test_criterion_7_method_agreement():
    started = time.perf_counter()
    failures = []
    for i, (m, l, t) in enumerate(CRITERION_7_SPECS):
        p = gen_layered_poset(LayeredSpec(m, l, t, seed=7000 + i))
        ab = whitney(p)
        rec, _ = rank_poly_recursive(p)
        if ab != rec:
            failures.append((m, l, t, "methods disagree"))
        if p.w <= 20 and ab != brute_rank_poly(p):
            failures.append((m, l, t, "brute force disagrees"))
    elapsed = time.perf_counter() - started
    ws = sorted({m * l for m, l, _ in CRITERION_7_SPECS})
    ok = (
        not failures
        and len(CRITERION_7_SPECS) >= 30
        and ws[0] <= 6
        and ws[-1] >= 60
        and elapsed < 300.0
    )
    _verdict(7, f"{len(CRITERION_7_SPECS)} layered instances (w {ws[0]}..{ws[-1]}): "
                "both methods agree coefficientwise",
             ok, f" ({elapsed:.1f} s{', failures: %s' % failures[:3] if failures else ''})")


def test_criterion_8_bench_harness():
    # benchmark values are seed-dependent, so no totals are pinned; the
    # requirement is agreement of the two methods on every row of a fixed
    # parameter list, reported in the standard column order
    specs = [
        LayeredSpec(5, 10, 2, seed=81),
        LayeredSpec(3, 12, 1, seed=82),
        LayeredSpec(10, 5, 9, seed=83),
        LayeredSpec(15, 4, 6, seed=84),
        LayeredSpec(20, 2, 2, seed=85),
        LayeredSpec(12, 3, 2, seed=86),
        LayeredSpec(10, 4, 2, seed=87),
    ]
    report = run_bench(specs)
    table = report.table()
    print()
    print(table)
    header = table.splitlines()[0].split()
    ok = (
        report.all_agree()
        and len(report.rows) == len(specs)
        and header == ["(m,l,t)", "N", "R", "time-ab[ms]", "nsum", "time-rec[ms]", "agree"]
        and len(report.machine_lines()) == len(specs)
    )
    _verdict(8, "scaled benchmark: agreement on every row, report in column order", ok)


def test_criterion_9_output_polynomial_scaling_soft():
    # ordinal sums of 2-antichains of growing height, fixed k: wall time per
    # produced model, normalized by the cubic envelope, should stay flat.
    # Soft check: a spread beyond 10x warns and never fails.
    k = 4
    ratios = []
    for levels in (6, 10, 14, 18):
        p = gen_layered_poset(LayeredSpec(2, levels, 2, seed=1))
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            stack = enumerate_k_ideals(p, k)
            best = min(best, time.perf_counter() - t0)
        n_k = max(stack.count(k), 1)
        ratios.append(best / (n_k * p.w**3))
    # one-sided: falling below the envelope is fine, growth beyond 10x is not
    growth = max(
        ratios[i] / min(ratios[: i + 1]) for i in range(1, len(ratios))
    )
    print(f"[acceptance 9] scaling ratios (time / N_k / w^3): "
          f"{['%.2e' % r for r in ratios]}, worst growth {growth:.1f}x")
    if growth > 10.0:
        warnings.warn(
            f"output-polynomial envelope growth {growth:.1f}x exceeds 10x "
            "(soft criterion: timing-dependent, not a failure)"
        )
    _verdict(9, "output-polynomial scaling (soft, warn-only)", True)
