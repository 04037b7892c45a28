"""Recursive rank-polynomial computation for ideal lattices.

Splitting on a pivot element a: ideals avoiding a are the ideals of the
poset minus a's filter, and ideals containing a correspond (by removing a's
down-set) to ideals of the poset minus a's down-set, shifted by |a-down|.
Antichains terminate the recursion with (1+x)^n.  Independent of the
compact-row method, which it cross-checks.
"""

from __future__ import annotations

from .core import Poset, RankPolynomial, binomial_row, bit_positions, poly_add

# Most coefficient cells (cached subsets times w + 1) the recursion keeps;
# past it the cache is cleared, which costs time, never exactness.  Measured
# on CPython 3.11, 2 vCPUs: the benchmark's 200 `whitney` posets (seed 3601)
# take 1.09 s uncached, 0.83 s at 2^12 cells and 0.67-0.71 s from 2^14 up.
# The tracemalloc peak on LayeredSpec(10,10,2,1) is 0.6 MB at 2^16, 2.0 MB
# at 2^18 and 16 MB uncapped; uncapped, (12,10,1,4) gains 246 MB of RSS in
# 8 s, and 0.4 MB at 2^16.
_CACHE_MAX_CELLS = 1 << 16


def _by_linext(p: Poset) -> Poset:
    """p relabelled along its linear extension: p.linext[i - 1] becomes i, so
    an earlier element of the extension has a lower label.  p itself when
    p.linext is already 1..w."""
    if p.linext == tuple(p.elements):
        return p
    label = [0] * (p.w + 1)
    for i, e in enumerate(p.linext, 1):
        label[e] = i
    covers = [(label[u], label[v]) for u in p.elements for v in bit_positions(p.upper_cover_masks[u])]
    return Poset(p.w, covers)


def _comparability(p: Poset) -> list[int]:
    """comp[e]: the elements comparable to e, e included (its down-set and
    up-set, which meet in e alone); index 0 unused.  Built per call rather
    than kept on `Poset`, whose construction every ideal query pays."""
    return [d | u for d, u in zip(p.down_masks, p.up_masks)]


def _pivot(subset: int, comp: list[int]) -> int:
    """Element of the subset comparable to the most others in the subset,
    scored as |comp[e] & subset| (the paper's |down| + |up| within the subset,
    minus 1); ties go to the lowest label, which on `_by_linext(p)` is the
    earliest in the linear extension.  0 when the subset is an antichain:
    every element then scores exactly 1 (itself), and any element of a
    comparable pair scores more.  An element comparable to the whole subset
    scores |subset|, which none can beat, so the scan stops there."""
    best, best_score = 0, 1
    top = subset.bit_count()
    rest = subset
    while rest and best_score < top:
        low = rest & -rest
        rest ^= low
        e = low.bit_length()
        score = (comp[e] & subset).bit_count()
        if score > best_score:
            best, best_score = e, score
    return best


def pick_pivot(p: Poset) -> int:
    """Pivot of the full poset; rejects empty posets and antichains (the
    recursion handles those as base cases, no pivot is needed)."""
    a = _pivot((1 << p.w) - 1, _comparability(_by_linext(p)))
    if not a:
        raise ValueError("pivot undefined for empty posets and antichains")
    return p.linext[a - 1]


def rank_poly_recursive(p: Poset, memo: bool = False) -> tuple[RankPolynomial, int | None]:
    """Rank polynomial of the ideal lattice plus the antichain-leaf count nsum.

    nsum counts every leaf of the paper's recursion tree.  A subset met again
    reuses the coefficients and leaf count it got the first time, so each
    repeated subtree is computed once and its leaves are still counted on
    every occurrence.  memo=True selects no code: it only hides nsum (None),
    and is kept because existing callers pass it.
    """
    p = _by_linext(p)
    down, up = p.down_masks, p.up_masks
    comp = _comparability(p)
    cache: dict[int, tuple[list[int], int]] = {}
    leaves: dict[int, list[int]] = {}  # n -> the antichain row (1 + x)^n, built on first use
    max_cached = _CACHE_MAX_CELLS // (p.w + 1)
    # Explicit stack, so the depth never meets the interpreter's recursion
    # limit.  A task (subset, 0) evaluates the subset; (subset, a) combines
    # the two (coefficients, leaf count) pairs on top of `values` for pivot
    # a.  Ideals avoiding a are evaluated first, as in the plain recursion.
    values: list[tuple[list[int], int]] = []
    tasks = [((1 << p.w) - 1, 0)]
    while tasks:
        subset, a = tasks.pop()
        if a:
            above, n_plus = values.pop()
            without_a, n_minus = values.pop()
            done = poly_add(without_a, above, (down[a] & subset).bit_count()), n_minus + n_plus
            if len(cache) >= max_cached:
                cache.clear()
            cache[subset] = done
            values.append(done)
        elif subset in cache:
            values.append(cache[subset])
        elif a := _pivot(subset, comp):
            tasks += [(subset, a), (subset & ~down[a], 0), (subset & ~up[a], 0)]
        else:
            n = subset.bit_count()  # the row is shared: poly_add copies, never mutates
            if n not in leaves:
                leaves[n] = binomial_row(n)
            values.append((leaves[n], 1))
    poly, nsum = values.pop()
    return RankPolynomial(poly), (None if memo else nsum)
