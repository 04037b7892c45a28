"""Recursive rank-polynomial computation for ideal lattices.

Splitting on a pivot element a: ideals avoiding a are the ideals of the
poset minus a's filter, and ideals containing a correspond (by removing a's
down-set) to ideals of the poset minus a's down-set, shifted by |a-down|.
Antichains terminate the recursion with (1+x)^n.  Independent of the
compact-row method, which it cross-checks.  Coefficients travel packed into
one integer per polynomial, each in a fixed-width slot, so the combine at a
pivot is one shift and one add.
"""

from __future__ import annotations

from .core import Poset, RankPolynomial, binomial_row, bit_positions

# Most coefficient cells (cached subsets times w + 1) the recursion keeps;
# past it the cache is cleared, which costs time, never exactness.  Measured
# with packed values on CPython 3.11, 2 vCPUs, best of 3: the benchmark's 200
# `whitney` posets (seed 3601) take 0.37 s with no cache, 0.28 s at 2^12
# cells and 0.21-0.23 s from 2^14 up.  The tracemalloc peak on
# LayeredSpec(10,10,2,1) is 0.2 MB at 2^16, 0.7 MB at 2^18 and 7.1 MB
# uncapped; uncapped, (12,10,1,4) gains 281 MB of RSS in 8 s, and 0.25 MB
# at 2^16.
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
    while rest:
        low = rest & -rest
        rest ^= low
        e = low.bit_length()
        score = (comp[e] & subset).bit_count()
        if score > best_score:
            best, best_score = e, score
            if score == top:
                break
    return best


def pick_pivot(p: Poset) -> int:
    """Pivot of the full poset; rejects empty posets and antichains (the
    recursion handles those as base cases, no pivot is needed)."""
    a = _pivot((1 << p.w) - 1, _comparability(_by_linext(p)))
    if not a:
        raise ValueError("pivot undefined for empty posets and antichains")
    return p.linext[a - 1]


def _ideal_bound(p: Poset) -> int:
    """An upper bound on the number of ideals of p, from a chain partition:
    the product of len(c) + 1 over its chains c.  An ideal meets each chain
    in a prefix, one of len(c) + 1, and is the union of those prefixes.

    The chains are built in one pass along the linear extension: an element
    extends a chain whose top is one of its lower covers (the lowest such
    top), else it starts a chain.  Disjoint unions of chains, antichains
    among them, are split into their chains, so there the bound is exact."""
    tops = 0
    length = [0] * (p.w + 1)
    for e in p.linext:
        below = p.lower_cover_masks[e] & tops
        t = below & -below
        length[e] = length[t.bit_length()] + 1
        tops ^= t | 1 << (e - 1)
    bound = 1
    for e in bit_positions(tops):
        bound *= length[e] + 1
    return bound


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
    # A polynomial is held packed in one int: coefficient k in bytes
    # [k * size, (k + 1) * size), little-endian, so x^s * b + a is
    # a + (b << 8 * size * s), with no carry between slots as long as every
    # coefficient fits its slot.  Each one does: coefficient k of a subset
    # counts k-element ideals of the subposet it induces, and an induced
    # subposet S of p has no more ideals than p (I -> the down-set of I in
    # p is injective, since it meets S in I), which _ideal_bound(p) bounds.
    size = (_ideal_bound(p).bit_length() + 7) // 8
    bits = 8 * size
    cache: dict[int, tuple[int, int]] = {}
    leaves: dict[int, int] = {}  # n -> the packed antichain row (1 + x)^n, built on first use
    max_cached = _CACHE_MAX_CELLS // (p.w + 1)
    # Explicit stack, so the depth never meets the interpreter's recursion
    # limit.  A task (subset, 0) evaluates the subset; (subset, a) combines
    # the two (packed coefficients, leaf count) pairs on top of `values` for
    # pivot a.  Ideals avoiding a are evaluated first, as in the plain
    # recursion.
    values: list[tuple[int, int]] = []
    tasks = [((1 << p.w) - 1, 0)]
    while tasks:
        subset, a = tasks.pop()
        if a:
            above, n_plus = values.pop()
            without_a, n_minus = values.pop()
            done = without_a + (above << bits * (down[a] & subset).bit_count()), n_minus + n_plus
            if len(cache) >= max_cached:
                cache.clear()
            cache[subset] = done
            values.append(done)
        elif subset in cache:
            values.append(cache[subset])
        elif a := _pivot(subset, comp):
            tasks += [(subset, a), (subset & ~down[a], 0), (subset & ~up[a], 0)]
        else:
            n = subset.bit_count()
            if n not in leaves:
                row = b"".join(c.to_bytes(size, "little") for c in binomial_row(n))
                leaves[n] = int.from_bytes(row, "little")
            values.append((leaves[n], 1))
    packed, nsum = values.pop()
    data = packed.to_bytes(size * (p.w + 1), "little")
    poly = [int.from_bytes(data[k : k + size], "little") for k in range(0, len(data), size)]
    return RankPolynomial(poly), (None if memo else nsum)
