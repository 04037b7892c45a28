"""Recursive rank-polynomial computation for ideal lattices.

Splitting on a pivot element a: ideals avoiding a are the ideals of the
poset minus a's filter, and ideals containing a correspond (by removing a's
down-set) to ideals of the poset minus a's down-set, shifted by |a-down|.
Antichains terminate the recursion with (1+x)^n.  Independent of the
compact-row method, which it cross-checks.
"""

from __future__ import annotations

from .core import Poset, RankPolynomial, binomial_row, poly_add


def _linext_rank(p: Poset) -> list[int]:
    """rank[e] is the position of e in p.linext (rank[0] unused)."""
    rank = [0] * (p.w + 1)
    for i, e in enumerate(p.linext):
        rank[e] = i
    return rank


def _pivot(subset: int, p: Poset, rank: list[int]) -> int:
    """Element of the subset maximizing |down| + |up| within the subset;
    ties go to the earliest linear-extension label (least `rank`).  0 when
    the subset is an antichain: every element then scores exactly 2 (itself,
    in both sets), and any element of a comparable pair scores more."""
    down, up = p.down_masks, p.up_masks
    best, best_score = 0, 2
    rest = subset
    while rest:
        low = rest & -rest
        rest ^= low
        e = low.bit_length()
        score = (down[e] & subset).bit_count() + (up[e] & subset).bit_count()
        if score > best_score or score == best_score and best and rank[e] < rank[best]:
            best, best_score = e, score
    return best


def pick_pivot(p: Poset) -> int:
    """Pivot of the full poset; rejects empty posets and antichains (the
    recursion handles those as base cases, no pivot is needed)."""
    a = _pivot((1 << p.w) - 1, p, _linext_rank(p))
    if not a:
        raise ValueError("pivot undefined for empty posets and antichains")
    return a


def rank_poly_recursive(p: Poset, memo: bool = False) -> tuple[RankPolynomial, int | None]:
    """Rank polynomial of the ideal lattice plus the antichain-leaf count.

    With memo=True identical element subsets are computed once (results are
    unchanged, tested); the leaf count is then meaningless and reported as
    None.
    """
    down, up = p.down_masks, p.up_masks
    rank = _linext_rank(p)
    cache: dict[int, list[int]] | None = {} if memo else None
    # Explicit stack, so the depth never meets the interpreter's recursion
    # limit.  A task (subset, 0) evaluates the subset; (subset, a) combines
    # the two coefficient lists on top of `values` for pivot a.  Ideals
    # avoiding a are evaluated first, as in the plain recursion.
    values: list[tuple[list[int], int]] = []
    tasks = [((1 << p.w) - 1, 0)]
    while tasks:
        subset, a = tasks.pop()
        if a:
            above, n_plus = values.pop()
            without_a, n_minus = values.pop()
            poly = poly_add(without_a, above, (down[a] & subset).bit_count())
            if cache is not None:
                cache[subset] = poly
            values.append((poly, n_minus + n_plus))
        elif cache is not None and subset in cache:
            values.append((cache[subset], 0))
        elif a := _pivot(subset, p, rank):
            tasks += [(subset, a), (subset & ~down[a], 0), (subset & ~up[a], 0)]
        else:
            values.append((binomial_row(subset.bit_count()), 1))
    poly, nsum = values.pop()
    return RankPolynomial(poly), (None if memo else nsum)
