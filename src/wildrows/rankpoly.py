"""Recursive rank-polynomial computation for ideal lattices.

Splitting on a pivot element a: ideals avoiding a are the ideals of the
poset minus a's filter, and ideals containing a correspond (by removing a's
down-set) to ideals of the poset minus a's down-set, shifted by |a-down|.
Antichains terminate the recursion with (1+x)^n.  Independent of the
compact-row method, which it cross-checks.
"""

from __future__ import annotations

from .core import Poset, RankPolynomial, bit_positions


def _strict_down(p: Poset) -> list[int]:
    return [m & ~(1 << (e - 1)) if e else 0 for e, m in enumerate(p.down_masks)]


def _is_antichain(subset: int, sdown: list[int]) -> bool:
    for e in bit_positions(subset):
        if sdown[e] & subset:
            return False
    return True


def _pivot(subset: int, p: Poset) -> int:
    """Element of the subset maximizing |down| + |up| within the subset;
    ties go to the earliest linear-extension label."""
    down, up = p.down_masks, p.up_masks
    best, best_score = 0, -1
    for e in p.linext:
        if subset >> (e - 1) & 1:
            score = (down[e] & subset).bit_count() + (up[e] & subset).bit_count()
            if score > best_score:
                best, best_score = e, score
    return best


def pick_pivot(p: Poset) -> int:
    """Pivot of the full poset; rejects empty posets and antichains (the
    recursion handles those as base cases, no pivot is needed)."""
    full = (1 << p.w) - 1
    if p.w == 0 or _is_antichain(full, _strict_down(p)):
        raise ValueError("pivot undefined for empty posets and antichains")
    return _pivot(full, p)


def rank_poly_recursive(p: Poset, memo: bool = False) -> tuple[RankPolynomial, int | None]:
    """Rank polynomial of the ideal lattice plus the antichain-leaf count.

    With memo=True identical element subsets are computed once (results are
    unchanged, tested); the leaf count is then meaningless and reported as
    None.
    """
    down, up = p.down_masks, p.up_masks
    sdown = _strict_down(p)
    cache: dict[int, RankPolynomial] | None = {} if memo else None
    # Explicit stack, so the depth never meets the interpreter's recursion
    # limit.  A task (subset, 0) evaluates the subset; (subset, a) combines
    # the two results on top of `values` for pivot a.  Ideals avoiding a are
    # evaluated first, as in the plain recursion.
    values: list[tuple[RankPolynomial, int]] = []
    tasks = [((1 << p.w) - 1, 0)]
    while tasks:
        subset, a = tasks.pop()
        if a:
            above, n_plus = values.pop()
            without_a, n_minus = values.pop()
            poly = without_a + above.shifted((down[a] & subset).bit_count())
            if cache is not None:
                cache[subset] = poly
            values.append((poly, n_minus + n_plus))
        elif _is_antichain(subset, sdown):
            values.append((RankPolynomial.binomial(subset.bit_count()), 1))
        elif cache is not None and subset in cache:
            values.append((cache[subset], 0))
        else:
            a = _pivot(subset, p)
            tasks += [(subset, a), (subset & ~down[a], 0), (subset & ~up[a], 0)]
    poly, nsum = values.pop()
    return poly, (None if memo else nsum)
