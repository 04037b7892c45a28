"""Order ideals of a poset as models of its cover-implication base.

The feasibility oracle answers fixed-cardinality queries in O(w) mask work:
every ideal avoiding a forbidden set Y sits inside the complement of the
filter generated by Y, and because that complement shells down to the
already-forced ideal one element at a time, every cardinality in between is
realized.
"""

from __future__ import annotations

from functools import partial

from .core import ImplicationFamily, Poset, to_mask, union_over
from .engine import FeasibilityOracle, FinalStack, enumerate_k_models


def natural_base(p: Poset) -> ImplicationFamily:
    """One implication per element: the element implies its lower covers.

    Minimal elements yield vacuous implications (kept for the h = w count).
    Implications are ordered by the poset's linear extension, which downstream
    engines rely on for determinism.
    """
    return ImplicationFamily.from_masks(p.w, ((1 << (q - 1), p.lower_cover_masks[q]) for q in p.linext))


def down_closure_mask(p: Poset):
    """Mask-level closure under natural_base(p): the generated down-set.

    Agrees with the generic forward chaining on the natural base; used as the
    engine's fast closure.
    """
    return partial(union_over, p.down_masks)


def ideal_oracle(p: Poset) -> FeasibilityOracle:
    """Fixed-cardinality feasibility for ideals.

    For a query (Z0, Y, k) with Z0 an ideal disjoint from Y: the largest
    ideal avoiding Y is the complement of the filter generated by Y, and a
    k-element ideal extending Z0 exists iff |Z0| <= k <= |that complement|.
    Z0 and Y are int masks, as the engine passes them, or frozensets.
    """
    up = p.up_masks
    full = (1 << p.w) - 1

    def oracle(ones, zeros, k):
        z0 = to_mask(ones)
        # Y lies inside its own filter, so this also rejects Z0 meeting Y
        y_filter = union_over(up, to_mask(zeros))
        if z0 & y_filter:
            return False
        if k is None:
            return True
        return z0.bit_count() <= k <= (full & ~y_filter).bit_count()

    return oracle


def enumerate_k_ideals(p: Poset, k: int) -> FinalStack:
    """All k-element order ideals of p, each exactly once, as disjoint rows."""
    return enumerate_k_models(
        natural_base(p), k, ideal_oracle(p), closure_mask=down_closure_mask(p)
    )
