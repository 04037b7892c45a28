"""Order ideals of a poset as models of its cover-implication base.

Feasibility of a row (ones, zeros) for cardinality k: every ideal avoiding
the zeros sits inside the complement of the filter they generate, and
because that complement shells down to the down-closure of the ones one
element at a time, every cardinality in between is realized.  The engine
gets the filters: a staircase son zeroes its new zero's whole filter at
once, so a row's zeros are always an up-set, the filter itself.  Its ones
are always a down-set, since a forced son adds an element and its lower
covers, whose own covers are ones already.  So the loop's own size window,
|ones| <= k <= |ones| + |twos|, is the whole feasibility test, and the
k-ideal enumerator hands it no admit.  Zeroed one at a time, each element
of a filter would come up later, free with a zero lower cover, as a forced
single son (about three in four candidate sons on layered posets).  The
loop takes none of them but counts them among candidate_sons.
The same enumerator with k=None lists every ideal, the CLI's one path.
"""

from __future__ import annotations

from functools import partial

from .core import ImplicationFamily, Poset, _linext_up_bits, _loose_mask, union_over
from .engine import FeasibilityOracle, FinalStack, _lifo


def natural_base(p: Poset) -> ImplicationFamily:
    """One implication per element: the element implies its lower covers.

    Minimal elements yield vacuous implications (kept for the h = w count).
    Implications are ordered by the poset's linear extension, which downstream
    engines rely on for determinism.  Built without `from_masks`' checks:
    the poset's masks lie in 1..w, and no lower cover mask holds its own
    element, so every conclusion already excludes its premise.
    """
    covers = p.lower_cover_masks
    return ImplicationFamily._trusted(p.w, tuple((1 << (q - 1), covers[q]) for q in p.linext))


def down_closure_mask(p: Poset):
    """Mask-level closure under natural_base(p): the generated down-set.

    Agrees with the generic forward chaining on the natural base.
    """
    return partial(union_over, p.down_masks)


def ideal_oracle(p: Poset) -> FeasibilityOracle:
    """Fixed-cardinality feasibility for ideals.

    For a query (ones, zeros, k): with Z0 the down-set generated by the ones
    and F the filter generated by the zeros, the largest ideal avoiding the
    zeros is the complement of F, so a k-element ideal extending Z0 exists
    iff Z0 misses F and |Z0| <= k <= w - |F|.  ones and zeros are int masks
    or frozensets; O(|ones| + |zeros|) mask operations.  Ones outside 1..w
    make the answer False; zeros outside 1..w are ignored.
    """
    down, up, w = p.down_masks, p.up_masks, p.w
    full = (1 << w) - 1

    def oracle(ones, zeros, k):
        ones, zeros = _loose_mask(ones, w), _loose_mask(zeros, w) & full
        if ones >> w:
            return False
        z0, filt = union_over(down, ones), union_over(up, zeros)
        return not z0 & filt and (k is None or z0.bit_count() <= k <= w - filt.bit_count())

    return oracle


def enumerate_k_ideals(p: Poset, k: int | None) -> FinalStack:
    """All k-element order ideals of p, each exactly once, as disjoint rows;
    k=None lists every ideal.

    The engine gets p's filters, as twos masks and as implication-index
    bits (the latter p.up_masks itself when p.linext is 1..w), and zeroes a
    new zero's whole filter at once, so a son's zeros are an up-set and its
    ones a down-set.  On such a row `ideal_oracle`'s test is the loop's size
    window |ones| <= k <= |ones| + |twos|, so no admit is passed (k=None
    keeps every son).  The rows and counters are those of
    `enumerate_k_models` with `ideal_oracle` and `down_closure_mask`, and
    for k=None those of `enumerate_models(natural_base(p))`.  A k that is
    not an int or None raises TypeError.
    """
    return _lifo(natural_base(p), k, _filters=(p.up_masks, _linext_up_bits(p)))
