"""Compact enumeration of all order ideals as {0,1,2,a,b}-valued rows, and
per-row cardinality polynomials summing to the Whitney numbers.

Processing the elements in linear-extension order keeps the imposed position
free (2) at imposition time and makes every produced row feasible, so the
enumeration never discards a row: imposing one implication turns a row into
one or two rows whose disjoint union is exactly the surviving member sets.
`ab_enumerate` imposes an implication only on a row where its element is
still free: a new zero takes its whole filter at once, so no implication is
ever blocked by a zero there.
"""

from __future__ import annotations

from .core import (
    Bundle,
    Poset,
    RankPolynomial,
    RowAB,
    _label,
    _linext_up_bits,
    _within,
    binomial_row,
    poly_mul,
)


def _impose(row: tuple, jbit: int, bmask: int) -> list[tuple]:
    """ab_impose on a plain (ones, twos, bundles, next_bundle) row, RowAB's
    own fields, without validation; the position `jbit` must be free and no
    conclusion position `bmask` may be zero."""
    ones, twos, bundles, next_bundle = row
    if not bmask & ~ones:
        # conclusion already forced: the row carries over
        return [row]
    if not bmask & ~(ones | twos):
        # conclusion touches only ones and free positions: record the
        # constraint as a fresh bundle on the free ones
        conc = bmask & twos
        bundle = Bundle(next_bundle, jbit.bit_length(), conc)
        return [(ones, twos & ~(jbit | conc), bundles + (bundle,), next_bundle + 1)]
    # conclusion touches existing bundle symbols: split on the premise.
    # Premise out:
    row_out = (ones, twos & ~jbit, bundles, next_bundle)
    # Premise in: force the conclusion, rippling through the bundles it hits.
    ones |= jbit | (bmask & twos)
    twos &= ~(jbit | bmask)
    kept = []
    for b in bundles:
        pbit = 1 << (b.prem - 1)
        if pbit & bmask:
            # forced premise: the whole bundle collapses to ones
            ones |= pbit | b.conc_mask
            continue
        hit = b.conc_mask & bmask
        if not hit:
            kept.append(b)
            continue
        ones |= hit
        rest = b.conc_mask & ~bmask
        if rest:
            kept.append(Bundle(b.bid, b.prem, rest))
        else:
            # conclusion fully forced: the premise position relaxes to free
            twos |= pbit
    return [row_out, (ones, twos, tuple(kept), next_bundle)]


def ab_impose(r: RowAB, j: int, b) -> list[RowAB]:
    """Impose the singleton-premise implication {j} -> b on the row.

    Position j must currently be free (2), and j and b lie within 1..w
    (else InputError, as for an implication family); the result is one or
    two rows whose disjoint union is exactly the members of `r` satisfying
    the implication.  When two rows are returned the premise-out row comes
    first.  A conclusion that meets a zero makes position j zero.
    """
    jbit = 1 << (_label(j, r.w) - 1)
    if not r.twos_mask & jbit:
        raise ValueError(f"position {j} must be free (2) when its implication is imposed")
    bmask = _within(b, r.w)
    if bmask & jbit:
        raise ValueError("premise position inside its own conclusion")
    if bmask & r.zeros_mask:
        sons = [(r.ones_mask, r.twos_mask & ~jbit, r.bundles, r.next_bundle)]
    else:
        sons = _impose((r.ones_mask, r.twos_mask, r.bundles, r.next_bundle), jbit, bmask)
    return [RowAB(r.w, *son) for son in sons]


def ab_enumerate(p: Poset) -> list[RowAB]:
    """All ideals of p as pairwise disjoint {0,1,2,a,b}-valued rows.

    Starts from the all-free row and imposes each element's cover implication
    in linear-extension order under LIFO; no row is ever discarded.  Vacuous
    implications of minimal elements are skipped, and so are those of every
    element already zero: when a split's premise-out son takes a zero at j,
    it takes j's whole filter as zeros at once, which is what imposing the
    filter's implications in turn would give, each conclusion being blocked
    by a zero below it.  So no conclusion ever meets a zero, and a row's
    zeros stay implied by its other fields.
    """
    w, linext = p.w, p.linext
    covers, up = p.lower_cover_masks, p.up_masks
    # bit k of a row's `todo` stands for p.linext[k], set while that
    # element's implication is still to impose; later[e] holds the bits of
    # e's filter
    later = _linext_up_bits(p)
    todo = sum(1 << k for k, e in enumerate(linext) if covers[e])
    stack = [((0, (1 << w) - 1, (), 1), todo)]
    final = []
    while stack:
        row, todo = stack.pop()
        while todo:
            low = todo & -todo
            todo ^= low
            j = linext[low.bit_length() - 1]
            sons = _impose(row, 1 << (j - 1), covers[j])
            row = sons[0]
            if len(sons) == 2:
                stack.append((sons[1], todo))
                # premise out: j's whole filter is zero.  Every imposition
                # so far touched only elements no later in the linear
                # extension than its own, so that filter is still free.
                ones, twos, bundles, nxt = row
                row = (ones, twos & ~up[j], bundles, nxt)
                todo &= ~later[j]
        # built unchecked: _impose keeps the masks disjoint within 1..w and
        # the bundles in id order below nxt, all that RowAB(...) checks
        final.append(RowAB._trusted(w, *row))
    return final


# A row's cardinality polynomial is x^|ones| times a factor that depends only
# on |twos| and the multiset of its bundles' conclusion sizes, and few such
# signatures recur: the benchmark's 200 `whitney` posets (seed 3601) give
# 33,638 rows with 154 signatures, whose 1824 coefficient cells hold 0.05 MB
# (tracemalloc).  The factors are kept by signature up to _FACTOR_MAX_CELLS
# cells in all; past it the cache is cleared, which costs time, never
# exactness.  Full, it holds 1.7 MB when the coefficients are those of
# (1+x)^4096, the CLI's largest universe.
_FACTOR_MAX_CELLS = 1 << 12
_factors: dict[tuple, tuple[int, ...]] = {}
_factor_cells = 0


def cardinality_poly(r: RowAB) -> RankPolynomial:
    """Member counts of the row by cardinality, as a polynomial.

    Product of x^|ones|, (1+x)^|twos| and, per bundle with m conclusion
    positions, (1+x)^m + x^(m+1): premise out with the conclusion free, or
    all m+1 positions in.  Coefficient k counts the k-element members.
    """
    global _factor_cells
    key = (r.twos_mask.bit_count(), *sorted([b.conc_mask.bit_count() for b in r.bundles]))
    factor = _factors.get(key)
    if factor is None:
        coeffs = binomial_row(key[0])
        for m in key[1:]:
            coeffs = poly_mul(coeffs, binomial_row(m) + [1])
        factor = tuple(coeffs)
        if len(factor) <= _FACTOR_MAX_CELLS:
            if _factor_cells + len(factor) > _FACTOR_MAX_CELLS:
                _factors.clear()
                _factor_cells = 0
            _factors[key] = factor
            _factor_cells += len(factor)
    # every factor ends in 1, so there is no trailing zero to strip
    return RankPolynomial._trusted((0,) * r.ones_mask.bit_count() + factor)


def rows_poly(rows) -> RankPolynomial:
    """Sum of the rows' cardinality polynomials: coefficient k counts the
    k-element members of the disjoint rows."""
    return sum((cardinality_poly(r) for r in rows), RankPolynomial.zero())


def whitney(p: Poset) -> RankPolynomial:
    """Rank polynomial of the ideal lattice: coefficient k is the number of
    k-element ideals; evaluation at 1 the total ideal count."""
    return rows_poly(ab_enumerate(p))
