"""Compact enumeration of all order ideals as {0,1,2,a,b}-valued rows, and
per-row cardinality polynomials summing to the Whitney numbers.

Processing the elements in linear-extension order keeps the imposed position
free (2) at imposition time and makes every produced row feasible, so the
enumeration never discards a row: imposing one implication turns a row into
one or two rows whose disjoint union is exactly the surviving member sets.
"""

from __future__ import annotations

from .core import Bundle, Poset, RankPolynomial, RowAB, from_mask, to_mask


def _impose(r: RowAB, jbit: int, bmask: int) -> list[RowAB]:
    zeros = r.zeros_mask
    if bmask & zeros:
        # conclusion blocked by a zero: the premise position must be zero
        return [RowAB(r.w, r.ones_mask, r.twos_mask & ~jbit, r.bundles, r.next_bundle)]
    if not bmask & ~r.ones_mask:
        # conclusion already forced: the row carries over
        return [r]
    if not bmask & ~(r.ones_mask | r.twos_mask):
        # conclusion touches only ones and free positions: record the
        # constraint as a fresh bundle on the free ones
        conc = bmask & r.twos_mask
        j = jbit.bit_length()
        bundle = Bundle(r.next_bundle, j, conc)
        return [
            RowAB(
                r.w,
                r.ones_mask,
                r.twos_mask & ~(jbit | conc),
                r.bundles + (bundle,),
                r.next_bundle + 1,
            )
        ]
    # conclusion touches existing bundle symbols: split on the premise.
    # Premise out:
    r_out = RowAB(r.w, r.ones_mask, r.twos_mask & ~jbit, r.bundles, r.next_bundle)
    # Premise in: force the conclusion, rippling through the bundles it hits.
    ones = r.ones_mask | jbit | (bmask & r.twos_mask)
    twos = r.twos_mask & ~(jbit | bmask)
    bundles = []
    for b in r.bundles:
        pbit = 1 << (b.prem - 1)
        if pbit & bmask:
            # forced premise: the whole bundle collapses to ones
            ones |= pbit | b.conc_mask
            continue
        hit = b.conc_mask & bmask
        if not hit:
            bundles.append(b)
            continue
        ones |= hit
        rest = b.conc_mask & ~bmask
        if rest:
            bundles.append(Bundle(b.bid, b.prem, rest))
        else:
            # conclusion fully forced: the premise position relaxes to free
            twos |= pbit
    r_in = RowAB(r.w, ones, twos, tuple(bundles), r.next_bundle)
    return [r_out, r_in]


def ab_impose(r: RowAB, j: int, b) -> list[RowAB]:
    """Impose the singleton-premise implication {j} -> b on the row.

    Position j must currently be free (2); the result is one or two rows
    whose disjoint union is exactly the members of `r` satisfying the
    implication.  When two rows are returned the premise-out row comes first.
    """
    jbit = 1 << (j - 1)
    if not r.twos_mask & jbit:
        raise ValueError(f"position {j} must be free (2) when its implication is imposed")
    bmask = to_mask(b)
    if bmask & jbit:
        raise ValueError("premise position inside its own conclusion")
    return _impose(r, jbit, bmask)


def ab_enumerate(p: Poset) -> list[RowAB]:
    """All ideals of p as pairwise disjoint {0,1,2,a,b}-valued rows.

    Starts from the all-free row and imposes each element's cover implication
    in linear-extension order under LIFO; no row is ever discarded.  Vacuous
    implications of minimal elements are skipped.
    """
    w = p.w
    schedule = [(1 << (j - 1), p.lower_cover_masks[j]) for j in p.linext]
    stack = [(RowAB.full(w), 0)]
    final = []
    while stack:
        r, i = stack.pop()
        while i < w:
            jbit, bmask = schedule[i]
            i += 1
            if not bmask:
                continue
            sons = _impose(r, jbit, bmask)
            r = sons[0]
            if len(sons) == 2:
                stack.append((sons[1], i))
        final.append(r)
    return final


def cardinality_poly(r: RowAB) -> RankPolynomial:
    """Member counts of the row by cardinality, as a polynomial.

    Product of x^|ones|, (1+x)^|twos| and, per bundle with m conclusion
    positions, (1+x)^m + x^(m+1): premise out with the conclusion free, or
    all m+1 positions in.  Coefficient k counts the k-element members.
    """
    poly = RankPolynomial.binomial(r.twos_mask.bit_count()).shifted(r.ones_mask.bit_count())
    for b in r.bundles:
        m = b.conc_mask.bit_count()
        poly = poly * (RankPolynomial.binomial(m) + RankPolynomial.one().shifted(m + 1))
    return poly


def whitney(p: Poset) -> RankPolynomial:
    """Rank polynomial of the ideal lattice: coefficient k is the number of
    k-element ideals; evaluation at 1 the total ideal count."""
    total = RankPolynomial.zero()
    for r in ab_enumerate(p):
        total = total + cardinality_poly(r)
    return total
