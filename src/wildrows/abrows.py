"""Compact enumeration of all order ideals as {0,1,2,a,b}-valued rows, and
per-row cardinality polynomials summing to the Whitney numbers.

Processing the elements in linear-extension order keeps the imposed position
free (2) at imposition time and makes every produced row feasible, so the
enumeration never discards a row: imposing one implication turns a row into
one or two rows whose disjoint union is exactly the surviving member sets.
"""

from __future__ import annotations

from .core import Bundle, Poset, RankPolynomial, RowAB, _label, _within, binomial_row, poly_mul


def _impose(row: tuple, jbit: int, bmask: int) -> list[tuple]:
    """ab_impose on a plain (ones, twos, zeros, bundles, next_bundle) row,
    without validation; the position `jbit` must be free."""
    ones, twos, zeros, bundles, next_bundle = row
    if bmask & zeros:
        # conclusion blocked by a zero: the premise position must be zero
        return [(ones, twos & ~jbit, zeros | jbit, bundles, next_bundle)]
    if not bmask & ~ones:
        # conclusion already forced: the row carries over
        return [row]
    if not bmask & ~(ones | twos):
        # conclusion touches only ones and free positions: record the
        # constraint as a fresh bundle on the free ones
        conc = bmask & twos
        bundle = Bundle(next_bundle, jbit.bit_length(), conc)
        return [(ones, twos & ~(jbit | conc), zeros, bundles + (bundle,), next_bundle + 1)]
    # conclusion touches existing bundle symbols: split on the premise.
    # Premise out:
    row_out = (ones, twos & ~jbit, zeros | jbit, bundles, next_bundle)
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
    return [row_out, (ones, twos, zeros, tuple(kept), next_bundle)]


def _validated(w: int, rows: list[tuple]) -> list[RowAB]:
    """Plain rows as RowAB, which checks each one."""
    return [RowAB(w, ones, twos, bundles, nxt) for ones, twos, _, bundles, nxt in rows]


def ab_impose(r: RowAB, j: int, b) -> list[RowAB]:
    """Impose the singleton-premise implication {j} -> b on the row.

    Position j must currently be free (2), and j and b lie within 1..w
    (else InputError, as for an implication family); the result is one or
    two rows whose disjoint union is exactly the members of `r` satisfying
    the implication.  When two rows are returned the premise-out row comes
    first.
    """
    jbit = 1 << (_label(j, r.w) - 1)
    if not r.twos_mask & jbit:
        raise ValueError(f"position {j} must be free (2) when its implication is imposed")
    bmask = _within(b, r.w)
    if bmask & jbit:
        raise ValueError("premise position inside its own conclusion")
    row = (r.ones_mask, r.twos_mask, r.zeros_mask, r.bundles, r.next_bundle)
    return _validated(r.w, _impose(row, jbit, bmask))


def ab_enumerate(p: Poset) -> list[RowAB]:
    """All ideals of p as pairwise disjoint {0,1,2,a,b}-valued rows.

    Starts from the all-free row and imposes each element's cover implication
    in linear-extension order under LIFO; no row is ever discarded.  Vacuous
    implications of minimal elements are skipped.
    """
    w = p.w
    covers = p.lower_cover_masks
    schedule = [(1 << (j - 1), covers[j]) for j in p.linext if covers[j]]
    n = len(schedule)
    stack = [((0, (1 << w) - 1, 0, (), 1), 0)]
    final = []
    while stack:
        (ones, twos, zeros, bundles, nxt), i = stack.pop()
        while i < n:
            jbit, bmask = schedule[i]
            i += 1
            if bmask & zeros:
                # conclusion blocked by a zero, most impositions, made inline:
                # the premise position must be zero
                twos &= ~jbit
                zeros |= jbit
                continue
            sons = _impose((ones, twos, zeros, bundles, nxt), jbit, bmask)
            ones, twos, zeros, bundles, nxt = sons[0]
            if len(sons) == 2:
                stack.append((sons[1], i))
        final.append((ones, twos, zeros, bundles, nxt))
    return _validated(w, final)


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
    return RankPolynomial((0,) * r.ones_mask.bit_count() + factor)


def rows_poly(rows) -> RankPolynomial:
    """Sum of the rows' cardinality polynomials: coefficient k counts the
    k-element members of the disjoint rows."""
    return sum((cardinality_poly(r) for r in rows), RankPolynomial.zero())


def whitney(p: Poset) -> RankPolynomial:
    """Rank polynomial of the ideal lattice: coefficient k is the number of
    k-element ideals; evaluation at 1 the total ideal count."""
    return rows_poly(ab_enumerate(p))
