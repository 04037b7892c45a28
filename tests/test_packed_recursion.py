"""The pivot recursion packs each polynomial into one integer whose slots
are as wide as `_ideal_bound(p)` needs.  These checks pin that bound against
brute-force ideal counts, and the packed results against the compact-row sum
and brute force, on seeded posets, their label shuffles and the shapes where
the bound is exact."""

import math

import pytest

from wildrows import (
    LayeredSpec,
    Poset,
    SplitMix64,
    brute_rank_poly,
    gen_layered_poset,
    rank_poly_recursive,
    whitney,
)
from wildrows.rankpoly import _ideal_bound

# (m, l, t): l levels of width m, so w = m * l <= 16
SHAPES = [(4, 4, 1), (4, 4, 2), (4, 4, 3), (2, 8, 1), (8, 2, 3), (3, 5, 2), (5, 3, 2), (1, 16, 1), (16, 1, 0)]


def shuffled(p, rng):
    """p with its labels permuted, so its linear extension is not 1..w."""
    label = [0] + rng.sample(p.elements, p.w)
    return Poset(p.w, [(label[u], label[v]) for u in p.elements for v in p.upper_covers(u)])


def chains(lengths):
    """Disjoint union of chains of the given lengths, labelled in turn."""
    relations, start = [], 1
    for n in lengths:
        relations += [(e, e + 1) for e in range(start, start + n - 1)]
        start += n
    return Poset(start - 1, relations)


def layered_posets():
    rng = SplitMix64(2609)
    for m, l, t in SHAPES:
        for seed in (1, 2, 3):
            p = gen_layered_poset(LayeredSpec(m, l, t, 1000 * m + 10 * l + t + seed))
            yield p
            yield shuffled(p, rng)


def exact_posets():
    """Disjoint unions of chains, each chain split off by the bound's chain
    partition: w = 0, w = 1, chains, antichains and mixed unions."""
    rng = SplitMix64(2617)
    for lengths in [(), (1,), (2,), (7,), (16,), (1,) * 2, (1,) * 9, (1,) * 16, (3, 1, 4), (2, 2, 2, 2), (5, 6, 5)]:
        p = chains(lengths)
        yield p
        yield shuffled(p, rng)


@pytest.mark.parametrize("p", list(layered_posets()) + list(exact_posets()), ids=lambda p: f"w{p.w}")
def test_bound_covers_the_ideal_count_and_recursion_is_exact(p):
    brute = brute_rank_poly(p)
    assert _ideal_bound(p) >= brute.evaluate(1)
    poly, nsum = rank_poly_recursive(p)
    assert poly == whitney(p) == brute
    assert nsum >= 1


@pytest.mark.parametrize("p", list(exact_posets()), ids=lambda p: f"w{p.w}")
def test_bound_is_exact_on_disjoint_chains(p):
    assert _ideal_bound(p) == brute_rank_poly(p).evaluate(1)


def test_bound_on_a_chain_and_an_antichain():
    assert _ideal_bound(Poset.chain(1500)) == 1501
    assert _ideal_bound(Poset.antichain(2000)) == 1 << 2000


def test_long_chain_gives_all_ones():
    # one two-byte slot per coefficient
    poly, nsum = rank_poly_recursive(Poset.chain(1500))
    assert poly.coefficients == (1,) * 1501 and nsum == 1500


def test_wide_antichain_gives_binomials():
    # slots of 251 bytes, the widest coefficient being comb(2000, 1000)
    poly, nsum = rank_poly_recursive(Poset.antichain(2000))
    assert poly.coefficients == tuple(math.comb(2000, k) for k in range(2001)) and nsum == 1
