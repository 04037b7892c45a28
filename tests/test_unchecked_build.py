"""Rows and polynomials that the library builds without the constructors'
checks (`Record._trusted`) equal their rebuilds through the checking public
constructors, field for field."""

import pickle
from types import SimpleNamespace

import pytest
from conftest import random_poset
from test_rankpoly import shuffled_layered
from test_whitney_golden import LAYERED, NAMES, poset

from wildrows import Poset, RankPolynomial, RowAB, SplitMix64, ab_enumerate, cardinality_poly
from wildrows.core import poly_add, poly_mul


def posets():
    """The golden posets (layered t = 1, 2, 3, w = 0, w = 1, a chain, an
    antichain and a disjoint union), the layered ones with shuffled labels,
    and seeded random posets on shuffled labels."""
    named = [(name, poset(name)) for name in NAMES]
    named += [(f"shuffled-{name}", shuffled_layered(name)) for name in LAYERED]
    rng = SplitMix64(2003)
    named += [(f"random-{i}", random_poset(rng, 1 + rng.below(14), 0.05 * (1 + rng.below(8)))) for i in range(12)]
    return named


POSETS = posets()


def test_the_instances_cover_the_edge_cases():
    ws = {p.w for _, p in POSETS}
    assert {0, 1} <= ws
    assert any(p == Poset.chain(p.w) for _, p in POSETS)
    assert any(p == Poset.antichain(p.w) for _, p in POSETS)
    assert any(p.linext != tuple(p.elements) for _, p in POSETS)
    # some rows hold several bundles, so their order is tested
    assert any(len(r.bundles) > 1 for _, p in POSETS for r in ab_enumerate(p))


@pytest.mark.parametrize("name, p", POSETS, ids=[name for name, _ in POSETS])
def test_enumerated_rows_equal_their_checked_rebuild(name, p):
    for r in ab_enumerate(p):
        q = RowAB(r.w, r.ones_mask, r.twos_mask, r.bundles, r.next_bundle)
        # every field, next_bundle too (== leaves it out), and bundle order
        assert r._values() == q._values()
        assert type(r.bundles) is tuple
        assert [b.bid for b in r.bundles] == sorted(b.bid for b in r.bundles)
        assert pickle.loads(pickle.dumps(r))._values() == r._values()


@pytest.mark.parametrize("name, p", POSETS, ids=[name for name, _ in POSETS])
def test_row_polynomials_end_in_a_nonzero_coefficient(name, p):
    for r in ab_enumerate(p):
        poly = cardinality_poly(r)
        assert type(poly.coefficients) is tuple
        assert poly.coefficients and poly.coefficients[-1] != 0
        assert RankPolynomial(poly.coefficients).coefficients == poly.coefficients


def random_polynomial(rng):
    """A checked polynomial: up to 9 coefficients, each 0, small or above
    64 bits, trailing zeros stripped by the constructor."""
    coeffs = []
    for _ in range(rng.below(10)):
        kind = rng.below(3)
        coeffs.append(0 if kind == 0 else 1 + rng.below(50) if kind == 1 else (1 << 64) + rng.below(1 << 62))
    return RankPolynomial(coeffs)


def polynomial_pairs():
    rng = SplitMix64(4099)
    polys = [RankPolynomial.zero(), RankPolynomial.one(), RankPolynomial((0, 0, 1 << 70))]
    polys += [random_polynomial(rng) for _ in range(40)]
    return [(a, b) for a in polys for b in polys[:12]] + [(b, a) for a in polys for b in polys[:12]]


PAIRS = polynomial_pairs()


def test_the_pairs_cover_the_edge_cases():
    assert any(not a.coefficients for a, _ in PAIRS)
    assert any(len(a.coefficients) != len(b.coefficients) and a.coefficients and b.coefficients for a, b in PAIRS)
    assert any(len(a.coefficients) == len(b.coefficients) > 1 for a, b in PAIRS)
    assert any(c >> 64 for a, _ in PAIRS for c in a.coefficients)


def test_sum_equals_the_checked_sum():
    for a, b in PAIRS:
        got = a + b
        assert type(got.coefficients) is tuple
        assert got.coefficients == RankPolynomial(poly_add(a.coefficients, b.coefficients)).coefficients
        assert not got.coefficients or got.coefficients[-1] != 0


def test_product_equals_the_checked_product():
    for a, b in PAIRS:
        got = a * b
        assert type(got.coefficients) is tuple
        assert got.coefficients == RankPolynomial(poly_mul(a.coefficients, b.coefficients)).coefficients
        assert not got.coefficients or got.coefficients[-1] != 0


@pytest.mark.parametrize("other", [(1, 2), 1, SimpleNamespace(coefficients=(-1,))], ids=["tuple", "int", "duck"])
def test_arithmetic_refuses_other_operands(other):
    p = RankPolynomial((1, 2, 1))
    with pytest.raises(TypeError):
        p + other
    with pytest.raises(TypeError):
        p * other


def test_shifted_refuses_a_negative_shift():
    p = RankPolynomial((1, 2, 1))
    with pytest.raises(ValueError, match=r"^shift must be nonnegative, got -1$"):
        p.shifted(-1)
    assert p.shifted(0) == p
    assert RankPolynomial.zero().shifted(3).coefficients == ()
