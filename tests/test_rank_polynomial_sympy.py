"""RankPolynomial arithmetic and cardinality_poly against sympy expansions
on seeded random inputs."""

import pytest
import sympy
from conftest import random_rowab

from wildrows import RankPolynomial, SplitMix64, cardinality_poly

X = sympy.symbols("x")


def expr(coeffs):
    return sum(c * X**k for k, c in enumerate(coeffs))


def assert_equals(poly, expected):
    assert sympy.expand(expr(poly.coefficients) - expected) == 0
    assert poly.coefficients[-1:] != (0,)


def random_coeffs(rng):
    """Up to 8 coefficients, some zero, some beyond 64 bits."""
    out = []
    for _ in range(rng.below(9)):
        kind = rng.below(4)
        out.append(0 if kind == 0 else rng.next_u64() * rng.next_u64() if kind == 1 else rng.below(100))
    return tuple(out)


@pytest.mark.parametrize("seed", range(40))
def test_kernel_matches_sympy(seed):
    rng = SplitMix64(seed)
    a, b = random_coeffs(rng), random_coeffs(rng)
    pa, pb = RankPolynomial(a), RankPolynomial(b)
    n = rng.below(6)
    assert_equals(pa + pb, expr(a) + expr(b))
    assert_equals(pa * pb, expr(a) * expr(b))
    assert_equals(pa.shifted(n), X**n * expr(a))
    assert_equals(RankPolynomial.binomial(seed), (1 + X) ** seed)


@pytest.mark.parametrize("seed", range(30))
def test_cardinality_poly_matches_sympy(seed):
    rng = SplitMix64(1000 + seed)
    r = random_rowab(rng, 1 + rng.below(16), max_bundles=4)
    expected = X ** r.ones_mask.bit_count() * (1 + X) ** r.twos_mask.bit_count()
    for b in r.bundles:
        m = b.conc_mask.bit_count()
        expected *= (1 + X) ** m + X ** (m + 1)
    assert_equals(cardinality_poly(r), expected)
