"""Golden compact row stacks, and the row polynomials checked against their
product formula.

`test_whitney_golden.py` pins each row's cardinality polynomial; this file
pins the rows themselves (count and a digest of their text, in stack order)
on the same posets, so a faster enumeration must give the same stack byte
for byte.  `cardinality_poly` keeps its factors by row signature; the tests
below hold it to the plain product on every row, across cache clears.
"""

import hashlib

import pytest
from conftest import random_poset, random_rowab
from test_whitney_golden import NAMES, poset

from wildrows import (
    LayeredSpec,
    RankPolynomial,
    RowAB,
    SplitMix64,
    ab_enumerate,
    cardinality_poly,
    gen_layered_poset,
    render_row,
)
from wildrows import abrows
from wildrows.core import Bundle

# name -> (row count, sha256 prefix of the rows' `render_row` text, one row
# a line)
ROWS_GOLDEN = {
    "t1-a": (16, "e3234ffb6e80d3ef"),
    "t1-b": (96, "0a54316ac2c3f9ed"),
    "t1-c": (30, "1a2d4041cf0e2c31"),
    "t1-d": (60, "184698b27c9883ed"),
    "t2-a": (12, "43955caa1f6f4b80"),
    "t2-b": (53, "2c65f207e6152ec8"),
    "t2-c": (39, "dd3eac082fafc32d"),
    "t2-d": (43, "7aeeee6ba46cf917"),
    "t3-a": (18, "9ca491a32d48df16"),
    "t3-b": (32, "a5b9d448e9dd5db7"),
    "t3-c": (22, "fffe00e59aeda056"),
    "t3-d": (11, "1c15ba6f52d7d92b"),
    "w0": (1, "e3b0c44298fc1c14"),
    "w1": (1, "d4735e3a265e16ee"),
    "chain": (5, "794db6cc23b596fb"),
    "antichain": (1, "7dd2dee72fb98487"),
    "union": (4, "f6db5ed1dbc2e0c9"),
}


@pytest.mark.parametrize("name", NAMES)
def test_row_stack_golden(name):
    rows = ab_enumerate(poset(name))
    text = "\n".join(map(render_row, rows))
    assert (len(rows), hashlib.sha256(text.encode()).hexdigest()[:16]) == ROWS_GOLDEN[name]


def product_poly(r):
    """x^|ones| (1+x)^|twos| times (1+x)^m + x^(m+1) per bundle with m
    conclusion positions, multiplied out in bundle order."""
    poly = RankPolynomial.binomial(r.twos_mask.bit_count()).shifted(r.ones_mask.bit_count())
    for b in r.bundles:
        m = b.conc_mask.bit_count()
        poly = poly * (RankPolynomial.binomial(m) + RankPolynomial.one().shifted(m + 1))
    return poly


def test_cardinality_poly_is_the_product_on_enumerated_rows():
    rng = SplitMix64(4051)
    posets = [gen_layered_poset(LayeredSpec(m, l, t, seed))
              for m, l, t, seed in [(4, 6, 2, 1), (5, 5, 3, 2), (3, 8, 1, 3), (6, 4, 2, 4)]]
    posets += [random_poset(rng, 1 + rng.below(16), density=0.05 * (1 + rng.below(6)))
               for _ in range(20)]
    for p in posets:
        for r in ab_enumerate(p):
            assert cardinality_poly(r) == product_poly(r)


def test_cardinality_poly_is_the_product_on_built_rows():
    rng = SplitMix64(4052)
    rows = [random_rowab(rng, 1 + rng.below(14), max_bundles=4) for _ in range(300)]
    # the same bundle sizes in other orders and ids, on other positions
    rows += [
        RowAB(9, 0b1, 0b10, (Bundle(1, 3, 0b11000), Bundle(2, 6, 0b110000000))),
        RowAB(9, 0b1, 0b10, (Bundle(5, 3, 0b110000000), Bundle(2, 6, 0b11000))),
        RowAB(9, 0b11, 0, (Bundle(1, 3, 0b1000), Bundle(2, 5, 0b110000000))),
        RowAB(9, 0, 0b11, (Bundle(2, 3, 0b1000), Bundle(1, 5, 0b110000000))),
        RowAB(6, 0, 0, (Bundle(1, 1, 0b10), Bundle(2, 3, 0b1000), Bundle(3, 5, 0b100000))),
    ]
    assert any(len(r.bundles) >= 2 for r in rows)
    for r in rows:
        assert cardinality_poly(r) == product_poly(r)


def signature_stream():
    """Rows of pairwise distinct signatures, |twos| growing, with and
    without bundles."""
    for n in range(200):
        yield RowAB(n + 5, 0, (1 << n) - 1)
        yield RowAB(n + 5, 0, (1 << n) - 1, (Bundle(1, n + 1, 0b1110 << n),))


def cache_cells():
    return sum(map(len, abrows._factors.values()))


def test_factor_cache_stays_under_its_cell_cap(monkeypatch):
    monkeypatch.setattr(abrows, "_factors", {})
    monkeypatch.setattr(abrows, "_factor_cells", 0)
    for r in signature_stream():
        assert cardinality_poly(r) == product_poly(r)
        assert cache_cells() == abrows._factor_cells <= abrows._FACTOR_MAX_CELLS
    # the stream holds more cells than the cap, so the cache was cleared
    assert sum(2 * n + 6 for n in range(200)) > abrows._FACTOR_MAX_CELLS
    assert len(abrows._factors) < 400


def test_factor_larger_than_the_cap_is_not_kept(monkeypatch):
    monkeypatch.setattr(abrows, "_FACTOR_MAX_CELLS", 40)
    monkeypatch.setattr(abrows, "_factors", {})
    monkeypatch.setattr(abrows, "_factor_cells", 0)
    for r in signature_stream():
        assert cardinality_poly(r) == product_poly(r)
        assert cache_cells() == abrows._factor_cells <= 40
    assert all(len(f) <= 40 for f in abrows._factors.values())
