"""Golden Whitney numbers: both paper methods and their by-products on seeded
and edge-shape posets.

Pins the pivot recursion's polynomial and leaf count `nsum` (a paper
quantity), the memoized polynomial, the full poset's pivot, `whitney`, and a
digest of every compact row's cardinality polynomial, so a refactor of the
polynomial arithmetic must leave each of them unchanged.
"""

import hashlib

import pytest

from wildrows import (
    LayeredSpec,
    Poset,
    ab_enumerate,
    cardinality_poly,
    gen_layered_poset,
    pick_pivot,
    rank_poly_recursive,
    whitney,
)

LAYERED = {
    "t1-a": LayeredSpec(4, 4, 1, 31),
    "t1-b": LayeredSpec(5, 5, 1, 32),
    "t1-c": LayeredSpec(6, 4, 1, 33),
    "t1-d": LayeredSpec(3, 7, 1, 34),
    "t2-a": LayeredSpec(4, 4, 2, 35),
    "t2-b": LayeredSpec(5, 4, 2, 36),
    "t2-c": LayeredSpec(4, 6, 2, 37),
    "t2-d": LayeredSpec(6, 3, 2, 38),
    "t3-a": LayeredSpec(4, 4, 3, 39),
    "t3-b": LayeredSpec(5, 4, 3, 40),
    "t3-c": LayeredSpec(4, 5, 3, 41),
    "t3-d": LayeredSpec(3, 6, 3, 42),
}


def poset(name):
    if name in LAYERED:
        return gen_layered_poset(LAYERED[name])
    if name == "w0":
        return Poset(0)
    if name == "w1":
        return Poset(1)
    if name == "chain":
        return Poset.chain(12)
    if name == "antichain":
        return Poset.antichain(6)
    # disjoint union of a 3-chain, a vee, a diamond and a lone point,
    # labelled out of order so the linear extension interleaves them
    return Poset(11, [(7, 2), (2, 9), (4, 10), (1, 10), (3, 5), (3, 8), (5, 6), (8, 6)])


NAMES = list(LAYERED) + ["w0", "w1", "chain", "antichain", "union"]

# name -> (rank polynomial coefficients, nsum, pivot or None when pick_pivot
# raises ValueError, (row count, sha256 prefix of the rows' cardinality
# polynomials)); the memoized recursion and `whitney` must give the same
# coefficients as the plain recursion.
GOLDEN = {
    "t1-a": (
        (1, 4, 10, 21, 39, 64, 94, 126, 152, 163, 157, 137, 105, 65, 29, 8, 1),
        48, 1, (16, "1249906ff683454f"),
    ),
    "t1-b": (
        (1, 5, 15, 36, 75, 146, 276, 502, 860, 1366, 2000, 2716, 3461, 4174, 4769, 5117, 5069, 4542, 3605, 2480, 1442, 686, 255, 69, 12, 1),
        360, 1, (96, "6afca94befff57b3"),
    ),
    "t1-c": (
        (1, 6, 21, 58, 141, 310, 616, 1113, 1850, 2852, 4079, 5389, 6553, 7324, 7514, 7042, 5964, 4489, 2939, 1631, 743, 266, 70, 12, 1),
        336, 3, (30, "f617c774ab6bb698"),
    ),
    "t1-d": (
        (1, 3, 6, 10, 15, 22, 32, 49, 79, 126, 186, 250, 310, 357, 377, 355, 288, 193, 101, 38, 9, 1),
        105, 1, (60, "050d9c7e261174e8"),
    ),
    "t2-a": (
        (1, 4, 6, 8, 10, 12, 15, 18, 21, 23, 26, 31, 33, 27, 16, 6, 1),
        23, 1, (12, "918c601f9a9161c2"),
    ),
    "t2-b": (
        (1, 5, 10, 15, 20, 22, 24, 25, 25, 27, 30, 33, 38, 44, 50, 51, 47, 37, 21, 7, 1),
        57, 1, (53, "d26a3ab16b98ae35"),
    ),
    "t2-c": (
        (1, 4, 6, 8, 10, 12, 15, 18, 21, 23, 27, 33, 36, 35, 32, 29, 25, 20, 18, 18, 18, 16, 11, 5, 1),
        48, 3, (39, "ee75c7602d015750"),
    ),
    "t2-d": (
        (1, 6, 15, 26, 40, 56, 76, 100, 125, 152, 177, 191, 184, 151, 102, 56, 24, 7, 1),
        49, 5, (43, "e1df26d91f7e03d1"),
    ),
    "t3-a": (
        (1, 4, 6, 4, 5, 6, 6, 4, 5, 5, 6, 4, 5, 4, 6, 4, 1),
        19, 3, (18, "ab78acade0c9b523"),
    ),
    "t3-b": (
        (1, 5, 10, 10, 10, 12, 14, 13, 10, 10, 13, 15, 15, 14, 12, 12, 12, 12, 10, 5, 1),
        34, 5, (32, "2ad53a6116cec4a8"),
    ),
    "t3-c": (
        (1, 4, 6, 4, 5, 7, 7, 6, 6, 5, 6, 4, 5, 4, 6, 4, 5, 10, 10, 5, 1),
        25, 2, (22, "b5d5daf537408420"),
    ),
    "t3-d": (
        (1, 3, 3, 1, 3, 3, 1, 3, 3, 1, 3, 3, 1, 3, 3, 1, 3, 3, 1),
        16, 1, (11, "6ef528955ed8294b"),
    ),
    "w0": (
        (1,),
        1, None, (1, "6b86b273ff34fce1"),
    ),
    "w1": (
        (1, 1),
        1, None, (1, "020a7c91e30725bb"),
    ),
    "chain": (
        (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
        12, 1, (5, "576e25833cffd584"),
    ),
    "antichain": (
        (1, 6, 15, 20, 15, 6, 1),
        1, None, (1, "8ba505a0d851c512"),
    ),
    "union": (
        (1, 5, 13, 25, 37, 44, 43, 34, 22, 11, 4, 1),
        18, 3, (4, "8acdea9d8311d587"),
    ),
}


def observe(name):
    p = poset(name)
    rec, nsum = rank_poly_recursive(p)
    assert rank_poly_recursive(p, memo=True) == (rec, None)
    assert whitney(p) == rec
    try:
        pivot = pick_pivot(p)
    except ValueError:
        pivot = None
    rows = ab_enumerate(p)
    text = "\n".join(" ".join(map(str, cardinality_poly(r).coefficients)) for r in rows)
    digest = (len(rows), hashlib.sha256(text.encode()).hexdigest()[:16])
    return rec.coefficients, nsum, pivot, digest


@pytest.mark.parametrize("name", NAMES)
def test_whitney_golden(name):
    assert observe(name) == GOLDEN[name]
