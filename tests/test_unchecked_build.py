"""Rows, polynomials, natural bases and tree bases that the library builds
without the constructors' checks (`Record._trusted`) equal their rebuilds
through the checking public constructors, field for field; the engine's
premise table equals its definition, and `Closer`'s own premise index
counts exactly the decrements that definition implies."""

import pickle
from types import SimpleNamespace

import pytest
from conftest import random_poset
from test_rankpoly import shuffled_layered
from test_whitney_golden import LAYERED, NAMES, poset

from wildrows import (
    Closer,
    ImplicationFamily,
    Poset,
    RankPolynomial,
    RowAB,
    SplitMix64,
    Tree,
    ab_enumerate,
    cardinality_poly,
    gen_random_tree,
    natural_base,
    tree_base,
)
from wildrows.core import poly_mul, to_mask
from wildrows.engine import _premise_table


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
        n = max(len(a.coefficients), len(b.coefficients))
        assert got.coefficients == RankPolynomial([a.coefficient(k) + b.coefficient(k) for k in range(n)]).coefficients
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


@pytest.mark.parametrize("name, p", POSETS, ids=[name for name, _ in POSETS])
def test_natural_base_equals_its_checked_build(name, p):
    got = natural_base(p)
    want = ImplicationFamily.from_masks(p.w, ((1 << (q - 1), p.lower_cover_masks[q]) for q in p.linext))
    assert vars(got) == vars(want)  # w and masks, nothing cached yet
    assert type(got.masks) is tuple and all(type(pair) is tuple for pair in got.masks)
    assert got == want and hash(got) == hash(want)
    assert got.masks == want.masks
    assert got.implications == want.implications
    again = pickle.loads(pickle.dumps(got))
    assert again == want and hash(again) == hash(want) and again.masks == want.masks
    assert again.implications == want.implications


def tree_path(t, a, b):
    """The vertices of the path from a to b, by a breadth-first search."""
    parent = {a: a}
    queue = [a]
    for u in queue:
        for v in t.neighbors(u):
            if v not in parent:
                parent[v] = u
                queue.append(v)
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    return path


def trees():
    """w = 1, 2 and 3, paths, stars, vertex 1 inside and at a leaf, and
    seeded random trees."""
    named = [(f"path-{w}", Tree.path_graph(w)) for w in (1, 2, 3, 4, 9, 17)]
    named += [(f"star-{w}", Tree.star(w)) for w in (3, 4, 9, 17)]
    named += [("middle-root", Tree(6, [(3, 1), (1, 5), (3, 2), (5, 4), (4, 6)])),
              ("leaf-root", Tree(4, [(2, 1), (2, 3), (3, 4)]))]
    rng = SplitMix64(2203)
    named += [(f"random-{i}", gen_random_tree(1 + rng.below(30), rng.next_u64())) for i in range(16)]
    return named


TREES = trees()


def test_the_trees_cover_the_edge_cases():
    assert {1, 2, 3} <= {t.w for _, t in TREES}
    assert any(tree_base(t).h > 64 for _, t in TREES)


@pytest.mark.parametrize("name, t", TREES, ids=[name for name, _ in TREES])
def test_tree_base_equals_its_checked_build(name, t):
    got = tree_base(t)
    # every non-adjacent pair's ends and its whole path, found by search
    # (from_masks drops the ends from the conclusion); longest interiors
    # first, ties in (a, b) order
    pairs = []
    for a in t.vertices:
        for b in range(a + 1, t.w + 1):
            if b not in t.neighbors(a):
                pairs.append((to_mask((a, b)), to_mask(tree_path(t, a, b))))
    pairs.sort(key=lambda pair: (pair[1] & ~pair[0]).bit_count(), reverse=True)
    want = ImplicationFamily.from_masks(t.w, pairs)
    assert vars(got) == vars(want)  # w and masks, nothing cached yet
    assert type(got.masks) is tuple and all(type(pair) is tuple for pair in got.masks)
    assert got == want and hash(got) == hash(want)
    assert got.masks == want.masks
    assert got.implications == want.implications
    again = pickle.loads(pickle.dumps(got))
    assert again == want and hash(again) == hash(want) and again.masks == want.masks
    assert again.implications == want.implications


def general_premise_table(w, masks):
    """table[e] by its definition: the OR of 1 << i over the implications i
    whose premise holds e."""
    return [0] + [sum(1 << i for i, (prem, _) in enumerate(masks) if prem >> (e - 1) & 1)
                  for e in range(1, w + 1)]


def families():
    """Natural bases, tree bases, and singleton-premise families with an
    empty premise, with a two-element premise last, with several
    implications on one premise element and with more than 64 members."""
    named = [(f"natural-{name}", natural_base(p)) for name, p in POSETS]
    trees = [("path-1", Tree(1, [])), ("path-6", Tree(6, [(i, i + 1) for i in range(1, 6)])),
             ("star-7", Tree(7, [(1, i) for i in range(2, 8)]))]
    trees += [(f"random-tree-{w}", gen_random_tree(w, 11 * w)) for w in (2, 5, 9, 14)]
    named += [(f"tree-{name}", tree_base(t)) for name, t in trees]
    singles = [(1 << 2, 0b1), (0, 0b10), (1 << 0, 0b100), (1 << 2, 0b10000), (0, 0), (1 << 4, 0b1000)]
    named.append(("empty-premises", ImplicationFamily.from_masks(5, singles)))
    named.append(("pair-premise-last", ImplicationFamily.from_masks(5, singles + [(0b11000, 0b1)])))
    named.append(("pair-premise-first", ImplicationFamily.from_masks(5, [(0b11000, 0b1)] + singles)))
    rng = SplitMix64(2101)
    wide = [(1 << rng.below(9), 1 << rng.below(9)) for _ in range(150)]
    named.append(("wide-singletons", ImplicationFamily.from_masks(9, wide)))
    named.append(("wide-pair-last", ImplicationFamily.from_masks(9, wide + [(0b110000000, 0b1)])))
    named.append(("no-implications", ImplicationFamily(4, ())))
    return named


FAMILIES = families()


def test_the_families_cover_the_edge_cases():
    premises = [[prem for prem, _ in f.masks] for _, f in FAMILIES]
    assert any(0 in prems and all(p & (p - 1) == 0 for p in prems) for prems in premises)
    assert any(prems and all(p & (p - 1) == 0 for p in prems[:-1]) and prems[-1].bit_count() == 2
               for prems in premises)
    assert any(prems and prems[0].bit_count() == 2 for prems in premises)  # tree bases
    assert any(len(prems) > 64 for prems in premises)


@pytest.mark.parametrize("name, family", FAMILIES, ids=[name for name, _ in FAMILIES])
def test_premise_table_equals_the_general_build(name, family):
    assert _premise_table(family.w, family.masks) == general_premise_table(family.w, family.masks)


@pytest.mark.parametrize("name, family", FAMILIES, ids=[name for name, _ in FAMILIES])
def test_closer_decrements_count_every_premise_of_every_closed_element(name, family):
    # each closed element is popped once and decrements the counter of every
    # implication whose premise holds it, so a run of closures decrements
    # exactly the popcounts of the table rows of the elements it closed
    table = general_premise_table(family.w, family.masks)
    closer = Closer(family)
    rng = SplitMix64(2111)
    want = 0
    for _ in range(6):
        closed = closer.close_mask(to_mask(rng.sample(range(1, family.w + 1), rng.below(family.w + 1))))
        want += sum(table[e].bit_count() for e in range(1, family.w + 1) if closed >> (e - 1) & 1)
    assert closer.decrements == want
