import itertools
import math

import pytest
from conftest import random_row012, random_rowab

from wildrows import (
    Implication,
    ImplicationFamily,
    InputError,
    Poset,
    RankPolynomial,
    Row012,
    RowAB,
    SplitMix64,
    Tree,
    gen_random_tree,
    parse_row,
    render_row,
    row012_count,
    row012_list_k,
    row012_members,
    rowab_count,
    rowab_members,
)
from wildrows.core import union_over

ROW5_TEXT = "0 0 1 1 2 2 2 a1 b1 b1 a2 b2 b2 b2 a3 b3"


def sets_of(iterable):
    return sorted(tuple(sorted(s)) for s in iterable)


# ---------------------------------------------------------------------------
# Row012

def test_row012_count_full_powerset():
    assert row012_count(Row012.from_entries([2] * 7)) == 128


def test_row012_count_final_stack_rows():
    assert row012_count(parse_row("0 2 0 2 0 0 2")) == 8
    assert row012_count(parse_row("2 2 1 1 1 1 1")) == 4


def test_row012_list_k_simple():
    r = parse_row("1 0 2 2")
    assert sets_of(row012_list_k(r, 2)) == [(1, 3), (1, 4)]


def test_row012_list_k_from_toy_bottom_row():
    # frozen via exhaustive sweep of the toy family's models
    assert sets_of(row012_list_k(parse_row("0 2 0 2 0 0 2"), 3)) == [(2, 4, 7)]


def test_row012_list_k_below_forced_size():
    assert row012_list_k(parse_row("1 1 0 2 0 0 2"), 1) == []


def test_row012_counting_identity_random():
    rng = SplitMix64(11)
    for _ in range(60):
        w = 1 + rng.below(10)
        r = random_row012(rng, w)
        total = 0
        for k in range(w + 1):
            members = row012_list_k(r, k)
            need = k - len(r.ones)
            expect = math.comb(len(r.twos), need) if 0 <= need <= len(r.twos) else 0
            assert len(members) == expect
            assert all(len(m) == k and m in r for m in members)
            total += len(members)
        assert total == row012_count(r)
        assert sets_of(row012_members(r)) == sets_of(
            m for k in range(w + 1) for m in row012_list_k(r, k)
        )


def test_row012_validation():
    with pytest.raises(InputError):
        Row012(3, 0b011, 0b110)  # overlap
    with pytest.raises(InputError):
        Row012(3, 0b1000, 0)  # out of range
    with pytest.raises(InputError):
        Row012.from_entries([0, 1, 3])


def test_row012_entries_roundtrip():
    r = Row012.from_entries((0, 2, 1, 2, 2, 0, 2))
    assert r.entries == (0, 2, 1, 2, 2, 0, 2)
    assert r.ones == {3} and r.zeros == {1, 6} and r.twos == {2, 4, 5, 7}


# ---------------------------------------------------------------------------
# RowAB

def test_rowab_count_worked_row():
    r = parse_row(ROW5_TEXT)
    assert rowab_count(r) == 1080  # 8 * 5 * 9 * 3


def test_rowab_count_no_bundles():
    assert rowab_count(parse_row("2 2 2", kind="ab")) == 8


def test_rowab_count_single_bundle():
    # frozen: of the 8 subsets of {1,2,3}, those satisfying 1 => {2,3}
    assert rowab_count(parse_row("a1 b1 b1")) == 5


def test_rowab_count_matches_membership_sweep():
    rng = SplitMix64(23)
    widths = [2 + rng.below(9) for _ in range(40)] + [16, 16]
    for w in widths:
        r = random_rowab(rng, w)
        swept = sum(
            1 for bits in itertools.product([0, 1], repeat=w)
            if {i + 1 for i, b in enumerate(bits) if b} in r
        )
        assert rowab_count(r) == swept


def test_rowab_members_agree_with_contains():
    rng = SplitMix64(29)
    for _ in range(25):
        w = 2 + rng.below(8)
        r = random_rowab(rng, w)
        generated = sets_of(rowab_members(r))
        swept = sets_of(
            frozenset(i + 1 for i, b in enumerate(bits) if b)
            for bits in itertools.product([0, 1], repeat=w)
            if {i + 1 for i, b in enumerate(bits) if b} in r
        )
        assert generated == swept


# ---------------------------------------------------------------------------
# render / parse

def test_render_worked_row():
    r = parse_row(ROW5_TEXT)
    assert render_row(r) == ROW5_TEXT
    assert r.ones == {3, 4} and r.twos == {5, 6, 7} and r.zeros == {1, 2}
    assert r.bundle_conclusion(2) == {12, 13, 14}


def test_parse_plain_row():
    r = parse_row("2 2 2")
    assert isinstance(r, Row012) and r.twos == {1, 2, 3}


def test_parse_rejects_malformed():
    with pytest.raises(InputError):
        parse_row("a1 b2")  # bundle 2 has no premise
    with pytest.raises(InputError):
        parse_row("a1 2 2")  # bundle 1 has an empty conclusion
    with pytest.raises(InputError):
        parse_row("a1 a1 b1")  # duplicate premise
    with pytest.raises(InputError):
        parse_row("2 x 2")
    with pytest.raises(InputError):
        parse_row("2 a1 b1", kind="012")


def test_parse_render_roundtrip_random():
    rng = SplitMix64(31)
    for _ in range(50):
        w = 1 + rng.below(12)
        r012 = random_row012(rng, w)
        assert parse_row(render_row(r012), kind="012") == r012
        rab = random_rowab(rng, w)
        assert parse_row(render_row(rab), kind="ab") == rab


# ---------------------------------------------------------------------------
# implications and families

def test_implication_normalizes_overlap():
    imp = Implication({1, 2}, {2, 3})
    assert imp.premise == {1, 2} and imp.conclusion == {3}
    assert imp.length == 3


def test_implication_empty_conclusion_ok():
    assert Implication({1}, set()).conclusion == frozenset()


def test_family_validates_universe():
    with pytest.raises(InputError):
        ImplicationFamily(3, [Implication({4}, {1})])
    # every bad element is refused as input, in a premise and in a conclusion,
    # and before any shift (element 0 or a negative one would shift by < 0)
    for e in (0, -2, 4):
        for imp in (Implication({e}, {1}), Implication({1}, {e}), Implication({2, e}, {1, 3})):
            with pytest.raises(InputError) as bad:
                ImplicationFamily(3, [Implication({1}, {2}), imp])
            assert str(bad.value) == f"element {e} outside universe 1..3"
    with pytest.raises(InputError) as bad:
        ImplicationFamily.from_masks(3, [(0b001, 0b010), (0b1000, 0b001)])
    assert str(bad.value) == "element 4 outside universe 1..3"
    with pytest.raises(InputError) as bad:
        ImplicationFamily.from_masks(3, [(0b001, 0b10010)])
    assert str(bad.value) == "element 5 outside universe 1..3"
    for build in (ImplicationFamily, ImplicationFamily.from_masks):
        with pytest.raises(InputError) as bad:
            build(-1, [])
        assert str(bad.value) == "universe size must be nonnegative, got -1"
    fam = ImplicationFamily(7, [Implication({5}, {6, 7}), Implication({3}, {4, 5})])
    assert fam.h == 2
    assert fam.total_length == 3 + 3
    assert fam.total_length <= fam.w * fam.h


# ---------------------------------------------------------------------------
# posets

def test_poset_transitive_closure_and_covers():
    p = Poset(3, [(1, 2), (2, 3)])
    assert p.le(1, 3)
    assert p.lower_covers(3) == {2} and p.lower_covers(2) == {1} and p.lower_covers(1) == frozenset()


def test_poset_diamond_covers_from_arbitrary_relations():
    # cover relation must come out of the transitive reduction
    p = Poset(4, [(1, 2), (1, 3), (2, 4), (3, 4), (1, 4)])
    assert p.lower_covers(4) == {2, 3}
    assert p.lower_covers(2) == {1} and p.lower_covers(3) == {1}
    assert p.down_set(4) == {1, 2, 3, 4} and p.up_set(1) == {1, 2, 3, 4}


def test_poset_rejects_cycles():
    with pytest.raises(InputError):
        Poset(2, [(1, 2), (2, 1)])
    with pytest.raises(InputError):
        Poset(3, [(1, 2), (2, 3), (3, 1)])


def test_poset_linear_extension_is_compatible():
    p = Poset(4, [(4, 2), (2, 1), (3, 1)])
    pos = {e: i for i, e in enumerate(p.linext)}
    for u in p.elements:
        for v in p.elements:
            if u != v and p.le(u, v):
                assert pos[u] < pos[v]
    # ties broken by label: minimal elements 3,4 -> 3 first
    assert p.linext[0] == 3


def test_poset_is_ideal():
    p = Poset.chain(3)
    assert p.is_ideal({1, 2}) and p.is_ideal(set()) and not p.is_ideal({2})


def test_poset_relation_outside_universe():
    with pytest.raises(InputError):
        Poset(2, [(1, 3)])


# ---------------------------------------------------------------------------
# trees

def test_tree_validation():
    Tree(1, [])
    Tree(2, [(1, 2)])
    with pytest.raises(InputError):
        Tree(3, [(1, 2)])  # too few edges
    with pytest.raises(InputError):
        Tree(3, [(1, 2), (1, 2)])  # duplicate edge
    with pytest.raises(InputError):
        Tree(3, [(1, 2), (3, 3)])  # self-loop
    with pytest.raises(InputError):
        Tree(4, [(1, 2), (3, 4), (1, 2)])  # disconnected (and duplicated)
    # w-1 distinct edges that close a cycle leave a vertex unreached
    for edges in ([(1, 2), (2, 3), (1, 3)], [(2, 3), (3, 4), (2, 4)]):
        with pytest.raises(InputError, match="do not connect"):
            Tree(4, edges)


def test_tree_adjacency():
    t = Tree.star(4)
    assert t.neighbors(1) == (2, 3, 4)
    assert t.degree(3) == 1
    t = Tree(5, [(4, 3), (3, 1), (2, 3), (5, 1)])
    assert t.bfs_order == (1, 3, 5, 2, 4)
    assert t.bfs_parent == (0, 0, 3, 1, 3, 1)
    assert Tree.path_graph(3).edges == ((1, 2), (2, 3))
    # against sorted adjacency lists and a breadth-first search over them
    trees = [Tree(1, []), Tree.path_graph(2), Tree.path_graph(9), Tree.star(8)]
    trees += [gen_random_tree(w, seed) for w, seed in [(3, 1), (10, 2), (40, 3), (90, 4), (130, 5)]]
    for t in trees:
        adj = [[] for _ in range(t.w + 1)]
        for u, v in t.edges:
            adj[u].append(v)
            adj[v].append(u)
        adj = [tuple(sorted(ns)) for ns in adj]
        parent = [0] * (t.w + 1)
        order = [1]
        for u in order:
            for v in adj[u]:
                if v != 1 and not parent[v]:
                    parent[v] = u
                    order.append(v)
        assert [t.neighbors(v) for v in range(t.w + 1)] == adj
        assert [t.degree(v) for v in range(t.w + 1)] == [len(ns) for ns in adj]
        assert t.bfs_order == tuple(order)
        assert t.bfs_parent == tuple(parent)


def test_union_over_edge_cases():
    # a dict without key 0 fails on any read of index 0
    table = {e: 1 << (e + 200) for e in range(1, 151)}
    assert union_over(table, 0) == 0
    assert union_over({}, 0) == 0
    mask = 1 << 0 | 1 << 63 | 1 << 64 | 1 << 149
    assert union_over(table, mask) == 1 << 201 | 1 << 264 | 1 << 265 | 1 << 350
    assert union_over(table, (1 << 150) - 1) == sum(table.values())


# ---------------------------------------------------------------------------
# rank polynomials

def test_rank_polynomial_ops():
    p = RankPolynomial.binomial(3)
    assert p.coefficients == (1, 3, 3, 1)
    assert p.evaluate(1) == 8
    assert p.coefficient(2) == 3 and p.coefficient(9) == 0
    assert (p + RankPolynomial.one()).coefficients == (2, 3, 3, 1)
    assert p.shifted(2).coefficients == (0, 0, 1, 3, 3, 1)
    q = RankPolynomial((1, 1)) * RankPolynomial((1, 1))
    assert q.coefficients == (1, 2, 1)
    assert RankPolynomial((1, 0, 0)).coefficients == (1,)
    assert RankPolynomial.zero().padded(2) == (0, 0, 0)
    assert p.padded(4) == (1, 3, 3, 1, 0)
    with pytest.raises(ValueError):
        RankPolynomial((1, -2))
