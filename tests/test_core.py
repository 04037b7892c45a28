import itertools
import math
import time
import tracemalloc

import pytest
from conftest import random_row012, random_rowab, sets_of

from wildrows import (
    Closer,
    Implication,
    ImplicationFamily,
    InputError,
    Poset,
    RankPolynomial,
    Row012,
    RowAB,
    SplitMix64,
    Tree,
    ab_impose,
    brute_oracle,
    close,
    gen_random_tree,
    ideal_oracle,
    is_model,
    natural_base,
    parse_row,
    render_row,
    row012_count,
    row012_members,
    rowab_count,
    rowab_members,
    steiner_closure,
    subtree_oracle,
)
from wildrows.core import Bundle, _within, from_mask, row012_k_members, union_over
from wildrows.engine import EngineStats, FinalStack

ROW5_TEXT = "0 0 1 1 2 2 2 a1 b1 b1 a2 b2 b2 b2 a3 b3"


# ---------------------------------------------------------------------------
# Row012

def test_row012_count_full_powerset():
    assert row012_count(Row012.from_entries([2] * 7)) == 128


def test_row012_count_final_stack_rows():
    assert row012_count(parse_row("0 2 0 2 0 0 2")) == 8
    assert row012_count(parse_row("2 2 1 1 1 1 1")) == 4


def test_row012_list_k_simple():
    r = parse_row("1 0 2 2")
    assert sets_of(row012_k_members(r, 2)) == [(1, 3), (1, 4)]


def test_row012_list_k_from_toy_bottom_row():
    # frozen via exhaustive sweep of the toy family's models
    assert sets_of(row012_k_members(parse_row("0 2 0 2 0 0 2"), 3)) == [(2, 4, 7)]


def test_row012_list_k_below_forced_size():
    assert list(row012_k_members(parse_row("1 1 0 2 0 0 2"), 1)) == []


def test_row012_counting_identity_random():
    rng = SplitMix64(11)
    for _ in range(60):
        w = 1 + rng.below(10)
        r = random_row012(rng, w)
        total = 0
        for k in range(w + 1):
            members = list(row012_k_members(r, k))
            need = k - len(r.ones)
            expect = math.comb(len(r.twos), need) if 0 <= need <= len(r.twos) else 0
            assert len(members) == expect
            assert all(len(m) == k and m in r for m in members)
            total += len(members)
        assert total == row012_count(r)
        assert sets_of(row012_members(r)) == sets_of(
            m for k in range(w + 1) for m in row012_k_members(r, k)
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


def test_row012_repr():
    assert repr(Row012.from_entries((1, 0, 2))) == "Row012(1 0 2)"
    assert repr(Row012(0, 0, 0)) == "Row012()"


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


def test_rowab_repr():
    assert repr(parse_row("a1 b1 2 0 1 a12 b12 b12")) == "RowAB(a1 b1 2 0 1 a12 b12 b12)"
    assert repr(RowAB(0, 0, 0)) == "RowAB()"


@pytest.mark.parametrize("args, message", [
    ((2, 0b100, 0), "row mask outside universe"),
    ((2, 0b01, 0b01), "ones and twos overlap"),
    ((3, 0, 0, (Bundle(1, 1, 0b10), Bundle(1, 3, 0b10))), "duplicate bundle id 1"),
    ((3, 0, 0, (Bundle(4, 1, 0),)), "bundle 4 has an empty conclusion"),
    ((3, 0, 0, (Bundle(2, 1, 0b1000),)), "bundle position outside universe"),
    ((3, 0, 0, (Bundle(5, 1, 0b011),)), "bundle 5 premise inside its conclusion"),
    ((3, 0b10, 0, (Bundle(6, 1, 0b010),)), "bundle positions overlap other row parts"),
    ((3, 0, 0, (Bundle(1, 0, 0b10),)), "bundle position outside universe"),
    ((2, 0, 0, (Bundle(0, 1, 0b10),)), "bundle id 0 below 1"),
    ((5, 0, 0b11000, (Bundle(1, 1, 0b110),), 1), "next_bundle 1 not above bundle id 1"),
])
def test_rowab_validation_messages(args, message):
    with pytest.raises(InputError) as e:
        RowAB(*args)
    assert str(e.value) == message


def test_row012_and_bundle_free_rowab_agree():
    # a {0,1,2} row is a {0,1,2,a,b} row with no bundles: zeros, membership
    # (labels 0 and w+1 included) and hash agree on every row of w <= 5
    for w in range(6):
        subsets = [from_mask(m) for m in range(1 << w)] + [{0}, {w + 1}, {1, 0}, {1, w + 1}]
        for cells in itertools.product((0, 1, 2), repeat=w):
            ones = sum(1 << i for i, c in enumerate(cells) if c == 1)
            twos = sum(1 << i for i, c in enumerate(cells) if c == 2)
            plain, ab = Row012(w, ones, twos), RowAB(w, ones, twos)
            assert plain.zeros_mask == ab.zeros_mask
            assert [x in plain for x in subsets] == [x in ab for x in subsets]
            assert hash(plain) == hash((w, ones, twos))
            assert hash(ab) == hash((w, ones, twos, ()))


def test_rowab_bundle_conclusion_unknown_id():
    with pytest.raises(KeyError) as e:
        parse_row("a1 b1").bundle_conclusion(2)
    assert e.value.args == (2,)


# ---------------------------------------------------------------------------
# member streams

def _reference_row012_list_k(r, k):
    base = r.ones
    need = k - len(base)
    free = sorted(r.twos)
    if need < 0 or need > len(free):
        return []
    return [base | frozenset(extra) for extra in itertools.combinations(free, need)]


def _reference_row012_members(r):
    for k in range(len(r.ones), len(r.ones) + len(r.twos) + 1):
        yield from _reference_row012_list_k(r, k)


def _reference_rowab_members(r):
    # builds every bundle's choice list up front: the order to keep
    free = sorted(from_mask(r.twos_mask))
    bundle_choices = []
    for b in r.bundles:
        conc = sorted(from_mask(b.conc_mask))
        opts = [frozenset(c) for n in range(len(conc) + 1) for c in itertools.combinations(conc, n)]
        opts.append(frozenset([b.prem, *conc]))
        bundle_choices.append(opts)
    base = r.ones
    for n in range(len(free) + 1):
        for extra in itertools.combinations(free, n):
            for picks in itertools.product(*bundle_choices):
                yield base | frozenset(extra) | frozenset().union(*picks)


def _edge_rows():
    rows012 = [Row012(0, 0, 0), Row012.from_entries([1, 0, 1]), Row012.from_entries([0, 0]),
               Row012.from_entries([2]), Row012.full(5)]
    rowsab = [RowAB(0, 0, 0), parse_row("1 0 1", kind="ab"), parse_row("a1 b1"),
              parse_row("a1 b1 a2 b2 b2 a3 b3"), parse_row("b2 a1 2 b1 b1 1 a2 0 a7 b7 2 b7")]
    return rows012, rowsab


def test_member_order_matches_reference():
    rng = SplitMix64(37)
    rows012, rowsab = _edge_rows()
    for _ in range(40):
        w = rng.below(10)
        rows012.append(random_row012(rng, w))
        rowsab.append(random_rowab(rng, w + 2))
    for r in rows012:
        assert list(row012_members(r)) == list(_reference_row012_members(r))
        for k in range(-1, r.w + 2):
            assert list(row012_k_members(r, k)) == _reference_row012_list_k(r, k)
    stack = FinalStack(tuple(rows012), EngineStats())
    assert list(stack.sets()) == [s for r in rows012 for s in _reference_row012_members(r)]
    for k in range(-1, 12):
        assert list(stack.sets(k)) == [s for r in rows012 for s in _reference_row012_list_k(r, k)]
    for r in rowsab:
        assert list(rowab_members(r)) == list(_reference_rowab_members(r))


def _peak_before_first(members) -> int:
    tracemalloc.start()
    try:
        next(members())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_members_stream_without_building_the_row():
    # one bundle of 18 conclusion positions holds 2^18 + 1 choices, and the
    # 11-element members of the all-2 row of length 22 are C(22, 11) sets
    bundle18 = parse_row(" ".join(["b1"] * 18 + ["a1"]))
    assert _peak_before_first(lambda: rowab_members(bundle18)) < 1 << 20
    stack = FinalStack((Row012.full(22),), EngineStats())
    assert _peak_before_first(lambda: stack.sets(11)) < 1 << 20
    assert _peak_before_first(lambda: row012_members(Row012.full(22))) < 1 << 20


def test_membership_matches_members():
    rng = SplitMix64(41)
    rows = [r for kind in _edge_rows() for r in kind]
    for _ in range(30):
        w = rng.below(7)
        rows += [random_row012(rng, w), random_rowab(rng, w + 2)]
    for r in rows:
        members = set(rowab_members(r) if isinstance(r, RowAB) else row012_members(r))
        for bits in itertools.product([0, 1], repeat=r.w + 1):
            x = frozenset(i + 1 for i, b in enumerate(bits) if b)
            assert (x in r) == (x in members), (r, x)
    assert frozenset({5}) not in RowAB.full(3)
    assert {2, 3, 9} not in parse_row("2 a1 b1")


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


def test_render_row_rejects_non_rows():
    for obj, message in [(5, "not a row: 5"), ("1 2", "not a row: '1 2'")]:
        with pytest.raises(TypeError) as e:
            render_row(obj)
        assert str(e.value) == message


def test_parse_row_bad_kind():
    with pytest.raises(ValueError) as e:
        parse_row("1 2", kind="x")
    assert type(e.value) is ValueError and str(e.value) == "bad kind 'x'"
    # tokens are checked before the kind
    with pytest.raises(InputError, match="unknown row token 'zz' at position 2"):
        parse_row("1 zz", kind="x")


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
    # bools are ints, as in Tree
    assert ImplicationFamily(True, [Implication({True}, set())]).masks == ((1, 0),)
    fam = ImplicationFamily(7, [Implication({5}, {6, 7}), Implication({3}, {4, 5})])
    assert fam.h == 2
    assert fam.total_length == 3 + 3
    assert fam.total_length <= fam.w * fam.h


@pytest.mark.parametrize("build, text", [
    (lambda: ImplicationFamily("3", []), "size must be an int, got '3'"),
    (lambda: ImplicationFamily(2.0, []), "size must be an int, got 2.0"),
    (lambda: ImplicationFamily.from_masks(2.0, []), "size must be an int, got 2.0"),
    (lambda: ImplicationFamily(3, [Implication({1.5}, {1})]), "element 1.5 outside universe 1..3"),
    (lambda: ImplicationFamily(3, [Implication({"a"}, {1})]), "element 'a' outside universe 1..3"),
    (lambda: ImplicationFamily(3, [Implication({1}, {2, "b"})]), "element 'b' outside universe 1..3"),
    (lambda: ImplicationFamily.from_masks(3, [(1.5, 1)]), "mask pair (1.5,1) is not two ints"),
    (lambda: ImplicationFamily.from_masks(3, [(0b1, 0b10), (1, "2")]), "mask pair (1,'2') is not two ints"),
], ids=["str-size", "float-size", "float-size-from-masks", "float-label", "str-premise-label",
        "str-conclusion-label", "float-mask", "str-mask"])
def test_family_refuses_a_size_label_or_mask_that_is_no_int(build, text):
    # InputError rather than the TypeError of a comparison, a shift or an
    # OR; ImplicationFamily(2.0, []) was once accepted with w = 2.0
    with pytest.raises(InputError) as bad:
        build()
    assert str(bad.value) == text


# ---------------------------------------------------------------------------
# posets

def test_poset_transitive_closure_and_covers():
    p = Poset(3, [(1, 2), (2, 3)])
    assert p.le(1, 3)
    assert p.lower_covers(3) == {2} and p.lower_covers(2) == {1} and p.lower_covers(1) == frozenset()
    # a label outside 1..w is refused, not read from the order tables
    queries = (p.lower_covers, p.upper_covers, p.down_set, p.up_set,
               lambda e: p.le(1, e), lambda e: p.le(e, 3))
    for e in (0, -1, -3, 4, 5):
        for query in queries:
            with pytest.raises(InputError) as bad:
                query(e)
            assert str(bad.value) == f"element {e} outside universe 1..3"


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


def test_cycle_report_names_least_cycle_element_and_its_least_partner():
    # a long chain whose only cycle is at its top
    rels = [(i, i + 1) for i in range(1, 4096)] + [(4096, 4095)]
    with pytest.raises(InputError) as bad:
        Poset(4096, rels)
    assert str(bad.value) == "not antisymmetric: 4095 and 4096 are in a cycle"
    # two disjoint cycles: the one holding the least cycle element is
    # reported, although the other has the smaller second element
    with pytest.raises(InputError) as bad:
        Poset(9, [(1, 9), (9, 1), (3, 4), (4, 3), (2, 5)])
    assert str(bad.value) == "not antisymmetric: 1 and 9 are in a cycle"
    with pytest.raises(InputError) as bad:
        Poset(7, [(2, 7), (7, 5), (5, 2), (3, 4), (4, 3)])
    assert str(bad.value) == "not antisymmetric: 2 and 5 are in a cycle"


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
    # a label above w: no subset of 1..w, so no ideal
    assert not p.is_ideal({4}) and not p.is_ideal({1, 2, 3, 4}) and not p.is_ideal(1 << 70)


def test_poset_relation_outside_universe():
    with pytest.raises(InputError):
        Poset(2, [(1, 3)])


def test_poset_negative_size():
    with pytest.raises(InputError) as e:
        Poset(-1)
    assert str(e.value) == "poset size must be nonnegative, got -1"


def test_poset_repr():
    assert repr(Poset(4, [(1, 2), (1, 3), (2, 4), (3, 4)])) == "Poset(w=4, covers=[(1, 2), (1, 3), (2, 4), (3, 4)])"
    assert repr(Poset(0)) == "Poset(w=0, covers=[])"


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


@pytest.mark.parametrize("bad", [(1, "2"), (1.0, 2), (1, 2.5), (None, 1), ([1], 2)])
def test_tree_refuses_a_non_int_label(bad):
    # a label that is no int is refused with InputError and named by repr,
    # not with the TypeError of a comparison, a list index or a shift
    with pytest.raises(InputError) as e:
        Tree(3, [bad, (2, 3)])
    assert str(e.value) == f"bad tree edge ({bad[0]!r},{bad[1]!r})"


def test_tree_int_texts_and_bool_labels_stay():
    with pytest.raises(InputError) as e:
        Tree(3, [(1, 4), (2, 3)])
    assert str(e.value) == "bad tree edge (1,4)"
    # bools are ints
    assert Tree(3, [(True, 2), (2, 3)]) == Tree.path_graph(3)


@pytest.mark.parametrize("w, edges, text", [
    (3, [(1, 2, 3), (2, 3)], "bad tree edge (1, 2, 3) is not a pair"),
    (3, [1, (2, 3)], "bad tree edge 1 is not a pair"),
    (2.0, [(1, 2)], "size must be an int, got 2.0"),
    ("3", [], "size must be an int, got '3'"),
], ids=repr)
def test_tree_refuses_an_edge_that_is_no_pair_and_a_size_that_is_no_int(w, edges, text):
    # InputError rather than the ValueError or TypeError of an unpack, a
    # comparison or a list size
    with pytest.raises(InputError) as e:
        Tree(w, edges)
    assert str(e.value) == text


def test_tree_without_vertices():
    with pytest.raises(InputError) as e:
        Tree(0, [])
    assert str(e.value) == "tree needs at least one vertex, got w=0"


def test_tree_repr():
    assert repr(Tree(3, [(2, 3), (1, 2)])) == "Tree(w=3, edges=[(1, 2), (2, 3)])"
    assert repr(Tree(1, [])) == "Tree(w=1, edges=[])"


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
        assert [t.neighbors(v) for v in t.vertices] == adj[1:]
        assert [t.degree(v) for v in t.vertices] == [len(ns) for ns in adj[1:]]
        assert t.bfs_order == tuple(order)
        assert t.bfs_parent == tuple(parent)
    # a label outside 1..w is refused, not read from the neighbour masks
    t = Tree.path_graph(3)
    for e in (0, -1, 4):
        for query in (t.neighbors, t.degree):
            with pytest.raises(InputError) as bad:
                query(e)
            assert str(bad.value) == f"element {e} outside universe 1..3"


def test_union_over_edge_cases():
    # a dict without key 0 fails on any read of index 0
    table = {e: 1 << (e + 200) for e in range(1, 151)}
    assert union_over(table, 0) == 0
    assert union_over({}, 0) == 0
    mask = 1 << 0 | 1 << 63 | 1 << 64 | 1 << 149
    assert union_over(table, mask) == 1 << 201 | 1 << 264 | 1 << 265 | 1 << 350
    assert union_over(table, (1 << 150) - 1) == sum(table.values())


# ---------------------------------------------------------------------------
# set-taking entry points and labels outside 1..w

def test_set_taking_calls_refuse_labels_below_one():
    # a set holding 0 or a negative label is refused with the text of any
    # label outside 1..w, naming that label, not a bare shift error
    family = natural_base(Poset.chain(3))
    calls = (
        lambda s: steiner_closure(Tree.path_graph(3), s),
        lambda s: close(s, family),
        Closer(family).close,
        lambda s: is_model(s, family),
        lambda s: ab_impose(RowAB.full(3), 1, s),
    )
    for call in calls:
        for seed, e in (({0}, 0), ({-2}, -2), ({2, 0}, 0), ({3, -1}, -1)):
            with pytest.raises(InputError) as bad:
                call(seed)
            assert str(bad.value) == f"element {e} outside universe 1..3"
    # a model is a subset of 1..w: a label above w makes it no model
    assert is_model({1}, family)
    assert not is_model({4}, family)
    assert not is_model({1, 2, 3, 4}, family)
    assert not is_model(0b1000, family)


def test_mask_taking_calls_refuse_negative_masks():
    # a negative int is no mask: refused naming it, not read as a set of
    # labels (whose lowest bit would name a label inside the universe)
    family = natural_base(Poset.chain(3))
    calls = (
        lambda m: _within(m, 3),
        lambda m: steiner_closure(Tree.path_graph(3), m),
        lambda m: close(m, family),
        Closer(family).close,
        lambda m: is_model(m, family),
        lambda m: ab_impose(RowAB.full(3), 1, m),
        lambda m: ImplicationFamily.from_masks(3, [(m, 1)]),
        lambda m: ImplicationFamily.from_masks(3, [(1, 0b10), (1, m)]),
    )
    for call in calls:
        for m in (-1, -2, -4, -(1 << 70)):
            with pytest.raises(InputError) as bad:
                call(m)
            assert str(bad.value) == f"negative mask {m}"
    # the answering calls still answer
    p = Poset.chain(3)
    assert not p.is_ideal(-1) and -1 not in Row012.full(3) and -1 not in RowAB.full(3)
    for oracle in (ideal_oracle(p), subtree_oracle(Tree.path_graph(3)), brute_oracle(family)):
        assert oracle(-1, 0, 2) is False and oracle(0, -1, 2) is False


def test_set_answering_calls_treat_labels_below_one_as_outside():
    # membership tests and the built-in oracles answer for a label below 1
    # as they do for a label above w
    p = Poset.chain(3)
    oracles = (ideal_oracle(p), subtree_oracle(Tree.path_graph(3)), brute_oracle(natural_base(p)))
    for bad in (0, -1, 4):
        assert not p.is_ideal({bad})
        assert not p.is_ideal({1, bad})
        assert {1, bad} not in Row012.full(3)
        assert {bad} not in RowAB.full(3)
        for oracle in oracles:
            assert oracle({1, bad}, set(), 2) is False
            assert oracle(set(), {bad}, 3) is True
            assert oracle({1}, {3, bad}, 2) is True
    assert p.is_ideal({1, 2}) and {1, 2} in Row012.full(3) and {1, 2} in RowAB.full(3)


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


def test_rank_polynomial_strips_a_long_zero_tail_in_linear_time():
    start = time.perf_counter()
    assert RankPolynomial((1,) + (0,) * 100_000) == RankPolynomial((1,))
    assert time.perf_counter() - start < 1.0
    coeffs = (1, 3, 3, 1)
    assert RankPolynomial(coeffs).coefficients is coeffs  # nothing stripped, nothing copied


def test_rank_polynomial_repr_and_degree():
    assert repr(RankPolynomial((1, 3, 0))) == "RankPolynomial(1, 3)"
    assert repr(RankPolynomial.zero()) == "RankPolynomial()"
    assert repr(RankPolynomial.one()) == "RankPolynomial(1,)"
    assert RankPolynomial((1, 3, 0)).degree == 1
    assert RankPolynomial.binomial(5).degree == 5
    assert RankPolynomial.zero().degree == -1
