"""An implication family stores (premise_mask, conclusion_mask) pairs and
builds its Implication objects on access.  A family built from Implications
and one built from masks must agree on every public face, and the bases and
the k-enumerators must never build an Implication nor convert the base
between sets and masks."""

from collections import deque

import pytest
from conftest import random_family, random_poset

from wildrows import (
    Implication,
    ImplicationFamily,
    Poset,
    SplitMix64,
    Tree,
    enumerate_k_ideals,
    enumerate_k_subtrees,
    gen_random_tree,
    natural_base,
    tree_base,
)
from wildrows import core, ideals, subtrees
from wildrows.bench import LayeredSpec, gen_layered_poset
from wildrows.core import to_mask


def assert_same_family(a, b, expected):
    """a and b agree on every public face, and list `expected` in order."""
    assert a == b and hash(a) == hash(b) and not a != b
    assert repr(a) == repr(b)
    assert list(a) == list(b) == expected
    assert len(a) == len(b) == a.h == b.h == len(expected)
    assert a.w == b.w
    for i in range(-len(a), len(a)):
        assert a[i] == b[i] == expected[i]
    for cut in (slice(None), slice(1, 3), slice(None, None, 2), slice(-2, None), slice(3, 1)):
        assert a[cut] == b[cut] == tuple(expected[cut])
    assert a.total_length == b.total_length == sum(imp.length for imp in expected)
    assert a.masks == b.masks == tuple((to_mask(i.premise), to_mask(i.conclusion)) for i in expected)


def test_random_families_agree_with_their_masks():
    rng = SplitMix64(1901)
    for w in (1, 2, 5, 9, 16, 40, 70):
        for h in (0, 1, 4, 13):
            fam = random_family(rng, w, h)
            imps = list(fam)
            # conclusions given with the premise inside, as from_masks normalizes
            raw = [(to_mask(i.premise), to_mask(i.premise | i.conclusion)) for i in imps]
            assert_same_family(fam, ImplicationFamily.from_masks(w, raw), imps)
            assert_same_family(ImplicationFamily(w, imps), fam, imps)


def test_family_repr_is_unchanged():
    fam = ImplicationFamily.from_masks(3, [(0b001, 0b010), (0, 0b100)])
    assert repr(fam) == "ImplicationFamily(w=3, implications=({1}->{2}, {}->{3}))"
    assert repr(ImplicationFamily(0, [])) == "ImplicationFamily(w=0, implications=())"
    assert repr(ImplicationFamily(2, [Implication({2}, {1, 2})])) == "ImplicationFamily(w=2, implications=({2}->{1},))"


def posets():
    rng = SplitMix64(1907)
    out = [Poset(0), Poset(1), Poset.chain(9), Poset.antichain(7)]
    out += [gen_layered_poset(LayeredSpec(m, l, t, seed)) for m, l, t, seed in
            [(3, 3, 1, 11), (4, 3, 2, 12), (5, 4, 3, 13), (6, 2, 6, 14)]]
    out += [random_poset(rng, w) for w in (3, 8, 14, 20)]
    return out


@pytest.mark.parametrize("p", posets(), ids=lambda p: f"w{p.w}")
def test_natural_base_agrees_with_cover_implications(p):
    expected = [Implication({q}, p.lower_covers(q)) for q in p.linext]
    assert_same_family(natural_base(p), ImplicationFamily(p.w, expected), expected)


def path_interior(t, a, b):
    """Interior of the a-b path by breadth-first search from a."""
    parent = {a: 0}
    queue = deque([a])
    while queue:
        u = queue.popleft()
        for v in t.neighbors(u):
            if v not in parent:
                parent[v] = u
                queue.append(v)
    inside = []
    v = parent[b]
    while v != a:
        inside.append(v)
        v = parent[v]
    return frozenset(inside)


def trees():
    rng = SplitMix64(1913)
    out = [Tree(1, []), Tree(2, [(1, 2)]), Tree.path_graph(3), Tree.path_graph(12), Tree.star(3), Tree.star(11)]
    out += [gen_random_tree(w, rng.next_u64()) for w in (4, 7, 10, 16, 25)]
    return out


@pytest.mark.parametrize("t", trees(), ids=lambda t: f"w{t.w}")
def test_tree_base_agrees_with_path_implications(t):
    pairs = [(a, b) for a in t.vertices for b in range(a + 1, t.w + 1) if b not in t.neighbors(a)]
    interiors = {pair: path_interior(t, *pair) for pair in pairs}
    pairs.sort(key=lambda pair: (-len(interiors[pair]), pair))
    expected = [Implication(frozenset(pair), interiors[pair]) for pair in pairs]
    assert_same_family(tree_base(t), ImplicationFamily(t.w, expected), expected)


def test_bases_and_k_enumerators_build_no_implication(monkeypatch):
    calls = dict.fromkeys(["Implication", "core", "bases"], 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    p = gen_layered_poset(LayeredSpec(4, 4, 2, 5))
    t = gen_random_tree(20, 17)
    monkeypatch.setattr(Implication, "__init__", counted("Implication", Implication.__init__))
    # the family's own conversions live in core; the base builders hold
    # their own references to the helpers, which their oracles also use
    for name in ("to_mask", "from_mask"):
        monkeypatch.setattr(core, name, counted("core", getattr(core, name)))
    for module, name in ((ideals, "_loose_mask"), (subtrees, "_loose_mask"), (subtrees, "from_mask")):
        monkeypatch.setattr(module, name, counted("bases", getattr(module, name)))
    ibase, tbase = natural_base(p), tree_base(t)
    assert calls == {"Implication": 0, "core": 0, "bases": 0}
    assert enumerate_k_ideals(p, 7).count(7) > 0 and enumerate_k_subtrees(t, 6).count(6) > 0
    assert calls["Implication"] == calls["core"] == 0
    # control: reading the members builds them, once per implication
    assert len(list(tbase)) == tbase.h and len(list(ibase)) == ibase.h
    assert calls["Implication"] == tbase.h + ibase.h
