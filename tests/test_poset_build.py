"""Differential test of Poset construction against a plain set-based
Warshall closure, on seeded relation lists with duplicates, self-loops,
reversed pairs, cycles and out-of-range pairs, plus chains, antichains and
disjoint unions."""

import pytest

from wildrows import InputError, Poset, SplitMix64


def reference(w, relations):
    """What Poset(w, relations) must hold, derived with sets alone: either
    ("error", message) or ("ok", le_pairs, lower_covers, linext)."""
    for u, v in relations:
        if not (1 <= u <= w and 1 <= v <= w):
            return "error", f"relation ({u},{v}) outside universe 1..{w}"
    le = {(e, e) for e in range(1, w + 1)} | set(relations)
    for k in range(1, w + 1):
        for i in range(1, w + 1):
            if (i, k) in le:
                for j in range(1, w + 1):
                    if (k, j) in le:
                        le.add((i, j))
    cyclic = sorted((u, v) for u, v in le if u != v and (v, u) in le)
    if cyclic:
        u, v = cyclic[0]
        return "error", f"not antisymmetric: {u} and {v} are in a cycle"
    lt = {(u, v) for u, v in le if u != v}
    lower = {
        e: {c for c in range(1, w + 1) if (c, e) in lt and not any((c, d) in lt and (d, e) in lt for d in range(1, w + 1))}
        for e in range(1, w + 1)
    }
    linext = []
    while len(linext) < w:  # greedy least available label: the lexicographically least extension
        placed = set(linext)
        linext.append(min(e for e in range(1, w + 1) if e not in placed and all(c in placed for c, d in lt if d == e)))
    return "ok", le, lower, tuple(linext)


def random_relations(rng, w):
    """Pairs along a hidden permutation, spiced with duplicates, self-loops,
    reversed pairs (cycles) and the odd out-of-range pair."""
    perm = rng.sample(range(1, w + 1), w)
    rels = []
    for _ in range(rng.below(2 * w + 2)):
        i, j = sorted((rng.below(w), rng.below(w))) if w else (0, 0)
        if not w:
            break
        rels.append((perm[i], perm[j]))
        kind = rng.below(40)
        if kind == 0:
            rels.append((perm[j], perm[i]))
        elif kind == 1:
            rels.append(rels[rng.below(len(rels))])
        elif kind == 2:
            e = 1 + rng.below(w)
            rels.append((e, e))
    if rng.below(30) == 0:
        bad = (-1, 0, w + 1)[rng.below(3)]
        rels.insert(rng.below(len(rels) + 1), (bad, 1) if rng.below(2) else (1, bad))
    return rels


def shifted(rels, by):
    return [(u + by, v + by) for u, v in rels]


def instances():
    rng = SplitMix64(0x5EED_2012)
    for _ in range(400):
        w = rng.below(13)
        yield w, random_relations(rng, w)
    for w in range(13):
        yield w, [(i, i + 1) for i in range(1, w)]            # chain
        yield w, [(i + 1, i) for i in range(1, w)]            # reversed chain
        yield w, []                                           # antichain
        yield w, [(i, i) for i in range(1, w + 1)]            # only self-loops
        yield w, [(i, i + 1) for i in range(1, w)] + ([(w, 1)] if w > 1 else [])  # one big cycle
    for _ in range(60):  # disjoint unions of two acyclic parts
        a, b = rng.below(7), rng.below(7)
        left = [(u, v) for u, v in random_relations(rng, a) if 1 <= u < v <= a]
        right = [(u, v) for u, v in random_relations(rng, b) if 1 <= u < v <= b]
        yield a + b, left + shifted(right, a)


@pytest.mark.parametrize("w,relations", list(instances()))
def test_poset_matches_warshall_reference(w, relations):
    expected = reference(w, relations)
    if expected[0] == "error":
        with pytest.raises(InputError) as info:
            Poset(w, relations)
        assert str(info.value) == expected[1]
        return
    _, le, lower, linext = expected
    p = Poset(w, relations)
    elements = range(1, w + 1)
    for u in elements:
        assert p.down_set(u) == {c for c in elements if (c, u) in le}
        assert p.up_set(u) == {c for c in elements if (u, c) in le}
        assert p.lower_covers(u) == lower[u]
        assert p.upper_covers(u) == {e for e in elements if u in lower[e]}
        for v in elements:
            assert p.le(u, v) == ((u, v) in le)
    assert p.linext == linext
    covers = [(c, e) for e in elements for c in lower[e]]
    assert p == Poset(w, covers) == Poset(w, sorted(le))
    assert p != Poset(w + 1, covers)
    assert (p == Poset.antichain(w)) == (not covers)


def wide_instances():
    """Relation lists with w in 65..80, so that masks span several CPython
    digits and more than one 64-bit word."""
    rng = SplitMix64(0x5EED_0065)
    for _ in range(3):
        w = 65 + rng.below(16)
        yield w, random_relations(rng, w)
    for _ in range(3):  # acyclic: up to three pairs into each element along a hidden permutation
        w = 65 + rng.below(16)
        perm = rng.sample(range(1, w + 1), w)
        yield w, [(perm[rng.below(j)], perm[j]) for j in range(1, w) for _ in range(rng.below(4))]
    perm = rng.sample(range(1, 71), 70)
    yield 70, [(perm[i], perm[j]) for i in range(70) for j in range(i + 1, 70)]  # a chain listing all its pairs
    yield 80, [(i, i + 1) for i in range(1, 80)] + [(80, 77)]  # a cycle through the highest labels


@pytest.mark.parametrize("w,relations", list(wide_instances()))
def test_poset_matches_warshall_reference_on_multiword_masks(w, relations):
    test_poset_matches_warshall_reference(w, relations)


def rising_relations(rng, w):
    """Pairs u < v, with duplicates and self-loops mixed in: every pair
    u != v rises in label."""
    rels = []
    for _ in range(rng.below(2 * w + 2) if w else 0):
        u, v = sorted((1 + rng.below(w), 1 + rng.below(w)))
        rels.append((u, v))  # u == v now and then: a self-loop
        kind = rng.below(6)
        if kind == 0:
            rels.append(rels[rng.below(len(rels))])
        elif kind == 1:
            e = 1 + rng.below(w)
            rels.append((e, e))
    return rels


def rising_instances():
    """Rising relation lists on w = 0, 1, a few small sizes and masks of one
    and two 64-bit words; each also with out-of-range pairs at the start, in
    the middle and at the end (two of them, so the first must be named),
    and with one reversed pair appended, which closes a cycle."""
    rng = SplitMix64(0x5EED_0021)
    for w in (0, 1, 1, 2, 3, 5, 8, 12, 12, 40, 64, 70):
        rels = rising_relations(rng, w)
        yield w, rels
        yield w, rels + rels[: len(rels) // 2] + [(e, e) for e in range(1, w + 1)]
        mid = len(rels) // 2
        for bad in ((0, 1), (1, w + 1), (w + 1, w + 2), (-1, w)):
            yield w, [bad] + rels
            yield w, rels[:mid] + [bad] + rels[mid:] + [(w + 5, 1)]
            yield w, rels + [bad]
        steps = [(u, v) for u, v in rels if u < v]
        if steps:
            u, v = steps[rng.below(len(steps))]
            yield w, rels + [(v, u)]
        if w >= 3:
            yield w, [(i, i + 1) for i in range(1, w)] + [(w, 1)]  # a cycle through every label


RISING = list(rising_instances())


def test_the_rising_instances_cover_the_edge_cases():
    ws = {w for w, _ in RISING}
    assert {0, 1} <= ws and any(w <= 64 for w in ws if w > 1) and any(w > 64 for w in ws)
    ok = [(w, rels) for w, rels in RISING if reference(w, rels)[0] == "ok"]
    assert any(len(rels) > len(set(rels)) for _, rels in ok)
    assert any(u == v for _, rels in ok for u, v in rels)
    assert any(w == 1 and rels for w, rels in ok)
    errors = [reference(w, rels)[1] for w, rels in RISING if reference(w, rels)[0] == "error"]
    assert any(text.startswith("not antisymmetric") for text in errors)
    assert any(text.startswith("relation (") for text in errors)


@pytest.mark.parametrize("w,relations", RISING)
def test_rising_relations_match_warshall_reference(w, relations, monkeypatch):
    if all(u <= v for u, v in relations):
        # every pair in range rises: the topological sort must not run
        monkeypatch.setattr("wildrows.core.heapq", None)
    test_poset_matches_warshall_reference(w, relations)


@pytest.mark.parametrize("cases", [RISING, list(instances())], ids=["rising", "random"])
def test_one_shot_iterable_builds_the_same_poset(cases):
    # Poset reads its relations once, into masks and adjacency lists alike,
    # so an iterator (repeats and self-loops included) gives the same order,
    # or the same error text
    for w, relations in cases:
        try:
            expected = Poset(w, relations)
        except InputError as err:
            with pytest.raises(InputError) as info:
                Poset(w, iter(relations))
            assert str(info.value) == str(err), (w, relations)
            continue
        p = Poset(w, iter(relations))
        assert p.linext == expected.linext, (w, relations)
        for table in ("down_masks", "up_masks", "lower_cover_masks", "upper_cover_masks"):
            assert getattr(p, table) == getattr(expected, table), (w, relations, table)


@pytest.mark.parametrize("bad", [(1, "2"), (1.0, 2), (1, 2.0), (1.5, 2), (None, 1), ([1], 2)],
                         ids=repr)
def test_a_non_int_label_is_named_by_repr(bad):
    # a label that is no int in 1..w is refused with InputError, not with the
    # TypeError of a list index; the first bad relation is named
    for relations in ([bad], [(1, 2), bad, (0, 1)]):
        with pytest.raises(InputError) as info:
            Poset(3, relations)
        assert str(info.value) == f"relation ({bad[0]!r},{bad[1]!r}) outside universe 1..3"


def test_bool_labels_and_a_float_self_loop_are_accepted():
    # bools are ints; a self-loop is skipped before any list is indexed
    assert Poset(3, [(True, 2)]) == Poset(3, [(1, 2)])
    assert Poset(3, [(2.0, 2.0), (1, 3)]) == Poset(3, [(1, 3)])


@pytest.mark.parametrize("w, relations, text", [
    (3, [(1, 2, 3)], "relation (1, 2, 3) is not a pair"),
    (3, [1], "relation 1 is not a pair"),
    (3, [(1, 2), (2,)], "relation (2,) is not a pair"),
    (2.0, [], "size must be an int, got 2.0"),
    ("3", [], "size must be an int, got '3'"),
], ids=repr)
def test_a_relation_that_is_no_pair_or_a_size_that_is_no_int_is_refused(w, relations, text):
    # InputError rather than the ValueError or TypeError of an unpack, a
    # comparison or a list size
    with pytest.raises(InputError) as info:
        Poset(w, relations)
    assert str(info.value) == text
