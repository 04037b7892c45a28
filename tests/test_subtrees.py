import hashlib
import itertools
import math

import pytest
from conftest import sets_of

from wildrows import (
    GuardError,
    Implication,
    InputError,
    SplitMix64,
    Tree,
    brute_oracle,
    brute_subtrees,
    close,
    enumerate_k_models,
    enumerate_k_subtrees,
    enumerate_models,
    gen_random_tree,
    steiner_closure,
    subtree_count,
    subtree_oracle,
    tree_base,
)
from wildrows import subtrees
from wildrows.core import from_mask, to_mask
from wildrows.subtrees import TREE_BASE_MAX_CELLS, TREE_BASE_MAX_LENGTH, _base_length, steiner_closure_mask


def is_connected(t, x):
    x = set(x)
    if len(x) <= 1:
        return True
    start = next(iter(x))
    seen = {start}
    queue = [start]
    while queue:
        u = queue.pop()
        for v in t.neighbors(u):
            if v in x and v not in seen:
                seen.add(v)
                queue.append(v)
    return seen == x


def connected_sets_by_sweep(t):
    out = []
    for bits in itertools.product([0, 1], repeat=t.w):
        x = {i + 1 for i, b in enumerate(bits) if b}
        if is_connected(t, x):
            out.append(frozenset(x))
    return out


def test_tree_base_path():
    fam = tree_base(Tree.path_graph(3))
    assert list(fam) == [Implication({1, 3}, {2})]


def test_tree_base_star():
    fam = tree_base(Tree.star(4))  # center 1, leaves 2,3,4
    assert set(fam) == {
        Implication({2, 3}, {1}),
        Implication({2, 4}, {1}),
        Implication({3, 4}, {1}),
    }


def test_tree_base_two_vertices_empty():
    assert tree_base(Tree(2, [(1, 2)])).h == 0


def test_tree_base_size_and_premise_bound():
    rng = SplitMix64(101)
    for w in (3, 5, 8, 11):
        t = gen_random_tree(w, rng.next_u64())
        fam = tree_base(t)
        assert fam.h == math.comb(w, 2) - (w - 1)
        assert all(len(imp.premise) == 2 and imp.conclusion for imp in fam)
    # long paths come first
    fam = tree_base(Tree.path_graph(5))
    lengths = [len(imp.conclusion) for imp in fam]
    assert lengths == sorted(lengths, reverse=True)


def test_models_of_tree_base_are_connected_sets():
    rng = SplitMix64(103)
    for _ in range(12):
        w = 1 + rng.below(12)
        t = gen_random_tree(w, rng.next_u64())
        stack = enumerate_models(tree_base(t))
        assert sets_of(stack.sets()) == sets_of(connected_sets_by_sweep(t))


def test_steiner_closure_examples():
    assert steiner_closure(Tree.path_graph(4), {1, 4}) == {1, 2, 3, 4}
    assert steiner_closure(Tree.path_graph(4), {3}) == {3}
    assert steiner_closure(Tree.star(5), set()) == frozenset()
    # a label above w is refused, named by the highest one
    for seed, top in (({4}, 4), ({1, 9, 5}, 9), (1 << 70 | 1, 71)):
        with pytest.raises(InputError) as bad:
            steiner_closure(Tree.path_graph(3), seed)
        assert str(bad.value) == f"element {top} outside universe 1..3"


def test_steiner_closure_matches_forward_chaining():
    rng = SplitMix64(107)
    trees = [gen_random_tree(1 + rng.below(9), rng.next_u64()) for _ in range(15)]
    trees += [gen_random_tree(w, rng.next_u64()) for w in (12, 20, 27, 33, 40)]
    trees += [Tree.path_graph(w) for w in (1, 2, 5, 17)] + [Tree.star(w) for w in (2, 3, 6, 17)]
    # vertex 1, the root of the path masks, in the middle and at a leaf
    trees += [Tree(6, [(3, 1), (1, 5), (3, 2), (5, 4), (4, 6)]), Tree(4, [(2, 1), (2, 3), (3, 4)])]
    for t in trees:
        w = t.w
        fam = tree_base(t)
        fast = steiner_closure_mask(t)
        seeds = [[], list(t.vertices)] + [[v] for v in t.vertices]
        seeds += [rng.sample(range(1, w + 1), size) for size in range(w + 1)]
        seeds += [rng.sample(range(1, w + 1), rng.below(w + 1)) for _ in range(6)]
        for seed in seeds:
            expect = close(seed, fam)
            assert steiner_closure(t, seed) == expect
            assert fast(sum(1 << (e - 1) for e in seed)) == sum(1 << (e - 1) for e in expect)


def test_subtree_oracle_path_cases():
    t = Tree.path_graph(3)
    oracle = subtree_oracle(t)
    assert oracle(frozenset({1}), frozenset({2}), 2) is False
    assert oracle(frozenset({1}), frozenset(), 3) is True
    assert oracle(frozenset(), frozenset(), 1) is True
    assert oracle(frozenset(), frozenset(), 0) is True
    assert oracle(frozenset({1}), frozenset({1}), 1) is False
    assert oracle(frozenset({1}), frozenset({2}), None) is True
    assert oracle(frozenset({4}), frozenset(), 2) is False
    assert oracle(frozenset(), frozenset({4}), 2) is True


def test_subtree_oracle_agrees_with_exhaustive_search():
    rng = SplitMix64(109)
    for _ in range(20):
        w = 1 + rng.below(9)
        t = gen_random_tree(w, rng.next_u64())
        oracle = subtree_oracle(t)
        connected = connected_sets_by_sweep(t)
        for _ in range(8):
            z0 = steiner_closure(t, rng.sample(range(1, w + 1), rng.below(min(w, 3) + 1)))
            rest = sorted(set(t.vertices) - z0)
            y = frozenset(rng.sample(rest, rng.below(len(rest) + 1)))
            k = rng.below(w + 2)
            expect = any(len(z) == k and z0 <= z and not (y & z) for z in connected)
            assert oracle(z0, y, k) == expect


def oracle_trees(rng):
    """Edge shapes (w = 1 and 2, paths, stars) plus seeded random trees,
    all small enough for the exhaustive oracle."""
    shapes = [Tree.path_graph(1), Tree.path_graph(2), Tree.path_graph(7), Tree.path_graph(12), Tree.star(6), Tree.star(12)]
    return shapes + [gen_random_tree(3 + rng.below(10), rng.next_u64()) for _ in range(8)]


def oracle_queries(rng, t, per_k):
    """Seeded (Z0, Y, k) queries for every k in None, 0..w: Z0 a Steiner
    closure, empty in about a quarter of them; Y a random vertex set, drawn
    from all vertices in about a quarter of them, so that it may meet Z0."""
    for k in (None, 0, *t.vertices):
        for _ in range(per_k):
            z0 = steiner_closure(t, rng.sample(t.vertices, rng.below(min(t.w, 3) + 1)))
            pool = list(t.vertices) if rng.below(4) == 0 else sorted(set(t.vertices) - z0)
            size = rng.below(len(pool) + 1) if rng.below(2) else rng.below(min(len(pool), 2) + 1)
            yield z0, frozenset(rng.sample(pool, size)), k


def test_tree_oracles_answer_masks_and_frozensets_alike():
    rng = SplitMix64(409)
    for t in oracle_trees(rng):
        for oracle in (subtree_oracle(t), brute_oracle(tree_base(t))):
            for z0, y, k in oracle_queries(rng, t, 2):
                assert oracle(to_mask(z0), to_mask(y), k) == oracle(z0, y, k)


def test_subtree_oracle_matches_brute_oracle_for_every_k():
    # covers the k-bounded component growth on both branches: from a
    # non-empty Z0, and the scan over components when Z0 is empty
    rng = SplitMix64(419)
    for t in oracle_trees(rng):
        fast, slow = subtree_oracle(t), brute_oracle(tree_base(t))
        for z0, y, k in oracle_queries(rng, t, 6):
            z0m, ym = to_mask(z0), to_mask(y)
            assert fast(z0m, ym, k) == slow(z0m, ym, k), (t, sorted(z0), sorted(y), k)


def test_subtree_oracle_closes_its_ones_first():
    # on the path 1-2-3-4 every subtree holding 1 and 3 holds 2
    oracle = subtree_oracle(Tree.path_graph(4))
    assert oracle(0b101, 0b010, 2) is False
    assert oracle(0b101, 0b010, None) is False
    assert oracle(0b101, 0, 2) is False
    assert oracle(0b101, 0b1000, 3) is True


def test_subtree_oracle_matches_brute_oracle_on_unclosed_ones():
    # ones and zeros are arbitrary vertex sets, for every k and for None
    rng = SplitMix64(439)
    for t in oracle_trees(rng):
        fast, slow = subtree_oracle(t), brute_oracle(tree_base(t))
        for k in (None, 0, *t.vertices):
            for _ in range(4):
                ones = to_mask(rng.sample(t.vertices, rng.below(min(t.w, 3) + 1)))
                zeros = to_mask(rng.sample(t.vertices, rng.below(min(t.w, 3) + 1))) & ~ones
                assert fast(ones, zeros, k) == slow(ones, zeros, k), (t, ones, zeros, k)
                # a label above w: in the ones it makes the answer False, in
                # the zeros it is ignored
                for above in (1 << t.w, 1 << (t.w + 70)):
                    assert fast(ones | above, zeros, k) is False and slow(ones | above, zeros, k) is False
                    assert fast(ones, zeros | above, k) == slow(ones, zeros | above, k) == fast(ones, zeros, k)


@pytest.mark.parametrize("k", [-1, 7])
def test_enumerate_k_subtrees_k_range_error(k):
    with pytest.raises(ValueError) as info:
        enumerate_k_subtrees(Tree.path_graph(6), k)
    assert str(info.value) == f"k must be within 0..6, got {k}"


def test_enumerate_k_subtrees_path():
    assert sets_of(enumerate_k_subtrees(Tree.path_graph(3), 2).sets(2)) == [(1, 2), (2, 3)]


def test_enumerate_k_subtrees_star():
    got = sets_of(enumerate_k_subtrees(Tree.star(4), 2).sets(2))
    assert got == [(1, 2), (1, 3), (1, 4)]


def test_enumerate_k_subtrees_whole_tree():
    rng = SplitMix64(113)
    for w in (1, 4, 7):
        t = gen_random_tree(w, rng.next_u64())
        assert sets_of(enumerate_k_subtrees(t, w).sets(w)) == [tuple(range(1, w + 1))]


def test_enumerate_k_subtrees_random_matches_brute():
    rng = SplitMix64(127)
    for _ in range(10):
        w = 1 + rng.below(14)
        t = gen_random_tree(w, rng.next_u64())
        for k in range(w + 1):
            stack = enumerate_k_subtrees(t, k)
            got = list(stack.sets(k))
            expect = brute_subtrees(t, k)
            assert len(got) == len(set(got))
            assert sets_of(got) == sets_of(expect)
            assert stack.stats.wasteful_deletions == 0
            assert stack.stats.final_row_count <= len(expect)


def test_specialized_closure_changes_nothing():
    from wildrows import enumerate_k_models

    rng = SplitMix64(223)
    for _ in range(5):
        w = 1 + rng.below(9)
        t = gen_random_tree(w, rng.next_u64())
        fam = tree_base(t)
        oracle = subtree_oracle(t)
        for k in range(w + 1):
            fast = enumerate_k_subtrees(t, k)
            plain = enumerate_k_models(fam, k, oracle)
            assert [r.entries for r in fast.rows] == [r.entries for r in plain.rows]


def test_subtree_counts_sum_to_dp_total():
    rng = SplitMix64(131)
    for _ in range(8):
        w = 1 + rng.below(11)
        t = gen_random_tree(w, rng.next_u64())
        total = sum(enumerate_k_subtrees(t, k).count(k) for k in range(w + 1))
        assert total == subtree_count(t)


def test_tree_base_length_formula():
    # W + C(w,2) - 2(w-1), W the Wiener index, against the built family
    rng = SplitMix64(107)
    trees = [Tree(1, []), Tree(2, [(1, 2)]), Tree.path_graph(3), Tree.path_graph(40),
             Tree.star(3), Tree.star(30)]
    trees += [gen_random_tree(w, rng.next_u64()) for w in (3, 4, 7, 12, 25, 50, 80)]
    for t in trees:
        assert _base_length(t) == tree_base(t).total_length


def test_tree_base_refuses_oversized_base(monkeypatch):
    assert _base_length(Tree.path_graph(100)) == 171402
    small = gen_random_tree(20, 5)
    monkeypatch.setattr(subtrees, "TREE_BASE_MAX_LENGTH", _base_length(small))
    assert tree_base(small).total_length == subtrees.TREE_BASE_MAX_LENGTH
    monkeypatch.setattr(subtrees, "TREE_BASE_MAX_LENGTH", _base_length(small) - 1)
    with pytest.raises(GuardError):
        tree_base(small)
    monkeypatch.undo()
    t = Tree.path_graph(4096)
    assert _base_length(t) > TREE_BASE_MAX_LENGTH
    with pytest.raises(GuardError):
        tree_base(t)
    with pytest.raises(GuardError):
        enumerate_k_subtrees(t, 2)


def test_tree_base_refuses_wide_base(monkeypatch):
    # w*h sizes the premise masks and the engine's premise table
    small = gen_random_tree(20, 5)
    cells = small.w * tree_base(small).h
    monkeypatch.setattr(subtrees, "TREE_BASE_MAX_CELLS", cells)
    assert tree_base(small).h == 171
    monkeypatch.setattr(subtrees, "TREE_BASE_MAX_CELLS", cells - 1)
    with pytest.raises(GuardError, match=rf"^tree base too large: w\*h = {cells} for w=20, limit {cells - 1}$"):
        tree_base(small)
    monkeypatch.undo()

    class Accepted(Exception):
        pass

    def stop(t):
        raise Accepted

    def passes_guards(t):
        # the guards run before the path table: reaching it means accepted
        with monkeypatch.context() as m:
            m.setattr(subtrees, "_path_table", stop)
            try:
                tree_base(t)
            except Accepted:
                return True
            except GuardError:
                return False

    assert passes_guards(Tree.path_graph(287)) and not passes_guards(Tree.path_graph(288))
    assert passes_guards(gen_random_tree(500, 3))
    assert 646 * (645 * 644 // 2) <= TREE_BASE_MAX_CELLS < 647 * (646 * 645 // 2)
    assert passes_guards(Tree.star(646)) and not passes_guards(Tree.star(647))
    star = Tree.star(1634)
    assert _base_length(star) <= TREE_BASE_MAX_LENGTH  # only the new guard refuses it
    assert not passes_guards(star)
    with pytest.raises(GuardError, match=r"w\*h = 2177350752 for w=1634"):
        enumerate_k_subtrees(star, 2)


# (implication count, sha256 prefix of the implications in order), recorded
# before tree_base moved to path masks: family order and members are part of
# the engine's determinism contract
TREE_BASE_GOLDEN = {
    ("random", 2, 1): (0, "e3b0c44298fc1c14"),
    ("random", 3, 2): (1, "2f412f642327848d"),
    ("random", 10, 3): (36, "57288471de514fd5"),
    ("random", 10, 4): (36, "4aea26f143942302"),
    ("random", 30, 5): (406, "78ced3a37bd8b3f6"),
    ("random", 30, 6): (406, "156c6a743ea85e68"),
    ("random", 48, 7): (1081, "e26d3272ad71691c"),
    ("random", 48, 8): (1081, "41a7056836bf0458"),
    ("path", 1): (0, "e3b0c44298fc1c14"),
    ("path", 2): (0, "e3b0c44298fc1c14"),
    ("path", 10): (36, "abe208c0399d5f7d"),
    ("path", 30): (406, "db8667e8947dc1cb"),
    ("star", 1): (0, "e3b0c44298fc1c14"),
    ("star", 3): (1, "1695b972680e5c8a"),
    ("star", 10): (36, "1c15744028b1c6c4"),
    ("star", 30): (406, "12f54d64b4752063"),
}


@pytest.mark.parametrize("key", list(TREE_BASE_GOLDEN), ids=lambda key: "-".join(map(str, key)))
def test_tree_base_golden(key):
    kind, w = key[:2]
    if kind == "random":
        t = gen_random_tree(w, key[2])
    else:
        t = Tree.path_graph(w) if kind == "path" else Tree.star(w)
    fam = tree_base(t)
    text = "\n".join(
        " ".join(map(str, sorted(imp.premise))) + " -> " + " ".join(map(str, sorted(imp.conclusion)))
        for imp in fam
    )
    assert (fam.h, hashlib.sha256(text.encode()).hexdigest()[:16]) == TREE_BASE_GOLDEN[key]


def witness_trees():
    """Seeded random trees with w <= 16, paths and stars, w = 1 and 2."""
    rng = SplitMix64(151)
    named = [(f"random-{i}", gen_random_tree(1 + rng.below(16), rng.next_u64())) for i in range(10)]
    named += [(f"path-{w}", Tree.path_graph(w)) for w in (1, 2, 7, 16)]
    return named + [(f"star-{w}", Tree.star(w)) for w in (3, 9, 16)]


WITNESS_TREES = witness_trees()


@pytest.mark.parametrize("name, t", WITNESS_TREES, ids=[name for name, _ in WITNESS_TREES])
def test_every_admitted_state_holds_a_valid_witness(name, t, monkeypatch):
    # every son the loop's size window admits holds a valid witness, as
    # `_witness` finds it from scratch: a connected vertex set holding the
    # son's ones (their own closure), missing its zeros, with at least k
    # vertices.  An injected admit that keeps every son sees exactly the
    # admitted sons: the root and every candidate son the window keeps
    full = (1 << t.w) - 1
    close = steiner_closure_mask(t)
    lifo = subtrees._lifo
    count = {"admitted": 0}

    def checking_lifo(family, k=None, admit=None, *, _filters=None):
        assert admit is None

        def checked(ones, twos):
            zeros = full & ~(ones | twos)
            assert close(ones) == ones
            witness = subtrees._witness(ones, zeros, full, t.neighbor_masks, k)
            assert witness is not None
            assert is_connected(t, from_mask(witness))
            assert not ones & ~witness and not witness & zeros
            assert witness.bit_count() >= k
            count["admitted"] += 1
            return True

        return lifo(family, k, checked, _filters=_filters)

    plain = [enumerate_k_subtrees(t, k) for k in range(t.w + 1)]
    monkeypatch.setattr(subtrees, "_lifo", checking_lifo)
    for k in range(t.w + 1):
        before = count["admitted"]
        stack = enumerate_k_subtrees(t, k)
        assert stack == plain[k]
        assert count["admitted"] - before == stack.stats.candidate_sons - stack.stats.killed_candidates + 1


def differential_trees():
    """Seeded random trees of w 20-30 (seeds no benchmark run draws), a
    40-star and a 30-path."""
    rng = SplitMix64(20261019)
    named = [(f"random-{i}", gen_random_tree(20 + rng.below(11), rng.next_u64())) for i in range(4)]
    return named + [("star-40", Tree.star(40)), ("path-30", Tree.path_graph(30))]


DIFFERENTIAL_TREES = differential_trees()


@pytest.mark.parametrize("name, t", DIFFERENTIAL_TREES, ids=[name for name, _ in DIFFERENTIAL_TREES])
def test_enumerate_k_subtrees_equals_the_generic_engine_at_scale(name, t):
    # the generic path closes by the family's own forward chaining and asks
    # subtree_oracle about every son from scratch
    family = tree_base(t)
    oracle = subtree_oracle(t)
    for k in sorted({*range(9), *range(t.w - 2, t.w + 1)}):
        fast = enumerate_k_subtrees(t, k)
        plain = enumerate_k_models(family, k, oracle)
        assert [r.entries for r in fast.rows] == [r.entries for r in plain.rows], k
        assert fast.stats._values() == plain.stats._values(), k
