import itertools
import math

import pytest

from wildrows import (
    GuardError,
    Implication,
    SplitMix64,
    Tree,
    brute_subtrees,
    close,
    enumerate_k_subtrees,
    enumerate_models,
    gen_random_tree,
    steiner_closure,
    subtree_count,
    subtree_oracle,
    tree_base,
)
from wildrows import subtrees
from wildrows.subtrees import TREE_BASE_MAX_LENGTH, _base_length, steiner_closure_mask


def sets_of(iterable):
    return sorted(tuple(sorted(s)) for s in iterable)


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


def test_steiner_closure_matches_forward_chaining():
    rng = SplitMix64(107)
    for _ in range(15):
        w = 1 + rng.below(9)
        t = gen_random_tree(w, rng.next_u64())
        fam = tree_base(t)
        fast = steiner_closure_mask(t)
        for _ in range(6):
            seed = rng.sample(range(1, w + 1), rng.below(w + 1))
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
