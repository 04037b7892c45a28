"""The paper's output bounds on engine work, as tested invariants.

For a deletion-free run with N answers, h implications and p the largest
premise size (see `enumerate_k_models`):

- final_row_count <= N;
- impositions <= final_row_count * h <= N * h;
- candidate_sons <= (p + 1) * splits, a split being an imposition that does
  not carry the row over.

Each stacked row is popped once and ends either final or split, so
splits = stacked rows - final rows, with stacked rows = 1 (the root, when
feasible) + candidate_sons - killed_candidates.
"""

import pytest

from wildrows import (
    LayeredSpec,
    Poset,
    SplitMix64,
    Tree,
    enumerate_k_ideals,
    enumerate_k_subtrees,
    gen_layered_poset,
    gen_random_tree,
    natural_base,
    tree_base,
)


def check_bounds(stack, family, k):
    s = stack.stats
    n = stack.count(k)
    h = family.h
    p = max((prem.bit_count() for prem, _ in family.masks), default=0)
    stacked = (1 if s.impositions or s.final_row_count else 0) + s.candidate_sons - s.killed_candidates
    splits = stacked - s.final_row_count
    assert s.wasteful_deletions == 0
    assert s.final_row_count == len(stack.rows) <= n
    assert s.impositions <= s.final_row_count * h <= n * h
    assert s.candidate_sons <= (p + 1) * splits
    return n


def posets():
    rng = SplitMix64(733)
    out = [Poset(0, []), Poset(1, []), Poset.chain(1), Poset.chain(9), Poset.antichain(7)]
    out.append(Poset(6, [(1, 2), (1, 3), (4, 5)]))  # disconnected
    out += [gen_layered_poset(LayeredSpec(*shape, rng.next_u64())) for shape in ((4, 3, 2), (3, 4, 3), (6, 2, 4))]
    return out


POSETS = posets()


def trees():
    rng = SplitMix64(739)
    out = [Tree(1, []), Tree(2, [(1, 2)]), Tree.path_graph(3), Tree.path_graph(12), Tree.star(3), Tree.star(11)]
    out += [gen_random_tree(w, rng.next_u64()) for w in (6, 10, 14, 18, 24)]
    return out


TREES = trees()


@pytest.mark.parametrize("index", range(len(POSETS)))
def test_k_ideal_bounds(index):
    p = POSETS[index]
    family = natural_base(p)
    total = sum(check_bounds(enumerate_k_ideals(p, k), family, k) for k in range(p.w + 1))
    assert total >= 1  # the empty ideal at least


@pytest.mark.parametrize("index", range(len(TREES)))
def test_k_subtree_bounds(index):
    t = TREES[index]
    family = tree_base(t)
    total = sum(check_bounds(enumerate_k_subtrees(t, k), family, k) for k in range(t.w + 1))
    assert total >= 1 + t.w  # the empty set and the singletons


def test_imposition_bound_is_attained():
    # one final row that meets every index once: a chain has a single
    # k-ideal for every k, and k = 0 or k = w leaves one subtree
    p = Poset.chain(9)
    for k in range(p.w + 1):
        stats = enumerate_k_ideals(p, k).stats
        assert stats.impositions == stats.final_row_count * p.w == p.w
    t = gen_random_tree(24, 7)
    h = tree_base(t).h
    for k in (0, t.w):
        stats = enumerate_k_subtrees(t, k).stats
        assert stats.impositions == stats.final_row_count * h == h
