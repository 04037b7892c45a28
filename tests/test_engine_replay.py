"""Differential test of the LIFO loop against a one-at-a-time replay.

The engine jumps over premise-blocked carry-overs with per-row implication
bitsets and adds the skipped impositions arithmetically.  The replay below
imposes every implication on its own through the public `candidate_sons`,
which keeps the full scalar carry-over predicate, so the two derive rows,
row order, `pending` and all five counters independently.
"""

import pytest
from conftest import random_family

from wildrows import (
    Implication,
    ImplicationFamily,
    Poset,
    Row012,
    SplitMix64,
    Tree,
    brute_oracle,
    candidate_sons,
    enumerate_k_ideals,
    enumerate_k_models,
    enumerate_k_subtrees,
    enumerate_models,
    gen_random_tree,
    natural_base,
    tree_base,
)
from wildrows.closure import Closer
from wildrows.core import from_mask
from wildrows.engine import _premise_table
from wildrows.ideals import down_closure_mask, ideal_oracle
from wildrows.subtrees import steiner_closure_mask, subtree_oracle


def replay(family, admit=None):
    """(rows, counters) of the LIFO loop, one imposition per step."""
    impositions = candidates = killed = deletions = 0
    final = []
    stack = [Row012.full(family.w)]
    while stack:
        r = stack.pop()
        if r.pending > family.h:
            final.append(r)
            continue
        sons = candidate_sons(r, family[r.pending - 1])
        impositions += 1
        if len(sons) == 1 and (sons[0].ones_mask, sons[0].twos_mask) == (r.ones_mask, r.twos_mask):
            stack.append(sons[0])  # carry-over
            continue
        candidates += len(sons)
        if admit is not None:
            proper = [s for s in sons if admit(s)]
            killed += len(sons) - len(proper)
            sons = proper
        if not sons:
            deletions += 1
            continue
        stack.extend(reversed(sons))
    return final, (impositions, candidates, killed, deletions, len(final))


def replay_k(family, k, oracle, close_mask=None):
    """Replay of enumerate_k_models with the same feasibility test."""
    close_mask = close_mask or Closer(family).close_mask

    def admit(r):
        z0 = close_mask(r.ones_mask)
        if z0.bit_count() > k or z0 & r.zeros_mask:
            return False
        return bool(oracle(from_mask(z0), from_mask(r.zeros_mask), k))

    if not admit(Row012.full(family.w)):
        return [], (0, 0, 0, 0, 0)
    return replay(family, admit)


def shape(rows, counters):
    return [(r.w, r.ones_mask, r.twos_mask, r.pending) for r in rows], counters


def observed(stack):
    s = stack.stats
    counters = (s.impositions, s.candidate_sons, s.killed_candidates, s.wasteful_deletions, s.final_row_count)
    return shape(stack.rows, counters)


def edge_families():
    imp = Implication
    return [
        ImplicationFamily(0, []),
        ImplicationFamily(3, []),
        ImplicationFamily(1, [imp(set(), {1})]),
        ImplicationFamily(4, [imp(set(), {2}), imp({1}, {3}), imp(set(), {4})]),
        ImplicationFamily(4, [imp({1}, set()), imp({2, 3}, set()), imp({4}, {1})]),
        ImplicationFamily(4, [imp({1, 2}, {2}), imp({3}, {3}), imp({2}, {1, 2, 4})]),
        ImplicationFamily(5, [imp({1}, {2})] * 3 + [imp({2, 3}, {5}), imp({2, 3}, {5}), imp({1}, {2})]),
        ImplicationFamily(5, [imp({1, 2, 3, 4, 5}, set()), imp(set(), set()), imp({5}, {1, 2, 3, 4})]),
    ]


def seeded_families():
    rng = SplitMix64(709)
    out = []
    for _ in range(40):
        w = 1 + rng.below(9)
        out.append(random_family(rng, w, rng.below(14), max_len=1 + rng.below(4)))
    return out


FAMILIES = edge_families() + seeded_families()


def test_premise_table_matches_definition():
    for family in FAMILIES + [tree_base(gen_random_tree(30, 3)), tree_base(Tree.star(20))]:
        table = _premise_table(family.w, family.masks)
        assert len(table) == family.w + 1 and table[0] == 0
        for e in range(1, family.w + 1):
            expect = sum(1 << i for i, (prem, _) in enumerate(family.masks) if prem >> (e - 1) & 1)
            assert table[e] == expect


@pytest.mark.parametrize("index", range(len(FAMILIES)))
def test_enumerate_models_matches_replay(index):
    family = FAMILIES[index]
    assert observed(enumerate_models(family)) == shape(*replay(family))


@pytest.mark.parametrize("index", range(len(FAMILIES)))
def test_enumerate_k_models_matches_replay(index):
    family = FAMILIES[index]
    oracle = brute_oracle(family)
    for k in range(family.w + 1):
        assert observed(enumerate_k_models(family, k, oracle)) == shape(*replay_k(family, k, oracle))


def posets():
    rng = SplitMix64(719)
    out = [Poset(0, []), Poset(1, []), Poset.chain(7), Poset.antichain(6)]
    for _ in range(6):
        w = 2 + rng.below(9)
        perm = rng.sample(range(1, w + 1), w)
        relations = [(perm[i], perm[j]) for i in range(w) for j in range(i + 1, w) if rng.below(10) < 3]
        out.append(Poset(w, relations))
    return out


POSETS = posets()


def trees():
    rng = SplitMix64(727)
    out = [Tree(1, []), Tree(2, [(1, 2)]), Tree.path_graph(9), Tree.star(8)]
    out += [gen_random_tree(w, rng.next_u64()) for w in (5, 9, 12, 16)]
    return out


TREES = trees()


@pytest.mark.parametrize("index", range(len(POSETS)))
def test_enumerate_k_ideals_matches_replay(index):
    p = POSETS[index]
    family, oracle, close = natural_base(p), ideal_oracle(p), down_closure_mask(p)
    for k in range(p.w + 1):
        assert observed(enumerate_k_ideals(p, k)) == shape(*replay_k(family, k, oracle, close))


@pytest.mark.parametrize("index", range(len(TREES)))
def test_enumerate_k_subtrees_matches_replay(index):
    t = TREES[index]
    family, oracle, close = tree_base(t), subtree_oracle(t), steiner_closure_mask(t)
    for k in range(t.w + 1):
        assert observed(enumerate_k_subtrees(t, k)) == shape(*replay_k(family, k, oracle, close))
