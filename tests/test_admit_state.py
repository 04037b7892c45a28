"""The sons the LIFO loop vets on a natural base and on a tree base.

`enumerate_k_ideals` and `enumerate_k_subtrees` hand the loop no admit: its
size window |ones| <= k <= |ones| + |twos| is their whole feasibility test.
Each test wraps the `_lifo` the enumerator calls and injects an admit that
keeps every son but checks it first, so it sees exactly the sons inside
the window; the rows and counters must equal those of the uninjected run.
On every such son the enumerator's oracle, computed from scratch, must say
yes, and the premise the window rests on must hold: on a natural base the
zeros are an up-set and the ones a down-set, on a tree base the non-zeros
are a subtree and the ones a subtree or empty.  The loop calls the admit
once for the root and once per candidate son, less the window's kills and
the forced single sons, which it never vets.  A k-ideal son zeroes its new
zero's whole filter at once, so the loop never reaches the forced single
sons that would zero it one element at a time (counted by a replay through
the public `candidate_sons`); a tree base makes none at all.
"""

import itertools

import pytest

from wildrows import (
    LayeredSpec,
    Poset,
    Row012,
    SplitMix64,
    Tree,
    candidate_sons,
    enumerate_k_ideals,
    enumerate_k_models,
    enumerate_k_subtrees,
    enumerate_models,
    gen_layered_poset,
    gen_random_tree,
    ideal_oracle,
    natural_base,
    subtree_oracle,
)
from wildrows import ideals, subtrees
from wildrows.core import _linext_up_bits, union_over
from wildrows.ideals import down_closure_mask


def shape(stack):
    return [(r.ones_mask, r.twos_mask, r.pending) for r in stack.rows], stack.stats


def wrap_lifo(monkeypatch, module, check):
    """Patch module._lifo so the loop vets every son with an admit that
    calls check(ones, twos, k) and keeps the son; returns a one-slot call
    counter."""
    calls = [0]
    lifo = module._lifo

    def checking_lifo(family, k=None, admit=None, *, _filters=None):
        assert admit is None

        def keep(ones, twos):
            check(ones, twos, k)
            calls[0] += 1
            return True

        return lifo(family, k, keep, _filters=_filters)

    monkeypatch.setattr(module, "_lifo", checking_lifo)
    return calls


def forced_single_sons(family, k, oracle, close_mask):
    """Splits with one son whose conclusion meets a zero, counted by
    imposing every implication in turn through `candidate_sons` on the rows
    that pass the feasibility test of `enumerate_k_models`."""

    def feasible(r):
        z0 = close_mask(r.ones_mask)
        return z0.bit_count() <= k and not z0 & r.zeros_mask and oracle(z0, r.zeros_mask, k)

    forced = 0
    stack = [Row012.full(family.w)] if feasible(Row012.full(family.w)) else []
    while stack:
        r = stack.pop()
        if r.pending > family.h:
            continue
        imp = family[r.pending - 1]
        sons = candidate_sons(r, imp)
        if len(sons) == 1 and (sons[0].ones_mask, sons[0].twos_mask) == (r.ones_mask, r.twos_mask):
            stack.append(sons[0])  # carry-over
            continue
        if len(sons) == 1 and imp.conclusion & r.zeros:
            forced += 1
        stack.extend(s for s in sons if feasible(s))
    return forced


def state_posets():
    """The kideals shapes (w 50 and 60, four covers each) on seeds no
    benchmark run draws, and the edge cases."""
    rng = SplitMix64(20261020)
    named = [(f"layered-{m}x10-{i}", gen_layered_poset(LayeredSpec(m, 10, 4, rng.next_u64())))
             for m in (5, 6) for i in range(2)]
    return named + [("w0", Poset(0, [])), ("w1", Poset(1, [])), ("chain-12", Poset.chain(12)),
                    ("antichain-8", Poset.antichain(8))]


STATE_POSETS = state_posets()


@pytest.mark.parametrize("name, p", STATE_POSETS, ids=[name for name, _ in STATE_POSETS])
def test_k_ideal_admit_states(name, p, monkeypatch):
    down, up = p.down_masks, p.up_masks
    full = (1 << p.w) - 1
    oracle = ideal_oracle(p)
    family, close = natural_base(p), down_closure_mask(p)
    plain = [shape(enumerate_k_ideals(p, k)) for k in range(p.w + 1)]

    def check(ones, twos, k):
        zeros = full & ~(ones | twos)
        # a son zeroes its new zero's whole filter at once, and its ones are
        # a down-set, so the size window alone is the oracle's answer
        assert union_over(up, zeros) == zeros
        assert union_over(down, ones) == ones
        assert oracle(ones, zeros, k)

    calls = wrap_lifo(monkeypatch, ideals, check)
    for k in range(p.w + 1):
        before = calls[0]
        stack = enumerate_k_ideals(p, k)
        assert shape(stack) == plain[k]
        stats = stack.stats
        forced = forced_single_sons(family, k, oracle, close)
        assert calls[0] - before == stats.candidate_sons + 1 - forced - stats.killed_candidates


def falling(p):
    """p with its labels reversed, so every cover falls in label and its
    linear extension is not 1..w."""
    return Poset(p.w, [(p.w + 1 - u, p.w + 1 - v) for u in p.elements for v in p.upper_covers(u)])


FALLING_POSETS = [(f"falling-{name}", falling(p)) for name, p in STATE_POSETS if name.startswith("layered")]


@pytest.mark.parametrize("name, q", FALLING_POSETS, ids=[name for name, _ in FALLING_POSETS])
def test_k_ideal_window_premise(name, q, monkeypatch):
    # the loop reads a k-ideal son's size window alone: that is the oracle's
    # answer only while the ones are a down-set and the zeros an up-set,
    # here checked where the filters' implication-index bits are not p.up_masks
    assert _linext_up_bits(q) is not q.up_masks
    down, up = q.down_masks, q.up_masks
    full = (1 << q.w) - 1

    def assert_closed(ones, twos, k=None):
        zeros = full & ~(ones | twos)
        assert union_over(down, ones) == ones and union_over(up, zeros) == zeros

    calls = wrap_lifo(monkeypatch, ideals, assert_closed)
    family, oracle = natural_base(q), ideal_oracle(q)
    for k in [None, *range(q.w + 1)]:
        eager = enumerate_k_ideals(q, k)
        lazy = enumerate_models(family) if k is None else enumerate_k_models(family, k, oracle)
        for r in eager.rows:
            assert_closed(r.ones_mask, r.twos_mask)
        assert shape(eager) == shape(lazy)
    assert calls[0] > 0


def connected(nbr, mask):
    """Whether the vertex set `mask` is connected in the tree of `nbr`;
    the empty set is."""
    comp = frontier = mask & -mask
    while frontier:
        frontier = union_over(nbr, frontier) & mask & ~comp
        comp |= frontier
    return comp == mask


def check_tree_premise(monkeypatch, t):
    """Every son the loop vets on tree_base(t), at every k: its ones are a
    subtree or empty, its non-zeros a subtree, and subtree_oracle accepts
    it; the loop makes no forced single son, and the rows and counters are
    those of the uninjected run."""
    nbr = t.neighbor_masks
    full = (1 << t.w) - 1
    oracle = subtree_oracle(t)
    plain = [shape(enumerate_k_subtrees(t, k)) for k in range(t.w + 1)]

    def check(ones, twos, k):
        assert connected(nbr, ones) and connected(nbr, ones | twos)
        assert oracle(ones, full & ~(ones | twos), k)

    calls = wrap_lifo(monkeypatch, subtrees, check)
    for k in range(t.w + 1):
        before = calls[0]
        stack = enumerate_k_subtrees(t, k)
        assert shape(stack) == plain[k]
        assert calls[0] - before == stack.stats.candidate_sons + 1 - stack.stats.killed_candidates
    monkeypatch.undo()


def state_trees():
    """Seeded random trees of w 12-30 (seeds no benchmark run draws), a
    12-path and a 10-star."""
    rng = SplitMix64(20261021)
    named = [(f"random-{i}", gen_random_tree(12 + rng.below(19), rng.next_u64())) for i in range(4)]
    return named + [("path-12", Tree.path_graph(12)), ("star-10", Tree.star(10))]


STATE_TREES = state_trees()


@pytest.mark.parametrize("name, t", STATE_TREES, ids=[name for name, _ in STATE_TREES])
def test_k_subtree_admit_states(name, t, monkeypatch):
    check_tree_premise(monkeypatch, t)


def decoded_tree(w, code):
    """The labelled tree of a length-(w-2) code over 1..w, smallest leaf
    first."""
    degree = [1] * (w + 1)
    for v in code:
        degree[v] += 1
    edges = []
    for v in code:
        u = min(x for x in range(1, w + 1) if degree[x] == 1)
        edges.append((u, v))
        degree[u] -= 1
        degree[v] -= 1
    edges.append(tuple(x for x in range(1, w + 1) if degree[x] == 1))
    return Tree(w, edges)


def test_k_subtree_window_premise_on_every_small_labelled_tree(monkeypatch):
    # every labelled tree with w <= 6 (w^(w-2) of each size, 1296 at w = 6)
    trees = [Tree(1, []), Tree(2, [(1, 2)])]
    trees += [decoded_tree(w, code) for w in range(3, 7)
              for code in itertools.product(range(1, w + 1), repeat=w - 2)]
    assert len(trees) == 1 + 1 + 3 + 16 + 125 + 1296
    assert len(set(tr.edges for tr in trees if tr.w == 6)) == 1296
    for t in trees:
        check_tree_premise(monkeypatch, t)
