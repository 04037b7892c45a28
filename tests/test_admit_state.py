"""The states the k-ideal and k-subtree admits return, at workload scale.

Each test wraps the `admit` that an enumerator hands to `_lifo_k` and checks
every call against the enumerator's oracle, computed from scratch: a
returned k-subtree state must equal the one derived from the whole son, a
refusal must match the oracle, and the loop must call the admit once for
the root and once per candidate son, less the forced single sons, which it
never vets (counted by a replay through the public `candidate_sons`).  A
k-subtree son that adds nothing to its father's state gets the father's
state object back; that test also checks that this happens, so the
shortcut is exercised and held to the same checks.  A k-ideal son zeroes
its new zero's whole filter at once, so the loop never reaches the forced
single sons that would zero it one element at a time; that test checks
that the zeros of every vetted son are an up-set and the ones of every
admitted son a down-set, on which the k-ideal admit's size window rests.
"""

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
from wildrows.subtrees import steiner_closure_mask


def wrap_admits(monkeypatch, module, check):
    """Patch module._lifo_k so every admit call goes through
    check(state, ones, twos, e, k, son); returns a counter of the calls and
    of the candidate sons that got their father's state object."""
    count = {"calls": 0, "same": 0}
    lifo_k = module._lifo_k

    def checking_lifo_k(family, k, admit, root, *, _filters=None):
        def checked(state, ones, twos, e):
            # the root too is vetted as a son of a state, never of None
            assert state is not None
            son = admit(state, ones, twos, e)
            check(state, ones, twos, e, k, son)
            # the first call of a query vets the root, which may keep the
            # root state object: count only the candidate sons
            count["same"] += son is not None and son is state and count["calls"] > first
            count["calls"] += 1
            return son

        first = count["calls"]
        return lifo_k(family, k, checked, root, _filters=_filters)

    monkeypatch.setattr(module, "_lifo_k", checking_lifo_k)
    return count


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

    def check(state, ones, twos, e, k, son):
        zeros = full & ~(ones | twos)
        # a son zeroes its new zero's whole filter at once
        assert union_over(up, zeros) == zeros
        # so its new zero is minimal among its zeros, which holds iff it lay
        # outside the father's zeros: inside, it would make a forced single son
        assert not e or down[e] & zeros == 1 << (e - 1)
        assert (son is None) == (not oracle(ones, zeros, k))
        if son is not None:
            # the ones are a down-set, so the size window alone decides
            assert union_over(down, ones) == ones

    count = wrap_admits(monkeypatch, ideals, check)
    for k in range(p.w + 1):
        before = count["calls"]
        stats = enumerate_k_ideals(p, k).stats
        forced = forced_single_sons(family, k, oracle, close)
        assert count["calls"] - before == stats.candidate_sons + 1 - forced


def falling(p):
    """p with its labels reversed, so every cover falls in label and its
    linear extension is not 1..w."""
    return Poset(p.w, [(p.w + 1 - u, p.w + 1 - v) for u in p.elements for v in p.upper_covers(u)])


FALLING_POSETS = [(f"falling-{name}", falling(p)) for name, p in STATE_POSETS if name.startswith("layered")]


@pytest.mark.parametrize("name, q", FALLING_POSETS, ids=[name for name, _ in FALLING_POSETS])
def test_k_ideal_window_premise(name, q, monkeypatch):
    # the k-ideal admit reads a son's size window alone: that is the oracle's
    # answer only while the ones are a down-set and the zeros an up-set,
    # here checked where the filters' implication-index bits are not p.up_masks
    assert _linext_up_bits(q) is not q.up_masks
    down, up = q.down_masks, q.up_masks
    full = (1 << q.w) - 1
    admitted = [0]

    def assert_closed(ones, twos):
        zeros = full & ~(ones | twos)
        assert union_over(down, ones) == ones and union_over(up, zeros) == zeros

    def checked(admit):
        def admit_closed(state, ones, twos, e):
            son = admit(state, ones, twos, e)
            if son is not None:
                assert_closed(ones, twos)
                admitted[0] += 1
            return son

        return admit_closed

    lifo, lifo_k = ideals._lifo, ideals._lifo_k
    monkeypatch.setattr(ideals, "_lifo", lambda family, admit, root, *, _filters=None:
                        lifo(family, checked(admit), root, _filters=_filters))
    monkeypatch.setattr(ideals, "_lifo_k", lambda family, k, admit, root, *, _filters=None:
                        lifo_k(family, k, checked(admit), root, _filters=_filters))
    family, oracle = natural_base(q), ideal_oracle(q)
    for k in [None, *range(q.w + 1)]:
        eager = enumerate_k_ideals(q, k)
        lazy = enumerate_models(family) if k is None else enumerate_k_models(family, k, oracle)
        for r in eager.rows:
            assert_closed(r.ones_mask, r.twos_mask)
        assert [(r.ones_mask, r.twos_mask, r.pending) for r in eager.rows] == [
            (r.ones_mask, r.twos_mask, r.pending) for r in lazy.rows
        ]
        assert eager.stats == lazy.stats
    assert admitted[0] > 0


def state_trees():
    """Seeded random trees of w 12-30 (seeds no benchmark run draws), a
    12-path and a 10-star."""
    rng = SplitMix64(20261021)
    named = [(f"random-{i}", gen_random_tree(12 + rng.below(19), rng.next_u64())) for i in range(4)]
    return named + [("path-12", Tree.path_graph(12)), ("star-10", Tree.star(10))]


STATE_TREES = state_trees()


@pytest.mark.parametrize("name, t", STATE_TREES, ids=[name for name, _ in STATE_TREES])
def test_k_subtree_admit_states(name, t, monkeypatch):
    full = (1 << t.w) - 1
    close = steiner_closure_mask(t)
    oracle = subtree_oracle(t)

    def check(state, ones, twos, e, k, son):
        zeros = full & ~(ones | twos)
        assert (son is None) == (not oracle(ones, zeros, k))
        if son is not None:
            _, _, z0, witness = son
            assert z0 == close(ones) and z0.bit_count() <= k
            assert not z0 & ~witness and not witness & zeros
            assert witness.bit_count() >= k

    count = wrap_admits(monkeypatch, subtrees, check)
    for k in range(t.w + 1):
        before = count["calls"]
        stats = enumerate_k_subtrees(t, k).stats
        assert count["calls"] - before == stats.candidate_sons + 1
    assert count["same"] > 0
