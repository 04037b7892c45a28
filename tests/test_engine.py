import itertools

import pytest
from conftest import random_family, random_row012, sets_of

from wildrows import (
    EngineStats,
    FinalStack,
    GuardError,
    Implication,
    ImplicationFamily,
    InputError,
    Poset,
    Row012,
    SplitMix64,
    Tree,
    brute_models,
    brute_oracle,
    candidate_sons,
    enumerate_k_ideals,
    enumerate_k_models,
    enumerate_k_subtrees,
    enumerate_models,
    natural_base,
    parse_row,
)
from wildrows.core import row012_k_members

TOY = ImplicationFamily(7, [
    Implication({5}, {6, 7}),
    Implication({6}, {3}),
    Implication({1, 2, 3}, {7}),
    Implication({3}, {4, 5}),
])

TOY_FINAL = {
    (2, 2, 1, 1, 1, 1, 1),
    (1, 1, 0, 2, 0, 0, 2),
    (1, 0, 0, 2, 0, 0, 2),
    (0, 2, 0, 2, 0, 0, 2),
}


def entries(rows):
    return [r.entries for r in rows]


def row_member_masks(r):
    free = sorted(r.twos)
    out = []
    for n in range(len(free) + 1):
        for extra in itertools.combinations(free, n):
            out.append(r.ones | frozenset(extra))
    return out


# ---------------------------------------------------------------------------
# candidate sons

def test_sons_split_on_singleton_premise():
    sons = candidate_sons(Row012.from_entries([2] * 7), Implication({5}, {6, 7}))
    assert entries(sons) == [(2, 2, 2, 2, 0, 2, 2), (2, 2, 2, 2, 1, 1, 1)]


def test_sons_staircase_plus_forced_row():
    sons = candidate_sons(parse_row("2 2 2 2 0 0 2"), Implication({1, 2, 3}, {7}))
    assert entries(sons) == [
        (0, 2, 2, 2, 0, 0, 2),
        (1, 0, 2, 2, 0, 0, 2),
        (1, 1, 0, 2, 0, 0, 2),
        (1, 1, 1, 2, 0, 0, 1),
    ]


def test_sons_zero_conclusion_forces_premise_out():
    sons = candidate_sons(parse_row("0 2 2 2 0 0 2"), Implication({3}, {4, 5}))
    assert entries(sons) == [(0, 2, 0, 2, 0, 0, 2)]


def test_sons_deletion():
    assert candidate_sons(parse_row("1 1 1 2 0 0 1"), Implication({3}, {4, 5})) == []


def test_sons_carry_over_unchanged():
    r = parse_row("1 1 0 2 0 0 2")
    sons = candidate_sons(r, Implication({3}, {4, 5}))  # premise blocked by a zero
    assert entries(sons) == [r.entries]
    sons = candidate_sons(parse_row("2 2 1 1 2 2 2"), Implication({2}, {3, 4}))  # conclusion forced
    assert entries(sons) == [(2, 2, 1, 1, 2, 2, 2)]


def test_sons_advance_pending():
    r = Row012.from_entries([2] * 3, pending=2)
    for son in candidate_sons(r, Implication({1}, {2})):
        assert son.pending == 3


@pytest.mark.parametrize("imp, e", [
    (Implication({0}, {1}), 0),
    (Implication({5}, {1}), 5),
    (Implication({1}, {7}), 7),
])
def test_sons_refuse_labels_outside_row(imp, e):
    with pytest.raises(InputError) as info:
        candidate_sons(Row012.full(3), imp)
    assert str(info.value) == f"element {e} outside universe 1..3"


def test_sons_sound_and_disjoint_random():
    rng = SplitMix64(53)
    for _ in range(150):
        w = 1 + rng.below(12)
        r = random_row012(rng, w)
        na = 1 + rng.below(min(3, w))
        prem = frozenset(rng.sample(range(1, w + 1), na))
        conc = frozenset(rng.sample(range(1, w + 1), rng.below(w + 1))) - prem
        imp = Implication(prem, conc)
        sons = candidate_sons(r, imp)
        assert len(sons) <= max(len(imp.premise) + 1, 1)
        satisfying = {
            m for m in row_member_masks(r) if not prem <= m or conc <= m
        }
        covered = []
        for son in sons:
            members = row_member_masks(son)
            covered.extend(members)
            assert all(m in r for m in members)
        assert len(covered) == len(set(covered)), "sons overlap"
        assert set(covered) == satisfying


# ---------------------------------------------------------------------------
# full enumeration

def test_enumerate_models_toy_final_stack():
    stack = enumerate_models(TOY)
    assert set(entries(stack.rows)) == TOY_FINAL
    assert stack.model_count() == 20
    assert stack.stats.final_row_count == 4
    assert all(r.pending == TOY.h + 1 for r in stack.rows)


def test_enumerate_models_empty_family():
    stack = enumerate_models(ImplicationFamily(3, []))
    assert entries(stack.rows) == [(2, 2, 2)]


def test_enumerate_models_mutual_implications():
    fam = ImplicationFamily(2, [Implication({1}, {2}), Implication({2}, {1})])
    stack = enumerate_models(fam)
    assert sets_of(stack.sets()) == [(), (1, 2)]


def test_enumerate_models_matches_brute_force():
    rng = SplitMix64(59)
    for _ in range(40):
        w = 1 + rng.below(12)
        fam = random_family(rng, w, rng.below(7))
        stack = enumerate_models(fam)
        members = list(stack.sets())
        assert len(members) == len(set(members)), "final rows overlap"
        assert sets_of(members) == sets_of(brute_models(fam))


def test_enumerate_models_deterministic():
    rng = SplitMix64(61)
    fam = random_family(rng, 8, 6)
    a = enumerate_models(fam)
    b = enumerate_models(fam)
    assert entries(a.rows) == entries(b.rows)


# ---------------------------------------------------------------------------
# fixed-cardinality enumeration

def test_k_models_toy():
    stack = enumerate_k_models(TOY, 3, brute_oracle(TOY))
    assert sets_of(stack.sets(3)) == [(1, 2, 4), (1, 2, 7), (1, 4, 7), (2, 4, 7)]
    assert stack.stats.wasteful_deletions == 0
    assert stack.stats.final_row_count <= 4


def test_k_models_toy_extremes():
    assert sets_of(enumerate_k_models(TOY, 0, brute_oracle(TOY)).sets(0)) == [()]
    assert sets_of(enumerate_k_models(TOY, 7, brute_oracle(TOY)).sets(7)) == [
        (1, 2, 3, 4, 5, 6, 7)
    ]


def test_k_models_rejects_bad_k():
    with pytest.raises(ValueError):
        enumerate_k_models(TOY, 9, brute_oracle(TOY))
    with pytest.raises(ValueError):
        enumerate_k_models(TOY, -1, brute_oracle(TOY))


def test_k_models_deletion_free_and_output_bounded():
    rng = SplitMix64(67)
    for _ in range(25):
        w = 1 + rng.below(8)
        fam = random_family(rng, w, rng.below(6))
        oracle = brute_oracle(fam)
        by_size = {}
        for m in brute_models(fam):
            by_size.setdefault(len(m), []).append(m)
        for k in range(w + 1):
            stack = enumerate_k_models(fam, k, oracle)
            expect = by_size.get(k, [])
            got = list(stack.sets(k))
            assert len(got) == len(set(got))
            assert sets_of(got) == sets_of(expect)
            assert stack.stats.wasteful_deletions == 0
            assert stack.stats.final_row_count <= len(expect)
            # extra feasibility: every surviving row holds a k-element model
            assert all(list(row012_k_members(r, k)) for r in stack.rows)


def test_k_models_infeasible_root_gives_empty_stack():
    fam = ImplicationFamily(3, [Implication(set(), {1, 2})])  # everything contains {1,2}
    stack = enumerate_k_models(fam, 1, brute_oracle(fam))
    assert stack.rows == ()
    assert stack.stats.final_row_count == 0


def test_k_models_root_vetted_once_like_a_son():
    # models are {}, {2,3} and {1,2,3}: the root's closure {} fits k=1, so
    # only the oracle refuses it, once, and no counter moves
    fam = ImplicationFamily(3, [Implication({1}, {2}), Implication({2}, {3}), Implication({3}, {2})])
    oracle = brute_oracle(fam)
    calls = []
    stack = enumerate_k_models(fam, 1, lambda *a: calls.append(a) or oracle(*a))
    assert stack == FinalStack((), EngineStats())
    assert calls == [(0, 0, 1)]


@pytest.mark.parametrize("k", [1.5, "2", None])
def test_k_must_be_an_int(k):
    # the loop reads k through operator.index: a float or a str is refused
    # by type, and so is None wherever it does not list every ideal
    t, p = Tree.path_graph(3), Poset.chain(3)
    family = natural_base(p)
    with pytest.raises(TypeError):
        enumerate_k_subtrees(t, k)
    with pytest.raises(TypeError):
        enumerate_k_models(family, k, brute_oracle(family))
    if k is not None:
        with pytest.raises(TypeError):
            enumerate_k_ideals(p, k)


def test_a_bool_k_acts_as_an_int_and_the_range_texts_stay():
    t, p = Tree.path_graph(3), Poset.chain(3)
    family = natural_base(p)
    oracle = brute_oracle(family)
    runs = [lambda k: enumerate_k_subtrees(t, k), lambda k: enumerate_k_ideals(p, k),
            lambda k: enumerate_k_models(family, k, oracle)]
    for run in runs:
        assert run(True) == run(1)
        for k in (-1, 4):
            with pytest.raises(ValueError) as info:
                run(k)
            assert str(info.value) == f"k must be within 0..3, got {k}"


# ---------------------------------------------------------------------------
# exhaustive oracle

def test_brute_oracle_examples():
    oracle = brute_oracle(TOY)
    # closing {5} forces {3,4,5,6,7}, too big for k=3: frozen via exhaustion
    assert oracle(frozenset({5}), frozenset(), 3) is False
    assert oracle(frozenset(), frozenset(range(1, 8)), 0) is True
    assert oracle(frozenset({1}), frozenset({1}), 2) is False
    assert oracle(frozenset({1}), frozenset({1}), None) is False
    assert oracle(frozenset({5}), frozenset(), None) is True


def test_brute_oracle_guard():
    with pytest.raises(GuardError):
        brute_oracle(ImplicationFamily(25, []))
