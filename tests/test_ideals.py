import itertools

import pytest
from conftest import ideals_by_sweep, random_poset, sets_of
from test_packed_recursion import shuffled

from wildrows import (
    Implication,
    LayeredSpec,
    Poset,
    SplitMix64,
    Tree,
    brute_ideals,
    brute_oracle,
    close,
    enumerate_k_ideals,
    enumerate_k_models,
    enumerate_k_subtrees,
    enumerate_models,
    gen_layered_poset,
    ideal_oracle,
    natural_base,
    rank_poly_recursive,
    whitney,
)
from wildrows.core import to_mask
from wildrows.ideals import down_closure_mask


def test_natural_base_chain():
    fam = natural_base(Poset.chain(3))
    assert list(fam) == [
        Implication({1}, set()),
        Implication({2}, {1}),
        Implication({3}, {2}),
    ]
    assert fam.h == fam.w == 3


def test_natural_base_antichain():
    fam = natural_base(Poset.antichain(3))
    assert all(imp.conclusion == frozenset() for imp in fam)
    assert fam.h == 3


def test_natural_base_diamond_uses_covers():
    fam = natural_base(Poset(4, [(1, 2), (1, 3), (2, 4), (3, 4), (1, 4)]))
    assert set(fam) == {
        Implication({1}, set()),
        Implication({2}, {1}),
        Implication({3}, {1}),
        Implication({4}, {2, 3}),
    }


def test_models_of_natural_base_are_the_ideals():
    rng = SplitMix64(71)
    for _ in range(20):
        w = 1 + rng.below(12)
        p = random_poset(rng, w)
        stack = enumerate_models(natural_base(p))
        assert sets_of(stack.sets()) == sets_of(ideals_by_sweep(p))


def test_down_closure_matches_forward_chaining():
    rng = SplitMix64(73)
    for _ in range(30):
        w = 1 + rng.below(10)
        p = random_poset(rng, w)
        fam = natural_base(p)
        fast = down_closure_mask(p)
        for _ in range(5):
            seed = rng.sample(range(1, w + 1), rng.below(w + 1))
            mask = sum(1 << (e - 1) for e in seed)
            expect = close(seed, fam)
            assert fast(mask) == sum(1 << (e - 1) for e in expect)


def test_ideal_oracle_chain_cases():
    p = Poset.chain(3)
    oracle = ideal_oracle(p)
    assert oracle(frozenset({1}), frozenset({3}), 2) is True
    assert oracle(frozenset({1}), frozenset({3}), 3) is False
    assert oracle(frozenset(), frozenset(), 0) is True
    assert oracle(frozenset(), frozenset(), None) is True
    assert oracle(frozenset({1}), frozenset({1}), 2) is False
    assert oracle(frozenset({4}), frozenset(), 2) is False
    assert oracle(frozenset(), frozenset({4}), 2) is True


def test_ideal_oracle_agrees_with_exhaustive_search():
    rng = SplitMix64(79)
    for _ in range(25):
        w = 1 + rng.below(12)
        p = random_poset(rng, w)
        oracle = ideal_oracle(p)
        all_ideals = ideals_by_sweep(p)
        fam = natural_base(p)
        for _ in range(8):
            z0 = close(rng.sample(range(1, w + 1), rng.below(w + 1)), fam)
            rest = sorted(set(p.elements) - z0)
            y = frozenset(rng.sample(rest, rng.below(len(rest) + 1)))
            k = rng.below(w + 2)
            expect = any(
                len(z) == k and z0 <= z and not (y & z) for z in all_ideals
            )
            assert oracle(z0, y, k) == expect


def test_ideal_oracles_answer_masks_and_frozensets_alike():
    # k runs over None and 0..w; Y is drawn from every element, so it often
    # meets Z0
    rng = SplitMix64(421)
    for _ in range(15):
        w = 1 + rng.below(10)
        p = random_poset(rng, w)
        fam = natural_base(p)
        fast, slow = ideal_oracle(p), brute_oracle(fam)
        for k in (None, *range(w + 1)):
            for _ in range(3):
                z0 = close(rng.sample(range(1, w + 1), rng.below(w + 1)), fam)
                y = frozenset(rng.sample(range(1, w + 1), rng.below(w + 1)))
                z0m, ym = to_mask(z0), to_mask(y)
                answer = slow(z0, y, k)
                assert slow(z0m, ym, k) == answer
                assert fast(z0, y, k) == answer
                assert fast(z0m, ym, k) == answer


def test_ideal_oracle_closes_its_ones_first():
    # {2} is not an ideal of the chain 1 < 2; the only ideal holding 2 is {1,2}
    oracle = ideal_oracle(Poset.chain(2))
    assert oracle(0b10, 0, 1) is False
    assert oracle(0b10, 0b01, None) is False
    assert oracle(0b10, 0, 2) is True


def test_ideal_oracle_matches_brute_oracle_on_unclosed_ones():
    # ones and zeros are arbitrary sets, for every k and for None
    rng = SplitMix64(433)
    posets = [Poset(1, []), Poset.chain(5), Poset.antichain(4)]
    posets += [random_poset(rng, 2 + rng.below(11)) for _ in range(12)]
    for p in posets:
        fast, slow = ideal_oracle(p), brute_oracle(natural_base(p))
        for k in (None, *range(p.w + 1)):
            for _ in range(4):
                ones = to_mask(rng.sample(range(1, p.w + 1), rng.below(min(p.w, 3) + 1)))
                zeros = to_mask(rng.sample(range(1, p.w + 1), rng.below(min(p.w, 3) + 1))) & ~ones
                assert fast(ones, zeros, k) == slow(ones, zeros, k), (p, ones, zeros, k)
                # a label above w: in the ones it makes the answer False, in
                # the zeros it is ignored
                for above in (1 << p.w, 1 << (p.w + 70)):
                    assert fast(ones | above, zeros, k) is False and slow(ones | above, zeros, k) is False
                    assert fast(ones, zeros | above, k) == slow(ones, zeros | above, k) == fast(ones, zeros, k)


@pytest.mark.parametrize("k", [-1, 6])
def test_enumerate_k_ideals_k_range_error(k):
    with pytest.raises(ValueError) as info:
        enumerate_k_ideals(Poset.chain(5), k)
    assert str(info.value) == f"k must be within 0..5, got {k}"


def test_enumerate_k_ideals_chain():
    assert sets_of(enumerate_k_ideals(Poset.chain(3), 2).sets(2)) == [(1, 2)]


def test_enumerate_k_ideals_antichain():
    got = sets_of(enumerate_k_ideals(Poset.antichain(4), 2).sets(2))
    assert got == sets_of(itertools.combinations(range(1, 5), 2))


def test_enumerate_k_ideals_vee():
    p = Poset(3, [(1, 3), (2, 3)])
    assert sets_of(enumerate_k_ideals(p, 2).sets(2)) == [(1, 2)]


def test_enumerate_k_ideals_random_matches_brute():
    rng = SplitMix64(83)
    for _ in range(12):
        w = 1 + rng.below(14)
        p = random_poset(rng, w)
        grouped = brute_ideals(p)
        for k in range(w + 1):
            stack = enumerate_k_ideals(p, k)
            got = list(stack.sets(k))
            assert len(got) == len(set(got))
            assert sets_of(got) == sets_of(grouped[k])
            assert stack.stats.wasteful_deletions == 0
            assert stack.stats.final_row_count <= len(grouped[k])


def test_specialized_closure_changes_nothing():
    # enumerate_k_ideals wires the O(w) down-set closure into the engine;
    # the default forward-chaining closure must give the identical stack
    rng = SplitMix64(211)
    for _ in range(6):
        p = random_poset(rng, 1 + rng.below(9))
        fam = natural_base(p)
        oracle = ideal_oracle(p)
        for k in range(p.w + 1):
            fast = enumerate_k_ideals(p, k)
            plain = enumerate_k_models(fam, k, oracle)
            assert [r.entries for r in fast.rows] == [r.entries for r in plain.rows]


def eager_lazy_posets():
    """Two kideals shapes (w = 50, four covers each) on seeds no benchmark
    run draws: one as generated, whose linear extension is 1..w, and one
    relabelled, whose linear extension is not."""
    rng = SplitMix64(20261022)
    p = gen_layered_poset(LayeredSpec(5, 10, 4, rng.next_u64()))
    q = shuffled(gen_layered_poset(LayeredSpec(5, 10, 4, rng.next_u64())), rng)
    return [("layered-5x10", p), ("relabelled-5x10", q)]


EAGER_LAZY_POSETS = eager_lazy_posets()


@pytest.mark.parametrize("name, p", EAGER_LAZY_POSETS, ids=[name for name, _ in EAGER_LAZY_POSETS])
def test_filter_at_once_matches_the_lazy_loop(name, p):
    # enumerate_k_ideals zeroes a new zero's whole filter in one step; the
    # generic enumerate_k_models meets that filter one forced single son at
    # a time.  Rows, pending and all five counters must agree.
    assert (p.linext == tuple(p.elements)) == name.startswith("layered")
    family, oracle = natural_base(p), ideal_oracle(p)
    for k in range(p.w + 1):
        eager = enumerate_k_ideals(p, k)
        lazy = enumerate_k_models(family, k, oracle)
        assert [(r.ones_mask, r.twos_mask, r.pending) for r in eager.rows] == [
            (r.ones_mask, r.twos_mask, r.pending) for r in lazy.rows
        ]
        assert eager.stats == lazy.stats


def all_ideal_posets():
    """Seeded layered grids, among them the kideals shape (w = 50, four
    covers each), each also relabelled so its linear extension is not 1..w,
    and the edge cases."""
    rng = SplitMix64(20261023)
    grids = [gen_layered_poset(LayeredSpec(m, l, t, rng.next_u64()))
             for m, l, t in ((2, 3, 1), (3, 4, 2), (4, 6, 2), (5, 10, 4), (6, 4, 3))]
    named = [(f"layered-{p.w}-{i}", p) for i, p in enumerate(grids)]
    named += [(f"relabelled-{p.w}-{i}", shuffled(p, rng)) for i, p in enumerate(grids)]
    return named + [("w0", Poset(0, [])), ("w1", Poset(1, [])), ("chain-12", Poset.chain(12)),
                    ("antichain-8", Poset.antichain(8))]


ALL_IDEAL_POSETS = all_ideal_posets()


@pytest.mark.parametrize("name, p", ALL_IDEAL_POSETS, ids=[name for name, _ in ALL_IDEAL_POSETS])
def test_all_ideals_match_the_lazy_loop(name, p):
    # k=None lists every ideal with the filters taken at once; the generic
    # enumerate_models keeps every son and meets each filter one forced
    # single son at a time.  Rows, row order, pending and all five counters
    # must agree.
    if name.startswith("relabelled"):
        assert p.linext != tuple(p.elements)
    eager = enumerate_k_ideals(p, None)
    lazy = enumerate_models(natural_base(p))
    assert [(r.ones_mask, r.twos_mask, r.pending) for r in eager.rows] == [
        (r.ones_mask, r.twos_mask, r.pending) for r in lazy.rows
    ]
    assert eager.stats == lazy.stats
    if p.w <= 12:
        assert eager.model_count() == len(ideals_by_sweep(p))


def test_only_ideals_take_k_none():
    # k=None lists every ideal of a poset; the k-subtree and k-model
    # enumerators have no such listing and refuse it
    t = Tree.path_graph(3)
    family = natural_base(Poset.chain(3))
    with pytest.raises(TypeError):
        enumerate_k_subtrees(t, None)
    with pytest.raises(TypeError):
        enumerate_k_models(family, None, brute_oracle(family))


def test_structural_disjointness_beyond_sweep_range():
    # past the membership-check range, disjointness is certified
    # structurally: some position is 0 in one row and 1 in the other
    p = gen_layered_poset(LayeredSpec(4, 6, 2, seed=321))  # w = 24
    grouped = brute_ideals(p)
    for k in (0, 6, 12, 18, 24):
        stack = enumerate_k_ideals(p, k)
        assert stack.count(k) == len(grouped[k])
        rows = stack.rows
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                a, b = rows[i], rows[j]
                assert (a.ones_mask & b.zeros_mask) or (b.ones_mask & a.zeros_mask)


def test_per_cardinality_counts_sum_to_total():
    rng = SplitMix64(89)
    for _ in range(8):
        w = 1 + rng.below(9)
        p = random_poset(rng, w)
        n = len(ideals_by_sweep(p))
        assert sum(enumerate_k_ideals(p, k).count(k) for k in range(w + 1)) == n
        assert whitney(p).evaluate(1) == n
        assert rank_poly_recursive(p)[0].evaluate(1) == n


def test_nested_ideals_reach_every_intermediate_cardinality():
    # shelling argument behind the oracle: between nested ideals every
    # cardinality is realized by an intermediate ideal
    rng = SplitMix64(97)
    for _ in range(20):
        w = 1 + rng.below(9)
        p = random_poset(rng, w)
        fam = natural_base(p)
        all_ideals = ideals_by_sweep(p)
        y = frozenset(rng.sample(range(1, w + 1), rng.below(w + 1)))
        y_filter = frozenset(e for e in p.elements if any(p.le(q, e) for q in y))
        zbar = frozenset(p.elements) - y_filter
        z0 = close(rng.sample(sorted(zbar), rng.below(len(zbar) + 1)), fam)
        assert z0 <= zbar
        for k in range(len(z0), len(zbar) + 1):
            assert any(
                len(z) == k and z0 <= z <= zbar for z in all_ideals
            ), f"no {k}-ideal between {sorted(z0)} and {sorted(zbar)}"
