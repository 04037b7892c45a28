import pytest
from conftest import sets_of

from wildrows import (
    GuardError,
    Implication,
    ImplicationFamily,
    LayeredSpec,
    Poset,
    SplitMix64,
    Tree,
    brute_ideals,
    brute_models,
    brute_rank_poly,
    brute_subtrees,
    gen_layered_poset,
    gen_random_tree,
    run_bench,
    subtree_count,
    whitney,
)

TOY = ImplicationFamily(7, [
    Implication({5}, {6, 7}),
    Implication({6}, {3}),
    Implication({1, 2, 3}, {7}),
    Implication({3}, {4, 5}),
])


# ---------------------------------------------------------------------------
# RNG

def test_splitmix64_reference_vector():
    # published reference outputs for the splitmix64 stream seeded with 0
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_splitmix64_bounded_draws():
    rng = SplitMix64(99)
    draws = [rng.below(7) for _ in range(500)]
    assert set(draws) <= set(range(7)) and len(set(draws)) == 7
    with pytest.raises(ValueError):
        rng.below(0)
    # bounds above 2**64 used to reject every draw and never return
    for n in ((1 << 64) + 1, 1 << 80):
        with pytest.raises(ValueError):
            rng.below(n)
    assert SplitMix64(5).below(1 << 64) == SplitMix64(5).next_u64()


def test_splitmix64_sample_without_replacement():
    rng = SplitMix64(7)
    for _ in range(50):
        got = rng.sample(range(1, 11), 4)
        assert len(got) == len(set(got)) == 4
        assert all(1 <= v <= 10 for v in got)
    with pytest.raises(ValueError) as e:
        rng.sample([1, 2], 3)
    assert str(e.value) == "sample larger than population"
    with pytest.raises(ValueError) as e:
        SplitMix64(1).sample(range(5), -2)
    assert str(e.value) == "sample size must be nonnegative, got -2"


# ---------------------------------------------------------------------------
# generators

def test_layered_poset_degenerate_shapes():
    assert gen_layered_poset(LayeredSpec(1, 5, 1, seed=1)) == Poset.chain(5)
    assert gen_layered_poset(LayeredSpec(5, 1, 1, seed=1)) == Poset.antichain(5)


def test_layered_poset_deterministic():
    spec = LayeredSpec(4, 3, 2, seed=77)
    assert gen_layered_poset(spec) == gen_layered_poset(spec)
    other = gen_layered_poset(LayeredSpec(4, 3, 2, seed=78))
    assert gen_layered_poset(spec) != other


def test_layered_poset_cover_structure():
    spec = LayeredSpec(4, 3, 2, seed=5)
    p = gen_layered_poset(spec)
    assert p.w == 12
    for level in range(2, 4):
        for a in range((level - 1) * 4 + 1, level * 4 + 1):
            covers = p.lower_covers(a)
            assert len(covers) == 2
            assert all((level - 2) * 4 < c <= (level - 1) * 4 for c in covers)


def test_layered_spec_validation():
    with pytest.raises(Exception):
        LayeredSpec(2, 3, 5, seed=1)  # t > m
    with pytest.raises(Exception):
        LayeredSpec(0, 3, 0, seed=1)


def test_random_tree_small_and_deterministic():
    assert gen_random_tree(1, 3).w == 1
    assert gen_random_tree(2, 3).edges == ((1, 2),)
    a = gen_random_tree(9, 42)
    assert a == gen_random_tree(9, 42)
    assert a != gen_random_tree(9, 43)
    assert len(a.edges) == 8


# ---------------------------------------------------------------------------
# brute-force references

def test_brute_ideals_small_counts():
    assert sum(len(g) for g in brute_ideals(Poset.chain(3))) == 4
    assert sum(len(g) for g in brute_ideals(Poset.antichain(3))) == 8
    vee = brute_ideals(Poset(3, [(1, 3), (2, 3)]))
    assert sets_of(s for g in vee for s in g) == [(), (1,), (1, 2), (1, 2, 3), (2,)]


def test_brute_ideals_members_are_downward_closed():
    rng = SplitMix64(179)
    for _ in range(6):
        p = gen_layered_poset(LayeredSpec(3, 3, 1 + rng.below(3), seed=rng.next_u64()))
        for k, group in enumerate(brute_ideals(p)):
            for s in group:
                assert len(s) == k
                assert p.is_ideal(s)


def test_brute_ideals_guards():
    with pytest.raises(GuardError):
        brute_ideals(Poset.antichain(25))
    with pytest.raises(GuardError):
        brute_ideals(Poset.antichain(12), cap=100)


def test_brute_rank_poly_matches_grouping():
    rng = SplitMix64(181)
    for _ in range(5):
        p = gen_layered_poset(LayeredSpec(2, 4, 1 + rng.below(2), seed=rng.next_u64()))
        grouped = brute_ideals(p)
        assert brute_rank_poly(p).padded(p.w) == tuple(len(g) for g in grouped)
        assert brute_rank_poly(p) == whitney(p)


def test_brute_subtrees_examples_and_guard():
    assert sets_of(brute_subtrees(Tree.path_graph(3), 2)) == [(1, 2), (2, 3)]
    assert brute_subtrees(Tree.path_graph(3), 0) == [frozenset()]
    assert brute_subtrees(Tree.path_graph(3), 4) == []
    with pytest.raises(GuardError):
        brute_subtrees(Tree.path_graph(25), 2)


def test_brute_models_counts():
    assert len(brute_models(TOY)) == 20
    assert len(brute_models(ImplicationFamily(3, []))) == 8
    with pytest.raises(GuardError):
        brute_models(ImplicationFamily(21, []))


def test_subtree_count_examples():
    assert subtree_count(Tree.path_graph(3)) == 7  # empty, 3 singles, 2 pairs, 1 whole
    rng = SplitMix64(191)
    for _ in range(6):
        w = 1 + rng.below(10)
        t = gen_random_tree(w, rng.next_u64())
        total = sum(len(brute_subtrees(t, k)) for k in range(w + 1))
        assert subtree_count(t) == total


# ---------------------------------------------------------------------------
# harness

def test_run_bench_chain_instance():
    report = run_bench([LayeredSpec(1, 5, 1, seed=2)])
    row = report.rows[0]
    assert row.n == 6 and row.agree
    assert report.all_agree()


def test_run_bench_antichain_instance():
    report = run_bench([LayeredSpec(5, 1, 1, seed=2)])
    row = report.rows[0]
    assert row.n == 32 and row.r == 1 and row.agree


def test_run_bench_matches_brute_counts():
    specs = [LayeredSpec(3, 4, 2, seed=9), LayeredSpec(4, 3, 1, seed=9)]
    report = run_bench(specs)
    for row in report.rows:
        p = gen_layered_poset(row.spec)
        assert row.n == sum(len(g) for g in brute_ideals(p))
        assert row.agree


def test_run_bench_report_formats():
    report = run_bench([LayeredSpec(2, 3, 1, seed=4), LayeredSpec(3, 2, 2, seed=4)])
    table = report.table()
    head = table.splitlines()[0].split()
    assert head == ["(m,l,t)", "N", "R", "time-ab[ms]", "nsum", "time-rec[ms]", "agree"]
    lines = report.machine_lines()
    assert len(lines) == 2
    fields = lines[0].split("\t")
    assert fields[:4] == ["2", "3", "1", "4"]
    assert fields[9] == "true"
