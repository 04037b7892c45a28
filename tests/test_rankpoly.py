import itertools
import time
import tracemalloc

import pytest
from conftest import ideals_by_sweep, random_poset
from test_whitney_golden import LAYERED

from wildrows import (
    LayeredSpec,
    Poset,
    RankPolynomial,
    SplitMix64,
    gen_layered_poset,
    pick_pivot,
    rank_poly_recursive,
    whitney,
)
from wildrows.rankpoly import _by_linext, _comparability, _pivot


def induced_poset(p, keep):
    """Subposet on `keep` relabelled to 1..len(keep); returns poset + map."""
    keep = sorted(keep)
    label = {e: i + 1 for i, e in enumerate(keep)}
    rels = [(label[u], label[v]) for u in keep for v in keep if u != v and p.le(u, v)]
    return Poset(len(keep), rels), label


def test_pick_pivot_chain_tie_break():
    assert pick_pivot(Poset.chain(3)) == 1


def test_pick_pivot_vee():
    assert pick_pivot(Poset(3, [(1, 3), (2, 3)])) == 3


def test_pick_pivot_diamond_prefers_bottom():
    assert pick_pivot(Poset(4, [(1, 2), (1, 3), (2, 4), (3, 4)])) == 1


def test_pick_pivot_rejects_antichains_and_empty():
    with pytest.raises(ValueError):
        pick_pivot(Poset.antichain(4))
    with pytest.raises(ValueError):
        pick_pivot(Poset.antichain(0))


def linext_scan_pivot(subset, p):
    """The pivot rule read literally: scan the whole linear extension and
    keep the first element with the highest score above 2."""
    best, best_score = 0, 2
    for e in p.linext:
        if subset >> (e - 1) & 1:
            score = (p.down_masks[e] & subset).bit_count() + (p.up_masks[e] & subset).bit_count()
            if score > best_score:
                best, best_score = e, score
    return best


def test_pivot_matches_linext_scan():
    # _pivot runs on the comparability table of the poset relabelled along
    # its linear extension; its answer, mapped back through p.linext, is the
    # literal scan's
    rng = SplitMix64(179)
    posets = [Poset.chain(7), Poset.antichain(5), gen_layered_poset(LayeredSpec(4, 5, 2, seed=11))]
    posets += [random_poset(rng, 1 + rng.below(30), density=0.05 * (1 + rng.below(8))) for _ in range(30)]
    for p in posets:
        q = _by_linext(p)
        assert q.linext == tuple(q.elements)
        comp = _comparability(q)

        def pivot(subset):
            a = _pivot(sum(1 << i for i, e in enumerate(p.linext) if subset >> (e - 1) & 1), comp)
            return a and p.linext[a - 1]

        full = (1 << p.w) - 1
        assert pivot(0) == 0
        subsets = [full] + [rng.next_u64() & full for _ in range(20)]
        for subset in subsets:
            assert pivot(subset) == linext_scan_pivot(subset, p)
            # a greedy antichain inside the subset scores 2 everywhere
            antichain = 0
            for e in rng.sample(p.elements, p.w):
                if subset >> (e - 1) & 1 and not (p.down_masks[e] | p.up_masks[e]) & antichain:
                    antichain |= 1 << (e - 1)
            assert pivot(antichain) == linext_scan_pivot(antichain, p) == 0


def test_rank_poly_chain_of_two():
    poly, nsum = rank_poly_recursive(Poset.chain(2))
    assert poly.coefficients == (1, 1, 1)
    assert nsum == 2


def test_rank_poly_antichain_base_case():
    poly, nsum = rank_poly_recursive(Poset.antichain(5))
    assert poly == RankPolynomial.binomial(5)
    assert nsum == 1


def test_rank_poly_agrees_with_compact_rows():
    rng = SplitMix64(157)
    posets = [gen_layered_poset(LayeredSpec(3, 4, 1, seed=3))]
    for _ in range(12):
        posets.append(random_poset(rng, 1 + rng.below(11)))
    for p in posets:
        poly, nsum = rank_poly_recursive(p)
        assert poly == whitney(p)
        assert nsum >= 1


def test_rank_poly_total_matches_sweep():
    rng = SplitMix64(163)
    for _ in range(8):
        p = random_poset(rng, 1 + rng.below(10))
        poly, _ = rank_poly_recursive(p)
        assert poly.evaluate(1) == sum(1 for _ in ideals_by_sweep(p))


def test_memoized_run_agrees_and_hides_leaf_count():
    rng = SplitMix64(167)
    for _ in range(10):
        p = random_poset(rng, 1 + rng.below(11))
        plain, nsum = rank_poly_recursive(p)
        memo, memo_nsum = rank_poly_recursive(p, memo=True)
        assert plain == memo
        assert isinstance(nsum, int) and memo_nsum is None


def traced_peak(f, *args):
    tracemalloc.start()
    try:
        return f(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bounded_cache_keeps_results_and_flat_memory():
    # repeated subsets reuse their coefficients and leaf count, so nsum
    # still counts every leaf; the cache is cleared before it holds 2^16
    # coefficient cells (on the layered poset the tracemalloc peak is 0.2 MB,
    # and 7.2 MB uncapped)
    (poly, nsum), peak = traced_peak(rank_poly_recursive, gen_layered_poset(LayeredSpec(10, 10, 2, 1)))
    assert (poly.evaluate(1), nsum) == (1291619062, 39342)
    assert peak < 5 << 20
    (poly, nsum), peak = traced_peak(rank_poly_recursive, Poset.chain(1500))
    assert poly.coefficients == (1,) * 1501 and nsum == 1500
    assert peak < 3 << 20


def test_chain_at_the_universe_cap_is_fast():
    # every node's first element is comparable to its whole subset, so each
    # pivot scan stops after one score
    start = time.perf_counter()
    poly, nsum = rank_poly_recursive(Poset.chain(4096))
    assert poly.coefficients == (1,) * 4097 and nsum == 4096
    assert time.perf_counter() - start < 5.0


def shuffled_layered(name):
    """The golden layered poset with its labels permuted, so its linear
    extension is not 1..w."""
    p = gen_layered_poset(LAYERED[name])
    label = [0] + SplitMix64(LAYERED[name].seed).sample(p.elements, p.w)
    return Poset(p.w, [(label[u], label[v]) for u in p.elements for v in p.upper_covers(u)])


# name -> (rank polynomial coefficients, nsum, pick_pivot), where the pivot
# ties go to the earliest element of a linear extension other than 1..w
RELABELLED_GOLDEN = {
    "t1-a": (
        (1, 4, 10, 21, 39, 64, 94, 126, 152, 163, 157, 137, 105, 65, 29, 8, 1),
        48, 11,
    ),
    "t1-b": (
        (1, 5, 15, 36, 75, 146, 276, 502, 860, 1366, 2000, 2716, 3461, 4174, 4769, 5117, 5069, 4542, 3605, 2480, 1442, 686, 255, 69, 12, 1),
        360, 2,
    ),
    "t1-c": (
        (1, 6, 21, 58, 141, 310, 616, 1113, 1850, 2852, 4079, 5389, 6553, 7324, 7514, 7042, 5964, 4489, 2939, 1631, 743, 266, 70, 12, 1),
        336, 16,
    ),
    "t1-d": (
        (1, 3, 6, 10, 15, 22, 32, 49, 79, 126, 186, 250, 310, 357, 377, 355, 288, 193, 101, 38, 9, 1),
        105, 9,
    ),
    "t2-a": (
        (1, 4, 6, 8, 10, 12, 15, 18, 21, 23, 26, 31, 33, 27, 16, 6, 1),
        23, 5,
    ),
    "t2-b": (
        (1, 5, 10, 15, 20, 22, 24, 25, 25, 27, 30, 33, 38, 44, 50, 51, 47, 37, 21, 7, 1),
        59, 8,
    ),
    "t2-c": (
        (1, 4, 6, 8, 10, 12, 15, 18, 21, 23, 27, 33, 36, 35, 32, 29, 25, 20, 18, 18, 18, 16, 11, 5, 1),
        47, 13,
    ),
    "t2-d": (
        (1, 6, 15, 26, 40, 56, 76, 100, 125, 152, 177, 191, 184, 151, 102, 56, 24, 7, 1),
        49, 1,
    ),
    "t3-a": (
        (1, 4, 6, 4, 5, 6, 6, 4, 5, 5, 6, 4, 5, 4, 6, 4, 1),
        19, 5,
    ),
    "t3-b": (
        (1, 5, 10, 10, 10, 12, 14, 13, 10, 10, 13, 15, 15, 14, 12, 12, 12, 12, 10, 5, 1),
        34, 15,
    ),
    "t3-c": (
        (1, 4, 6, 4, 5, 7, 7, 6, 6, 5, 6, 4, 5, 4, 6, 4, 5, 10, 10, 5, 1),
        25, 2,
    ),
    "t3-d": (
        (1, 3, 3, 1, 3, 3, 1, 3, 3, 1, 3, 3, 1, 3, 3, 1, 3, 3, 1),
        16, 2,
    ),
    "reversed-chain": (
        (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
        12, 12,
    ),
}


@pytest.mark.parametrize("name", RELABELLED_GOLDEN)
def test_relabelled_golden(name):
    if name == "reversed-chain":
        p = Poset(12, [(i + 1, i) for i in range(1, 12)])
    else:
        p = shuffled_layered(name)
    assert p.linext != tuple(p.elements)
    poly, nsum = rank_poly_recursive(p)
    assert poly == whitney(p)
    assert (poly.coefficients, nsum, pick_pivot(p)) == RELABELLED_GOLDEN[name]


def test_pivot_decomposition_is_a_bijection():
    # ideals avoiding the pivot are the ideals of the poset minus the pivot's
    # filter; ideals containing it map, via removing the pivot's down-set,
    # onto the ideals of the poset minus the down-set
    rng = SplitMix64(173)
    checked = 0
    while checked < 12:
        p = random_poset(rng, 2 + rng.below(11))
        try:
            a = pick_pivot(p)
        except ValueError:
            continue
        checked += 1
        ideals = set(ideals_by_sweep(p))
        avoid = {x for x in ideals if a not in x}
        contain = {x for x in ideals if a in x}
        sub_minus, label_minus = induced_poset(p, set(p.elements) - p.up_set(a))
        expect_minus = {
            frozenset(e for e in p.elements if e in x)
            for x in avoid
        }
        got_minus = {
            frozenset(e for e, i in label_minus.items() if i in y)
            for y in map(frozenset, ideals_by_sweep(sub_minus))
        }
        assert expect_minus == got_minus
        sub_plus, label_plus = induced_poset(p, set(p.elements) - p.down_set(a))
        mapped = {x - p.down_set(a) for x in contain}
        got_plus = {
            frozenset(e for e, i in label_plus.items() if i in y)
            for y in map(frozenset, ideals_by_sweep(sub_plus))
        }
        assert mapped == got_plus
        assert len(mapped) == len(contain)  # the map is injective
