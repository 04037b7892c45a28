import itertools

import pytest
from conftest import random_poset

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
from wildrows.rankpoly import _linext_rank, _pivot


def ideals_by_sweep(p):
    down = [0] * (p.w + 1)
    for e in p.elements:
        for q in p.elements:
            if p.le(q, e):
                down[e] |= 1 << (q - 1)
    for m in range(1 << p.w):
        if all(down[e] & ~m == 0 for e in p.elements if m >> (e - 1) & 1):
            yield frozenset(e for e in p.elements if m >> (e - 1) & 1)


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
    rng = SplitMix64(179)
    posets = [Poset.chain(7), Poset.antichain(5), gen_layered_poset(LayeredSpec(4, 5, 2, seed=11))]
    posets += [random_poset(rng, 1 + rng.below(30), density=0.05 * (1 + rng.below(8))) for _ in range(30)]
    for p in posets:
        rank = _linext_rank(p)
        full = (1 << p.w) - 1
        assert _pivot(0, p, rank) == 0
        subsets = [full] + [rng.next_u64() & full for _ in range(20)]
        for subset in subsets:
            assert _pivot(subset, p, rank) == linext_scan_pivot(subset, p)
            # a greedy antichain inside the subset scores 2 everywhere
            antichain = 0
            for e in rng.sample(p.elements, p.w):
                if subset >> (e - 1) & 1 and not (p.down_masks[e] | p.up_masks[e]) & antichain:
                    antichain |= 1 << (e - 1)
            assert _pivot(antichain, p, rank) == linext_scan_pivot(antichain, p) == 0


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
