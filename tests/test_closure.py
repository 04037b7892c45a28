import itertools

import pytest
from conftest import random_family

from wildrows import Closer, Implication, ImplicationFamily, InputError, SplitMix64, close, is_model

TOY = ImplicationFamily(7, [
    Implication({5}, {6, 7}),
    Implication({6}, {3}),
    Implication({1, 2, 3}, {7}),
    Implication({3}, {4, 5}),
])


def test_close_chases_to_fixpoint():
    # 3 -> {4,5}, 5 -> {6,7}, 6 -> {3}: frozen fixpoint
    assert close({3}, TOY) == {3, 4, 5, 6, 7}


def test_close_empty_seed():
    assert close(set(), TOY) == frozenset()


def test_close_nonfiring_singleton():
    assert close({1}, TOY) == {1}


def test_close_empty_premise_fires_immediately():
    fam = ImplicationFamily(3, [Implication(set(), {2}), Implication({2}, {3})])
    assert close(set(), fam) == {2, 3}


def test_is_model_examples():
    assert is_model({2, 4, 7}, TOY)
    assert not is_model({1, 2, 3, 4}, TOY)
    assert is_model(set(), TOY)


def test_is_model_equals_closure_fixpoint_and_direct_check():
    rng = SplitMix64(41)
    widths = [1 + rng.below(8) for _ in range(20)] + [14]
    for w in widths:
        fam = random_family(rng, w, 1 + rng.below(5))
        for bits in itertools.product([0, 1], repeat=w):
            x = {i + 1 for i, b in enumerate(bits) if b}
            direct = all(
                not imp.premise <= x or imp.conclusion <= x for imp in fam
            )
            assert is_model(x, fam) == direct
        for _ in range(50):
            x = set(rng.sample(range(1, w + 1), rng.below(w + 1)))
            assert is_model(x, fam) == (close(x, fam) == x)


def test_closure_operator_properties():
    rng = SplitMix64(43)
    for _ in range(40):
        w = 1 + rng.below(10)
        fam = random_family(rng, w, 1 + rng.below(6))
        seed = frozenset(rng.sample(range(1, w + 1), rng.below(w + 1)))
        other = frozenset(rng.sample(range(1, w + 1), rng.below(w + 1)))
        c = close(seed, fam)
        assert seed <= c  # extensive
        assert close(c, fam) == c  # idempotent
        if seed <= other:
            assert c <= close(other, fam)  # monotone
        assert c <= close(seed | other, fam)


def test_counter_chaining_is_linear():
    # each implication's counter is decremented at most once per premise
    # element, so one call decrements at most sum(|premise|) times
    rng = SplitMix64(47)
    for _ in range(30):
        w = 1 + rng.below(10)
        fam = random_family(rng, w, 1 + rng.below(8))
        closer = Closer(fam)
        bound = sum(len(imp.premise) for imp in fam)
        for _ in range(5):
            before = closer.decrements
            closer.close(rng.sample(range(1, w + 1), rng.below(w + 1)))
            assert closer.decrements - before <= bound


def test_decrements_count_every_premise_of_every_closed_element():
    # every element of a closure is popped once and decrements the counter
    # of each implication whose premise holds it: exact, not only bounded
    rng = SplitMix64(53)
    fam = random_family(rng, 12, 10)
    closer = Closer(fam)
    want = 0
    for _ in range(8):
        closed = closer.close(rng.sample(range(1, 13), rng.below(5)))
        want += sum(e in imp.premise for e in closed for imp in fam)
    assert closer.decrements == want == 36


def test_closer_reusable():
    closer = Closer(TOY)
    assert closer.close({3}) == {3, 4, 5, 6, 7}
    assert closer.close({1}) == {1}
    assert closer.close({5}) == {3, 4, 5, 6, 7}
    # a label above w is refused, named by the highest one
    for seed, top in (({8}, 8), ({1, 12, 9}, 12), (1 << 70 | 1, 71)):
        for closure in (closer.close, lambda s: close(s, TOY)):
            with pytest.raises(InputError) as bad:
                closure(seed)
            assert str(bad.value) == f"element {top} outside universe 1..7"
