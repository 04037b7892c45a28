"""Shared randomized-instance builders and reference helpers for the test
suite.

All randomness is seeded through SplitMix64 so every run exercises the same
instances.
"""

from wildrows import Implication, ImplicationFamily, Poset, Row012, RowAB, SplitMix64
from wildrows.core import Bundle


def sets_of(iterable):
    return sorted(tuple(sorted(s)) for s in iterable)


def ideals_by_sweep(p: Poset) -> list[frozenset[int]]:
    """All ideals straight from the order relation (independent reference)."""
    down = [0] * (p.w + 1)
    for e in p.elements:
        for q in p.elements:
            if p.le(q, e):
                down[e] |= 1 << (q - 1)
    out = []
    for m in range(1 << p.w):
        if all(down[e] & ~m == 0 for e in p.elements if m >> (e - 1) & 1):
            out.append(frozenset(e for e in p.elements if m >> (e - 1) & 1))
    return out


def random_poset(rng: SplitMix64, w: int, density: float = 0.3) -> Poset:
    """Random poset on a shuffled labelling (so linear extensions are
    non-trivial): orient random pairs along a hidden permutation."""
    perm = rng.sample(range(1, w + 1), w)
    relations = []
    for i in range(w):
        for j in range(i + 1, w):
            if rng.below(1000) < density * 1000:
                relations.append((perm[i], perm[j]))
    return Poset(w, relations)


def random_family(rng: SplitMix64, w: int, h: int, max_len: int = 3) -> ImplicationFamily:
    imps = []
    for _ in range(h):
        na = 1 + rng.below(max_len)
        nb = rng.below(max_len + 1)
        prem = frozenset(rng.sample(range(1, w + 1), min(na, w)))
        conc = frozenset(rng.sample(range(1, w + 1), min(nb, w)))
        imps.append(Implication(prem, conc))
    return ImplicationFamily(w, imps)


def random_row012(rng: SplitMix64, w: int) -> Row012:
    ones = twos = 0
    for i in range(w):
        v = rng.below(3)
        if v == 1:
            ones |= 1 << i
        elif v == 2:
            twos |= 1 << i
    return Row012(w, ones, twos)


def random_rowab(rng: SplitMix64, w: int, max_bundles: int = 3) -> RowAB:
    positions = rng.sample(range(1, w + 1), w)
    i = 0
    bundles = []
    bid = 1
    for _ in range(rng.below(max_bundles + 1)):
        if i + 2 > w:
            break
        conc_n = 1 + rng.below(min(3, w - i - 1))
        prem, conc = positions[i], positions[i + 1 : i + 1 + conc_n]
        i += 1 + conc_n
        bundles.append(Bundle(bid, prem, sum(1 << (c - 1) for c in conc)))
        bid += 1
    ones = twos = 0
    for p in positions[i:]:
        v = rng.below(3)
        if v == 1:
            ones |= 1 << (p - 1)
        elif v == 2:
            twos |= 1 << (p - 1)
    return RowAB(w, ones, twos, tuple(bundles))
