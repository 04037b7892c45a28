"""Closure of a set under an implication family, by forward chaining.

The chaining is counter-based: one countdown per implication plus a queue of
newly added elements, so a single call costs time proportional to the total
written length of the family plus the universe size.  Repeated sweeps over
the family (which would multiply the cost by the family size) are avoided.
"""

from __future__ import annotations

from .core import ImplicationFamily, _positive_mask, _within, bit_positions, from_mask


def premise_index(w: int, masks) -> list[list[int]]:
    """index[e] lists, ascending, the implication indices whose premise
    holds element e (index[0] is empty); `masks` as ImplicationFamily.masks."""
    index: list[list[int]] = [[] for _ in range(w + 1)]
    for i, (prem, _) in enumerate(masks):
        while prem:
            low = prem & -prem
            index[low.bit_length()].append(i)
            prem ^= low
    return index


class Closer:
    """Reusable forward-chaining engine for one fixed family.

    Precomputes, per element, which implication premises mention it, so that
    repeated closure queries skip the per-call indexing cost.  `decrements`
    accumulates the number of premise-counter decrements across calls (each
    implication's counter is touched at most once per premise element), which
    tests use to assert the linear-time behaviour.
    """

    def __init__(self, family: ImplicationFamily):
        self.family = family
        self._sizes = []
        self._concs = []
        self._touch = premise_index(family.w, family.masks)
        self._instant = 0  # conclusions of empty-premise implications
        for prem, conc in family.masks:
            self._sizes.append(prem.bit_count())
            self._concs.append(conc)
            if prem == 0:
                self._instant |= conc
        self.decrements = 0

    def close_mask(self, seed: int) -> int:
        x = seed | self._instant
        counts = self._sizes.copy()
        concs = self._concs
        queue = list(bit_positions(x))
        while queue:
            e = queue.pop()
            for i in self._touch[e]:
                counts[i] -= 1
                self.decrements += 1
                if counts[i] == 0:
                    new = concs[i] & ~x
                    if new:
                        x |= new
                        queue.extend(bit_positions(new))
        return x

    def close(self, seed) -> frozenset[int]:
        return from_mask(self.close_mask(_within(seed, self.family.w)))


def close(seed, family: ImplicationFamily) -> frozenset[int]:
    """Smallest superset of `seed` closed under every implication.

    Extensive, monotone and idempotent in `seed`.
    """
    return Closer(family).close(seed)


def is_model(x, family: ImplicationFamily) -> bool:
    """True iff `x`, a subset of 1..w, satisfies every implication of the
    family; False for a set holding a label above w."""
    m = _positive_mask(x, family.w)
    return not m >> family.w and is_model_mask(m, family.masks)


def is_model_mask(m: int, masks) -> bool:
    """Mask-level variant for hot loops; `masks` as ImplicationFamily.masks."""
    for prem, conc in masks:
        if m & prem == prem and m & conc != conc:
            return False
    return True
