"""LIFO exclusion engine over {0,1,2}-valued rows.

`enumerate_models` imposes the family's implications one at a time, always
on the topmost working-stack row, excluding the violating sets by splitting
the row into disjoint sons; the final stack partitions the full model
family.  `enumerate_k_models` is
the deletion-free fixed-cardinality variant: every candidate son is tested
against a feasibility oracle before it may enter the stack, so no stacked
row is ever discarded and the number of final rows never exceeds the number
of k-element models.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .closure import Closer, is_model_mask
from .core import (
    GuardError,
    Implication,
    ImplicationFamily,
    Row012,
    from_mask,
    row012_count,
    row012_list_k,
    row012_members,
    to_mask,
)

# Contract: oracle(ones, zeros, k) is True iff some model Z of the family
# satisfies ones ⊆ Z, Z ∩ zeros = ∅ and |Z| = k.  The engine always passes
# the closure of a row's ones-part.  k=None lifts the cardinality restriction;
# the engine itself only ever passes an int.
FeasibilityOracle = Callable[[frozenset, frozenset, Optional[int]], bool]

BRUTE_ORACLE_MAX_W = 24


@dataclass
class EngineStats:
    """Work counters of one run.

    impositions counts every constraint imposed on a row; candidate_sons
    only the rows produced by genuine splits (unchanged carry-overs are not
    re-counted); killed_candidates the sons rejected by the feasibility
    test; wasteful_deletions the stacked rows discarded with no surviving
    member (always 0 in the deletion-free variant).
    """

    impositions: int = 0
    candidate_sons: int = 0
    killed_candidates: int = 0
    wasteful_deletions: int = 0
    final_row_count: int = 0


@dataclass(frozen=True)
class FinalStack:
    """Outcome of a run: pairwise disjoint rows plus run statistics."""

    rows: tuple[Row012, ...]
    stats: EngineStats

    def model_count(self) -> int:
        return sum(row012_count(r) for r in self.rows)

    def count(self, k: int | None = None) -> int:
        if k is None:
            return self.model_count()
        return sum(
            math.comb(r.twos_mask.bit_count(), k - r.ones_mask.bit_count())
            for r in self.rows
            if r.ones_mask.bit_count() <= k
        )

    def sets(self, k: int | None = None) -> Iterator[frozenset[int]]:
        """Member sets in row order, combination order within each row."""
        for r in self.rows:
            if k is None:
                yield from row012_members(r)
            else:
                yield from row012_list_k(r, k)


def _sons_masks(ones, twos, prem, conc, full):
    """Candidate sons of the row (ones, twos) under premise/conclusion masks.

    Returns None when the row carries over unchanged (premise blocked by a
    zero, or conclusion already forced), otherwise the list of (ones, twos)
    son rows in processing order: staircase rows over the free premise
    positions ascending, then (when no conclusion position is zero) the row
    with premise and conclusion forced to one.  An empty list means no member
    survives the constraint.
    """
    zeros = full & ~(ones | twos)
    if prem & zeros or not conc & ~ones:
        return None
    sons = []
    seen = 0
    free = prem & twos
    while free:
        low = free & -free
        sons.append((ones | seen, twos & ~(seen | low)))
        seen |= low
        free ^= low
    if not conc & zeros:
        forced = prem | conc
        sons.append((ones | forced, twos & ~forced))
    return sons


def candidate_sons(r: Row012, imp: Implication) -> list[Row012]:
    """Rows whose disjoint union is exactly the members of `r` satisfying
    `imp`; an empty list encodes deletion.  Sons carry pending advanced by
    one; at most max(|premise|+1, 1) rows are returned."""
    prem, conc = to_mask(imp.premise), to_mask(imp.conclusion)
    full = (1 << r.w) - 1
    sons = _sons_masks(r.ones_mask, r.twos_mask, prem, conc, full)
    if sons is None:
        return [Row012(r.w, r.ones_mask, r.twos_mask, r.pending + 1)]
    return [Row012(r.w, o, t, r.pending + 1) for o, t in sons]


def _lifo(
    family: ImplicationFamily, admit: Callable[[int, int], bool] | None = None
) -> FinalStack:
    """The LIFO exclusion loop of both enumerators.  `admit`, when given,
    vets each candidate son (ones, twos) before it may be stacked; None
    admits every son."""
    w, h = family.w, family.h
    masks = family.masks
    full = (1 << w) - 1
    stats = EngineStats()
    final = []
    stack = [(0, full, 1)]
    while stack:
        ones, twos, pending = stack.pop()
        sons = None
        while pending <= h:
            prem, conc = masks[pending - 1]
            stats.impositions += 1
            sons = _sons_masks(ones, twos, prem, conc, full)
            if sons is None:
                pending += 1
                continue
            break
        else:
            final.append(Row012(w, ones, twos, pending))
            continue
        stats.candidate_sons += len(sons)
        if admit is not None:
            proper = [son for son in sons if admit(*son)]
            stats.killed_candidates += len(sons) - len(proper)
            sons = proper
        if not sons:
            # no member survives; unreachable under a consistent feasibility
            # filter, since a feasible row keeps at least one son feasible
            stats.wasteful_deletions += 1
            continue
        for o, t in reversed(sons):
            stack.append((o, t, pending + 1))
    stats.final_row_count = len(final)
    return FinalStack(tuple(final), stats)


def enumerate_models(family: ImplicationFamily) -> FinalStack:
    """All models of the family as a final stack of disjoint rows.

    Deterministic: the topmost working-stack row is always processed next,
    and sons are pushed so that the first-listed son is processed first.
    """
    return _lifo(family)


def enumerate_k_models(
    family: ImplicationFamily,
    k: int,
    oracle: FeasibilityOracle,
    *,
    closure_mask: Callable[[int], int] | None = None,
) -> FinalStack:
    """Deletion-free enumeration of the k-element models.

    Every candidate son is admitted only after a feasibility test: close the
    son's ones-part, reject when the closure outgrows k or collides with the
    son's zeros, otherwise ask the oracle for a k-element model extending the
    closure and avoiding the zeros.  Each final row therefore contains at
    least one k-element model, no stacked row is ever discarded, and the
    final row count is at most the number of k-element models.  Use
    `FinalStack.sets(k)` to materialize them.

    `closure_mask` may supply a faster mask-level closure for the family
    (must agree with the generic forward chaining); by default the family's
    own chaining is used.
    """
    w = family.w
    if not 0 <= k <= w:
        raise ValueError(f"k must be within 0..{w}, got {k}")
    full = (1 << w) - 1
    if closure_mask is None:
        closure_mask = Closer(family).close_mask

    def feasible(ones, twos):
        zeros = full & ~(ones | twos)
        z0 = closure_mask(ones)
        if z0.bit_count() > k or z0 & zeros:
            return False
        return bool(oracle(from_mask(z0), from_mask(zeros), k))

    if not feasible(0, full):
        return FinalStack((), EngineStats())
    return _lifo(family, feasible)


def brute_oracle(family: ImplicationFamily) -> FeasibilityOracle:
    """Exhaustive-search feasibility oracle for desk-scale families.

    Searches the subsets between the ones-part and the complement of the
    zeros-part.  Refuses universes beyond w=24.
    """
    if family.w > BRUTE_ORACLE_MAX_W:
        raise GuardError(
            f"universe too large for the exhaustive oracle (w={family.w} > {BRUTE_ORACLE_MAX_W})"
        )
    masks = family.masks
    full = (1 << family.w) - 1

    def oracle(ones, zeros, k):
        om, zm = to_mask(ones), to_mask(zeros)
        if om & zm:
            return False
        free = sorted(from_mask(full & ~(om | zm)))
        if k is None:
            sizes = range(len(free) + 1)
        else:
            need = k - om.bit_count()
            if need < 0 or need > len(free):
                return False
            sizes = (need,)
        for n in sizes:
            for extra in itertools.combinations(free, n):
                if is_model_mask(om | to_mask(extra), masks):
                    return True
        return False

    return oracle
