"""LIFO exclusion engine over {0,1,2}-valued rows.

`enumerate_models` imposes the family's implications one at a time, always
on the topmost working-stack row, excluding the violating sets by splitting
the row into disjoint sons; the final stack partitions the full model
family.  `enumerate_k_models` is
the deletion-free fixed-cardinality variant: every candidate son is tested
against a feasibility oracle before it may enter the stack, so no stacked
row is ever discarded and the number of final rows never exceeds the number
of k-element models.

Most impositions on subtree bases are carry-overs: the row's zeros block the
premise, or the conclusion is already forced, and the row goes on
unchanged.  Each stacked row therefore carries a bitset of the pending
implications whose premise still misses its zeros; a pop jumps over the
blocked ones with `bit_length`, and a son that gains a zero drops the
premises holding it in one AND.  Processing order, rows and counters are
those of imposing every implication in turn.  A stacked row also carries
the feasibility state its admission test returned, so the test of a son
can update its father's state instead of starting over.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterator, Optional

from .closure import Closer, is_model_mask, premise_index
from .core import (
    GuardError,
    Implication,
    ImplicationFamily,
    Record,
    Row012,
    _loose_mask,
    _setattr,
    from_mask,
    row012_count,
    row012_k_members,
    row012_members,
    to_mask,
)

# Contract: oracle(ones, zeros, k) is True iff some model Z of the family
# satisfies ones ⊆ Z, Z ∩ zeros = ∅ and |Z| = k.  ones and zeros are int
# bitmasks (bit e-1 stands for element e); the built-in oracles also accept
# frozensets, through to_mask.  The engine always passes the closure of a
# row's ones-part.  k=None lifts the cardinality restriction; the engine
# itself only ever passes an int.
FeasibilityOracle = Callable[[int, int, Optional[int]], bool]

BRUTE_ORACLE_MAX_W = 24


class EngineStats(Record):
    """Work counters of one run.

    impositions counts every constraint imposed on a row, carry-overs
    included: the loop jumps over premise-blocked carry-overs and adds them
    arithmetically rather than visiting each.  candidate_sons counts only
    the rows produced by genuine splits (unchanged carry-overs are not
    re-counted); killed_candidates the sons rejected by the feasibility
    test; wasteful_deletions the stacked rows discarded with no surviving
    member (always 0 in the deletion-free variant).  Unlike the other
    records, the counters can be reassigned, and so are not hashable.
    """

    __slots__ = ("impositions", "candidate_sons", "killed_candidates", "wasteful_deletions",
                 "final_row_count")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, impositions: int = 0, candidate_sons: int = 0, killed_candidates: int = 0,
                 wasteful_deletions: int = 0, final_row_count: int = 0):
        _setattr(self, "impositions", impositions)
        _setattr(self, "candidate_sons", candidate_sons)
        _setattr(self, "killed_candidates", killed_candidates)
        _setattr(self, "wasteful_deletions", wasteful_deletions)
        _setattr(self, "final_row_count", final_row_count)


class FinalStack(Record):
    """Outcome of a run: pairwise disjoint rows plus run statistics."""

    __slots__ = ("rows", "stats")

    def __init__(self, rows: tuple[Row012, ...], stats: EngineStats):
        _setattr(self, "rows", rows)
        _setattr(self, "stats", stats)

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
                yield from row012_k_members(r, k)


def _split(ones, twos, prem, conc):
    """Sons of the row (ones, twos) that the implication (prem, conc) splits:
    its premise misses the row's zeros and its conclusion is not yet forced.

    Returns (ones, twos, e, None) in processing order, e being the element
    the son turns to zero: staircase rows over the free premise positions
    ascending, then (when no conclusion position is zero) the row with
    premise and conclusion forced to one, with e = 0.  The last slot holds
    the son's feasibility state once it is admitted.  An empty list means no
    member survives the constraint.
    """
    sons = []
    seen = 0
    free = prem & twos
    while free:
        low = free & -free
        sons.append((ones | seen, twos & ~(seen | low), low.bit_length(), None))
        seen |= low
        free ^= low
    if not conc & ~(ones | twos):
        forced = prem | conc
        sons.append((ones | forced, twos & ~forced, 0, None))
    return sons


def candidate_sons(r: Row012, imp: Implication) -> list[Row012]:
    """Rows whose disjoint union is exactly the members of `r` satisfying
    `imp`; an empty list encodes deletion.  Sons carry pending advanced by
    one; at most max(|premise|+1, 1) rows are returned.  A carry-over
    (premise blocked by a zero, or conclusion already forced) returns the
    row itself."""
    prem, conc = to_mask(imp.premise), to_mask(imp.conclusion)
    ones, twos = r.ones_mask, r.twos_mask
    zeros = ((1 << r.w) - 1) & ~(ones | twos)
    if prem & zeros or not conc & ~ones:
        return [Row012(r.w, ones, twos, r.pending + 1)]
    return [Row012(r.w, o, t, r.pending + 1) for o, t, _, _ in _split(ones, twos, prem, conc)]


def _premise_table(w: int, masks) -> list[int]:
    """table[e] is the bitset of the implication indices whose premise holds
    element e (table[0] = 0).  Linear in the total premise length plus w*h/8
    bytes: index lists, then one bytearray per element."""
    size = (len(masks) + 7) // 8
    table = [0]
    for indices in premise_index(w, masks)[1:]:
        buf = bytearray(size)
        for i in indices:
            buf[i >> 3] |= 1 << (i & 7)
        table.append(int.from_bytes(buf, "little"))
    return table


Admit = Callable[[object, int, int, int], object]


def _lifo(family: ImplicationFamily, admit: Admit | None = None) -> FinalStack:
    """The LIFO exclusion loop of both enumerators.  `admit`, when given,
    vets the root row and each candidate son before it may be stacked; None
    admits every row.

    A stacked row is (ones, twos, pending, open, state): bit i-1 of open is
    set while implication i is still pending (i >= pending) and its premise
    misses the row's zeros.  A pop jumps over the premise-blocked
    carry-overs with bit_length and tests only the conclusions of the open
    implications, one by one.

    state is the row's feasibility state, whatever admit returned for it.
    admit(state, ones, twos, e) vets the son (ones, twos) of a row with
    that state, e being the one zero the son gains (a staircase son) or 0
    (the forced son), and returns the son's state, or None to refuse it;
    the root is vetted as admit(None, 0, full, 0).  So admit can update the
    father's state for the son's new ones and its new zero rather than
    derive it from the whole row.
    """
    w, h = family.w, family.h
    masks = family.masks
    out_prem = [~bits for bits in _premise_table(w, masks)]
    impositions = candidates = killed = deletions = 0
    final = []
    full = (1 << w) - 1
    root = () if admit is None else admit(None, 0, full, 0)
    stack = [] if root is None else [(0, full, 1, (1 << h) - 1, root)]
    while stack:
        ones, twos, start, open_, state = stack.pop()
        while open_:
            low = open_ & -open_
            open_ ^= low
            pending = low.bit_length()
            prem, conc = masks[pending - 1]
            if conc & ~ones:
                break
        else:
            impositions += h - start + 1
            final.append(Row012(w, ones, twos, h + 1))
            continue
        impositions += pending - start + 1
        sons = _split(ones, twos, prem, conc)
        split = len(sons)
        candidates += split
        if admit is not None:
            sons = [(o, t, e, s) for o, t, e, _ in sons if (s := admit(state, o, t, e)) is not None]
            killed += split - len(sons)
        if not sons:
            # no member survives; unreachable under a consistent feasibility
            # filter, since a feasible row keeps at least one son feasible
            deletions += 1
            continue
        # a staircase son gains the zero e, which blocks every premise holding
        # e; the forced son (e = 0) keeps open as it is
        for o, t, e, son_state in reversed(sons):
            stack.append((o, t, pending + 1, open_ & out_prem[e], son_state))
    stats = EngineStats(impositions, candidates, killed, deletions, len(final))
    return FinalStack(tuple(final), stats)


def _lifo_k(family: ImplicationFamily, k: int, admit: Admit) -> FinalStack:
    """_lifo for the k-element models; refuses k outside 0..w."""
    if not 0 <= k <= family.w:
        raise ValueError(f"k must be within 0..{family.w}, got {k}")
    return _lifo(family, admit)


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

    The oracle receives the closure and the zeros as int masks,
    `oracle(z0_mask, zeros_mask, k)`, so no set is built per call.

    `closure_mask` may supply a faster mask-level closure for the family
    (must agree with the generic forward chaining); by default the family's
    own chaining is used.

    Output bounds, with N the number of k-element models, h = family.h and
    p the largest premise size:

    - final_row_count <= N, since every final row holds a k-element model;
    - impositions <= final_row_count * h <= N * h: charge each stacked row
      to its leftmost final descendant; the rows charged to one final row
      lie on its path from the root, where every index is imposed once;
    - candidate_sons <= (p + 1) * splits, a split being an imposition that
      is not a carry-over: at most p staircase sons and one forced son.
    """
    full = (1 << family.w) - 1
    if closure_mask is None:
        closure_mask = Closer(family).close_mask

    def admit(state, ones, twos, e):
        # stateless: every son is closed and asked about from scratch
        zeros = full & ~(ones | twos)
        z0 = closure_mask(ones)
        if z0.bit_count() > k or z0 & zeros or not oracle(z0, zeros, k):
            return None
        return ()

    return _lifo_k(family, k, admit)


def brute_oracle(family: ImplicationFamily) -> FeasibilityOracle:
    """Exhaustive-search feasibility oracle for desk-scale families.

    Searches the subsets between the ones-part and the complement of the
    zeros-part, given as masks or as frozensets.  Ones outside 1..w make the
    answer False; zeros outside 1..w are ignored.  Refuses universes beyond
    w=24.
    """
    w = family.w
    if w > BRUTE_ORACLE_MAX_W:
        raise GuardError(
            f"universe too large for the exhaustive oracle (w={w} > {BRUTE_ORACLE_MAX_W})"
        )
    masks = family.masks
    full = (1 << w) - 1

    def oracle(ones, zeros, k):
        om, zm = _loose_mask(ones, w), _loose_mask(zeros, w)
        if om >> w or om & zm:
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
