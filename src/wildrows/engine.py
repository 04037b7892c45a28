"""LIFO exclusion engine over {0,1,2}-valued rows.

`enumerate_models` imposes the family's implications one at a time, always
on the topmost working-stack row, excluding the violating sets by splitting
the row into disjoint sons; the final stack partitions the full model
family.  `enumerate_k_models` is the deletion-free fixed-cardinality
variant: every candidate son is tested as the loop makes it, before it may
enter the stack, so no stacked row is ever discarded and the number of
final rows never exceeds the number of k-element models.  The loop itself
kills a son outside its size window |ones| <= k <= |ones| + |twos|, which
holds no k-element set in any family; `enumerate_k_models` then closes the
son's ones and asks a feasibility oracle.  The one exception is a forced
single son: a split whose conclusion meets a zero and whose premise has
one free position has one son, that position zeroed, with exactly its
father's models, so the loop takes it untested.  On a poset's natural base
(the ideals) and on a tree's path base (the subtrees) the window alone is
the exact test, so those enumerators hand the loop no test at all.  On the
natural base the ideal enumerator, for one k or (k=None) for all ideals,
hands the loop its filters, and a new zero then takes its whole filter at
once, so the loop makes no forced single son there at all; candidate_sons
still counts the ones it would have made.

Most impositions on subtree bases are carry-overs: the row's zeros block the
premise, or the conclusion is already forced, and the row goes on
unchanged.  Each stacked row therefore carries a bitset of the pending
implications whose premise still misses its zeros; a pop jumps over the
blocked ones with `bit_length`, and a son that gains a zero drops the
premises holding it in one AND.  Processing order, rows and counters are
those of imposing every implication in turn.  A split goes on with its
first admitted son in place, and stacks only the others.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Callable, Iterator, Optional

from .closure import Closer, is_model_mask
from .core import (
    GuardError,
    Implication,
    ImplicationFamily,
    Record,
    Row012,
    _loose_mask,
    _setattr,
    _within,
    from_mask,
    row012_count,
    row012_k_members,
    row012_members,
    to_mask,
)

# Contract: oracle(ones, zeros, k) is True iff some model Z of the family
# satisfies ones ⊆ Z, Z ∩ zeros = ∅ and |Z| = k.  ones and zeros are int
# bitmasks (bit e-1 stands for element e); the built-in oracles also accept
# sets of labels, through _loose_mask.  The engine always passes the
# closure of a row's ones-part.  k=None lifts the cardinality restriction;
# the engine itself only ever passes an int.
FeasibilityOracle = Callable[[int, int, Optional[int]], bool]

BRUTE_ORACLE_MAX_W = 24


class EngineStats(Record):
    """Work counters of one run.

    impositions counts every constraint imposed on a row, carry-overs
    included: the loop jumps over premise-blocked carry-overs and charges
    them when a chain of rows ends, rather than visiting each.
    candidate_sons counts only the rows produced by genuine splits
    (unchanged carry-overs are not re-counted); killed_candidates the sons
    rejected by the feasibility test; wasteful_deletions the stacked rows
    discarded with no surviving member (always 0 in the deletion-free
    variant).  Unlike the other records, the counters can be reassigned,
    and so are not hashable.
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


def candidate_sons(r: Row012, imp: Implication) -> list[Row012]:
    """Rows whose disjoint union is exactly the members of `r` satisfying
    `imp`; an empty list encodes deletion.  Sons carry pending advanced by
    one; at most max(|premise|+1, 1) rows are returned.  A carry-over
    (premise blocked by a zero, or conclusion already forced) returns the
    row itself.  A label of `imp` outside 1..w raises InputError.  Else the
    sons, in processing order: a staircase row per free premise position,
    ascending, then (no conclusion position being zero) the forced row;
    `_lifo` makes its sons by this rule inline."""
    prem, conc = _within(imp.premise, r.w), _within(imp.conclusion, r.w)
    ones, twos, pending = r.ones_mask, r.twos_mask, r.pending + 1
    if prem & r.zeros_mask or not conc & ~ones:
        return [Row012(r.w, ones, twos, pending)]
    sons = []
    seen = 0
    free = prem & twos
    while free:
        low = free & -free
        sons.append(Row012(r.w, ones | seen, twos & ~(seen | low), pending))
        seen |= low
        free ^= low
    if not conc & ~(ones | twos):
        forced = prem | conc
        sons.append(Row012(r.w, ones | forced, twos & ~forced, pending))
    return sons


def _premise_table(w: int, masks) -> list[int]:
    """table[e] is the bitset of the implication indices whose premise holds
    element e (table[0] = 0).  One pass over the premises sets bit i of
    each of premise i's elements in that element's bytearray, then each
    bytearray becomes an int in place: linear in the total premise length
    plus w*h/8 bytes."""
    table = [bytearray((len(masks) + 7) // 8) for _ in range(w + 1)]
    for i, (prem, _) in enumerate(masks):
        byte, bit = i >> 3, 1 << (i & 7)
        while prem:
            low = prem & -prem
            table[low.bit_length()][byte] |= bit
            prem ^= low
    for e, buf in enumerate(table):
        table[e] = int.from_bytes(buf, "little")
    return table


Admit = Callable[[int, int], bool]


def _lifo(family: ImplicationFamily, k: int | None = None, admit: Admit | None = None, *,
          _filters: tuple[list[int], list[int]] | None = None) -> FinalStack:
    """The LIFO exclusion loop of every enumerator.

    A stacked row is (ones, twos, open): bit i-1 of open is set while
    implication i is pending and its premise misses the row's zeros.  A pop
    jumps over the premise-blocked carry-overs with bit_length and tests
    only the conclusions of the open implications, one by one.  A split
    makes its sons in processing order (the rule of `candidate_sons`) and
    vets each as it is made.  It goes on with the first admitted son in
    place and inserts each later one where the stack ended before the
    split, below the earlier ones, so pops = final rows + deletions.  A
    stacked son's chain imposes the indices after its split, so
    impositions are charged when a chain ends: +h per final row, +index per
    deletion and -index per stacked son.

    With an int k (refused outside 0..w), a son outside its size window
    |ones| <= k <= |ones| + |twos| is killed first: it holds no k-element
    set.  admit(ones, twos), when given, then vets the son; the root row is
    vetted as admit(0, full).  A forced single son, whose one new zero no
    model of its father holds (the split's conclusion meets a zero), has
    its father's models and is taken unvetted.

    _filters, for a natural base alone, is (up, up_bits): up[e] is the
    filter of element e as a twos mask, up_bits[e] the same filter as
    implication-index bits.  A staircase son that zeroes e then zeroes the
    rest of e's filter too and drops those elements' implications from its
    open set; along the linear extension each of them would otherwise come
    up free with a zero lower cover, a forced single son.  Rows, row order
    and the other counters are unchanged, and candidate_sons still counts
    those sons: a staircase son adds the implications it drops beyond e's
    own, and a stacked forced son the pending implications whose element
    is already zero.  A staircase son is always its split's first, so it is
    never stacked.
    """
    w, h = family.w, family.h
    if k is not None:
        k = operator.index(k)
        if not 0 <= k <= w:
            raise ValueError(f"k must be within 0..{w}, got {k}")
    masks = family.masks
    # a son that zeroes e drops the open implications of dropped[e]: those
    # whose premise holds e or, with _filters, those of e's whole filter
    eager = _filters is not None
    up, dropped = _filters if eager else (None, _premise_table(w, masks))
    out_prem = [~bits for bits in dropped]
    impositions = candidates = killed = deletions = 0
    final = []
    full = (1 << w) - 1
    # the root holds every set, so its size window always holds
    stack = [(0, full, (1 << h) - 1)] if admit is None or admit(0, full) else []
    while stack:
        ones, twos, open_ = stack.pop()
        while True:
            while open_:
                low = open_ & -open_
                open_ ^= low
                pending = low.bit_length()
                prem, conc = masks[pending - 1]
                if conc & ~ones:
                    break
            else:
                impositions += h
                final.append(Row012._trusted(w, ones, twos, h + 1))
                break
            # staircase sons, then the forced son; the premise misses the
            # zeros, so the staircase leaves o = ones | prem and t = twos & ~prem
            free = prem & twos
            split = free.bit_count()
            blocked = conc & ~(ones | twos)
            if blocked and split == 1:
                # the only son zeroes the one free premise position, which no
                # model of the row holds: it keeps the row's models
                twos ^= free
                open_ &= out_prem[free.bit_length()]
                candidates += 1
                continue
            kept = 0
            o, t = ones, twos
            while free:
                low = free & -free
                free ^= low
                t ^= low
                e = low.bit_length()
                son_twos = t & ~up[e] if eager else t
                if ((k is None or o.bit_count() <= k <= (o | son_twos).bit_count())
                        and (admit is None or admit(o, son_twos))):
                    # the new zeros block every premise holding one of them
                    son_open = open_ & out_prem[e]
                    if kept:
                        if kept == 1:
                            mark = len(stack)
                        stack.insert(mark, (o, son_twos, son_open))
                        impositions -= pending
                    else:
                        next_row = o, son_twos, son_open
                        if eager:
                            candidates += open_.bit_count() - son_open.bit_count()
                    kept += 1
                o |= low
            if not blocked:
                split += 1
                o, t = o | conc, t & ~conc
                if ((k is None or o.bit_count() <= k <= (o | t).bit_count())
                        and (admit is None or admit(o, t))):
                    if kept:
                        if kept == 1:
                            mark = len(stack)
                        stack.insert(mark, (o, t, open_))
                        impositions -= pending
                        if eager:
                            candidates += h - pending - open_.bit_count()
                    else:
                        next_row = o, t, open_
                    kept += 1
            candidates += split
            killed += split - kept
            if not kept:
                # no member survives; unreachable under a consistent filter,
                # since a feasible row keeps at least one son feasible
                deletions += 1
                impositions += pending
                break
            ones, twos, open_ = next_row
    stats = EngineStats(impositions, candidates, killed, deletions, len(final))
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

    Every candidate son but a forced single son (see `_lifo`), which has
    its father's models, is admitted only after a feasibility test: reject
    a son outside its size window (the loop's own test), then close the
    son's ones-part, reject when the closure outgrows k or collides with the
    son's zeros, otherwise ask the oracle for a k-element model extending the
    closure and avoiding the zeros.  Each final row therefore contains at
    least one k-element model, no stacked row is ever discarded, and the
    final row count is at most the number of k-element models.  Use
    `FinalStack.sets(k)` to materialize them.  k must be an int: None and
    other types raise TypeError.

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
    k = operator.index(k)
    full = (1 << family.w) - 1
    if closure_mask is None:
        closure_mask = Closer(family).close_mask

    def admit(ones, twos):
        zeros = full & ~(ones | twos)
        z0 = closure_mask(ones)
        return z0.bit_count() <= k and not z0 & zeros and oracle(z0, zeros, k)

    return _lifo(family, k, admit)


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
