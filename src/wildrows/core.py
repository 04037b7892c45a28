"""Shared domain types: implications, wildcard rows, posets, trees, polynomials.

Elements of the universe are labelled 1..w throughout.  Subsets of the
universe are carried as Python int bitmasks internally (bit e-1 stands for
element e) and exposed as frozensets on the public surface.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
import re
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple


class InputError(ValueError):
    """Malformed textual input or structurally invalid instance data."""


class GuardError(RuntimeError):
    """Instance too large for a requested code path: a brute-force
    reference, or a subtree implication base (`subtrees.tree_base`) longer
    than `subtrees.TREE_BASE_MAX_LENGTH` or with w*h above
    `subtrees.TREE_BASE_MAX_CELLS`; their memory figures sit with them."""


# ---------------------------------------------------------------------------
# bitmask helpers

def to_mask(elements: Iterable[int]) -> int:
    """The mask of a set of 1-based element labels."""
    m = 0
    for e in elements:
        m |= 1 << (e - 1)
    return m


def from_mask(mask: int) -> frozenset[int]:
    return frozenset(bit_positions(mask))


def bit_positions(mask: int) -> Iterator[int]:
    """Yield the 1-based element labels of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


def union_over(table, mask: int) -> int:
    """OR of table[e] over the element labels e of a mask; table[0] is
    never read."""
    acc = 0
    while mask:
        low = mask & -mask
        acc |= table[low.bit_length()]
        mask ^= low
    return acc


def _label(e: int, w: int) -> int:
    """e, refused unless it is an element of 1..w."""
    if not 1 <= e <= w:
        raise InputError(f"element {e} outside universe 1..{w}")
    return e


def _positive_mask(x, w: int) -> int:
    """The mask of x (labels or a mask); a negative mask is refused, and so is
    a label below 1 (a negative shift in `to_mask`), with `_label`'s text."""
    if isinstance(x, int):
        if x < 0:
            raise InputError(f"negative mask {x}")
        return x
    return to_mask(e if e > 0 else _label(e, w) for e in x)


def _within(x, w: int) -> int:
    """The mask of x (labels or a mask), refused unless every label lies in
    1..w: one below 1 as in `_positive_mask`, else the highest above w."""
    mask = _positive_mask(x, w)
    if mask >> w:
        raise InputError(f"element {mask.bit_length()} outside universe 1..{w}")
    return mask


def _loose_mask(x, w: int) -> int:
    """The mask of x (labels or a mask), a label below 1 standing as w + 1:
    a membership test then answers for it as for any label above w."""
    if isinstance(x, int):
        return x
    return to_mask(e if e > 0 else w + 1 for e in x)


# ---------------------------------------------------------------------------
# records

_setattr = object.__setattr__  # a global name: the fastest to call, per field set


def _field_getter(names: tuple[str, ...]):
    """A method returning the tuple of the named fields, through one
    `operator.attrgetter` call."""
    get = operator.attrgetter(*names)
    if len(names) == 1:
        return lambda self: (get(self),)  # one name: attrgetter gives the bare value
    return lambda self: get(self)


class Record:
    """Base of the immutable value types.  A subclass lists its fields in
    `__slots__`, in constructor order, and sets each in `__init__` with
    `_setattr`.  Two records are equal when they are of one class and their
    compared fields are; the hash is that of the compared fields' tuple.
    Pickle and copy rebuild a record through its constructor.

    Each subclass that lists fields gets two getters when it is defined:
    `_values`, the tuple of all fields, and `_key`, that of the compared
    fields (all of them, unless a subclass says otherwise)."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__dict__.get("__slots__"):
            cls._values = cls._key = _field_getter(cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"


# ---------------------------------------------------------------------------
# implications

class Implication(Record):
    """A premise -> conclusion constraint: a set satisfies it when it either
    misses part of the premise or contains the whole conclusion.

    The conclusion is normalized to exclude premise elements, so both parts
    are disjoint after construction.  An empty conclusion is allowed (the
    constraint is then vacuous); an empty premise forces the conclusion into
    every satisfying set.
    """

    __slots__ = ("premise", "conclusion")

    def __init__(self, premise: Iterable[int], conclusion: Iterable[int]):
        premise = frozenset(premise)
        _setattr(self, "premise", premise)
        _setattr(self, "conclusion", frozenset(conclusion) - premise)

    @property
    def length(self) -> int:
        return len(self.premise) + len(self.conclusion)

    def __repr__(self):
        p = "{%s}" % ",".join(map(str, sorted(self.premise)))
        c = "{%s}" % ",".join(map(str, sorted(self.conclusion)))
        return f"{p}->{c}"


class ImplicationFamily(Record):
    """An ordered list of implications over the universe 1..w.

    Order matters: the enumeration engines impose members in list order, and
    the produced row stacks depend on it deterministically.  The family
    stores one (premise_mask, conclusion_mask) pair per implication, and
    equality compares these; the Implication objects are built on access
    and cached in the instance `__dict__` (so the class has no `__slots__`).
    """

    def __init__(self, w: int, implications: Iterable[Implication]):
        if w < 0:
            raise InputError(f"universe size must be nonnegative, got {w}")
        masks = []
        for imp in implications:
            # checked before to_mask, which fails on element 0 or a negative one
            for e in itertools.chain(imp.premise, imp.conclusion):
                _label(e, w)
            masks.append((to_mask(imp.premise), to_mask(imp.conclusion)))
        _setattr(self, "w", w)
        _setattr(self, "masks", tuple(masks))

    _values = _key = _field_getter(("w", "masks"))

    def __reduce__(self):
        return type(self).from_masks, self._values()

    @classmethod
    def from_masks(cls, w: int, masks: Iterable[tuple[int, int]]) -> "ImplicationFamily":
        """The family of (premise_mask, conclusion_mask) pairs, for code-built
        bases; each conclusion is normalized to exclude its premise."""
        family = cls(w, ())
        masks = tuple(masks)
        for prem, conc in masks:  # a negative mask is named as given
            _within(prem | conc if prem >= 0 and conc >= 0 else min(prem, conc), w)
        _setattr(family, "masks", tuple((prem, conc & ~prem) for prem, conc in masks))
        return family

    @cached_property
    def implications(self) -> tuple[Implication, ...]:
        return tuple(Implication(from_mask(p), from_mask(c)) for p, c in self.masks)

    @property
    def h(self) -> int:
        return len(self.masks)

    @property
    def total_length(self) -> int:
        return sum((p | c).bit_count() for p, c in self.masks)

    def __len__(self):
        return len(self.masks)

    def __iter__(self):
        return iter(self.implications)

    def __getitem__(self, i):
        return self.implications[i]

    def __repr__(self):
        return f"ImplicationFamily(w={self.w}, implications={self.implications!r})"


# ---------------------------------------------------------------------------
# wildcard rows

class WildRow(Record):
    """What the {0,1,2} and {0,1,2,a,b} rows share: a length-w row whose
    ones and twos are masks, the rest of its positions being zeros and
    bundle positions.  Subclasses are records with the fields w, ones_mask
    and twos_mask first and a bookkeeping field last, outside == and hash;
    they provide `bundles`, `bundle_mask` and `entries`.  A Row012 is the
    RowAB form with no bundles."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = _field_getter(cls.__slots__[:-1])

    def _set_masks(self, w: int, ones_mask: int, twos_mask: int):
        """Check and set the fields the two row types share."""
        if (ones_mask | twos_mask) & ~((1 << w) - 1):
            raise InputError("row mask outside universe")
        if ones_mask & twos_mask:
            raise InputError("ones and twos overlap")
        _setattr(self, "w", w)
        _setattr(self, "ones_mask", ones_mask)
        _setattr(self, "twos_mask", twos_mask)

    @classmethod
    def full(cls, w: int):
        """The all-2 row: the whole powerset of 1..w."""
        return cls(w, 0, (1 << w) - 1)

    @property
    def ones(self) -> frozenset[int]:
        return from_mask(self.ones_mask)

    @property
    def twos(self) -> frozenset[int]:
        return from_mask(self.twos_mask)

    @property
    def zeros(self) -> frozenset[int]:
        return from_mask(self.zeros_mask)

    @property
    def zeros_mask(self) -> int:
        return ((1 << self.w) - 1) & ~(self.ones_mask | self.twos_mask | self.bundle_mask)

    def __contains__(self, x) -> bool:
        m = _loose_mask(x, self.w)
        if m & self.ones_mask != self.ones_mask:
            return False
        if m & ~(self.ones_mask | self.twos_mask | self.bundle_mask):
            return False
        for b in self.bundles:
            if m >> (b.prem - 1) & 1 and m & b.conc_mask != b.conc_mask:
                return False
        return True

    def __repr__(self):
        return f"{type(self).__name__}({render_row(self)})"


class Row012(WildRow):
    """A length-w row over {0,1,2} encoding the interval of all sets X with
    ones ⊆ X ⊆ ones ∪ twos; entry 2 marks a free ("don't care") position.

    `pending` is engine bookkeeping (1-based index of the next constraint to
    impose) and does not take part in equality.
    """

    __slots__ = ("w", "ones_mask", "twos_mask", "pending")
    bundles = ()
    bundle_mask = 0

    def __init__(self, w: int, ones_mask: int, twos_mask: int, pending: int = 1):
        self._set_masks(w, ones_mask, twos_mask)
        _setattr(self, "pending", pending)

    @classmethod
    def from_entries(cls, entries: Iterable[int], pending: int = 1) -> "Row012":
        entries = tuple(entries)
        ones = twos = 0
        for i, e in enumerate(entries):
            if e == 1:
                ones |= 1 << i
            elif e == 2:
                twos |= 1 << i
            elif e != 0:
                raise InputError(f"row entry must be 0, 1 or 2, got {e!r}")
        return cls(len(entries), ones, twos, pending)

    @property
    def entries(self) -> tuple[int, ...]:
        return tuple(
            1 if self.ones_mask >> i & 1 else 2 if self.twos_mask >> i & 1 else 0
            for i in range(self.w)
        )


def row012_k_members(r: Row012, k: int) -> Iterator[frozenset[int]]:
    """The k-element members of the row, generated lazily in ascending
    combination order: the forced ones-part plus each (k - |ones|)-subset
    of the free positions.  Cost is linear in the output."""
    need = k - r.ones_mask.bit_count()
    if need >= 0:
        base = r.ones
        for extra in itertools.combinations(bit_positions(r.twos_mask), need):
            yield base | frozenset(extra)


def row012_list_k(r: Row012, k: int) -> list[frozenset[int]]:
    """All k-element members of the row, in ascending combination order."""
    return list(row012_k_members(r, k))


def row012_members(r: Row012) -> Iterator[frozenset[int]]:
    """All members, ascending by cardinality, combination order within."""
    low = r.ones_mask.bit_count()
    for k in range(low, low + r.twos_mask.bit_count() + 1):
        yield from row012_k_members(r, k)


class Bundle(NamedTuple):
    """One premise/conclusion wildcard of a RowAB.

    `prem` is the single premise position; `conc_mask` the nonempty mask of
    conclusion positions.  A member set containing the premise position must
    contain every conclusion position.
    """

    bid: int
    prem: int
    conc_mask: int


class RowAB(WildRow):
    """A length-w row over {0,1,2,a(i),b(i)}: zeros, ones, twos plus
    premise/conclusion bundles partition the positions.

    X belongs to the row iff ones ⊆ X, X avoids the zeros, and for every
    bundle: premise position in X implies all conclusion positions in X.

    `next_bundle` is the lineage counter for fresh bundle ids (dissolved ids
    are never reused); it does not take part in equality.
    """

    __slots__ = ("w", "ones_mask", "twos_mask", "bundles", "next_bundle")

    def __init__(self, w: int, ones_mask: int, twos_mask: int,
                 bundles: Iterable[Bundle] = (), next_bundle: int = 0):
        bundles = tuple(sorted(bundles, key=lambda b: b.bid))
        self._set_masks(w, ones_mask, twos_mask)
        _setattr(self, "bundles", bundles)
        used = ones_mask | twos_mask
        seen_ids = set()
        for bid, prem, conc in bundles:
            if bid in seen_ids:
                raise InputError(f"duplicate bundle id {bid}")
            seen_ids.add(bid)
            if not conc:
                raise InputError(f"bundle {bid} has an empty conclusion")
            if not 0 < prem <= w or conc >> w:
                raise InputError("bundle position outside universe")
            pm = 1 << (prem - 1)
            if pm & conc:
                raise InputError(f"bundle {bid} premise inside its conclusion")
            if (pm | conc) & used:
                raise InputError("bundle positions overlap other row parts")
            used |= pm | conc
        if next_bundle <= 0:
            next_bundle = max((b.bid for b in bundles), default=0) + 1
        _setattr(self, "next_bundle", next_bundle)

    @property
    def bundle_mask(self) -> int:
        m = 0
        for b in self.bundles:
            m |= (1 << (b.prem - 1)) | b.conc_mask
        return m

    def bundle_conclusion(self, bid: int) -> frozenset[int]:
        for b in self.bundles:
            if b.bid == bid:
                return from_mask(b.conc_mask)
        raise KeyError(bid)

    @property
    def entries(self) -> tuple[str, ...]:
        toks = ["0"] * self.w
        for i in bit_positions(self.ones_mask):
            toks[i - 1] = "1"
        for i in bit_positions(self.twos_mask):
            toks[i - 1] = "2"
        for b in self.bundles:
            toks[b.prem - 1] = f"a{b.bid}"
            for i in bit_positions(b.conc_mask):
                toks[i - 1] = f"b{b.bid}"
        return tuple(toks)


def rowab_count(r: WildRow) -> int:
    """Number of member sets: 2^|twos| times, per bundle with m conclusion
    positions, a factor 2^m + 1 (premise out with the conclusion free, or
    premise in with the conclusion forced).  A Row012 has no bundles."""
    n = 1 << r.twos_mask.bit_count()
    for b in r.bundles:
        n *= (1 << b.conc_mask.bit_count()) + 1
    return n


row012_count = rowab_count


def rowab_members(r: RowAB) -> Iterator[frozenset[int]]:
    """Generate every member set once, lazily (deterministic order, not by
    size).  The members of the row's {0,1,2} part come in `row012_members`
    order, and within each the bundle choices in itertools.product order,
    the last bundle varying fastest; a bundle's choices are the subsets of
    its conclusion by size, then premise plus conclusion."""

    def choices(i):
        if not i:
            return row012_members(Row012(r.w, r.ones_mask, r.twos_mask))
        b = r.bundles[i - 1]
        forced = from_mask(1 << (b.prem - 1) | b.conc_mask)
        return itertools.chain(row012_members(Row012(r.w, 0, b.conc_mask)), (forced,))

    # itertools.product order without product's up-front copy of every
    # choice list: an odometer whose last digit turns fastest
    digits = [choices(i) for i in range(len(r.bundles) + 1)]
    picks = [next(d) for d in digits]
    while True:
        yield frozenset().union(*picks)
        i = len(digits) - 1
        while (pick := next(digits[i], None)) is None:
            if not i:
                return
            digits[i] = choices(i)
            picks[i] = next(digits[i])
            i -= 1
        picks[i] = pick


# ---------------------------------------------------------------------------
# row text format

_TOKEN = re.compile(r"^(0|1|2|([ab])([1-9][0-9]*))$")


def render_row(r) -> str:
    """Space-separated token line, one token per position."""
    if not isinstance(r, WildRow):
        raise TypeError(f"not a row: {r!r}")
    return " ".join(map(str, r.entries))


def parse_row(text: str, kind: str = "auto"):
    """Parse a token line into a Row012 or a RowAB.

    kind="auto" returns a RowAB exactly when bundle tokens occur; "012" and
    "ab" force the respective type ("012" rejects bundle tokens).
    """
    tokens = text.split()
    ones = twos = 0
    prem: dict[int, int] = {}
    conc: dict[int, int] = {}
    for pos, tok in enumerate(tokens, start=1):
        m = _TOKEN.match(tok)
        if not m:
            raise InputError(f"unknown row token {tok!r} at position {pos}")
        if tok == "1":
            ones |= 1 << (pos - 1)
        elif tok == "2":
            twos |= 1 << (pos - 1)
        elif tok != "0":
            bid = int(m.group(3))
            if m.group(2) == "a":
                if bid in prem:
                    raise InputError(f"duplicate premise position for bundle {bid}")
                prem[bid] = pos
            else:
                conc[bid] = conc.get(bid, 0) | 1 << (pos - 1)
    if kind not in ("auto", "012", "ab"):
        raise ValueError(f"bad kind {kind!r}")
    has_bundles = bool(prem or conc)
    if kind == "012" and has_bundles:
        raise InputError("bundle tokens not allowed in a {0,1,2} row")
    for bid in conc:
        if bid not in prem:
            raise InputError(f"bundle {bid} has no premise")
    for bid in prem:
        if bid not in conc:
            raise InputError(f"bundle {bid} has an empty conclusion")
    if kind == "ab" or has_bundles:
        bundles = tuple(Bundle(bid, prem[bid], conc[bid]) for bid in sorted(prem))
        return RowAB(len(tokens), ones, twos, bundles)
    return Row012(len(tokens), ones, twos)


# ---------------------------------------------------------------------------
# posets

class Poset:
    """A finite partial order on elements 1..w.

    Built from arbitrary (u, v) pairs read as u ≤ v; the constructor takes
    the reflexive-transitive closure, validates antisymmetry, and derives the
    cover relation by transitive reduction.  A fixed linear extension
    (ascending topological order, ties by label) is computed once and drives
    every deterministic ordering downstream.

    The order is held as per-element masks indexed by label (index 0 unused):
    `down_masks`/`up_masks` for the generated ideal/filter,
    `lower_cover_masks`/`upper_cover_masks` for the cover relation.
    Instances are immutable after construction and safe to share.
    """

    def __init__(self, w: int, relations: Iterable[tuple[int, int]] = ()):
        if w < 0:
            raise InputError(f"poset size must be nonnegative, got {w}")
        self.w = w
        pred = [0] * (w + 1)
        succ = [0] * (w + 1)
        for u, v in relations:
            if not (1 <= u <= w and 1 <= v <= w):
                raise InputError(f"relation ({u},{v}) outside universe 1..{w}")
            if u != v:
                pred[v] |= 1 << (u - 1)
                succ[u] |= 1 << (v - 1)
        # Kahn's sort with a min-heap: an element becomes available once all
        # of its predecessors are placed, which is the same moment for any
        # relation list generating the order, so popping the least available
        # label gives the lexicographically least linear extension.
        indeg = [m.bit_count() for m in pred]
        heap = [e for e in range(1, w + 1) if not indeg[e]]  # sorted, so a heap
        order = []
        while heap:
            u = heapq.heappop(heap)
            order.append(u)
            for v in bit_positions(succ[u]):
                indeg[v] -= 1
                if not indeg[v]:
                    heapq.heappush(heap, v)
        if len(order) < w:
            u, v = _first_cycle_pair(succ, pred, ((1 << w) - 1) & ~to_mask(order))
            raise InputError(f"not antisymmetric: {u} and {v} are in a cycle")
        self.linext = tuple(order)
        self.down_masks, self.lower_cover_masks = _closure_and_covers(order, pred)
        self.up_masks, self.upper_cover_masks = _closure_and_covers(reversed(order), succ)

    @property
    def elements(self) -> range:
        return range(1, self.w + 1)

    def le(self, u: int, v: int) -> bool:
        return bool(self.down_masks[_label(v, self.w)] >> (_label(u, self.w) - 1) & 1)

    def lower_covers(self, p: int) -> frozenset[int]:
        return from_mask(self.lower_cover_masks[_label(p, self.w)])

    def upper_covers(self, p: int) -> frozenset[int]:
        return from_mask(self.upper_cover_masks[_label(p, self.w)])

    def down_set(self, p: int) -> frozenset[int]:
        """All q ≤ p (the ideal generated by p)."""
        return from_mask(self.down_masks[_label(p, self.w)])

    def up_set(self, p: int) -> frozenset[int]:
        """All q ≥ p (the filter generated by p)."""
        return from_mask(self.up_masks[_label(p, self.w)])

    def is_ideal(self, x: Iterable[int]) -> bool:
        """Whether x is a down-closed subset of 1..w."""
        m = _loose_mask(x, self.w)
        return not m >> self.w and union_over(self.down_masks, m) == m

    @classmethod
    def chain(cls, w: int) -> "Poset":
        return cls(w, [(i, i + 1) for i in range(1, w)])

    @classmethod
    def antichain(cls, w: int) -> "Poset":
        return cls(w)

    def __eq__(self, other):
        return isinstance(other, Poset) and self.w == other.w and self.down_masks == other.down_masks

    def __repr__(self):
        rels = [(u, v) for u in self.elements for v in self.upper_covers(u)]
        return f"Poset(w={self.w}, covers={sorted(rels)})"


def _closure_and_covers(order: Iterable[int], rel: list[int]) -> tuple[list[int], list[int]]:
    """closed[v] is v plus everything reachable from v along the masks `rel`,
    covers[v] the elements of rel[v] reachable from no other element of
    rel[v] (index 0 unused).  `order` lists each v after all of rel[v]."""
    strict = [0] * len(rel)
    closed = [0] * len(rel)
    covers = [0] * len(rel)
    for v in order:
        covered = union_over(strict, rel[v])
        strict[v] = covered | rel[v]
        closed[v] = strict[v] | 1 << (v - 1)
        covers[v] = rel[v] & ~covered
    return closed, covers


def _postorder(roots: Iterable[int], adj: list[int], within: int) -> list[int]:
    """The elements of the mask `within` reachable from `roots` along the
    masks `adj`, in depth-first postorder, lowest label first; a root outside
    `within`, or reached by an earlier walk, starts none."""
    order = []
    for root in roots:
        if not within >> (root - 1) & 1:
            continue
        within ^= 1 << (root - 1)
        stack = [root]
        while stack:
            step = adj[stack[-1]] & within
            if step:
                low = step & -step
                within ^= low
                stack.append(low.bit_length())
            else:
                order.append(stack.pop())
    return order


def _first_cycle_pair(succ: list[int], pred: list[int], nodes: int) -> tuple[int, int]:
    """The least element u lying on a cycle of the relation graph, and the
    least other element of u's strongly connected component.

    Kosaraju over the mask `nodes`, which must be closed under successors
    and contain every element on a cycle: the components are the walks
    along `pred` taken in reverse postorder of one walk along `succ`.
    """
    pairs = []
    for root in reversed(_postorder(bit_positions(nodes), succ, nodes)):
        component = _postorder((root,), pred, nodes)
        nodes &= ~to_mask(component)
        if len(component) > 1:
            pairs.append(tuple(sorted(component)[:2]))
    return min(pairs)


# ---------------------------------------------------------------------------
# trees

class Tree:
    """An undirected tree on vertices 1..w (connected, acyclic, w-1 edges).

    Immutable after construction.  Rooted at vertex 1 by the breadth-first
    search that checks connectivity: `bfs_order` lists the vertices in that
    order (root first, neighbours ascending), `bfs_parent[v]` is v's parent
    (0 for the root and at index 0).  Every rooted computation on the tree
    reads these two.  The adjacency is held as `neighbor_masks`, one mask
    of neighbours per vertex (index 0 unused).
    """

    def __init__(self, w: int, edges: Iterable[tuple[int, int]]):
        if w < 1:
            raise InputError(f"tree needs at least one vertex, got w={w}")
        self.w = w
        norm = []
        for u, v in edges:
            if not (1 <= u <= w and 1 <= v <= w) or u == v:
                raise InputError(f"bad tree edge ({u},{v})")
            norm.append((min(u, v), max(u, v)))
        norm.sort()
        if len(norm) != w - 1:
            raise InputError(f"tree on {w} vertices needs {w - 1} edges, got {len(norm)}")
        if len(set(norm)) != len(norm):
            raise InputError("duplicate tree edge")
        self.edges = tuple(norm)
        nbr = [0] * (w + 1)
        for u, v in self.edges:
            nbr[u] |= 1 << (v - 1)
            nbr[v] |= 1 << (u - 1)
        self.neighbor_masks = nbr
        # connectivity: BFS from vertex 1 must reach everything; the visited
        # test also stops on w-1 edges that close a cycle
        parent = [0] * (w + 1)
        order = [1]
        seen = 1
        for u in order:  # the list grows while it is read
            fresh = nbr[u] & ~seen
            seen |= fresh
            for v in bit_positions(fresh):
                parent[v] = u
                order.append(v)
        if len(order) != w:
            raise InputError("tree edges do not connect all vertices")
        self.bfs_order = tuple(order)
        self.bfs_parent = tuple(parent)

    @property
    def vertices(self) -> range:
        return range(1, self.w + 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(bit_positions(self.neighbor_masks[_label(v, self.w)]))

    def degree(self, v: int) -> int:
        return self.neighbor_masks[_label(v, self.w)].bit_count()

    @classmethod
    def path_graph(cls, w: int) -> "Tree":
        return cls(w, [(i, i + 1) for i in range(1, w)])

    @classmethod
    def star(cls, w: int) -> "Tree":
        """Center 1, leaves 2..w."""
        return cls(w, [(1, i) for i in range(2, w + 1)])

    def __eq__(self, other):
        return isinstance(other, Tree) and self.w == other.w and self.edges == other.edges

    def __repr__(self):
        return f"Tree(w={self.w}, edges={list(self.edges)})"


# ---------------------------------------------------------------------------
# rank polynomials

def binomial_row(n: int) -> list[int]:
    """Coefficients of (1 + x)^n."""
    return [math.comb(n, k) for k in range(n + 1)]


def poly_add(a, b, shift: int = 0) -> list[int]:
    """Coefficients of a + x^shift * b, for coefficient sequences a and b."""
    out = list(a)
    end = len(b) + shift
    out += [0] * (end - len(out))
    out[shift:end] = map(operator.add, out[shift:end], b)
    return out


def poly_mul(a, b) -> list[int]:
    """Coefficients of a * b, for coefficient sequences a and b."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b, i):
                out[j] += ca * cb
    return out


class RankPolynomial(Record):
    """A polynomial with nonnegative arbitrary-precision integer coefficients,
    used for per-cardinality counting: coefficient k counts the k-element
    objects.  Evaluation at 1 is the total count."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[int]):
        coeffs = tuple(coefficients)
        n = len(coeffs)
        while n and coeffs[n - 1] == 0:
            n -= 1
        coeffs = coeffs[:n]  # the same tuple when nothing is stripped
        if coeffs and min(coeffs) < 0:
            raise ValueError("coefficients must be nonnegative")
        _setattr(self, "coefficients", coeffs)

    @classmethod
    def zero(cls) -> "RankPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "RankPolynomial":
        return cls((1,))

    @classmethod
    def binomial(cls, n: int) -> "RankPolynomial":
        """(1 + x)^n."""
        return cls(binomial_row(n))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, k: int) -> int:
        if 0 <= k < len(self.coefficients):
            return self.coefficients[k]
        return 0

    def padded(self, n: int) -> tuple[int, ...]:
        """Coefficients 0..n as a tuple of length n+1."""
        return tuple(self.coefficient(k) for k in range(n + 1))

    def shifted(self, n: int) -> "RankPolynomial":
        """Multiply by x^n."""
        return RankPolynomial((0,) * n + self.coefficients)

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def __add__(self, other: "RankPolynomial") -> "RankPolynomial":
        return RankPolynomial(poly_add(self.coefficients, other.coefficients))

    def __mul__(self, other: "RankPolynomial") -> "RankPolynomial":
        return RankPolynomial(poly_mul(self.coefficients, other.coefficients))

    def __repr__(self):
        return f"RankPolynomial{self.coefficients}"
