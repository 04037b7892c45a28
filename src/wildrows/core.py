"""Shared domain types: implications, wildcard rows, posets, trees, polynomials.

Elements of the universe are labelled 1..w throughout.  Subsets of the
universe are carried as Python int bitmasks internally (bit e-1 stands for
element e) and exposed as frozensets on the public surface.
"""

from __future__ import annotations

import heapq
import itertools
import math
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple


class InputError(ValueError):
    """Malformed textual input or structurally invalid instance data."""


class GuardError(RuntimeError):
    """Instance too large for a requested code path: a brute-force
    reference, or a subtree implication base (`subtrees.tree_base`) longer
    than `subtrees.TREE_BASE_MAX_LENGTH`."""


# ---------------------------------------------------------------------------
# bitmask helpers

def to_mask(elements: Iterable[int]) -> int:
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


# ---------------------------------------------------------------------------
# implications

@dataclass(frozen=True)
class Implication:
    """A premise -> conclusion constraint: a set satisfies it when it either
    misses part of the premise or contains the whole conclusion.

    The conclusion is normalized to exclude premise elements, so both parts
    are disjoint after construction.  An empty conclusion is allowed (the
    constraint is then vacuous); an empty premise forces the conclusion into
    every satisfying set.
    """

    premise: frozenset[int]
    conclusion: frozenset[int]

    def __post_init__(self):
        prem = frozenset(self.premise)
        object.__setattr__(self, "premise", prem)
        object.__setattr__(self, "conclusion", frozenset(self.conclusion) - prem)

    @property
    def length(self) -> int:
        return len(self.premise) + len(self.conclusion)

    def __repr__(self):
        p = "{%s}" % ",".join(map(str, sorted(self.premise)))
        c = "{%s}" % ",".join(map(str, sorted(self.conclusion)))
        return f"{p}->{c}"


@dataclass(frozen=True)
class ImplicationFamily:
    """An ordered list of implications over the universe 1..w.

    Order matters: the enumeration engines impose members in list order, and
    the produced row stacks depend on it deterministically.
    """

    w: int
    implications: tuple[Implication, ...]

    def __post_init__(self):
        object.__setattr__(self, "implications", tuple(self.implications))
        if self.w < 0:
            raise InputError(f"universe size must be nonnegative, got {self.w}")
        for imp in self.implications:
            for e in itertools.chain(imp.premise, imp.conclusion):
                if not 1 <= e <= self.w:
                    raise InputError(f"element {e} outside universe 1..{self.w}")

    @property
    def h(self) -> int:
        return len(self.implications)

    @property
    def total_length(self) -> int:
        return sum(imp.length for imp in self.implications)

    @cached_property
    def masks(self) -> tuple[tuple[int, int], ...]:
        """(premise_mask, conclusion_mask) per implication, in family order."""
        return tuple((to_mask(i.premise), to_mask(i.conclusion)) for i in self.implications)

    def __len__(self):
        return len(self.implications)

    def __iter__(self):
        return iter(self.implications)

    def __getitem__(self, i):
        return self.implications[i]


# ---------------------------------------------------------------------------
# {0,1,2}-valued rows

@dataclass(frozen=True)
class Row012:
    """A length-w row over {0,1,2} encoding the interval of all sets X with
    ones ⊆ X ⊆ ones ∪ twos; entry 2 marks a free ("don't care") position.

    `pending` is engine bookkeeping (1-based index of the next constraint to
    impose) and does not take part in equality.
    """

    w: int
    ones_mask: int
    twos_mask: int
    pending: int = field(default=1, compare=False)

    def __post_init__(self):
        full = (1 << self.w) - 1
        if self.ones_mask & ~full or self.twos_mask & ~full:
            raise InputError("row mask outside universe")
        if self.ones_mask & self.twos_mask:
            raise InputError("ones and twos overlap")

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

    @classmethod
    def full(cls, w: int) -> "Row012":
        """The all-2 row: the whole powerset of 1..w."""
        return cls(w, 0, (1 << w) - 1)

    @property
    def zeros_mask(self) -> int:
        return ((1 << self.w) - 1) & ~(self.ones_mask | self.twos_mask)

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
    def entries(self) -> tuple[int, ...]:
        return tuple(
            1 if self.ones_mask >> i & 1 else 2 if self.twos_mask >> i & 1 else 0
            for i in range(self.w)
        )

    def __contains__(self, x) -> bool:
        m = to_mask(x)
        return m & self.ones_mask == self.ones_mask and m & ~(self.ones_mask | self.twos_mask) == 0

    def __repr__(self):
        return "Row012(%s)" % " ".join(map(str, self.entries))


def row012_count(r: Row012) -> int:
    """Number of sets in the row: 2^(number of free positions)."""
    return 1 << r.twos_mask.bit_count()


def row012_list_k(r: Row012, k: int) -> list[frozenset[int]]:
    """All k-element members of the row, in ascending combination order.

    Cost is linear in the output: the members are the forced ones-part plus
    each (k - |ones|)-subset of the free positions.
    """
    base = r.ones
    need = k - len(base)
    free = sorted(r.twos)
    if need < 0 or need > len(free):
        return []
    return [base | frozenset(extra) for extra in itertools.combinations(free, need)]


def row012_members(r: Row012) -> Iterator[frozenset[int]]:
    """All members, ascending by cardinality, combination order within."""
    for k in range(len(r.ones), len(r.ones) + len(r.twos) + 1):
        yield from row012_list_k(r, k)


# ---------------------------------------------------------------------------
# {0,1,2,a,b}-valued rows

class Bundle(NamedTuple):
    """One premise/conclusion wildcard of a RowAB.

    `prem` is the single premise position; `conc_mask` the nonempty mask of
    conclusion positions.  A member set containing the premise position must
    contain every conclusion position.
    """

    bid: int
    prem: int
    conc_mask: int


@dataclass(frozen=True)
class RowAB:
    """A length-w row over {0,1,2,a(i),b(i)}: zeros, ones, twos plus
    premise/conclusion bundles partition the positions.

    X belongs to the row iff ones ⊆ X, X avoids the zeros, and for every
    bundle: premise position in X implies all conclusion positions in X.

    `next_bundle` is the lineage counter for fresh bundle ids (dissolved ids
    are never reused); it does not take part in equality.
    """

    w: int
    ones_mask: int
    twos_mask: int
    bundles: tuple[Bundle, ...] = ()
    next_bundle: int = field(default=0, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "bundles", tuple(sorted(self.bundles, key=lambda b: b.bid)))
        full = (1 << self.w) - 1
        used = self.ones_mask | self.twos_mask
        if used & ~full:
            raise InputError("row mask outside universe")
        if self.ones_mask & self.twos_mask:
            raise InputError("ones and twos overlap")
        seen_ids = set()
        for b in self.bundles:
            if b.bid in seen_ids:
                raise InputError(f"duplicate bundle id {b.bid}")
            seen_ids.add(b.bid)
            if not b.conc_mask:
                raise InputError(f"bundle {b.bid} has an empty conclusion")
            pm = 1 << (b.prem - 1)
            if (pm | b.conc_mask) & ~full:
                raise InputError("bundle position outside universe")
            if pm & b.conc_mask:
                raise InputError(f"bundle {b.bid} premise inside its conclusion")
            if (pm | b.conc_mask) & used:
                raise InputError("bundle positions overlap other row parts")
            used |= pm | b.conc_mask
        if self.next_bundle <= 0:
            nxt = max((b.bid for b in self.bundles), default=0) + 1
            object.__setattr__(self, "next_bundle", nxt)

    @classmethod
    def full(cls, w: int) -> "RowAB":
        return cls(w, 0, (1 << w) - 1)

    @property
    def zeros_mask(self) -> int:
        return ((1 << self.w) - 1) & ~(self.ones_mask | self.twos_mask | self.bundle_mask)

    @property
    def bundle_mask(self) -> int:
        m = 0
        for b in self.bundles:
            m |= (1 << (b.prem - 1)) | b.conc_mask
        return m

    @property
    def ones(self) -> frozenset[int]:
        return from_mask(self.ones_mask)

    @property
    def twos(self) -> frozenset[int]:
        return from_mask(self.twos_mask)

    @property
    def zeros(self) -> frozenset[int]:
        return from_mask(self.zeros_mask)

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

    def __contains__(self, x) -> bool:
        m = to_mask(x)
        if m & self.ones_mask != self.ones_mask:
            return False
        if m & self.zeros_mask:
            return False
        for b in self.bundles:
            if m >> (b.prem - 1) & 1 and m & b.conc_mask != b.conc_mask:
                return False
        return True

    def __repr__(self):
        return "RowAB(%s)" % " ".join(self.entries)


def rowab_count(r: RowAB) -> int:
    """Number of member sets: 2^|twos| times, per bundle with m conclusion
    positions, a factor 2^m + 1 (premise out with the conclusion free, or
    premise in with the conclusion forced)."""
    n = 1 << r.twos_mask.bit_count()
    for b in r.bundles:
        n *= (1 << b.conc_mask.bit_count()) + 1
    return n


def rowab_members(r: RowAB) -> Iterator[frozenset[int]]:
    """Generate every member set once (deterministic order, not by size)."""
    free = sorted(from_mask(r.twos_mask))
    bundle_choices = []
    for b in r.bundles:
        conc = sorted(from_mask(b.conc_mask))
        opts = [frozenset(c) for n in range(len(conc) + 1) for c in itertools.combinations(conc, n)]
        opts.append(frozenset([b.prem, *conc]))
        bundle_choices.append(opts)
    base = r.ones
    for n in range(len(free) + 1):
        for extra in itertools.combinations(free, n):
            for picks in itertools.product(*bundle_choices):
                yield base | frozenset(extra) | frozenset().union(*picks)


# ---------------------------------------------------------------------------
# row text format

_TOKEN = re.compile(r"^(0|1|2|([ab])([1-9][0-9]*))$")


def render_row(r) -> str:
    """Space-separated token line, one token per position."""
    if isinstance(r, Row012):
        return " ".join(str(e) for e in r.entries)
    if isinstance(r, RowAB):
        return " ".join(r.entries)
    raise TypeError(f"not a row: {r!r}")


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
            u, v = _first_cycle_pair(succ, [e for e in range(1, w + 1) if indeg[e]])
            raise InputError(f"not antisymmetric: {u} and {v} are in a cycle")
        self.linext = tuple(order)
        # p is a lower cover of v iff p is a given predecessor of v lying
        # strictly below no other given predecessor of v
        down = [0] * (w + 1)
        lower = [0] * (w + 1)
        for v in order:
            below = covered = 0
            for p in bit_positions(pred[v]):
                below |= down[p]
                covered |= down[p] ^ 1 << (p - 1)
            down[v] = below | 1 << (v - 1)
            lower[v] = pred[v] & ~covered
        # reverse order: every upper cover of v registers itself before v
        up = [0] * (w + 1)
        upper = [0] * (w + 1)
        for v in reversed(order):
            above = 1 << (v - 1)
            for q in bit_positions(upper[v]):
                above |= up[q]
            up[v] = above
            for p in bit_positions(lower[v]):
                upper[p] |= 1 << (v - 1)
        self.down_masks = down
        self.up_masks = up
        self.lower_cover_masks = lower
        self.upper_cover_masks = upper

    @property
    def elements(self) -> range:
        return range(1, self.w + 1)

    def le(self, u: int, v: int) -> bool:
        return bool(self.down_masks[v] >> (u - 1) & 1)

    def lower_covers(self, p: int) -> frozenset[int]:
        return from_mask(self.lower_cover_masks[p])

    def upper_covers(self, p: int) -> frozenset[int]:
        return from_mask(self.upper_cover_masks[p])

    def down_set(self, p: int) -> frozenset[int]:
        """All q ≤ p (the ideal generated by p)."""
        return from_mask(self.down_masks[p])

    def up_set(self, p: int) -> frozenset[int]:
        """All q ≥ p (the filter generated by p)."""
        return from_mask(self.up_masks[p])

    def is_ideal(self, x: Iterable[int]) -> bool:
        m = to_mask(x)
        down = 0
        for e in bit_positions(m):
            down |= self.down_masks[e]
        return down == m

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


def _first_cycle_pair(succ: list[int], nodes: list[int]) -> tuple[int, int]:
    """The least element u lying on a cycle of the relation graph, and the
    least other element of u's strongly connected component.

    Iterative Tarjan over `nodes`, which must be closed under successors
    and contain every element on a cycle.
    """
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    on_stack: set[int] = set()
    best = None
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, bit_positions(succ[root]))]
        while work:
            v, children = work[-1]
            for x in children:
                if x not in index:
                    index[x] = low[x] = len(index)
                    stack.append(x)
                    on_stack.add(x)
                    work.append((x, bit_positions(succ[x])))
                    break
                if x in on_stack:
                    low[v] = min(low[v], index[x])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    component = []
                    while True:
                        x = stack.pop()
                        on_stack.discard(x)
                        component.append(x)
                        if x == v:
                            break
                    if len(component) > 1:
                        pair = tuple(sorted(component)[:2])
                        if best is None or pair < best:
                            best = pair
    return best


# ---------------------------------------------------------------------------
# trees

class Tree:
    """An undirected tree on vertices 1..w (connected, acyclic, w-1 edges).

    Immutable after construction.
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
        adj: list[list[int]] = [[] for _ in range(w + 1)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self.adjacency = tuple(tuple(sorted(ns)) for ns in adj)
        self.neighbor_masks = [to_mask(ns) for ns in self.adjacency]
        # connectivity: BFS from vertex 1 must reach everything
        seen = {1}
        queue = [1]
        while queue:
            u = queue.pop()
            for v in self.adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        if len(seen) != w:
            raise InputError("tree edges do not connect all vertices")

    @property
    def vertices(self) -> range:
        return range(1, self.w + 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

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
    out += [0] * (len(b) + shift - len(out))
    for i, c in enumerate(b, shift):
        out[i] += c
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


@dataclass(frozen=True)
class RankPolynomial:
    """A polynomial with nonnegative arbitrary-precision integer coefficients,
    used for per-cardinality counting: coefficient k counts the k-element
    objects.  Evaluation at 1 is the total count."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(self.coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        if any(c < 0 for c in coeffs):
            raise ValueError("coefficients must be nonnegative")
        object.__setattr__(self, "coefficients", coeffs)

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
