"""Subtrees of a tree as models of a path-interior implication base.

A vertex set is a model exactly when it is connected (the empty set and
singletons included): any two non-adjacent members force the interior of
their unique path.  All tree paths come from one table of root-path masks,
read off the tree's breadth-first traversal from vertex 1 (`Tree.bfs_order`,
`Tree.bfs_parent`): a base implication's interior is a few mask operations,
and a Steiner closure takes O(|seed|) of them.  `subtree_oracle` grows one
component of the forbidden-vertex-free forest, up to k vertices.

`enumerate_k_subtrees` passes the loop no admit: on `tree_base` the loop's
size window |ones| <= k <= |ones| + |twos| is the exact feasibility test.
Call a row's non-zeros N and its ones O, let d be the tree distance, and
write int(x,y) for the interior of path(x,y).  Pairs are imposed by length
descending, ties by key(x,y) = (min, max) ascending, and a row satisfies
every pair imposed on it: an endpoint is zero or the interior is in O
(call this (S)).  The premise is that every row of the loop, the unvetted
ones included, keeps

- (I1) N a subtree, and
- (I2) O a subtree or empty.

The root has O empty and N all of t.  Suppose {u,v}, of length D, is
imposed with u and v non-zero and int(u,v) not in O.

(I1) Let u be free, and let c be a non-zero neighbour of u off path(u,v).
Then {c,v} is longer, so it was imposed earlier with c and v non-zero.  By
(S), int(c,v) is in O, and int(c,v) holds u, which is free.  So a free end
u has one neighbour u' in N, on path(u,v): it is a leaf of N, and so is
every new zero.  Since N is connected, the conclusion never meets a zero,
so the loop makes no forced single son here.

(L) If u and v are both free, then O is empty.  The proof uses a lemma on
keys.  For distinct labels P, Q, U and V, key(P,V) > key(U,V) and
key(Q,U) > key(P,Q) never both hold.  To see this, take the least label.
If it is P or U, one inequality fails at once.  If it is V, the first
inequality gives P > U, and then the second fails.  If it is Q, the
second gives U > P, and then the first fails.

Suppose O is not empty.  If both u' and v' were in O, the connected O
would hold path(u',v') = int(u,v).  So say v has no neighbour in O.  For
every o in O the pair {o,v} then waits: imposed, it would have put v's
neighbour on path(o,v) into O, by (S).  So d(o,v) <= D, with equality
only if key(o,v) > key(u,v).  There are two cases, and each uses the
four-point condition of tree metrics:
d(a,b) + d(x,y) <= max(d(a,x) + d(b,y), d(a,y) + d(b,x)).

- u' is in O.  A son that makes one end of a pair one and zeroes the
  other makes a leaf of its N one (I1), and u', inside path(u,v), has two
  neighbours in N.  So u' came with a forced son of a pair {x,y} of length
  D'' >= D, with u' on path(x,y) and x and y in O since.  Now d(x,v) and
  d(y,v) are at most D, and d(x,u) = d(x,u') + 1, since u is free.  Name
  x and y so that the four-point condition gives d(x,u) >= D''.  Then u'
  is y or a neighbour of y.  If u' = y, then {x,u} is longer than {x,y}, so it was
  imposed first, and by (S) it put u' into O before {x,y} did.  Otherwise
  d(x,u) = D'' and d(y,v) = D.  The pair {x,u} comes after {x,y} for the
  same reason, and key(y,v) > key(u,v).  That contradicts the lemma, with
  P = y and Q = x.
- u' is not in O.  Then d(o,u) <= D too, with the same tie rule.  Take
  the first row of this row's lineage with a one.  Its father had O empty,
  so by (S) no pair inside that father's non-zeros N0 came earlier.  Its
  pair {p,q} is therefore the first pair of N0 in the order, of length D0
  = diam N0.  Let p be the end that became one.  The four-point condition
  forces d(p,y) = D and d(q,z) = D0 for {y,z} = {u,v}.  So key(p,y) >
  key(z,y), and {q,z} is a later pair of N0, with key(q,z) > key(p,q).
  That contradicts the lemma.

(I2) By (L), a son that makes one end one and zeroes the other comes from
an empty O.  A forced son adds path(u,v), with u or v in O, or with O
empty.  Either way O stays connected.

So with |ones| <= k <= |ones| + |twos|, growing the ones inside the
connected non-zeros reaches a k-vertex subtree.  The window is therefore
`subtree_oracle`'s answer on every son.  The tests check (I1) and (I2) at
every vetted son of every labelled tree with w <= 6 and of a seeded grid.
"""

from __future__ import annotations

import operator
from functools import partial

from .core import GuardError, ImplicationFamily, Tree, _loose_mask, _within, from_mask, union_over
from .engine import FeasibilityOracle, FinalStack, _lifo

# Largest total written length tree_base will build.  Building it peaks
# (tracemalloc, CPython 3.11) at 2.9 bytes per element on the 287-vertex path
# (12 MB), 15 on a random tree with w=500 (47 MB), 64-82 on stars, w=400-1000.
TREE_BASE_MAX_LENGTH = 4_000_000
# Largest w*h tree_base will build: the bit size of its premise masks and of
# the engine's per-element premise table (w*h/8 bytes).  h = (w-1)(w-2)/2 on
# every tree, so this refuses w > 646.  Building the base and the table peaks
# (tracemalloc, CPython 3.11) at 0.35-0.71 bytes per unit: 8 MB on the
# 287-vertex path, 36 MB on gen_random_tree(500, 5), 47 MB on the 646-star,
# 64 MB on a depth-2 tree with w=646 (vertex 1 with 25 children, the other
# 620 vertices spread evenly below them).
TREE_BASE_MAX_CELLS = 1 << 27


def _path_table(t: Tree) -> tuple[list[int], dict[int, int]]:
    """Path masks of t rooted at vertex 1.

    up[v] is the mask of the path from vertex 1 to v, and tip[up[v]] is the
    bit of v.  The path from a to b is then up[a] ^ up[b] | tip[up[a] & up[b]]:
    the common part is the path from the root to the lowest common ancestor
    of a and b, and tip puts that ancestor back.
    """
    up = [0] * (t.w + 1)
    tip = {}
    for v in t.bfs_order:
        up[v] = up[t.bfs_parent[v]] | 1 << (v - 1)
        tip[up[v]] = 1 << (v - 1)
    return up, tip


def _base_length(t: Tree) -> int:
    """Total written length of tree_base(t), in O(w) and without building it.

    A non-adjacent pair at distance d contributes its 2 endpoints and d-1
    interior vertices.  Summed over all pairs the distances give the Wiener
    index W, so the length is W + C(w,2) - 2(w-1); W sums s(w-s) over the
    edges, s being the vertex count on one side.
    """
    w = t.w
    parent = t.bfs_parent
    size = [1] * (w + 1)
    wiener = 0
    for v in reversed(t.bfs_order[1:]):
        size[parent[v]] += size[v]
        wiener += size[v] * (w - size[v])
    return wiener + w * (w - 1) // 2 - 2 * (w - 1)


def tree_base(t: Tree) -> ImplicationFamily:
    """One implication per unordered non-adjacent vertex pair: the pair
    implies the interior of its unique path.

    Ordered by path length descending (long paths prune earliest), ties by
    the (smaller, larger) endpoint pair; a two-vertex tree yields the empty
    family.  Raises GuardError, before building anything, when the family's
    total length would exceed TREE_BASE_MAX_LENGTH (it grows with the square
    of w or faster, cubically on a path), or w*h would exceed
    TREE_BASE_MAX_CELLS.
    """
    length = _base_length(t)
    if length > TREE_BASE_MAX_LENGTH:
        raise GuardError(
            f"tree base too large: {length} elements for w={t.w}, "
            f"limit {TREE_BASE_MAX_LENGTH}"
        )
    cells = t.w * ((t.w - 1) * (t.w - 2) // 2)  # w*h: every non-adjacent pair
    if cells > TREE_BASE_MAX_CELLS:
        raise GuardError(
            f"tree base too large: w*h = {cells} for w={t.w}, "
            f"limit {TREE_BASE_MAX_CELLS}"
        )
    up, tip = _path_table(t)
    pairs = []
    for a in t.vertices:
        for b in range(a + 1, t.w + 1):
            if t.neighbor_masks[a] >> (b - 1) & 1:
                continue
            ends = 1 << (a - 1) | 1 << (b - 1)
            pairs.append((ends, (up[a] ^ up[b] | tip[up[a] & up[b]]) & ~ends))
    # stable, also in reverse: equal lengths keep their (a, b) order
    pairs.sort(key=lambda pair: pair[1].bit_count(), reverse=True)
    # every mask lies in 1..w and no interior holds its ends, so from_masks'
    # checks and its conc & ~prem pass would change nothing
    return ImplicationFamily._trusted(t.w, tuple(pairs))


def _steiner(up, tip, seed: int) -> int:
    """The closure of the seed: the OR (union) and AND (common) of its
    vertices' root paths, the union less the common path but its tip; the
    closure of no vertex is empty."""
    union, common = 0, -1
    while seed:
        low = seed & -seed
        v = low.bit_length()
        union |= up[v]
        common &= up[v]
        seed ^= low
    return union & ~common | tip[common] if union else 0


def steiner_closure_mask(t: Tree):
    """Mask-level minimal-spanning-subtree closure.

    The union of the seed's root paths is the subtree spanning vertex 1 and
    the seed; their intersection is the path from vertex 1 to the seed's
    lowest common ancestor.  Dropping that path, but keeping the ancestor,
    leaves the smallest subtree containing the seed.  One OR and one AND
    per seed vertex; agrees with forward chaining on tree_base(t).  The
    k-subtree enumerator calls no closure: `subtree_oracle` and the
    replays through `enumerate_k_models` do.
    """
    return partial(_steiner, *_path_table(t))


def steiner_closure(t: Tree, s) -> frozenset[int]:
    """The vertex set of the minimal subtree containing `s` (union of the
    pairwise paths); empty for an empty seed."""
    return from_mask(steiner_closure_mask(t)(_within(s, t.w)))


def _component(seed: int, allowed: int, neighbor_masks, k: int) -> int:
    """Grow `seed` within `allowed`, breadth first, until it holds at least
    k vertices or is its whole connected component."""
    comp = seed
    frontier = seed
    while frontier and comp.bit_count() < k:
        frontier = union_over(neighbor_masks, frontier) & allowed & ~comp
        comp |= frontier
    return comp


def _witness(z0: int, zeros: int, full: int, nbr, k: int | None) -> int | None:
    """A connected vertex set that holds the subtree z0, avoids the zeros
    and has at least k vertices, or None when no k-vertex subtree holds z0
    and avoids the zeros (k=None: a subtree of any size, witnessed by z0).

    For a non-empty z0 the witness is z0's component in the zero-free
    forest, grown only until it reaches k vertices; for an empty z0, the
    first such component in vertex order, or the empty set when k = 0."""
    if z0 & zeros:
        return None
    if k is None:
        return z0
    forest = full & ~zeros
    if z0:
        if z0.bit_count() > k:
            return None
        comp = _component(z0, forest, nbr, k)
        return comp if comp.bit_count() >= k else None
    if k == 0:
        return 0
    rest = forest
    while rest:
        comp = _component(rest & -rest, forest, nbr, k)
        if comp.bit_count() >= k:
            return comp
        rest &= ~comp
    return None


def subtree_oracle(t: Tree) -> FeasibilityOracle:
    """Fixed-cardinality feasibility for subtrees.

    Close the ones to the smallest subtree Z0 holding them and remove the
    forbidden vertices; a k-element subtree extending Z0 exists iff Z0 is
    not larger than k and its component in the remaining forest has at
    least k vertices (for empty Z0: some component does, or k = 0).  ones
    and the forbidden set are int masks or frozensets.  A component is
    grown only until it reaches k vertices; a component cut short that way
    already answers True.  Ones outside 1..w make the answer False; zeros
    outside 1..w are ignored.
    """
    close = steiner_closure_mask(t)
    nbr = t.neighbor_masks
    w = t.w
    full = (1 << w) - 1

    def oracle(ones, zeros, k):
        ones = _loose_mask(ones, w)
        return not ones >> w and _witness(close(ones), _loose_mask(zeros, w), full, nbr, k) is not None

    return oracle


def enumerate_k_subtrees(t: Tree, k: int) -> FinalStack:
    """All k-vertex subtrees of t, each exactly once, as disjoint rows.

    k=0 yields the empty set, k=1 all singletons (both count as subtrees).
    k must be an int: None and other types raise TypeError.  The loop vets
    each son by its size window alone, which on tree_base(t) is exact (see
    the module docstring), so the rows and counters are those of
    `enumerate_k_models` with `subtree_oracle`.
    """
    return _lifo(tree_base(t), operator.index(k))
