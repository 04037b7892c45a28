"""Subtrees of a tree as models of a path-interior implication base.

A vertex set is a model exactly when it is connected (the empty set and
singletons included): any two non-adjacent members force the interior of
their unique path.  All tree paths come from one table of root-path masks,
read off the tree's breadth-first traversal from vertex 1 (`Tree.bfs_order`,
`Tree.bfs_parent`): a base implication's interior is a few mask operations,
and a Steiner closure takes O(|seed|) of them.  The feasibility test grows
one component of the forbidden-vertex-free forest, up to k vertices; the
k-subtree enumerator carries each stacked row's Steiner accumulators, so a
son closes only its new ones.
"""

from __future__ import annotations

from .core import GuardError, ImplicationFamily, Tree, _loose_mask, _within, from_mask, union_over
from .engine import FeasibilityOracle, FinalStack, _lifo_k

# Largest total written length tree_base will build.  Building it peaks
# (tracemalloc, CPython 3.11) at 2.9 bytes per element on the 287-vertex path
# (12 MB), 15 on a random tree with w=500 (47 MB), 64-82 on stars, w=400-1000.
TREE_BASE_MAX_LENGTH = 4_000_000
# Largest w*h tree_base will build: the bit size of its premise masks and of
# the engine's per-element premise table (w*h/8 bytes).  h = (w-1)(w-2)/2 on
# every tree, so this refuses w > 646.  Building the base and the table peaks
# (tracemalloc, CPython 3.11) at 0.31-1.0 bytes per unit: 12 MB on the
# 287-vertex path, 48 MB on a random tree with w=500, 52 MB on the 646-star,
# 65 MB on a depth-2 tree with w=646, 157 MB on the 1000-star (refused).
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
    return ImplicationFamily.from_masks(t.w, pairs)


def _steiner(up, tip, union: int, common: int, seed: int) -> tuple[int, int, int]:
    """Extend the OR (union) and AND (common) of root paths by the seed's
    vertices; returns them with the closure they span.  Start from
    (0, -1); the closure of no vertex is empty."""
    while seed:
        low = seed & -seed
        v = low.bit_length()
        union |= up[v]
        common &= up[v]
        seed ^= low
    return union, common, (union & ~common | tip[common] if union else 0)


def steiner_closure_mask(t: Tree):
    """Mask-level minimal-spanning-subtree closure.

    The union of the seed's root paths is the subtree spanning vertex 1 and
    the seed; their intersection is the path from vertex 1 to the seed's
    lowest common ancestor.  Dropping that path, but keeping the ancestor,
    leaves the smallest subtree containing the seed.  O(|seed|) mask
    operations per call; agrees with forward chaining on tree_base(t).
    """
    up, tip = _path_table(t)

    def close_mask(seed: int) -> int:
        return _steiner(up, tip, 0, -1, seed)[2]

    return close_mask


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


def _fits(z0: int, zeros: int, full: int, nbr, k: int | None) -> bool:
    """Whether a k-vertex subtree holds the subtree z0 and avoids the
    zeros (k=None: a subtree of any size)."""
    if z0 & zeros:
        return False
    if k is None:
        return True
    forest = full & ~zeros
    if z0:
        return z0.bit_count() <= k and _component(z0, forest, nbr, k).bit_count() >= k
    if k == 0:
        return True
    rest = forest
    while rest:
        comp = _component(rest & -rest, forest, nbr, k)
        if comp.bit_count() >= k:
            return True
        rest &= ~comp
    return False


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
        return not ones >> w and _fits(close(ones), _loose_mask(zeros, w), full, nbr, k)

    return oracle


def enumerate_k_subtrees(t: Tree, k: int) -> FinalStack:
    """All k-vertex subtrees of t, each exactly once, as disjoint rows.

    k=0 yields the empty set, k=1 all singletons (both count as subtrees).
    Each stacked row carries the Steiner accumulators of its ones and their
    closure, so a son pays root paths only for its ones outside that
    closure; the rows and counters are those of `enumerate_k_models` with
    `subtree_oracle` and `steiner_closure_mask`.
    """
    family = tree_base(t)
    up, tip = _path_table(t)
    nbr = t.neighbor_masks
    full = (1 << t.w) - 1

    def admit(state, ones, twos, e):
        # the root (state None) has no ones; a vertex inside the closure
        # already lies on the union and below the common path, so it leaves
        # both accumulators unchanged
        union, common, z0 = state or (0, -1, 0)
        if ones & ~z0:
            union, common, z0 = _steiner(up, tip, union, common, ones & ~z0)
        return (union, common, z0) if _fits(z0, full & ~(ones | twos), full, nbr, k) else None

    return _lifo_k(family, k, admit)
