"""Subtrees of a tree as models of a path-interior implication base.

A vertex set is a model exactly when it is connected (the empty set and
singletons included): any two non-adjacent members force the interior of
their unique path.  The feasibility oracle needs a single traversal of the
forbidden-vertex-free forest.
"""

from __future__ import annotations

from .core import Implication, ImplicationFamily, Tree, bit_positions, from_mask, to_mask
from .engine import FeasibilityOracle, FinalStack, enumerate_k_models


def _paths_from(t: Tree, root: int) -> list[int]:
    """Parent pointers of a BFS tree rooted at `root` (0 for the root)."""
    parent = [0] * (t.w + 1)
    parent[root] = root
    queue = [root]
    while queue:
        u = queue.pop()
        for v in t.adjacency[u]:
            if parent[v] == 0 and v != root:
                parent[v] = u
                queue.append(v)
    parent[root] = 0
    return parent


def tree_base(t: Tree) -> ImplicationFamily:
    """One implication per unordered non-adjacent vertex pair: the pair
    implies the interior of its unique path.

    Ordered by path length descending (long paths prune earliest), ties by
    the (smaller, larger) endpoint pair; a two-vertex tree yields the empty
    family.
    """
    entries = []
    for a in t.vertices:
        parent = _paths_from(t, a)
        for b in range(a + 1, t.w + 1):
            if b in t.adjacency[a]:
                continue
            interior = []
            v = parent[b]
            while v != a:
                interior.append(v)
                v = parent[v]
            entries.append((-len(interior), a, b, frozenset(interior)))
    entries.sort(key=lambda e: e[:3])
    imps = tuple(Implication(frozenset([a, b]), interior) for _, a, b, interior in entries)
    return ImplicationFamily(t.w, imps)


def steiner_closure_mask(t: Tree):
    """Mask-level minimal-spanning-subtree closure.

    Iteratively prunes leaves outside the seed; what survives is the smallest
    subtree containing the seed.  O(w) per call; agrees with forward chaining
    on tree_base(t).
    """
    adjacency = t.adjacency
    base_deg = [len(ns) for ns in adjacency]
    full = (1 << t.w) - 1

    def close_mask(seed: int) -> int:
        if not seed:
            return 0
        cur = full
        deg = base_deg.copy()
        queue = [v for v in t.vertices if deg[v] <= 1 and not seed >> (v - 1) & 1]
        while queue:
            v = queue.pop()
            bit = 1 << (v - 1)
            if not cur & bit:
                continue
            cur ^= bit
            for u in adjacency[v]:
                if cur >> (u - 1) & 1:
                    deg[u] -= 1
                    if deg[u] <= 1 and not seed >> (u - 1) & 1:
                        queue.append(u)
        return cur

    return close_mask


def steiner_closure(t: Tree, s) -> frozenset[int]:
    """The vertex set of the minimal subtree containing `s` (union of the
    pairwise paths); empty for an empty seed."""
    return from_mask(steiner_closure_mask(t)(to_mask(s)))


def _component(seed: int, allowed: int, neighbor_masks) -> int:
    """Grow `seed` to its connected component within `allowed`."""
    comp = seed
    frontier = seed
    while frontier:
        nb = 0
        for v in bit_positions(frontier):
            nb |= neighbor_masks[v]
        frontier = nb & allowed & ~comp
        comp |= frontier
    return comp


def subtree_oracle(t: Tree) -> FeasibilityOracle:
    """Fixed-cardinality feasibility for subtrees.

    Remove the forbidden vertices; a k-element subtree extending a connected
    Z0 exists iff Z0 is not larger than k and its component in the remaining
    forest has at least k vertices (for empty Z0: some component does, or
    k = 0).
    """
    nbr = t.neighbor_masks
    full = (1 << t.w) - 1

    def oracle(ones, zeros, k):
        z0 = to_mask(ones)
        y = to_mask(zeros)
        if z0 & y:
            return False
        forest = full & ~y
        if k is None:
            return True
        if z0:
            if z0.bit_count() > k:
                return False
            return _component(z0, forest, nbr).bit_count() >= k
        if k == 0:
            return True
        rest = forest
        while rest:
            comp = _component(rest & -rest, forest, nbr)
            if comp.bit_count() >= k:
                return True
            rest &= ~comp
        return False

    return oracle


def enumerate_k_subtrees(t: Tree, k: int) -> FinalStack:
    """All k-vertex subtrees of t, each exactly once, as disjoint rows.

    k=0 yields the empty set, k=1 all singletons (both count as subtrees)."""
    return enumerate_k_models(
        tree_base(t), k, subtree_oracle(t), closure_mask=steiner_closure_mask(t)
    )
