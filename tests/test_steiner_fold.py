"""The Steiner fold with its covered-vertex skip, folded in steps.

`subtrees._steiner` skips the seed's vertices that already lie inside the
union of folded root paths and below their common path.  The k-subtree
admit folds each son's new ones into its father's accumulators, so the
skip must leave running accumulators exactly as a fold of every vertex
would.
"""

import functools
import operator

from wildrows import Closer, SplitMix64, Tree, gen_random_tree, tree_base
from wildrows import subtrees
from wildrows.core import from_mask, to_mask, union_over


def fold_trees():
    rng = SplitMix64(1033)
    trees = [gen_random_tree(1 + rng.below(40), rng.next_u64()) for _ in range(24)]
    trees += [Tree.path_graph(w) for w in (1, 2, 7, 30)] + [Tree.star(w) for w in (2, 3, 9, 40)]
    # vertex 1, the root of the path masks, in the middle of the tree
    return trees + [Tree(6, [(3, 1), (1, 5), (3, 2), (5, 4), (4, 6)])]


def test_steiner_fold_in_steps_matches_one_fold_and_forward_chaining():
    # fold random seeds into running accumulators, step by step: the result
    # is the OR and AND of every seed vertex's root path, the one-shot fold
    # from (0, -1), and its closure the forward chaining on tree_base(t)
    rng = SplitMix64(1039)
    for t in fold_trees():
        up, tip = subtrees._path_table(t)
        chained = Closer(tree_base(t)).close_mask
        for _ in range(12):
            union, common, total = 0, -1, 0
            for _ in range(1 + rng.below(4)):
                seed = to_mask(rng.sample(t.vertices, rng.below(t.w + 1)))
                union, common, z0 = subtrees._steiner(up, tip, union, common, seed)
                total |= seed
                paths = [up[v] for v in from_mask(total)]
                assert union == union_over(up, total)
                assert common == functools.reduce(operator.and_, paths, -1)
                assert (union, common, z0) == subtrees._steiner(up, tip, 0, -1, total)
                assert z0 == chained(total)
