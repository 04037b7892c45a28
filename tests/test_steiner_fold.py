"""The Steiner fold, folded in steps.

`subtrees._steiner` folds the root path of every seed vertex.  The result
must be a closure: closing a running closure with each further seed in
turn gives the closure of their union.
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
    # fold random seeds into a running closure, step by step: the result is
    # the closure of every seed so far, read off the OR and AND of their
    # vertices' root paths, and the forward chaining on tree_base(t)
    rng = SplitMix64(1039)
    for t in fold_trees():
        up, tip = subtrees._path_table(t)
        chained = Closer(tree_base(t)).close_mask
        for _ in range(12):
            z0, total = 0, 0
            for _ in range(1 + rng.below(4)):
                seed = to_mask(rng.sample(t.vertices, rng.below(t.w + 1)))
                z0 = subtrees._steiner(up, tip, z0 | seed)
                total |= seed
                paths = [up[v] for v in from_mask(total)]
                union = union_over(up, total)
                common = functools.reduce(operator.and_, paths, -1)
                assert z0 == subtrees._steiner(up, tip, total)
                assert z0 == (union & ~common | tip[common] if total else 0)
                assert z0 == chained(total)
