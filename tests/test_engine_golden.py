"""Golden engine runs: rendered rows (as a digest) plus every EngineStats
counter on seeded instances.

The benchmark's carry-over count and per-layer trace read `impositions`,
`candidate_sons` and `killed_candidates`, so a refactor of the LIFO loop
must leave each of them, the final rows and the row order unchanged.
"""

import hashlib

import pytest
from conftest import random_family

from wildrows import (
    LayeredSpec,
    SplitMix64,
    brute_oracle,
    enumerate_k_ideals,
    enumerate_k_models,
    enumerate_k_subtrees,
    enumerate_models,
    gen_layered_poset,
    gen_random_tree,
    natural_base,
    render_row,
)

FAMILIES = {11: (8, 10), 12: (10, 14), 13: (12, 18)}
LAYERED = LayeredSpec(5, 4, 2, 7)
TREE = (30, 5)  # w, seed

# (row count, sha256 prefix of the rendered rows, (impositions,
# candidate_sons, killed_candidates, wasteful_deletions, final_row_count))
GOLDEN = {
    ("models", 11): (11, "1328c85dfe2e7c83", (82, 38, 0, 7, 11)),
    ("k_models", 11, 2): (7, "14f0668efd3f2750", (40, 21, 5, 0, 7)),
    ("k_models", 11, 4): (9, "d970be9aa30caa20", (44, 23, 3, 0, 9)),
    ("models", 12): (8, "0c31d2e96bc049d9", (63, 24, 0, 0, 8)),
    ("k_models", 12, 2): (4, "36656dc769f33d8c", (36, 15, 2, 0, 4)),
    ("k_models", 12, 5): (5, "2771f0c42f14dc6d", (37, 16, 1, 0, 5)),
    ("models", 13): (12, "778e6d2a665eccc0", (252, 121, 0, 40, 12)),
    ("k_models", 13, 2): (5, "ee4c3fb80998a99d", (32, 26, 12, 0, 5)),
    ("k_models", 13, 6): (7, "8ef5d6fac17a77cb", (50, 38, 16, 0, 7)),
    ("natural_base",): (72, "1ea43fdb7fbb3d8e", (362, 392, 0, 0, 72)),
    ("k_ideals", 3): (6, "47eb99eaf1f02144", (80, 90, 10, 0, 6)),
    ("k_ideals", 10): (13, "bbcff8cfa30b8d74", (110, 117, 17, 0, 13)),
    ("k_subtrees", 4): (71, "807d90153885bd03", (10392, 783, 335, 0, 71)),
    ("k_subtrees", 7): (210, "95e7d3b8faa1bac3", (44547, 1136, 371, 0, 210)),
}


def digest(stack):
    text = "\n".join(render_row(r) for r in stack.rows)
    s = stack.stats
    return (
        len(stack.rows),
        hashlib.sha256(text.encode()).hexdigest()[:16],
        (s.impositions, s.candidate_sons, s.killed_candidates, s.wasteful_deletions, s.final_row_count),
    )


def run(key):
    kind = key[0]
    if kind in ("models", "k_models"):
        w, h = FAMILIES[key[1]]
        fam = random_family(SplitMix64(key[1]), w, h)
        if kind == "models":
            return enumerate_models(fam)
        return enumerate_k_models(fam, key[2], brute_oracle(fam))
    if kind == "natural_base":
        return enumerate_models(natural_base(gen_layered_poset(LAYERED)))
    if kind == "k_ideals":
        return enumerate_k_ideals(gen_layered_poset(LAYERED), key[1])
    return enumerate_k_subtrees(gen_random_tree(*TREE), key[1])


@pytest.mark.parametrize("key", list(GOLDEN), ids=lambda key: "-".join(map(str, key)))
def test_engine_golden_rows_and_counters(key):
    assert digest(run(key)) == GOLDEN[key]
