"""Golden test of the sons the LIFO loop vets.

Rows and counters alone do not show in which order the engine vets its
candidate sons.  Each test below wraps the `_lifo` an enumerator calls and
pins the sha256 of the full call sequence of its admit: for every call, the
son's ones and twos and the admit's answer.  The loop kills a son outside
its size window before any admit sees it, and takes a forced single son
unvetted.  The k-ideal and k-subtree enumerators pass no admit, so the
wrapper injects one that keeps every son: it records the sons that pass the
window.  A k-ideal son's twos lack the whole filter of its zeros.
"""

import hashlib

from conftest import random_family

from wildrows import (
    LayeredSpec,
    Poset,
    SplitMix64,
    Tree,
    brute_oracle,
    enumerate_k_ideals,
    enumerate_k_models,
    enumerate_k_subtrees,
    gen_layered_poset,
    gen_random_tree,
)
from wildrows import engine, ideals, subtrees


def record_admits(monkeypatch, module):
    """Wrap module._lifo so every admit call is fed to a sha256, with an
    admit that keeps every son where the enumerator passes none; returns
    the hash object and a one-slot call counter."""
    digest = hashlib.sha256()
    calls = [0]
    lifo = module._lifo

    def recording_lifo(family, k=None, admit=None, *, _filters=None):
        def recorded(ones, twos):
            son = True if admit is None else admit(ones, twos)
            digest.update(repr((ones, twos, son)).encode())
            calls[0] += 1
            return son

        return lifo(family, k, recorded, _filters=_filters)

    monkeypatch.setattr(module, "_lifo", recording_lifo)
    return digest, calls


def admit_posets():
    rng = SplitMix64(1019)
    out = [Poset(0, []), Poset(1, []), Poset.chain(9), Poset.antichain(7)]
    for _ in range(6):
        m, l = 2 + rng.below(4), 2 + rng.below(4)
        out.append(gen_layered_poset(LayeredSpec(m, l, rng.below(m + 1), rng.next_u64())))
    return out


def admit_trees():
    rng = SplitMix64(1021)
    out = [Tree(1, []), Tree.path_graph(10), Tree.star(9)]
    return out + [gen_random_tree(4 + rng.below(13), rng.next_u64()) for _ in range(6)]


def admit_families():
    rng = SplitMix64(1031)
    out = []
    for _ in range(30):
        w = 1 + rng.below(8)
        out.append(random_family(rng, w, rng.below(12), max_len=1 + rng.below(4)))
    return out


def test_k_ideal_admit_order(monkeypatch):
    digest, calls = record_admits(monkeypatch, ideals)
    for p in admit_posets():
        for k in range(p.w + 1):
            enumerate_k_ideals(p, k)
    assert calls[0] == 959
    assert digest.hexdigest() == "766482395ed3b39703750dd0013e470fd52c58488bd1526b19f87dd417f88adc"


def test_k_subtree_admit_order(monkeypatch):
    digest, calls = record_admits(monkeypatch, subtrees)
    for t in admit_trees():
        for k in range(t.w + 1):
            enumerate_k_subtrees(t, k)
    assert calls[0] == 6619
    assert digest.hexdigest() == "a831dbad400847b8a1a98ef28ed4fc0c3105dc482de9578809b3767d442cfae0"


def test_k_model_admit_order(monkeypatch):
    digest, calls = record_admits(monkeypatch, engine)
    for family in admit_families():
        oracle = brute_oracle(family)
        for k in range(family.w + 1):
            enumerate_k_models(family, k, oracle)
    assert calls[0] == 832
    assert digest.hexdigest() == "973478ba0ff7c966923da5b202580987228af5339c59b15bce8822cd5ebd05c6"
