"""Golden test of the admission calls the LIFO loop makes.

Rows and counters alone do not show in which order the engine vets its
candidate sons, nor which father state each test starts from.  Each test
below wraps the `admit` that an enumerator hands to `_lifo_k` and pins the
sha256 of the full call sequence: for every call, the son's ones and twos,
its new zero e, and the state the admit returned (None for a refused son).
A forced single son, which the loop takes with its father's state, makes no
call.  A k-ideal son's twos lack the whole filter of its zeros, and its
state is the empty tuple: the admit reads the son's size window alone.
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
    """Wrap module._lifo_k so every admit call is fed to a sha256; returns
    the hash object and a one-slot call counter."""
    digest = hashlib.sha256()
    calls = [0]
    lifo_k = module._lifo_k

    def recording_lifo_k(family, k, admit, root, *, _filters=None):
        def recorded(state, ones, twos, e):
            # the root too is vetted as a son of a state, never of None
            assert state is not None
            son = admit(state, ones, twos, e)
            digest.update(repr((ones, twos, e, son)).encode())
            calls[0] += 1
            return son

        return lifo_k(family, k, recorded, root, _filters=_filters)

    monkeypatch.setattr(module, "_lifo_k", recording_lifo_k)
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
    assert calls[0] == 1365
    assert digest.hexdigest() == "2bc332189451ff4d8c8f6df8f215092a7b9e8bc63ddd704d48287a6f3b8faeea"


def test_k_subtree_admit_order(monkeypatch):
    digest, calls = record_admits(monkeypatch, subtrees)
    for t in admit_trees():
        for k in range(t.w + 1):
            enumerate_k_subtrees(t, k)
    assert calls[0] == 10205
    assert digest.hexdigest() == "9d013f244a25f4b48504175bcc45beb8aa8a6dbcc9beca14d7e9834c44b04d66"


def test_k_model_admit_order(monkeypatch):
    digest, calls = record_admits(monkeypatch, engine)
    for family in admit_families():
        oracle = brute_oracle(family)
        for k in range(family.w + 1):
            enumerate_k_models(family, k, oracle)
    assert calls[0] == 1132
    assert digest.hexdigest() == "32dc91d79077886a0d656b4472ef7d420810b962ce74802f328e6bb45b7822b7"
