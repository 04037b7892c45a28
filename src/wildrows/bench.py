"""Random instances, brute-force reference answers, and the harness pitting
the compact-row method against the recursive rank-polynomial method.

All randomness flows through SplitMix64, a fixed 64-bit generator written
out below, so identical seeds reproduce identical instances on every
platform and Python version.
"""

from __future__ import annotations

import heapq
import os
from time import perf_counter

from .abrows import ab_enumerate, rows_poly
from .closure import is_model_mask
from .core import (
    GuardError,
    ImplicationFamily,
    InputError,
    Poset,
    RankPolynomial,
    Record,
    Tree,
    _setattr,
    bit_positions,
    from_mask,
    union_over,
)
from .rankpoly import rank_poly_recursive

BRUTE_IDEALS_MAX_W = 24
BRUTE_SUBTREES_MAX_W = 24
BRUTE_MODELS_MAX_W = 20
DEFAULT_IDEAL_CAP = 2_000_000


class SplitMix64:
    """splitmix64: 64-bit state advanced by the golden-gamma constant, output
    scrambled by two xorshift-multiply rounds.

    Bounded draws use rejection sampling and subsets a partial Fisher-Yates
    shuffle, so the consumed stream (and thus every generated instance) is a
    pure function of the seed.
    """

    _MASK = (1 << 64) - 1
    _GAMMA = 0x9E3779B97F4A7C15

    def __init__(self, seed: int):
        self._state = seed & self._MASK

    def next_u64(self) -> int:
        self._state = (self._state + self._GAMMA) & self._MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection."""
        if not 0 < n <= 1 << 64:
            raise ValueError(f"below() needs a bound in 1..2**64, got {n}")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n

    def sample(self, population, t: int) -> list:
        """t distinct items by partial Fisher-Yates over a copy."""
        pool = list(population)
        if t > len(pool):
            raise ValueError("sample larger than population")
        for i in range(t):
            j = i + self.below(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:t]


class LayeredSpec(Record):
    """Layered random poset parameters: l levels of width m, each non-bottom
    element covering t distinct elements of the level below."""

    __slots__ = ("m", "l", "t", "seed")

    def __init__(self, m: int, l: int, t: int, seed: int):
        if m < 1 or l < 1:
            raise InputError(f"need m >= 1 and l >= 1, got m={m} l={l}")
        if not 0 <= t <= m:
            raise InputError(f"need 0 <= t <= m, got t={t} m={m}")
        _setattr(self, "m", m)
        _setattr(self, "l", l)
        _setattr(self, "t", t)
        _setattr(self, "seed", seed)

    @property
    def w(self) -> int:
        return self.m * self.l


def gen_layered_poset(spec: LayeredSpec) -> Poset:
    """Level i occupies labels (i-1)m+1 .. im; draws proceed level by level,
    element by element, t covers each, sampled without replacement."""
    rng = SplitMix64(spec.seed)
    relations = []
    for level in range(2, spec.l + 1):
        below = range((level - 2) * spec.m + 1, (level - 1) * spec.m + 1)
        for a in range((level - 1) * spec.m + 1, level * spec.m + 1):
            for c in rng.sample(below, spec.t):
                relations.append((c, a))
    return Poset(spec.w, relations)


def gen_random_tree(w: int, seed: int) -> Tree:
    """Uniform random labelled tree by decoding a random length-(w-2) code
    over 1..w (smallest-leaf-first decoding)."""
    if w < 1:
        raise InputError(f"tree needs at least one vertex, got w={w}")
    if w == 1:
        return Tree(1, [])
    rng = SplitMix64(seed)
    code = [1 + rng.below(w) for _ in range(w - 2)]
    degree = [1] * (w + 1)
    for v in code:
        degree[v] += 1
    leaves = [v for v in range(1, w + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in code:
        u = heapq.heappop(leaves)
        edges.append((u, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return Tree(w, edges)


# ---------------------------------------------------------------------------
# brute-force reference answers

def _walk_ideals(p: Poset, cap: int, visit):
    """Depth-first extension along the linear extension: each element may
    join only once its lower covers are in.  Visits every ideal mask once.
    Guarded: w <= 24 and at most `cap` ideals."""
    if p.w > BRUTE_IDEALS_MAX_W:
        raise GuardError(f"poset too large for brute-force ideals (w={p.w} > {BRUTE_IDEALS_MAX_W})")
    order = p.linext
    lower = [p.lower_cover_masks[e] for e in order]
    w = p.w
    count = 0

    def rec(i, mask):
        nonlocal count
        if i == w:
            count += 1
            if count > cap:
                raise GuardError(f"more than {cap} ideals; raise the cap to proceed")
            visit(mask)
            return
        rec(i + 1, mask)
        if lower[i] & mask == lower[i]:
            rec(i + 1, mask | (1 << (order[i] - 1)))

    rec(0, 0)


def brute_ideals(p: Poset, cap: int = DEFAULT_IDEAL_CAP) -> list[list[frozenset[int]]]:
    """All ideals grouped by cardinality (index k).  Guarded: w <= 24 and at
    most `cap` ideals."""
    grouped: list[list[frozenset[int]]] = [[] for _ in range(p.w + 1)]
    _walk_ideals(p, cap, lambda mask: grouped[mask.bit_count()].append(from_mask(mask)))
    return grouped


def brute_rank_poly(p: Poset, cap: int = DEFAULT_IDEAL_CAP) -> RankPolynomial:
    """Reference rank polynomial by direct ideal counting (no sets stored)."""
    counts = [0] * (p.w + 1)

    def visit(mask):
        counts[mask.bit_count()] += 1

    _walk_ideals(p, cap, visit)
    return RankPolynomial(tuple(counts))


def brute_subtrees(t: Tree, k: int) -> list[frozenset[int]]:
    """All k-vertex subtrees by connected-subset growth with de-duplication.
    k=0 gives the empty set."""
    if t.w > BRUTE_SUBTREES_MAX_W:
        raise GuardError(f"tree too large for brute-force subtrees (w={t.w} > {BRUTE_SUBTREES_MAX_W})")
    if k == 0:
        return [frozenset()]
    if k > t.w:
        return []
    nbr = t.neighbor_masks
    out = []
    stack = [1 << (v - 1) for v in t.vertices]
    seen = set(stack)
    while stack:
        cur = stack.pop()
        if cur.bit_count() == k:
            out.append(from_mask(cur))
            continue
        for v in bit_positions(union_over(nbr, cur) & ~cur):
            nxt = cur | (1 << (v - 1))
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    out.sort(key=sorted)
    return out


def brute_models(family: ImplicationFamily) -> list[frozenset[int]]:
    """All models by sweeping the full powerset (ascending mask order)."""
    if family.w > BRUTE_MODELS_MAX_W:
        raise GuardError(f"family too large for the powerset sweep (w={family.w} > {BRUTE_MODELS_MAX_W})")
    masks = family.masks
    return [from_mask(m) for m in range(1 << family.w) if is_model_mask(m, masks)]


def subtree_count(t: Tree) -> int:
    """Total subtree count (empty set included) by rooted dynamic
    programming: independent of any enumeration."""
    parent = t.bfs_parent
    per_vertex = [1] * (t.w + 1)  # subtrees rooted at v within v's branch
    for u in reversed(t.bfs_order[1:]):
        per_vertex[parent[u]] *= 1 + per_vertex[u]
    return sum(per_vertex[1:]) + 1


# ---------------------------------------------------------------------------
# comparison harness

class BenchRow(Record):
    __slots__ = ("spec", "n", "r", "time_ab_ms", "nsum", "time_rec_ms", "agree", "timed_out")

    def __init__(self, spec: LayeredSpec, n: int, r: int, time_ab_ms: float, nsum: int,
                 time_rec_ms: float, agree: bool, timed_out: bool = False):
        _setattr(self, "spec", spec)
        _setattr(self, "n", n)
        _setattr(self, "r", r)
        _setattr(self, "time_ab_ms", time_ab_ms)
        _setattr(self, "nsum", nsum)
        _setattr(self, "time_rec_ms", time_rec_ms)
        _setattr(self, "agree", agree)
        _setattr(self, "timed_out", timed_out)


class BenchReport(Record):
    __slots__ = ("rows",)

    def __init__(self, rows: tuple[BenchRow, ...]):
        _setattr(self, "rows", rows)

    def table(self) -> str:
        header = ["(m,l,t)", "N", "R", "time-ab[ms]", "nsum", "time-rec[ms]", "agree"]
        body = []
        for row in self.rows:
            s = row.spec
            body.append([
                f"({s.m},{s.l},{s.t})",
                str(row.n),
                str(row.r),
                f"{row.time_ab_ms:.1f}",
                str(row.nsum),
                f"{row.time_rec_ms:.1f}",
                ("yes" if row.agree else "NO") + (" (timeout)" if row.timed_out else ""),
            ])
        widths = [max(len(line[i]) for line in [header] + body) for i in range(len(header))]
        fmt = "  ".join("{:>%d}" % wd for wd in widths)
        return "\n".join(fmt.format(*line) for line in [header] + body)

    def machine_lines(self) -> list[str]:
        out = []
        for row in self.rows:
            s = row.spec
            out.append("\t".join(map(str, [
                s.m, s.l, s.t, s.seed, row.n, row.r,
                f"{row.time_ab_ms:.3f}", row.nsum, f"{row.time_rec_ms:.3f}",
                "true" if row.agree else "false",
            ])))
        return out

    def all_agree(self) -> bool:
        return all(row.agree for row in self.rows)


def _bench_one(spec: LayeredSpec, timeout_s: float | None = None) -> BenchRow:
    poset = gen_layered_poset(spec)
    t0 = perf_counter()
    rows = ab_enumerate(poset)
    poly_ab = rows_poly(rows)
    t1 = perf_counter()
    poly_rec, nsum = rank_poly_recursive(poset)
    t2 = perf_counter()
    timed_out = timeout_s is not None and (t1 - t0 > timeout_s or t2 - t1 > timeout_s)
    return BenchRow(
        spec=spec,
        n=poly_ab.evaluate(1),
        r=len(rows),
        time_ab_ms=(t1 - t0) * 1e3,
        nsum=nsum,
        time_rec_ms=(t2 - t1) * 1e3,
        agree=poly_ab == poly_rec,
        timed_out=timed_out,
    )


def _warmup():
    # one throwaway run of both methods so lazy setup stays out of timings
    p = Poset.chain(3)
    rows_poly(ab_enumerate(p))
    rank_poly_recursive(p)


def run_bench(specs, workers: int = 1, timeout_s: float | None = None) -> BenchReport:
    """Run both methods on each instance and report timings plus agreement.

    Instances are independent; workers > 1 spreads them over processes
    (per-instance timing stays single-threaded), at most one per instance
    and per core, since a fork-based pool starts all its workers at once.
    A timeout only flags the row, it never aborts the run.
    """
    specs = list(specs)
    _warmup()
    workers = min(workers, len(specs), os.cpu_count() or 1)
    if workers > 1:
        # imported here so that plain CLI starts do not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_bench_one, specs, [timeout_s] * len(specs)))
    else:
        rows = [_bench_one(s, timeout_s) for s in specs]
    return BenchReport(tuple(rows))
