"""The four benchmark workloads: seeded inputs, queries, answer checks and
traced replays.

A query is one user-visible request, from raw input (a relation list, an
edge list or an instance file) to an answer; building the `Poset` or `Tree`
is part of it.  Inputs come from the run seed through SplitMix64,
gen_layered_poset and gen_random_tree, and are built before anything is
timed.  Reference answers are computed only in the check phase.

Every workload lists its queries in a fixed order, and a run times whole
passes over that list, so the mix of queries measured, and the exact counts
derived from them (rows per answer, per-layer work counters), depend on the
seed alone, never on the speed of the library.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import comb
from pathlib import Path

from measure import ChildRun, SpeedGauge, run_child
from spans import Tracer
from wildrows import (
    Closer,
    Implication,
    ImplicationFamily,
    LayeredSpec,
    Poset,
    RankPolynomial,
    SplitMix64,
    Tree,
    ab_enumerate,
    brute_models,
    brute_oracle,
    brute_rank_poly,
    brute_subtrees,
    cardinality_poly,
    enumerate_k_ideals,
    enumerate_k_models,
    enumerate_k_subtrees,
    enumerate_models,
    gen_layered_poset,
    gen_random_tree,
    ideal_oracle,
    natural_base,
    rank_poly_recursive,
    render_row,
    rowab_count,
    subtree_count,
    subtree_oracle,
    tree_base,
)
from wildrows.cli import format_poset, format_tree
from wildrows.ideals import down_closure_mask
from wildrows.subtrees import steiner_closure_mask

BRUTE_MAX_W = 24


@dataclass(frozen=True)
class Query:
    kind: str
    inst: int  # index into the workload's instance list
    k: int | None = None


# ---------------------------------------------------------------------------
# seeded inputs


def instance_seeds(seed: int):
    rng = SplitMix64(seed)
    while True:
        yield rng.below(1 << 32)


def cover_relations(p: Poset) -> tuple[int, tuple]:
    """(w, relations u < v) of a generated layered poset.  All its relations
    join adjacent levels, so they are exactly its covers."""
    return p.w, tuple((c, a) for a in p.elements for c in sorted(p.lower_covers(a)))


def layered_relations(m: int, l: int, t: int, seed: int) -> tuple[int, tuple]:
    return cover_relations(gen_layered_poset(LayeredSpec(m, l, t, seed)))


def tree_edges(w: int, seed: int) -> tuple[int, tuple]:
    return w, gen_random_tree(w, seed).edges


def random_family(w: int, h: int, seed: int) -> ImplicationFamily:
    """Generic implication family: premises of 1-2 and conclusions of 1-3
    elements, drawn with SplitMix64.  A premise inside {1..w//2} concludes
    inside it too, so that set is a model and k = w//2 has an answer."""
    rng = SplitMix64(seed)
    low = range(1, w // 2 + 1)
    imps = []
    for _ in range(h):
        prem = rng.sample(range(1, w + 1), 1 + rng.below(2))
        pool = low if max(prem) <= w // 2 else range(1, w + 1)
        conc = rng.sample(pool, 1 + rng.below(3))
        imps.append(Implication(frozenset(prem), frozenset(conc)))
    return ImplicationFamily(w, imps)


def format_family(family: ImplicationFamily) -> str:
    lines = [f"imp {family.w}"]
    for imp in family:
        lines.append(" ".join(map(str, sorted(imp.premise))) + " -> "
                     + " ".join(map(str, sorted(imp.conclusion))))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# answer counts read off the rows


def k_answers(rows, k: int) -> int:
    """k-element members of disjoint {0,1,2} rows: C(|twos|, k - |ones|)."""
    total = 0
    for r in rows:
        need = k - r.ones_mask.bit_count()
        if need >= 0:
            total += comb(r.twos_mask.bit_count(), need)
    return total


def all_answers(rows) -> int:
    return sum(1 << r.twos_mask.bit_count() for r in rows)


def subtree_counts(w: int, edges) -> list[int]:
    """Subtrees per vertex count 0..w by rooted dynamic programming over
    size polynomials; independent of every enumerator."""
    adj = [[] for _ in range(w + 1)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    parent = [0] * (w + 1)
    order = [1]
    parent[1] = -1
    for u in order:
        for v in adj[u]:
            if parent[v] == 0:
                parent[v] = u
                order.append(v)
    rooted = [[0, 1] for _ in range(w + 1)]  # subtrees with top vertex v, by size
    for u in reversed(order):
        p = parent[u]
        if p > 0:
            a, b = rooted[p], [1] + rooted[u][1:]
            prod = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b):
                        prod[i + j] += x * y
            rooted[p] = prod
    counts = [0] * (w + 1)
    counts[0] = 1
    for v in range(1, w + 1):
        for size, n in enumerate(rooted[v]):
            counts[size] += n
    return counts


# ---------------------------------------------------------------------------
# library calls, plain and traced.  The traced forms make the same calls as
# the public convenience functions, with the oracle and closure callables
# wrapped, so their rows must match the plain forms byte for byte.


def whitney_both(w, rels):
    p = Poset(w, rels)
    rows = ab_enumerate(p)
    poly = RankPolynomial.zero()
    for r in rows:
        poly = poly + cardinality_poly(r)
    rec, nsum = rank_poly_recursive(p)
    return rows, poly, rec, nsum


def whitney_both_traced(tr: Tracer, w, rels):
    p = tr.call("core.poset_build", Poset, w, rels)
    rows = tr.call("abrows.enumerate", ab_enumerate, p)
    tr.add("abrows.rows", len(rows))
    poly = RankPolynomial.zero()
    for r in rows:
        c = tr.call("abrows.cardinality_poly", cardinality_poly, r)
        tr.enter("core.poly_sum")
        poly = poly + c
        tr.exit()
    rec, nsum = tr.call("rankpoly.recursive", rank_poly_recursive, p)
    tr.add("rankpoly.leaves", nsum)
    return rows, poly, rec, nsum


def carryovers(stats) -> int:
    """Impositions that left their row unchanged.  Every stacked row (the
    initial row, when feasible, and each admitted son) ends either as a final
    row or at the one imposition that splits it; all other impositions are
    carry-overs."""
    started = 1 if stats.impositions or stats.final_row_count else 0
    stacked = started + stats.candidate_sons - stats.killed_candidates
    return stats.impositions - (stacked - stats.final_row_count)


def record_engine(tr: Tracer, stats) -> None:
    for name in ("impositions", "candidate_sons", "killed_candidates"):
        tr.add(f"engine.{name}", getattr(stats, name))
    tr.add("engine.final_rows", stats.final_row_count)
    tr.add("engine.carryovers", carryovers(stats))


def k_ideals(w, rels, k):
    return enumerate_k_ideals(Poset(w, rels), k)


def k_ideals_traced(tr: Tracer, w, rels, k):
    p = tr.call("core.poset_build", Poset, w, rels)
    family = tr.call("ideals.base", natural_base, p)
    oracle = tr.wrap("ideals.oracle", ideal_oracle(p))
    closure = tr.wrap("ideals.closure", down_closure_mask(p))
    stack = tr.call("engine.enumerate", enumerate_k_models, family, k, oracle, closure_mask=closure)
    record_engine(tr, stack.stats)
    return stack


def all_ideals(w, rels):
    return enumerate_models(natural_base(Poset(w, rels)))


def all_ideals_traced(tr: Tracer, w, rels):
    p = tr.call("core.poset_build", Poset, w, rels)
    family = tr.call("ideals.base", natural_base, p)
    stack = tr.call("engine.enumerate", enumerate_models, family)
    record_engine(tr, stack.stats)
    return stack


def k_subtrees(w, edges, k):
    return enumerate_k_subtrees(Tree(w, edges), k)


def k_subtrees_traced(tr: Tracer, w, edges, k):
    t = tr.call("core.tree_build", Tree, w, edges)
    family = tr.call("subtrees.base", tree_base, t)
    tr.add("subtrees.implications", family.h)
    oracle = tr.wrap("subtrees.oracle", subtree_oracle(t))
    closure = tr.wrap("subtrees.closure", steiner_closure_mask(t))
    stack = tr.call("engine.enumerate", enumerate_k_models, family, k, oracle, closure_mask=closure)
    record_engine(tr, stack.stats)
    return stack


def k_models(family, k):
    return enumerate_k_models(family, k, brute_oracle(family))


def k_models_traced(tr: Tracer, family, k):
    closer = Closer(family)
    closure = tr.wrap("closure.close_mask", closer.close_mask)
    oracle = tr.wrap("engine.brute_oracle", brute_oracle(family))
    stack = tr.call("engine.enumerate", enumerate_k_models, family, k, oracle, closure_mask=closure)
    tr.add("closure.decrements", closer.decrements)
    record_engine(tr, stack.stats)
    return stack


def render_rows(rows) -> str:
    return "".join(render_row(r) + "\n" for r in rows)


def render_whitney(w, result) -> str:
    """What `wildrows whitney --method both` prints."""
    rows, poly, rec, nsum = result
    return (" ".join(map(str, poly.padded(w))) + "\n"
            + ("agree" if poly == rec else "disagree") + "\n"
            + f"R={len(rows)} nsum={nsum}\n")


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Common shape: `queries` in a fixed order, run in whole passes; `run`
    makes one query and is the only part timed; `speed_gauge` scales its
    times to the reference core; `summarize` reduces its result, outside
    the timed region, to a small comparable record; `size` reads (rows,
    answers) off that record and `check` returns an error text or None;
    `run_traced` and `render` serve the byte-for-byte comparison of the
    traced replay."""

    name = ""
    queries: list[Query]

    def warm_up(self) -> None:
        pass

    def speed_gauge(self) -> SpeedGauge:
        return SpeedGauge.kernel()

    def run(self, q: Query):
        raise NotImplementedError

    def replay(self, q: Query):
        """In-process untraced result, compared with `run_traced`."""
        return self.run(q)

    def run_traced(self, q: Query, tr: Tracer):
        raise NotImplementedError

    def answers(self, q: Query, rows) -> int:
        return k_answers(rows, q.k)

    def summarize(self, q: Query, result) -> tuple:
        """(rows, answers, digest of the rows) of a FinalStack."""
        return len(result.rows), self.answers(q, result.rows), hash(result.rows)

    def size(self, q: Query, summary) -> tuple[int, int]:
        return summary[0], summary[1]

    def check(self, q: Query, summary) -> str | None:
        raise NotImplementedError

    def check_replay(self, q: Query, result) -> str | None:
        """`check` for a result of `replay`."""
        return self.check(q, self.summarize(q, result))

    def render(self, q: Query, result) -> str:
        return render_rows(result.rows)

    def self_checks(self) -> list[str]:
        """Checks of the benchmark's own reference answers."""
        return []

    def peak_rss_mb(self, self_rss_mb: float) -> float:
        return self_rss_mb


class Whitney(Workload):
    """relations -> Poset -> ab rows -> cardinality_poly sum, then the pivot
    recursion: what `whitney --method both` computes."""

    name = "whitney"
    # t=2 and t=3 shapes keep ab_enumerate busy, t=1 shapes the pivot
    # recursion; (4,5,2) is small enough for the brute-force reference.
    # Shapes of a few tens of ms give hundreds of samples per run; larger
    # ones such as (6,12,2) or (5,8,1) vary 5x from seed to seed.  A pass
    # over the 200 instances takes about 6 s.
    CYCLE = [(5, 10, 2), (5, 6, 1), (6, 10, 3), (4, 8, 1), (4, 5, 2),
             (5, 10, 2), (6, 5, 1), (6, 10, 3), (3, 10, 1), (4, 5, 2)]
    INSTANCES = 200

    def __init__(self, seed: int, workdir: Path):
        seeds = instance_seeds(seed)
        self.instances = [layered_relations(*self.CYCLE[i % len(self.CYCLE)], next(seeds))
                          for i in range(self.INSTANCES)]
        self.queries = [Query("whitney", i) for i in range(self.INSTANCES)]
        self._brute: dict[int, RankPolynomial] = {}

    def warm_up(self):
        whitney_both(*layered_relations(3, 3, 1, 0))

    def run(self, q):
        return whitney_both(*self.instances[q.inst])

    def run_traced(self, q, tr):
        return whitney_both_traced(tr, *self.instances[q.inst])

    def summarize(self, q, result):
        rows, poly, rec, nsum = result
        members = sum(rowab_count(r) for r in rows)
        return len(rows), poly.evaluate(1), hash((tuple(rows), nsum)), poly, rec, members

    def check(self, q, summary):
        w, rels = self.instances[q.inst]
        _, total, _, poly, rec, members = summary
        if poly != rec:
            return "ab and recursive rank polynomials differ"
        if members != total:
            return "row member counts do not sum to the polynomial's total"
        if w <= BRUTE_MAX_W:
            if q.inst not in self._brute:
                self._brute[q.inst] = brute_rank_poly(Poset(w, rels))
            if poly != self._brute[q.inst]:
                return "rank polynomial differs from brute force"
        return None

    def render(self, q, result):
        return render_rows(result[0]) + render_whitney(self.instances[q.inst][0], result)


class KIdeals(Workload):
    """One query per (poset, k) for every k in 0..w, then one
    enumerate_models(natural_base(p)) query per poset."""

    name = "kideals"
    # w 48-60.  With t=4 covers per element the answers per second of one
    # poset vary 7-15% from seed to seed (t=2 shapes such as (6,8,2) vary
    # 50%), so 20 posets give steady figures; a pass takes about 6 s.
    CYCLE = [(4, 12, 4), (5, 10, 4), (6, 8, 4), (6, 10, 4), (5, 12, 4)]
    INSTANCES = 20

    def __init__(self, seed: int, workdir: Path):
        seeds = instance_seeds(seed)
        self.instances = [layered_relations(*self.CYCLE[i % len(self.CYCLE)], next(seeds))
                          for i in range(self.INSTANCES)]
        self.queries = []
        for i, (w, _) in enumerate(self.instances):
            self.queries += [Query("k", i, k) for k in range(w + 1)] + [Query("all", i)]
        self._ref: dict[int, RankPolynomial] = {}

    def warm_up(self):
        w, rels = layered_relations(3, 3, 1, 0)
        k_ideals(w, rels, 2)
        all_ideals(w, rels)

    def run(self, q):
        w, rels = self.instances[q.inst]
        return all_ideals(w, rels) if q.k is None else k_ideals(w, rels, q.k)

    def run_traced(self, q, tr):
        w, rels = self.instances[q.inst]
        return all_ideals_traced(tr, w, rels) if q.k is None else k_ideals_traced(tr, w, rels, q.k)

    def answers(self, q, rows):
        return all_answers(rows) if q.k is None else k_answers(rows, q.k)

    def reference(self, inst: int) -> RankPolynomial:
        if inst not in self._ref:
            self._ref[inst] = rank_poly_recursive(Poset(*self.instances[inst]), memo=True)[0]
        return self._ref[inst]

    def check(self, q, summary):
        rows, answers, _ = summary
        ref = self.reference(q.inst)
        want = ref.evaluate(1) if q.k is None else ref.coefficient(q.k)
        if answers != want:
            return f"{answers} ideals, reference says {want}"
        if rows > answers:
            return f"{rows} rows for {answers} ideals"
        return None


class KSubtrees(Workload):
    """One query per tree, each with its own k: edges -> Tree -> tree_base
    -> enumerate_k_subtrees."""

    name = "ksubtrees"
    # w=60 trees take 2 s for k in 2..8, so smaller ones give the samples.
    # Answers per second vary about 25% from tree to tree, so each tree
    # takes one k and the pass covers many trees: tree i has size
    # SIZES[i % 4] and k = KS[i % 7], so the 56 trees meet every (size, k)
    # pair twice.  A pass takes about 6 s.
    SIZES = [36, 40, 44, 48]
    KS = range(2, 9)
    INSTANCES = 56
    SMALL_TREES = (12, 16)

    def __init__(self, seed: int, workdir: Path):
        seeds = instance_seeds(seed)
        self.instances = [tree_edges(self.SIZES[i % len(self.SIZES)], next(seeds))
                          for i in range(self.INSTANCES)]
        self.small = [tree_edges(w, next(seeds)) for w in self.SMALL_TREES]
        self.queries = [Query("k", i, self.KS[i % len(self.KS)]) for i in range(self.INSTANCES)]
        self._ref: dict[int, list[int]] = {}

    def warm_up(self):
        k_subtrees(*tree_edges(6, 0), 2)

    def run(self, q):
        w, edges = self.instances[q.inst]
        return k_subtrees(w, edges, q.k)

    def run_traced(self, q, tr):
        w, edges = self.instances[q.inst]
        return k_subtrees_traced(tr, w, edges, q.k)

    def check(self, q, summary):
        if q.inst not in self._ref:
            self._ref[q.inst] = subtree_counts(*self.instances[q.inst])
        rows, answers, _ = summary
        want = self._ref[q.inst][q.k]
        if answers != want:
            return f"{answers} subtrees, reference says {want}"
        if rows > answers:
            return f"{rows} rows for {answers} subtrees"
        return None

    def self_checks(self):
        errors = []
        for w, edges in self.small:
            dp = subtree_counts(w, edges)
            tree = Tree(w, edges)
            for k in range(w + 1):
                brute = len(brute_subtrees(tree, k))
                listed = k_answers(enumerate_k_subtrees(tree, k).rows, k)
                if not dp[k] == brute == listed:
                    errors.append(f"small tree w={w} k={k}: dp {dp[k]}, brute {brute}, rows {listed}")
        w, edges = self.instances[0]
        if sum(subtree_counts(w, edges)) != subtree_count(Tree(w, edges)):
            errors.append("per-size subtree counts do not sum to subtree_count")
        return errors


class Cli(Workload):
    """Sequential cold `python -m wildrows` calls on generated files; the
    interpreter start and the library import are part of every call."""

    name = "cli"
    # 60 calls a pass, about 13 s; two passes give the 100 samples p90
    # needs.  Answer counts of the small instances vary from seed to seed,
    # so fewer variants make answers_per_s and rows_per_answer unsteady.
    VARIANTS = 10
    # One call of each kind per variant, then one call on the large file,
    # which is the same file in every variant.
    KINDS = ["whitney", "ideals_k", "compact", "subtrees", "models"]
    LARGE = (20, 20, 2)

    def __init__(self, seed: int, workdir: Path, variants: int = VARIANTS, large: bool = True):
        self.workdir = workdir
        seeds = instance_seeds(seed)
        self.data: list = []
        self.argv: list[list[str]] = []
        self.queries = []
        for v in range(variants):
            for kind in self.KINDS:
                self.queries.append(self._add(kind, next(seeds), v))
            if large:
                if v == 0:
                    large_query = self._add("large", next(seeds), v)
                self.queries.append(large_query)
        self._expected: dict[int, tuple] = {}
        self.max_child_rss_kb = 0

    def _add(self, kind: str, inst_seed: int, v: int) -> Query:
        i = len(self.data)
        path = self.workdir / f"{kind}-{v}.txt"
        if kind == "subtrees":
            tree = gen_random_tree(24, inst_seed)
            data, text, args = (tree.w, tree.edges), format_tree(tree), ["subtrees", "--k", "4"]
        elif kind == "models":
            family = random_family(14, 10, inst_seed)
            data, text, args = family, format_family(family), ["models", "--k", str(family.w // 2)]
        else:
            shape = self.LARGE if kind == "large" else (4, 6, 2)
            p = gen_layered_poset(LayeredSpec(*shape, inst_seed))
            data, text = cover_relations(p), format_poset(p)
            args = {
                "whitney": ["whitney", "--method", "both"],
                "ideals_k": ["ideals", "--k", str(p.w // 2)],
                "compact": ["ideals", "--compact"],
                "large": ["ideals", "--k", "1", "--format", "count"],
            }[kind]
        path.write_text(text)
        self.data.append(data)
        self.argv.append([sys.executable, "-m", "wildrows", args[0], str(path), *args[1:]])
        return Query(kind, i, None if kind in ("whitney", "compact") else int(args[args.index("--k") + 1]))

    def warm_up(self):
        run_child(self.argv[0], self.workdir / "stdout.txt")

    def speed_gauge(self):
        return SpeedGauge.interpreter()

    def run(self, q) -> ChildRun:
        out = run_child(self.argv[q.inst], self.workdir / "stdout.txt")
        self.max_child_rss_kb = max(self.max_child_rss_kb, out.maxrss_kb)
        return out

    def peak_rss_mb(self, self_rss_mb):
        return self.max_child_rss_kb / 1024

    # in-process replay of each call: result, rows, answers, expected stdout

    def replay(self, q):
        data = self.data[q.inst]
        if q.kind == "whitney":
            return whitney_both(*data)
        if q.kind == "compact":
            return ab_enumerate(Poset(*data))
        if q.kind in ("ideals_k", "large"):
            return k_ideals(*data, q.k)
        if q.kind == "subtrees":
            return k_subtrees(*data, q.k)
        return k_models(data, q.k)

    def run_traced(self, q, tr):
        data = self.data[q.inst]
        if q.kind == "whitney":
            return whitney_both_traced(tr, *data)
        if q.kind == "compact":
            p = tr.call("core.poset_build", Poset, *data)
            rows = tr.call("abrows.enumerate", ab_enumerate, p)
            tr.add("abrows.rows", len(rows))
            return rows
        if q.kind in ("ideals_k", "large"):
            return k_ideals_traced(tr, *data, q.k)
        if q.kind == "subtrees":
            return k_subtrees_traced(tr, *data, q.k)
        return k_models_traced(tr, data, q.k)

    def render(self, q, result):
        if q.kind == "whitney":
            return render_rows(result[0]) + render_whitney(self.data[q.inst][0], result)
        return render_rows(result if q.kind == "compact" else result.rows)

    def expected(self, q) -> tuple[int, int, str, str | None]:
        """(rows, answers, stdout, error) of the in-process replay."""
        if q.inst in self._expected:
            return self._expected[q.inst]
        result = self.replay(q)
        data = self.data[q.inst]
        error = None
        if q.kind == "whitney":
            rows, poly, rec, nsum = result
            size = len(rows), poly.evaluate(1)
            stdout = render_whitney(data[0], result)
            if poly != rec or poly != brute_rank_poly(Poset(*data)):
                error = "rank polynomials disagree"
        elif q.kind == "compact":
            size = len(result), sum(rowab_count(r) for r in result)
            stdout = render_rows(result)
            if size[1] != brute_rank_poly(Poset(*data)).evaluate(1):
                error = "compact rows miss ideals"
        else:
            rows = result.rows
            size = len(rows), k_answers(rows, q.k)
            stdout = str(size[1]) + "\n" if q.kind == "large" else render_rows(rows)
            if q.kind == "ideals_k":
                want = brute_rank_poly(Poset(*data)).coefficient(q.k)
            elif q.kind == "large":
                # k=1 ideals are the minimal elements: those above nothing
                w, rels = data
                want = w - len({v for _, v in rels})
            elif q.kind == "subtrees":
                want = subtree_counts(*data)[q.k]
            else:
                want = sum(1 for s in brute_models(data) if len(s) == q.k)
            if size[1] != want:
                error = f"{size[1]} answers, reference says {want}"
        self._expected[q.inst] = (*size, stdout, error)
        return self._expected[q.inst]

    def summarize(self, q, result: ChildRun):
        return result.returncode, result.stdout

    def size(self, q, summary):
        rows, answers, _, _ = self.expected(q)
        return rows, answers

    def check_replay(self, q, result):
        return self.expected(q)[3]

    def check(self, q, summary):
        returncode, stdout = summary
        _, _, want, error = self.expected(q)
        if error:
            return error
        if returncode != 0:
            return f"exit code {returncode}"
        if stdout.decode() != want:
            return "stdout differs from the in-process result"
        return None


WORKLOADS = {cls.name: cls for cls in (Whitney, KIdeals, KSubtrees, Cli)}
