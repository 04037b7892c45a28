"""Command-line front end.

Subcommands: models, ideals, subtrees, whitney, gen, bench.  Instance files
are line-oriented with '#' comments and whitespace-separated fields:

  poset file:  header "poset <w>", then lines "u v" meaning u < v
  tree file:   header "tree <w>",  then w-1 lines "u v" (undirected edges)
  imp file:    header "imp <w>",   then lines "a1 a2 ... -> b1 b2 ..."
               (empty conclusion allowed: "a ->")
  bench spec:  lines "m l t seed"

Every universe size is bounded by MAX_UNIVERSE (4096 elements): a header
"<kind> <w>", a bench spec's m*l and the size asked of 'gen' must lie in
0..MAX_UNIVERSE, or the call fails with exit code 2 before anything is
allocated for the instance.

Sets print as "{e1,e2,...}" ascending, one per line; rows print in the row
token format.  Exit codes: 0 success, 1 usage error, 2 malformed input file,
3 guard violation (instance too large for a requested brute-force path, or
a tree whose subtree implication base would hold more than
subtrees.TREE_BASE_MAX_LENGTH elements).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .abrows import ab_enumerate, rows_poly
from .bench import LayeredSpec, gen_layered_poset, gen_random_tree, run_bench
from .core import (
    GuardError,
    Implication,
    ImplicationFamily,
    InputError,
    Poset,
    Tree,
    bit_positions,
    render_row,
    rowab_count,
    rowab_members,
)
from .engine import BRUTE_ORACLE_MAX_W, brute_oracle, enumerate_k_models, enumerate_models
from .ideals import enumerate_k_ideals, natural_base
from .rankpoly import rank_poly_recursive
from .subtrees import enumerate_k_subtrees


MAX_UNIVERSE = 4096


# ---------------------------------------------------------------------------
# instance file formats

def _check_universe(w: int, where: str) -> int:
    if not 0 <= w <= MAX_UNIVERSE:
        raise InputError(f"{where}: universe size {w} outside 0..{MAX_UNIVERSE}")
    return w


def _meaningful_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _header(lines, expected: str) -> int:
    try:
        lineno, line = next(lines)
    except StopIteration:
        raise InputError(f"empty file, expected a '{expected} <w>' header") from None
    parts = line.split()
    if len(parts) != 2 or parts[0] != expected:
        raise InputError(f"line {lineno}: expected header '{expected} <w>', got {line!r}")
    try:
        w = int(parts[1])
    except ValueError:
        raise InputError(f"line {lineno}: bad universe size {parts[1]!r}") from None
    return _check_universe(w, f"line {lineno}")


def _int_pair(lineno: int, line: str) -> tuple[int, int]:
    parts = line.split()
    if len(parts) != 2:
        raise InputError(f"line {lineno}: expected two integers, got {line!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise InputError(f"line {lineno}: expected two integers, got {line!r}") from None


def parse_poset_file(text: str) -> Poset:
    lines = _meaningful_lines(text)
    w = _header(lines, "poset")
    relations = [_int_pair(lineno, line) for lineno, line in lines]
    return Poset(w, relations)


def parse_tree_file(text: str) -> Tree:
    lines = _meaningful_lines(text)
    w = _header(lines, "tree")
    edges = [_int_pair(lineno, line) for lineno, line in lines]
    return Tree(w, edges)


def parse_family_file(text: str) -> ImplicationFamily:
    lines = _meaningful_lines(text)
    w = _header(lines, "imp")
    imps = []
    for lineno, line in lines:
        parts = line.split()
        if "->" not in parts:
            raise InputError(f"line {lineno}: implication needs a '->' separator")
        sep = parts.index("->")
        try:
            premise = frozenset(int(x) for x in parts[:sep])
            conclusion = frozenset(int(x) for x in parts[sep + 1:])
        except ValueError:
            raise InputError(f"line {lineno}: non-integer element in {line!r}") from None
        imps.append(Implication(premise, conclusion))
    return ImplicationFamily(w, imps)


def format_poset(p: Poset, comment: str = "") -> str:
    out = []
    if comment:
        out.append(f"# {comment}")
    out.append(f"poset {p.w}")
    for u in p.elements:
        for v in bit_positions(p.upper_cover_masks[u]):
            out.append(f"{u} {v}")
    return "\n".join(out) + "\n"


def format_tree(t: Tree, comment: str = "") -> str:
    out = []
    if comment:
        out.append(f"# {comment}")
    out.append(f"tree {t.w}")
    for u, v in t.edges:
        out.append(f"{u} {v}")
    return "\n".join(out) + "\n"


def parse_bench_specs(text: str) -> list[LayeredSpec]:
    specs = []
    for lineno, line in _meaningful_lines(text):
        parts = line.split()
        if len(parts) != 4:
            raise InputError(f"line {lineno}: expected 'm l t seed', got {line!r}")
        try:
            m, l, t, seed = (int(x) for x in parts)
        except ValueError:
            raise InputError(f"line {lineno}: non-integer field in {line!r}") from None
        _check_universe(m * l, f"line {lineno}")
        specs.append(LayeredSpec(m, l, t, seed))
    if not specs:
        raise InputError("bench spec file contains no instances")
    return specs


# ---------------------------------------------------------------------------
# output helpers

def _print_set(s) -> None:
    print("{%s}" % ",".join(map(str, sorted(s))))


def _emit_stack(stack, fmt: str, k) -> None:
    if fmt == "count":
        print(stack.count(k))
    elif fmt == "rows":
        for r in stack.rows:
            print(render_row(r))
    else:
        for s in stack.sets(k):
            _print_set(s)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_models(args) -> int:
    family = parse_family_file(Path(args.file).read_text())
    if args.k is None:
        stack = enumerate_models(family)
    else:
        if family.w > BRUTE_ORACLE_MAX_W:
            print(
                f"error: --k on a generic implication family needs the exhaustive "
                f"oracle, which is limited to w <= {BRUTE_ORACLE_MAX_W} (got w={family.w}); "
                f"for posets or trees use 'ideals --k' or 'subtrees --k' instead",
                file=sys.stderr,
            )
            return 3
        stack = enumerate_k_models(family, args.k, brute_oracle(family))
    _emit_stack(stack, args.format, args.k)
    return 0


def _cmd_ideals(args) -> int:
    poset = parse_poset_file(Path(args.file).read_text())
    if args.compact:
        if args.k is not None:
            print("error: --compact and --k cannot be combined", file=sys.stderr)
            return 1
        rows = ab_enumerate(poset)
        if args.format == "count":
            print(sum(rowab_count(r) for r in rows))
        elif args.format == "rows":
            for r in rows:
                print(render_row(r))
        else:
            for r in rows:
                for s in rowab_members(r):
                    _print_set(s)
        return 0
    if args.k is None:
        stack = enumerate_models(natural_base(poset))
    else:
        stack = enumerate_k_ideals(poset, args.k)
    _emit_stack(stack, args.format, args.k)
    return 0


def _cmd_subtrees(args) -> int:
    tree = parse_tree_file(Path(args.file).read_text())
    stack = enumerate_k_subtrees(tree, args.k)
    _emit_stack(stack, args.format, args.k)
    return 0


def _cmd_whitney(args) -> int:
    poset = parse_poset_file(Path(args.file).read_text())
    if args.method == "recursive":
        poly, _ = rank_poly_recursive(poset)
    else:
        rows = ab_enumerate(poset)
        poly = rows_poly(rows)
    print(" ".join(map(str, poly.padded(poset.w))))
    if args.method == "both":
        poly_rec, nsum = rank_poly_recursive(poset)
        print("agree" if poly == poly_rec else "disagree")
        print(f"R={len(rows)} nsum={nsum}")
    return 0


def _cmd_gen(args) -> int:
    if args.kind == "poset":
        _check_universe(args.m * args.l, "gen poset")
        spec = LayeredSpec(args.m, args.l, args.t, args.seed)
        text = format_poset(
            gen_layered_poset(spec),
            comment=f"layered poset m={spec.m} l={spec.l} t={spec.t} seed={spec.seed}",
        )
    else:
        _check_universe(args.w, "gen tree")
        text = format_tree(
            gen_random_tree(args.w, args.seed),
            comment=f"random tree w={args.w} seed={args.seed}",
        )
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")
    return 0


def _cmd_bench(args) -> int:
    specs = parse_bench_specs(Path(args.spec).read_text())
    report = run_bench(specs, workers=args.threads, timeout_s=args.timeout)
    if args.machine:
        for line in report.machine_lines():
            print(line)
    else:
        print(report.table())
    return 0


# ---------------------------------------------------------------------------
# dispatch

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wildrows",
        description="Enumerate implication models, order ideals and subtrees "
        "as compact wildcard rows; compute Whitney numbers two ways.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(sp):
        sp.add_argument("--format", choices=["rows", "sets", "count"], default="rows")

    sp = sub.add_parser("models", help="enumerate the models of an implication family")
    sp.add_argument("file")
    sp.add_argument("--k", type=int, default=None, help="restrict to k-element models")
    add_format(sp)
    sp.set_defaults(func=_cmd_models)

    sp = sub.add_parser("ideals", help="enumerate the order ideals of a poset")
    sp.add_argument("file")
    sp.add_argument("--k", type=int, default=None, help="restrict to k-element ideals")
    sp.add_argument("--compact", action="store_true",
                    help="all ideals as {0,1,2,a,b} rows (without --k)")
    add_format(sp)
    sp.set_defaults(func=_cmd_ideals)

    sp = sub.add_parser("subtrees", help="enumerate the k-vertex subtrees of a tree")
    sp.add_argument("file")
    sp.add_argument("--k", type=int, required=True)
    add_format(sp)
    sp.set_defaults(func=_cmd_subtrees)

    sp = sub.add_parser("whitney", help="per-cardinality ideal counts of a poset")
    sp.add_argument("file")
    sp.add_argument("--method", choices=["ab", "recursive", "both"], default="ab")
    sp.set_defaults(func=_cmd_whitney)

    sp = sub.add_parser("gen", help="generate instance files")
    gensub = sp.add_subparsers(dest="kind", required=True)
    gp = gensub.add_parser("poset", help="random layered poset")
    gp.add_argument("--m", type=int, required=True, help="level width")
    gp.add_argument("--l", type=int, required=True, help="level count")
    gp.add_argument("--t", type=int, required=True, help="lower covers per element")
    gp.add_argument("--seed", type=int, required=True)
    gp.add_argument("--out", default=None)
    gp.set_defaults(func=_cmd_gen)
    gt = gensub.add_parser("tree", help="uniform random labelled tree")
    gt.add_argument("--w", type=int, required=True)
    gt.add_argument("--seed", type=int, required=True)
    gt.add_argument("--out", default=None)
    gt.set_defaults(func=_cmd_gen)

    sp = sub.add_parser("bench", help="compare the two methods on generated instances")
    sp.add_argument("--spec", required=True, help="file with 'm l t seed' lines")
    sp.add_argument("--machine", action="store_true", help="tab-separated lines instead of a table")
    sp.add_argument("--threads", type=int, default=1,
                    help="run instances in parallel processes (timings per instance stay serial)")
    sp.add_argument("--timeout", type=float, default=None,
                    help="per-instance soft timeout in seconds (flagged, not fatal)")
    sp.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        return args.func(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except GuardError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
