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
token format.  Exit codes: 0 success, 1 usage error, 2 malformed input file
(also one that cannot be read or is not UTF-8), 3 guard violation (instance
too large for a requested brute-force path, or a tree whose subtree
implication base would hold more than subtrees.TREE_BASE_MAX_LENGTH elements
or exceed subtrees.TREE_BASE_MAX_CELLS in w*h, which refuses every tree with
w > 646), 4 a failed write to stdout or to --out, or another
operating-system error.  A reader that closes stdout early ends the
`wildrows` command as it ends `seq`: killed by SIGPIPE, with nothing on
stderr.

Every subcommand reads its file through `_read` and does its work or raises;
`main` alone prints "error: ..." and picks the exit code.  Only gen and
bench import `bench`, so the query subcommands do not load it.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

from .abrows import ab_enumerate, rows_poly
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


def _pair_file(text: str, kind: str) -> tuple[int, list[tuple[int, int]]]:
    """The size and the "u v" lines of a poset or tree file."""
    lines = _meaningful_lines(text)
    w = _header(lines, kind)
    pairs = []
    for lineno, line in lines:
        try:
            u, v = map(int, line.split())
        except ValueError:
            raise InputError(f"line {lineno}: expected two integers, got {line!r}") from None
        pairs.append((u, v))
    return w, pairs


def parse_poset_file(text: str) -> Poset:
    return Poset(*_pair_file(text, "poset"))


def parse_tree_file(text: str) -> Tree:
    return Tree(*_pair_file(text, "tree"))


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


def _format_pairs(kind: str, w: int, pairs, comment: str) -> str:
    out = [f"# {comment}"] if comment else []
    out.append(f"{kind} {w}")
    out.extend(f"{u} {v}" for u, v in pairs)
    return "\n".join(out) + "\n"


def format_poset(p: Poset, comment: str = "") -> str:
    covers = ((u, v) for u in p.elements for v in bit_positions(p.upper_cover_masks[u]))
    return _format_pairs("poset", p.w, covers, comment)


def format_tree(t: Tree, comment: str = "") -> str:
    return _format_pairs("tree", t.w, t.edges, comment)


def parse_bench_specs(text: str) -> list:
    """The LayeredSpec of each "m l t seed" line."""
    from .bench import LayeredSpec

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
# input and output

def _read(path: str) -> str:
    """The text of an instance file: one that cannot be read, or is not
    UTF-8, is malformed input."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(str(e)) from None


def _emit(fmt: str, rows, count, sets) -> None:
    """Print per --format: the rows, the member sets (an iterable, drawn
    one at a time) or the number count() returns."""
    if fmt == "count":
        print(count())
    elif fmt == "rows":
        for r in rows:
            print(render_row(r))
    else:
        for s in sets:
            print("{%s}" % ",".join(map(str, sorted(s))))


# ---------------------------------------------------------------------------
# subcommands: each does its work or raises, and main maps the exception

def _cmd_models(args) -> None:
    family = parse_family_file(_read(args.file))
    if args.k is None:
        stack = enumerate_models(family)
    else:
        if family.w > BRUTE_ORACLE_MAX_W:
            raise GuardError(
                f"--k on a generic implication family needs the exhaustive "
                f"oracle, which is limited to w <= {BRUTE_ORACLE_MAX_W} (got w={family.w}); "
                f"for posets or trees use 'ideals --k' or 'subtrees --k' instead"
            )
        stack = enumerate_k_models(family, args.k, brute_oracle(family))
    _emit(args.format, stack.rows, lambda: stack.count(args.k), stack.sets(args.k))


def _cmd_ideals(args) -> None:
    poset = parse_poset_file(_read(args.file))
    if args.compact:
        if args.k is not None:
            raise ValueError("--compact and --k cannot be combined")
        rows = ab_enumerate(poset)
        _emit(args.format, rows, lambda: sum(map(rowab_count, rows)),
              (s for r in rows for s in rowab_members(r)))
        return
    if args.k is None:
        stack = enumerate_models(natural_base(poset))
    else:
        stack = enumerate_k_ideals(poset, args.k)
    _emit(args.format, stack.rows, lambda: stack.count(args.k), stack.sets(args.k))


def _cmd_subtrees(args) -> None:
    tree = parse_tree_file(_read(args.file))
    stack = enumerate_k_subtrees(tree, args.k)
    _emit(args.format, stack.rows, lambda: stack.count(args.k), stack.sets(args.k))


def _cmd_whitney(args) -> None:
    poset = parse_poset_file(_read(args.file))
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


def _cmd_gen(args) -> None:
    from .bench import LayeredSpec, gen_layered_poset, gen_random_tree

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


def _cmd_bench(args) -> None:
    from .bench import run_bench

    specs = parse_bench_specs(_read(args.spec))
    report = run_bench(specs, workers=args.threads, timeout_s=args.timeout)
    if args.machine:
        for line in report.machine_lines():
            print(line)
    else:
        print(report.table())


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
    gt = gensub.add_parser("tree", help="uniform random labelled tree")
    gt.add_argument("--w", type=int, required=True)
    for g in (gp, gt):
        g.add_argument("--seed", type=int, required=True)
        g.add_argument("--out", default=None)
        g.set_defaults(func=_cmd_gen)

    sp = sub.add_parser("bench", help="compare the two methods on generated instances")
    sp.add_argument("--spec", required=True, help="file with 'm l t seed' lines")
    sp.add_argument("--machine", action="store_true", help="tab-separated lines instead of a table")
    sp.add_argument("--threads", type=int, default=1,
                    help="run instances in parallel processes (timings per instance stay serial)")
    sp.add_argument("--timeout", type=float, default=None,
                    help="per-instance soft timeout in seconds (flagged, not fatal)")
    sp.set_defaults(func=_cmd_bench)

    return parser


# An exception's exit code: the first class here that it is an instance of.
# Reading is done by _read, which turns every OSError into an InputError,
# so an OSError that reaches main is a failed write to stdout or to --out.
_EXIT_CODES = ((InputError, 2), (GuardError, 3), (ValueError, 1), (OSError, 4))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        args.func(args)
        # a buffered write that fails only now is still this call's failure
        sys.stdout.flush()
    except (ValueError, GuardError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(e, kind))
    return 0


def entry() -> None:
    """The `wildrows` command and `python -m wildrows`."""
    if hasattr(signal, "SIGPIPE"):
        # a reader that closes stdout ends the process the way it ends
        # `seq 100000 | head -1`, with no error text and no exit code 2
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())
