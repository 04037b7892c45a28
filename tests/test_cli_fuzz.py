"""Seeded robustness sweep of the CLI's input boundary.

Poset, tree, imp and bench-spec files, some well formed and most damaged,
plus row token lines, go through `cli.main` in process.  Every call must end
with a documented exit code (0 success, 1 usage, 2 bad input, 3 guard) and
raise nothing.  Universes stay at w <= 8, so no call runs long.
"""

import pytest

from wildrows import InputError, SplitMix64, gen_layered_poset, gen_random_tree, parse_row
from wildrows.bench import LayeredSpec
from wildrows.cli import format_poset, format_tree, main

MAX_W = 8
ROW_TOKENS = ["0", "1", "2", "a1", "b1", "a2", "b2", "b3", "a", "b0", "3", "x", "-1", "a01"]


def pick(rng, items):
    return items[rng.below(len(items))]


def row_line(rng):
    return " ".join(pick(rng, ROW_TOKENS) for _ in range(rng.below(MAX_W + 1)))


def header(rng, kind, w):
    return pick(rng, [f"{kind} {w}"] * 24 + [
        f"{kind} {w - MAX_W - 1}", f"{kind} x", f"{kind}", f"{kind} {w} {w}",
        f"tree {w}", f"imp {w}", "", "# only a comment",
    ])


def damage(rng, lines):
    """Drop, duplicate, corrupt or append lines; half the time leave them alone."""
    lines = list(lines)
    for _ in range(rng.below(2) * (1 + rng.below(2))):
        what = rng.below(6)
        i = rng.below(len(lines) + 1)
        if what == 0 and lines:
            del lines[min(i, len(lines) - 1)]
        elif what == 1 and lines:
            lines.insert(i, lines[min(i, len(lines) - 1)])
        elif what == 2:
            lines.insert(i, f"{rng.below(MAX_W + 3) - 1} {rng.below(MAX_W + 3) - 1}")
        elif what == 3:
            lines.insert(i, row_line(rng))
        elif what == 4:
            lines.insert(i, pick(rng, ["1 2 3", "1", "a b", "1 -> 2", "-> 1", "# note"]))
    return lines


def poset_text(rng):
    m, l = 1 + rng.below(4), 1 + rng.below(2)
    spec = LayeredSpec(m, l, rng.below(m + 1), rng.next_u64())
    lines = format_poset(gen_layered_poset(spec)).splitlines()[1:]
    if rng.below(4) == 0:  # a cycle
        lines.append(f"{spec.w} 1")
    return "\n".join([header(rng, "poset", spec.w)] + damage(rng, lines)) + "\n"


def tree_text(rng):
    w = 1 + rng.below(MAX_W)
    lines = format_tree(gen_random_tree(w, rng.next_u64())).splitlines()[1:]
    if w >= 3 and rng.below(3) == 0:
        # w-1 distinct edges closing a cycle on 1..3, the rest a path on 4..w
        lines = ["1 2", "2 3", "1 3"] + [f"{v} {v + 1}" for v in range(4, w)]
    else:
        lines = damage(rng, lines)
    return "\n".join([header(rng, "tree", w)] + lines) + "\n"


def imp_side(rng, w):
    return " ".join(str(1 + rng.below(w)) for _ in range(rng.below(min(w, 2) + 1)))


def imp_text(rng):
    w = rng.below(MAX_W + 1)
    lines = [f"{imp_side(rng, w)} -> {imp_side(rng, w)}" for _ in range(rng.below(6))]
    return "\n".join([header(rng, "imp", w)] + damage(rng, lines)) + "\n"


def spec_text(rng):
    lines = []
    for _ in range(1 + rng.below(2)):
        m = 1 + rng.below(4)
        l = 1 + rng.below(MAX_W // m)
        lines.append(f"{m} {l} {rng.below(m + 2)} {rng.next_u64()}")  # t = m+1 is refused
    lines = [line for line in damage(rng, lines) if fits(line)]
    return "\n".join(lines) + "\n"


def fits(line):
    """Keep a spec line only if its instance could not exceed MAX_W."""
    parts = line.split("#", 1)[0].split()
    try:
        m, l = int(parts[0]), int(parts[1])
    except (IndexError, ValueError):
        return True
    return m * l <= MAX_W


def calls(rng, path):
    fmt = ["--format", pick(rng, ["rows", "sets", "count"])]
    k = ["--k", str(rng.below(MAX_W + 3) - 1)]
    return {
        "poset": [
            ["ideals", path] + fmt,
            ["ideals", path] + k + fmt,
            ["ideals", path, "--compact"] + fmt,
            ["ideals", path, "--compact"] + k,
            ["whitney", path, "--method", pick(rng, ["ab", "recursive", "both"])],
        ],
        "tree": [["subtrees", path] + k + fmt, ["subtrees", path, "--k", "2"] + fmt, ["subtrees", path]],
        "imp": [["models", path] + fmt, ["models", path] + k + fmt],
        "spec": [["bench", "--spec", path] + pick(rng, [[], ["--machine"], ["--timeout", "5"]])],
    }


MAKERS = {"poset": poset_text, "tree": tree_text, "imp": imp_text, "spec": spec_text}


@pytest.mark.parametrize("kind", list(MAKERS))
def test_cli_fuzz_exit_codes(kind, tmp_path, capsys):
    rng = SplitMix64({"poset": 11, "tree": 12, "imp": 13, "spec": 14}[kind])
    path = tmp_path / f"in.{kind}"
    codes = set()
    for i in range(60):
        # every fifth file body is row token lines
        if i % 5 == 4:
            text = "\n".join([header(rng, kind, 4)] + [row_line(rng) for _ in range(3)]) + "\n"
        else:
            text = MAKERS[kind](rng)
        path.write_text(text)
        for argv in calls(rng, str(path))[kind]:
            code = main(argv)
            capsys.readouterr()
            assert code in (0, 1, 2, 3), (argv, text)
            codes.add(code)
    # the sweep reaches both the success path and the input errors
    assert {0, 2} <= codes


def test_cli_fuzz_missing_file_and_gen(tmp_path, capsys):
    rng = SplitMix64(15)
    missing = str(tmp_path / "absent")
    argvs = [["subtrees", missing, "--k", "1"], ["bench", "--spec", missing], ["whitney", missing]]
    for _ in range(30):
        argvs.append(["gen", "tree", "--w", str(rng.below(MAX_W + 2) - 1), "--seed", str(rng.next_u64())])
        m, t = rng.below(4), rng.below(4)
        argvs.append(["gen", "poset", "--m", str(m), "--l", str(rng.below(3)), "--t", str(t),
                      "--seed", str(rng.below(100))])
    for argv in argvs:
        code = main(argv)
        capsys.readouterr()
        assert code in (0, 1, 2, 3), argv


def test_parse_row_fuzz():
    rng = SplitMix64(16)
    parsed = 0
    for _ in range(3000):
        line = row_line(rng)
        try:
            row = parse_row(line, pick(rng, ["auto", "012", "ab"]))
        except InputError:
            continue
        parsed += 1
        assert row.w == len(line.split())
    assert parsed > 100
