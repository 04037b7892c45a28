import errno
import io
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import wildrows
from wildrows import InputError, Poset, Tree
from wildrows.cli import (
    MAX_UNIVERSE,
    format_poset,
    format_tree,
    main,
    parse_bench_specs,
    parse_family_file,
    parse_poset_file,
    parse_tree_file,
)

TOY_IMP = "imp 7\n5 -> 6 7\n6 -> 3\n1 2 3 -> 7\n3 -> 4 5\n"
CHAIN3 = "poset 3\n1 2\n2 3\n"
VEE = "poset 3\n1 3\n2 3\n"
PATH3 = "tree 3\n1 2\n2 3\n"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [
        ("toy.imp", TOY_IMP),
        ("chain3.poset", CHAIN3),
        ("v.poset", VEE),
        ("path3.tree", PATH3),
        ("bench.spec", "# demo\n2 3 1 5\n3 2 2 9\n"),
    ]:
        f = tmp_path / name
        f.write_text(text)
        paths[name] = str(f)
    return paths


# ---------------------------------------------------------------------------
# file formats

def test_parse_poset_file_with_comments():
    p = parse_poset_file("# a chain\nposet 3\n1 2\n2 3  # tail comment\n")
    assert p == Poset.chain(3)


def test_parse_family_file_empty_conclusion():
    fam = parse_family_file("imp 3\n1 ->\n2 -> 1\n")
    assert fam.h == 2
    assert fam[0].conclusion == frozenset()


def test_parse_rejects_malformed_files():
    with pytest.raises(InputError):
        parse_poset_file("")
    with pytest.raises(InputError):
        parse_poset_file("tree 3\n")
    with pytest.raises(InputError):
        parse_poset_file("poset 3\n1\n")
    with pytest.raises(InputError):
        parse_poset_file("poset x\n")
    with pytest.raises(InputError):
        parse_tree_file("tree 3\n1 2\n2 z\n")
    with pytest.raises(InputError):
        parse_family_file("imp 3\n1 2\n")
    with pytest.raises(InputError):
        parse_bench_specs("2 3 1\n")
    with pytest.raises(InputError):
        parse_bench_specs("# nothing\n")


def test_format_roundtrip():
    p = Poset(4, [(1, 2), (1, 3), (2, 4), (3, 4), (1, 4)])
    assert parse_poset_file(format_poset(p, comment="x")) == p
    t = Tree(5, [(1, 2), (2, 3), (2, 4), (4, 5)])
    assert parse_tree_file(format_tree(t)) == t


# ---------------------------------------------------------------------------
# subcommands

def test_models_count(files, capsys):
    code, out, _ = run(capsys, "models", files["toy.imp"], "--format", "count")
    assert code == 0 and out.strip() == "20"


def test_models_k_sets(files, capsys):
    code, out, _ = run(capsys, "models", files["toy.imp"], "--k", "3", "--format", "sets")
    assert code == 0
    assert sorted(out.split()) == ["{1,2,4}", "{1,2,7}", "{1,4,7}", "{2,4,7}"]


def test_models_rows_golden(files, capsys):
    code, out, _ = run(capsys, "models", files["toy.imp"], "--format", "rows")
    assert code == 0
    assert set(out.splitlines()) == {
        "2 2 1 1 1 1 1",
        "1 1 0 2 0 0 2",
        "1 0 0 2 0 0 2",
        "0 2 0 2 0 0 2",
    }


def test_whitney_both(files, capsys):
    code, out, _ = run(capsys, "whitney", files["chain3.poset"], "--method", "both")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "1 1 1 1"
    assert lines[1] == "agree"
    assert lines[2].startswith("R=") and "nsum=" in lines[2]


def test_whitney_methods_match(files, capsys):
    _, ab_out, _ = run(capsys, "whitney", files["v.poset"], "--method", "ab")
    _, rec_out, _ = run(capsys, "whitney", files["v.poset"], "--method", "recursive")
    assert ab_out == rec_out == "1 2 1 1\n"


def test_ideals_k_sets(files, capsys):
    code, out, _ = run(capsys, "ideals", files["v.poset"], "--k", "2", "--format", "sets")
    assert code == 0 and out.strip() == "{1,2}"


def test_ideals_compact_rows(files, capsys):
    code, out, _ = run(capsys, "ideals", files["chain3.poset"], "--compact", "--format", "rows")
    assert code == 0
    assert out.splitlines() == ["b1 a1 0", "1 1 1"]


def test_ideals_compact_count(files, capsys):
    code, out, _ = run(capsys, "ideals", files["chain3.poset"], "--compact", "--format", "count")
    assert code == 0 and out.strip() == "4"


def test_ideals_plain_enumeration(files, capsys):
    code, out, _ = run(capsys, "ideals", files["chain3.poset"], "--format", "count")
    assert code == 0 and out.strip() == "4"


def test_subtrees_sets(files, capsys):
    code, out, _ = run(capsys, "subtrees", files["path3.tree"], "--k", "2", "--format", "sets")
    assert code == 0
    assert sorted(out.split()) == ["{1,2}", "{2,3}"]


def test_gen_poset_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "gen.poset"
    code, _, _ = run(capsys, "gen", "poset", "--m", "3", "--l", "2", "--t", "2",
                     "--seed", "11", "--out", str(out_file))
    assert code == 0
    p = parse_poset_file(out_file.read_text())
    code, out, _ = run(capsys, "gen", "poset", "--m", "3", "--l", "2", "--t", "2", "--seed", "11")
    assert parse_poset_file(out) == p


def test_gen_tree_roundtrip(capsys):
    code, out, _ = run(capsys, "gen", "tree", "--w", "7", "--seed", "5")
    assert code == 0
    t = parse_tree_file(out)
    code, out2, _ = run(capsys, "gen", "tree", "--w", "7", "--seed", "5")
    assert parse_tree_file(out2) == t


def test_bench_subcommand(files, capsys):
    code, out, _ = run(capsys, "bench", "--spec", files["bench.spec"])
    assert code == 0
    assert out.splitlines()[0].split()[0] == "(m,l,t)"
    code, out, _ = run(capsys, "bench", "--spec", files["bench.spec"], "--machine")
    assert code == 0
    assert len(out.splitlines()) == 2
    assert out.splitlines()[0].split("\t")[:4] == ["2", "3", "1", "5"]


def test_output_deterministic(files, capsys):
    _, first, _ = run(capsys, "models", files["toy.imp"], "--format", "sets")
    _, second, _ = run(capsys, "models", files["toy.imp"], "--format", "sets")
    assert first == second


# ---------------------------------------------------------------------------
# exit codes

def test_exit_usage_error(capsys):
    assert run(capsys, "nosuchcommand")[0] == 1
    assert run(capsys, "subtrees", "somefile")[0] == 1  # --k is required


def test_exit_usage_error_conflicting_flags(files, capsys):
    code, _, err = run(capsys, "ideals", files["v.poset"], "--compact", "--k", "1")
    assert code == 1 and "compact" in err


def test_exit_bad_k_value(files, capsys):
    code, _, err = run(capsys, "models", files["toy.imp"], "--k", "99")
    assert code == 1


def test_exit_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.poset"
    bad.write_text("poset 2\n1 2 3\n")
    assert run(capsys, "ideals", str(bad))[0] == 2
    cyc = tmp_path / "cyc.poset"
    cyc.write_text("poset 2\n1 2\n2 1\n")
    assert run(capsys, "ideals", str(cyc))[0] == 2


def test_exit_missing_file(capsys):
    assert run(capsys, "models", "/nonexistent.imp")[0] == 2


NOT_UTF8 = b"poset 3\n1 2\xff\n"


@pytest.mark.parametrize("argv", [
    ["models", "{}"],
    ["ideals", "{}"],
    ["subtrees", "{}", "--k", "2"],
    ["whitney", "{}"],
    ["bench", "--spec", "{}"],
])
def test_exit_non_utf8_file(tmp_path, capsys, argv):
    bad = tmp_path / "bad"
    bad.write_bytes(NOT_UTF8)
    code, out, err = run(capsys, *(a.format(bad) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: 'utf-8' codec can't decode byte 0xff")
    assert "Traceback" not in err


def test_exit_guard_violation(tmp_path, capsys):
    big = tmp_path / "big.imp"
    big.write_text("imp 25\n1 -> 2\n")
    code, _, err = run(capsys, "models", str(big), "--k", "3")
    assert code == 3
    assert "w <= 24" in err or "24" in err

# ---------------------------------------------------------------------------
# cold interpreter: universe-size limit and import cost

SRC = str(Path(wildrows.__file__).resolve().parents[1])


def run_cold(*args):
    """A fresh interpreter importing wildrows from this checkout."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)


def test_universe_limit_accepts_max(tmp_path):
    poset = tmp_path / "max.poset"
    poset.write_text(f"poset {MAX_UNIVERSE}\n1 2\n")
    done = run_cold("-m", "wildrows", "ideals", str(poset), "--k", "1", "--format", "count")
    assert (done.returncode, done.stdout, done.stderr) == (0, f"{MAX_UNIVERSE - 1}\n", "")
    family = tmp_path / "max.imp"
    family.write_text(f"imp {MAX_UNIVERSE}\n1 -> 2\n")
    done = run_cold("-m", "wildrows", "models", str(family), "--format", "count")
    assert (done.returncode, done.stdout, done.stderr) == (0, f"{3 << (MAX_UNIVERSE - 2)}\n", "")


@pytest.mark.parametrize("argv", [
    ("ideals", "poset {big}\n1 2\n"),
    ("ideals", "poset 99999999999\n"),
    ("ideals", "poset -1\n"),
    ("whitney", "poset {big}\n"),
    ("models", "imp {big}\n1 -> 2\n"),
    ("models", "imp -3\n"),
    ("subtrees", "tree {big}\n1 2\n"),
    ("bench", "{big} 1 0 7\n"),
])
def test_universe_limit_rejects_beyond_max(tmp_path, argv):
    command, text = argv
    f = tmp_path / "input.txt"
    f.write_text(text.format(big=MAX_UNIVERSE + 1))
    args = {"bench": ["bench", "--spec", str(f)], "subtrees": ["subtrees", str(f), "--k", "2"]}.get(command, [command, str(f)])
    done = run_cold("-m", "wildrows", *args)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: line 1: universe size ")


def test_gen_rejects_universe_beyond_max(capsys):
    assert run(capsys, "gen", "tree", "--w", str(MAX_UNIVERSE + 1), "--seed", "1")[0] == 2
    assert run(capsys, "gen", "poset", "--m", "65", "--l", "64", "--t", "1", "--seed", "1")[0] == 2


@pytest.mark.parametrize("line, element", [("0 -> 1", 0), ("1 -> 0", 0), ("-2 -> 1", -2), ("1 -> 2 4", 4)])
def test_models_rejects_element_outside_universe(tmp_path, line, element):
    family = tmp_path / "bad.imp"
    family.write_text(f"imp 3\n{line}\n")
    done = run_cold("-m", "wildrows", "models", str(family))
    assert (done.returncode, done.stdout, done.stderr) == (2, "", f"error: element {element} outside universe 1..3\n")


def test_non_utf8_file_exits_2_cold(tmp_path):
    bad = tmp_path / "bad.poset"
    bad.write_bytes(NOT_UTF8)
    done = run_cold("-m", "wildrows", "ideals", str(bad))
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: 'utf-8' codec can't decode byte 0xff")
    assert "Traceback" not in done.stderr


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_closed_stdout_ends_like_seq(tmp_path):
    # 2^16 sets overflow any pipe buffer, so the write after the close fails
    poset = tmp_path / "antichain.poset"
    poset.write_text("poset 16\n")
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.Popen([sys.executable, "-m", "wildrows", "ideals", str(poset), "--format", "sets"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert proc.stdout.readline() == b"{}\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == -signal.SIGPIPE
        assert stderr == b""
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


def test_import_loads_neither_numpy_nor_process_pools():
    done = run_cold("-c", "import sys, wildrows, wildrows.cli; "
                    "print(sorted({'numpy', 'concurrent.futures.process'} & set(sys.modules)))")
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


BENCH_NAMES = ("BenchReport BenchRow LayeredSpec SplitMix64 brute_ideals brute_models "
               "brute_rank_poly brute_subtrees gen_layered_poset gen_random_tree run_bench "
               "subtree_count").split()
PUBLIC_NAMES = BENCH_NAMES + (
    "Bundle Closer EngineStats FeasibilityOracle FinalStack GuardError Implication "
    "ImplicationFamily InputError Poset RankPolynomial Row012 RowAB Tree ab_enumerate ab_impose "
    "brute_oracle candidate_sons cardinality_poly close enumerate_k_ideals enumerate_k_models "
    "enumerate_k_subtrees enumerate_models ideal_oracle is_model natural_base parse_row "
    "pick_pivot rank_poly_recursive render_row row012_count row012_list_k row012_members "
    "rows_poly rowab_count rowab_members steiner_closure subtree_oracle tree_base whitney").split()


def test_import_loads_neither_dataclasses_nor_bench():
    # the query subcommands need neither: dataclasses pulls in inspect, and
    # bench (instance generators, brute force, the method harness) only
    # serves gen and bench
    done = run_cold("-c", "import sys, wildrows, wildrows.cli; "
                    "print(sorted({'dataclasses', 'wildrows.bench'} & set(sys.modules)))")
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_bench_names_resolve_from_a_cold_package():
    script = f"""
import sys, wildrows
names = {BENCH_NAMES!r}
assert 'wildrows.bench' not in sys.modules
from wildrows import LayeredSpec
import wildrows.bench as bench
assert LayeredSpec is bench.LayeredSpec
assert all(getattr(wildrows, n) is getattr(bench, n) for n in names)
star = {{}}
exec('from wildrows import *', star)
assert all(star[n] is getattr(bench, n) for n in names)
assert set(star) - {{'__builtins__'}} == set(wildrows.__all__)
try:
    wildrows.no_such_name
except AttributeError as e:
    print(e)
print(sorted(wildrows.__all__))
"""
    done = run_cold("-c", script)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == f"module 'wildrows' has no attribute 'no_such_name'\n{sorted(PUBLIC_NAMES)}\n"
    with pytest.raises(AttributeError, match="no_such_name"):
        wildrows.no_such_name


def test_gen_and_bench_run_cold(tmp_path, capsys):
    spec = tmp_path / "bench.spec"
    spec.write_text("2 3 1 5\n")
    for argv in (["gen", "poset", "--m", "3", "--l", "2", "--t", "2", "--seed", "11"],
                 ["gen", "tree", "--w", "7", "--seed", "5"],
                 ["bench", "--spec", str(spec), "--machine"]):
        done = run_cold("-m", "wildrows", *argv)
        code, out, err = run(capsys, *argv)
        assert (done.returncode, done.stderr) == (code, err) == (0, "")
        if argv[0] == "gen":
            assert done.stdout == out
        else:  # timings differ between runs
            cold, warm = done.stdout.split("\t"), out.split("\t")
            assert cold[:6] + cold[7:8] + cold[9:] == warm[:6] + warm[7:8] + warm[9:]


def test_subtrees_refuses_oversized_tree_base(tmp_path):
    # a 4096-path passes the universe limit, but its subtree base would
    # hold about 1.1e10 elements: refused before it is built
    path = tmp_path / "path.tree"
    path.write_text(format_tree(Tree.path_graph(MAX_UNIVERSE)))
    started = time.perf_counter()
    done = run_cold("-m", "wildrows", "subtrees", str(path), "--k", "2")
    assert time.perf_counter() - started < 20
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr.startswith("error: tree base too large")
    assert "Traceback" not in done.stderr


def test_subtrees_refuses_wide_tree_base(tmp_path):
    # a 1634-star passes the length guard (about 4.0e6 elements), but w*h
    # would size a 2.2e9-bit premise table: refused before it is built
    path = tmp_path / "star.tree"
    path.write_text(format_tree(Tree.star(1634)))
    started = time.perf_counter()
    done = run_cold("-m", "wildrows", "subtrees", str(path), "--k", "2")
    assert time.perf_counter() - started < 20
    assert (done.returncode, done.stdout, done.stderr) == (
        3, "", "error: tree base too large: w*h = 2177350752 for w=1634, limit 134217728\n"
    )


# ---------------------------------------------------------------------------
# error texts that only an in-process call reaches, and failed writes (exit 4)

def test_parse_non_integer_texts():
    with pytest.raises(InputError) as info:
        parse_family_file("imp 2\n1 -> x\n")
    assert str(info.value) == "line 2: non-integer element in '1 -> x'"
    with pytest.raises(InputError) as info:
        parse_bench_specs("1 2 x 4\n")
    assert str(info.value) == "line 1: non-integer field in '1 2 x 4'"


def test_exit_guard_violation_tree_base(tmp_path, capsys):
    path = tmp_path / "path.tree"
    path.write_text(format_tree(Tree.path_graph(288)))
    assert run(capsys, "subtrees", str(path), "--k", "2") == (
        3, "", "error: tree base too large: 4022018 elements for w=288, limit 4000000\n"
    )


@pytest.mark.parametrize("argv, w, k", [
    (("ideals", "chain3.poset", "--k", "-1"), 3, -1),
    (("ideals", "chain3.poset", "--k", "4"), 3, 4),
    (("subtrees", "path3.tree", "--k", "-1"), 3, -1),
    (("subtrees", "path3.tree", "--k", "4"), 3, 4),
])
def test_exit_k_out_of_range(files, capsys, argv, w, k):
    cmd, name, *rest = argv
    assert run(capsys, cmd, files[name], *rest) == (1, "", f"error: k must be within 0..{w}, got {k}\n")


def test_exit_guard_violation_tree_base_before_k_range(tmp_path, capsys):
    path = tmp_path / "path.tree"
    path.write_text(format_tree(Tree.path_graph(288)))
    assert run(capsys, "subtrees", str(path), "--k", "289") == (
        3, "", "error: tree base too large: 4022018 elements for w=288, limit 4000000\n"
    )


def test_exit_failed_write_to_out(tmp_path, capsys):
    missing = tmp_path / "missing" / "x"
    code, out, err = run(capsys, "gen", "tree", "--w", "5", "--seed", "1", "--out", str(missing))
    assert (code, out) == (4, "")
    assert err == f"error: [Errno 2] No such file or directory: {str(missing)!r}\n"


class FullStdout(io.StringIO):
    """A stdout whose writes, or only its flushes, fail as on a full disk."""

    def __init__(self, fail_write):
        super().__init__()
        self.fail_write = fail_write

    def write(self, s):
        if self.fail_write:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return super().write(s)

    def flush(self):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("fail_write", [True, False], ids=["write", "flush"])
def test_exit_failed_write_to_stdout(files, capsys, monkeypatch, fail_write):
    monkeypatch.setattr(sys, "stdout", FullStdout(fail_write))
    code = main(["ideals", files["chain3.poset"], "--format", "sets"])
    assert (code, capsys.readouterr().err) == (4, "error: [Errno 28] No space left on device\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
def test_full_stdout_exits_4_cold(tmp_path):
    poset = tmp_path / "antichain.poset"
    poset.write_text("poset 16\n")
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "wildrows", "ideals", str(poset), "--format", "sets"],
                              stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    assert (done.returncode, done.stderr) == (4, "error: [Errno 28] No space left on device\n")
