"""The pivot recursion on a chain goes w levels deep; it runs on an explicit
stack, so a long chain must neither hit the interpreter's recursion limit
nor end a CLI call with a traceback."""

import sys

import pytest
from test_cli import run_cold

from wildrows import Poset, rank_poly_recursive

W = 1500


def test_long_chain_in_process():
    assert W > sys.getrecursionlimit()
    poly, nsum = rank_poly_recursive(Poset.chain(W))
    assert poly.coefficients == (1,) * (W + 1)
    assert nsum == W
    assert rank_poly_recursive(Poset.chain(W), memo=True) == (poly, None)


@pytest.mark.parametrize("method", ["recursive", "both"])
def test_long_chain_cold_cli(tmp_path, method):
    f = tmp_path / "chain.poset"
    f.write_text(f"poset {W}\n" + "".join(f"{i} {i + 1}\n" for i in range(1, W)))
    done = run_cold("-m", "wildrows", "whitney", str(f), "--method", method)
    assert done.returncode == 0
    assert "Traceback" not in done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == " ".join(["1"] * (W + 1))
    if method == "both":
        assert lines[1:] == ["agree", f"R=501 nsum={W}"]
