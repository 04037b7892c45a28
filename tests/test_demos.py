"""Every narrative script under demos/ runs to completion against the
library in this checkout."""

from pathlib import Path

import pytest
from test_cli import SRC, run_cold

DEMOS = sorted((Path(SRC).parent / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    done = run_cold(str(demo))
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
