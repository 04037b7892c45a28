"""Every narrative script under demos/, and the library tour in README,
runs to completion against the library in this checkout."""

import re
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


def test_readme_tour_runs():
    readme = (Path(SRC).parent / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    done = run_cold("-c", blocks[0])
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
