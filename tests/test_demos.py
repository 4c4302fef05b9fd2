"""Every demo script runs against the library and exits 0."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_script_exits_zero(script, tmp_path):
    # run a copy, so the demos' out/ directory lands in tmp_path
    demos = shutil.copytree(ROOT / "demos", tmp_path / "demos",
                            ignore=shutil.ignore_patterns("out"))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, str(demos / script.name)], cwd=tmp_path,
                            env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
