"""Every demo and every Python block of the README runs to completion
without a warning from the package."""

import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                           re.S | re.M)


@pytest.mark.parametrize("name", [
    "hom_interference",
    "nonclassicality_scan",
    "phase_space_reconstruction",
    "squeezed_light_clicks",
])
def test_demo_runs_clean(tmp_path, name):
    # the demos write their CSV files to the working directory
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Warning" not in proc.stderr, proc.stderr


def test_readme_has_python_blocks():
    assert len(README_BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(README_BLOCKS)))
def test_readme_python_block_runs(index):
    code = compile(README_BLOCKS[index], f"README.md python block {index}", "exec")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(code, {"__name__": "__readme__"})  # a fresh namespace per block
