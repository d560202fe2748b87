"""README's library quick tour runs as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

import edmkit

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_runs(tmp_path):
    text = README.read_text(encoding="utf-8")
    tour = re.search(r"## Library quick tour\s+```python\n(.*?)```", text, re.S).group(1)
    # the tour runs on the edmkit these tests import, installed or not, and
    # from a directory that is not the checkout
    package_root = str(Path(edmkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (package_root, os.environ.get("PYTHONPATH"))))}
    completed = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", tour],
                               capture_output=True, text=True, env=env, cwd=tmp_path)
    assert completed.returncode == 0, completed.stderr
