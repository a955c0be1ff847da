"""The README's "Python API sketch" runs as written."""

import re
import subprocess
import sys
from pathlib import Path

from childenv import child_env

README = Path(__file__).resolve().parent.parent / "README.md"


def api_sketch() -> str:
    section = README.read_text(encoding="utf-8").split("## Python API sketch", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_api_sketch_runs(tmp_path):
    res = subprocess.run(
        [sys.executable, "-c", api_sketch()],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=child_env(),
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.count("\n") == 2
