"""The README's "Python API sketch" runs as written, its Config block matches
the schema, and every name its Layout table gives exists in the package."""

import importlib
import re
import subprocess
import sys
from pathlib import Path

from childenv import child_env
from isingspec import cli

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = ("model", "statevec", "trotter", "edsolver", "noise", "obs", "spectro", "cli")


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


def config_block() -> dict[str, str]:
    """key -> value text of the README's Config defaults block, comments dropped."""
    section = README.read_text(encoding="utf-8").split("### Config", 1)[1]
    block = re.search(r"```ini\n(.*?)```", section, re.DOTALL).group(1)
    lines = (raw.split("#", 1)[0] for raw in block.splitlines())
    pairs = (line.partition("=") for line in lines if line.strip())
    return {key.strip(): value.strip() for key, _, value in pairs}


def test_readme_config_block_lists_the_schema_defaults():
    block = config_block()
    assert list(block) == list(cli._SCHEMA)
    for key, (parser, default) in cli._SCHEMA.items():
        if key == "sweep.g_list":  # elided as 0.25,0.3,...,0.75
            continue
        assert parser(block[key]) == default, key


def layout_names() -> set[str]:
    """Backticked snake_case names in the README "Layout" table, with the
    module a dotted one names (`trotter.forked_results`) and without a call's
    arguments (`frame_layers(..., fold_right=True)`)."""
    section = README.read_text(encoding="utf-8").split("## Layout", 1)[1].split("\n## ", 1)[0]
    found = set()
    for cell in re.findall(r"`([^`]+)`", section):
        m = re.fullmatch(r"((?:[a-z]+\.)?[a-z]+_[a-z0-9_]*)(?:\(.*\))?", cell)
        if m:
            found.add(m.group(1))
    return found


def test_readme_layout_names_exist():
    names = layout_names()
    assert "turn_weights" in names and "trotter.forked_results" in names
    modules = {m: importlib.import_module(f"isingspec.{m}") for m in MODULES}
    for name in sorted(names):
        owner, _, attr = name.rpartition(".")
        where = [modules[owner]] if owner else modules.values()
        assert any(hasattr(mod, attr) for mod in where), name
