"""The README's examples run: each `tljhecke ...` line of its "Command line"
block exits 0 through `python -m tljhecke`, and its "Library quick start"
block executes.  No other test reads the README, so without this one a
command or option it shows could change without any failure.  The command
block takes about 2 s, most of it trace-table up to r = 13.
"""
import os
import shlex
import subprocess
import sys

import pytest

import tljhecke

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the sample graph file of the CI job: a 2 x 2 intersection matrix and the
# two multiplicity lines
GRAPH = "2 2\n1 0\n1 1\n1 1\n1 1\n"


def _block(heading: str, fence: str) -> list[str]:
    """The lines of the first fenced block opened by fence under heading."""
    with open(os.path.join(ROOT, "README.md")) as f:
        lines = f.read().splitlines()
    start = lines.index(fence, lines.index(heading)) + 1
    return lines[start:lines.index("```", start)]


# the arguments of each command line, its trailing comment dropped
COMMANDS = [shlex.split(line, comments=True)[1:]
            for line in _block("## Command line", "```sh") if line.startswith("tljhecke ")]


def test_the_command_block_is_found():
    assert len(COMMANDS) >= 10


@pytest.mark.parametrize("args", COMMANDS, ids=" ".join)
def test_readme_command_runs(args, tmp_path):
    (tmp_path / "graph.txt").write_text(GRAPH)
    src = os.path.dirname(os.path.dirname(tljhecke.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-m", "tljhecke", *args], cwd=tmp_path,
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr


def test_readme_quick_start_runs(capsys):
    code = "\n".join(_block("## Library quick start", "```python"))
    exec(compile(code, "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert "[pass]" in out and "[FAIL]" not in out
