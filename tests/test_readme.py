"""The README's Python examples run as written, from the repository root."""

import contextlib
import io
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)


def run_block(source, monkeypatch):
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, "README.md", "exec"), {"__name__": "__readme__"})
    return out.getvalue()


def test_every_python_block_runs(monkeypatch):
    assert BLOCKS
    for source in BLOCKS:
        run_block(source, monkeypatch)


def test_library_use_prints_the_updated_marginal(monkeypatch):
    section = README.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    (library_use,) = re.findall(r"^```python\n(.*?)^```", section, re.M | re.S)
    assert run_block(library_use, monkeypatch) == "(0, 1)\n"
