"""Mutation check: each catalogued fault must fail the tests written for it.

    python3 mutcheck/run.py

Every mutant of ``catalogue.MUTANTS`` is applied in turn to one temporary
copy of ``src/`` and ``tests/`` (the rest of the repository is linked in),
and only its own tests run on it, with ``pytest -x``.  A mutant is killed
when pytest reports a failed test; it survives when its tests pass.  Before
any mutant, the tests of all mutants run once on the unchanged copy
and must pass.  One line per mutant; the exit status is 1 if a mutant
survives, its text does not occur exactly once, or pytest ends otherwise
(a collection error, say), and 0 when every mutant is killed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from catalogue import MUTANTS  # the script's directory is first on sys.path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests")
LINKED = ("corpus", "demos", "perfbench", "README.md", "pyproject.toml")


def _pytest(tree: Path, tests) -> int:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutcheck-") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            shutil.copytree(ROOT / name, tree / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        for name in LINKED:
            (tree / name).symlink_to(ROOT / name)
        code = _pytest(tree, sorted({t for m in MUTANTS for t in m.tests}))
        if code != 0:
            print(f"the tests fail on the unchanged sources (pytest exit {code})")
            return 1
        survivors = 0
        for m in MUTANTS:
            path, start = tree / m.file, time.monotonic()
            text = path.read_text()
            if text.count(m.old) != 1:
                outcome = f"ERROR: the text occurs {text.count(m.old)} times"
            else:
                path.write_text(text.replace(m.old, m.new))
                code = _pytest(tree, m.tests)
                path.write_text(text)
                outcome = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR: pytest exit {code}")
            survivors += outcome != "killed"
            print(f"{m.name:<36} {outcome} ({time.monotonic() - start:.1f} s)", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
