"""Start-up: what ``import certkernel.cli`` loads, and the package exports.

A CLI process pays its start-up on every run, so the import loads only
what a check runs.  Nothing under ``src/certkernel`` imports
``dataclasses``: its import, with the ``inspect`` it pulls in, and the
methods it generates and compiles for every class cost more than the rest
of the package's set-up.  Records are named tuples or plain classes.  What
one mode or option alone needs is imported where it is used, and the
package serves its exports from one table on first use.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import certkernel

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CORPUS = ROOT / "corpus"

# Modules that a check never uses, so importing the CLI must not load them.
NOT_AT_START = ("dataclasses", "inspect", "argparse", "concurrent.futures",
                "certkernel.oracle")


def _python(*args, stdin=None):
    """A fresh interpreter without ``site``, so that only the code under
    test loads modules, with ``src`` on its path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-S", *args], capture_output=True, text=True,
                          env=env, timeout=120, input=stdin)


def test_importing_the_cli_loads_only_what_a_check_runs():
    out = _python("-c", "import sys, certkernel.cli; "
                        f"print([m for m in {NOT_AT_START!r} if m in sys.modules])")
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


def test_no_module_imports_dataclasses():
    found = []
    for path in sorted((SRC / "certkernel").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [(path.name, n) for n in names if n.split(".")[0] == "dataclasses"]
    assert found == []


def test_help_oracle_and_jobs_work_through_main():
    """The options whose modules load on demand, each in a fresh process."""
    out = _python("-m", "certkernel.cli", "--help")
    assert out.returncode == 0 and "--mode" in out.stdout, out.stderr
    out = _python("-m", "certkernel.cli", "--mode", "oracle", "--format", "dimacs",
                  "--problem", "-", stdin="p cnf 1 2\n1 0\n-1 0\n")
    assert (out.returncode, out.stdout, out.stderr) == (0, "status unsat\n", "")
    pairs = [CORPUS / "quf" / name for name in ("cong1", "chain4")]
    args = [arg for p in pairs for arg in ("--problem", f"{p}.smt2", "--proof", f"{p}.cert")]
    out = _python("-m", "certkernel.cli", "--jobs", "2", *args)
    assert out.returncode == 0, out.stderr
    assert out.stdout.count(": VALID") == 2, out.stdout


def test_every_export_is_its_module_object():
    for name, module in certkernel._EXPORTS.items():
        assert getattr(certkernel, name) is \
            getattr(importlib.import_module(f"certkernel.{module}"), name), name


def test_star_import_and_dir_list_every_export():
    namespace: dict = {}
    exec("from certkernel import *", namespace)
    assert set(certkernel._EXPORTS) <= set(namespace)
    assert sorted(certkernel.__all__) == sorted(certkernel._EXPORTS)
    assert set(certkernel._EXPORTS) <= set(dir(certkernel))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(certkernel, "no_such_name")
    with pytest.raises(ImportError):
        exec("from certkernel import no_such_name", {})


def _gen_imports() -> list[str]:
    """The names ``perfbench/gen.py`` imports from the package."""
    tree = ast.parse((ROOT / "perfbench" / "gen.py").read_text())
    return [alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            and node.module == "certkernel" for alias in node.names]


@pytest.mark.parametrize("statement", [
    # perfbench/child.py, after it imported the CLI, and on its own
    "import certkernel.cli; from certkernel import TRIVIALLY_TRUE, TermStore, kernel",
    "from certkernel import TRIVIALLY_TRUE, TermStore, kernel",
    f"from certkernel import {', '.join(_gen_imports())}",
])
def test_benchmark_imports_work_in_a_fresh_process(statement):
    out = _python("-c", statement)
    assert out.returncode == 0, out.stderr
