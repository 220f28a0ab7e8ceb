"""Text output: the bytes every renderer writes are pinned.

Each corpus pair's reports from ``run_one`` (plain, ``--machine`` and
``--mode stats``), its certificate as ``print_certificate`` writes it after
``parse_certificate``, its DIMACS problem as ``print_dimacs`` writes it, and
the ``--mode oracle`` report of the DIMACS problems are compared by sha256
against ``printer_pins.json``.  A few small problems pin the oracle's
model lines and its bounded status, and one nested proof pins ``--mode
translate``.  The benchmark's generated inputs are pinned by their sha256,
and so are their ``--machine`` and stats reports, one sha256 per workload.

The trusted modules hold no renderer: a guard parses them and rejects an
import of an untrusted module (``printer``, ``preproc``, ``oracle``, ``cli``)
or a definition of a rendering function, and an import of a checker module
by the problem readers in ``frontend``.  A second guard rejects a
module-level name of a trusted module that no trusted module reads and the
package does not export, a third a class member that neither a trusted
module nor the benchmark reads, and a fourth a function of the package that
calls itself by name, outside a short list.
"""

import ast
import hashlib
import json
import pathlib
import sys

import pytest

import gens
import certkernel
from certkernel import (
    Clause, parse_certificate, parse_dimacs, parse_smt2, print_certificate, print_dimacs,
)
from certkernel.cli import run_one

HERE = pathlib.Path(__file__).resolve().parent
CORPUS = HERE.parent / "corpus"
PINS = HERE / "printer_pins.json"

# Satisfiable problems whose oracle reports list a model of each value kind,
# and an unsatisfiable one over Int, whose search is bounded.
ORACLE_PROBLEMS = {
    "sat_bool.cnf": "p cnf 3 2\n1 -2 0\n2 3 0\n",
    "sat_bool.smt2": "(declare-const p Bool) (declare-const q Bool)"
                     " (assert (or p q)) (assert (not q))",
    "sat_int.smt2": "(set-logic QF_LIA) (declare-const x Int) (declare-const y Int)"
                    " (assert (< x y)) (assert (< y 0))",
    "sat_bv.smt2": "(set-logic QF_BV) (declare-const a (_ BitVec 3))"
                   " (declare-const b (_ BitVec 3))"
                   " (assert (bvult a b)) (assert (= (bvand a b) #b010))",
    "sat_uf.smt2": "(set-logic QF_UF) (declare-sort U 0) (declare-const a U) (declare-const b U)"
                   " (declare-fun f (U) U) (declare-fun p (U) Bool)"
                   " (assert (not (= a b))) (assert (p (f a)))",
    "unsat_int.smt2": "(set-logic QF_LIA) (declare-const x Int) (assert (< x 0)) (assert (> x 0))",
}

TRANSLATE_PROBLEM = """(set-logic QF_UF)
(declare-sort U 0)
(declare-const a U)
(declare-const b U)
(declare-fun f (U) U)
(assert (= a b))
(assert (not (= (f a) (f b))))
"""
TRANSLATE_PROOF = (
    "(let ((L (step euf () {(lemma (not (= a b)) (= (f a) (f b)))"
    " (just (hyp 0) (cong f 0))})))\n"
    "  (step res ((step not_not () {(not (= (f a) (f b))) 0})"
    " 1 L 0) {}))\n")


def _digest(code, text: str) -> str:
    return hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()


def _corpus_pairs():
    for cert_path in sorted(CORPUS.rglob("*.cert")):
        prob_path = cert_path.with_suffix(".cnf")
        if not prob_path.exists():
            prob_path = cert_path.with_suffix(".smt2")
        yield prob_path, cert_path


def _outputs(tmp_path):
    """(pair name, mode) -> digest of the exit code and the text."""
    out = {}
    for prob_path, cert_path in _corpus_pairs():
        name = str(cert_path.relative_to(CORPUS).with_suffix(""))
        prob, cert = str(prob_path), str(cert_path)
        out[name, "plain"] = _digest(*run_one(prob, cert, "check", None, False, False))
        out[name, "machine"] = _digest(*run_one(prob, cert, "check", None, True, False))
        out[name, "stats"] = _digest(*run_one(prob, cert, "stats", None, False, False))
        text = prob_path.read_text()
        problem = parse_dimacs(text) if prob_path.suffix == ".cnf" else parse_smt2(text)
        parsed = parse_certificate(cert_path.read_text(), problem)
        out[name, "print_certificate"] = _digest(None, print_certificate(problem.store, parsed))
        if prob_path.suffix == ".cnf":
            out[name, "print_dimacs"] = _digest(None, print_dimacs(problem))
            out[name, "oracle"] = _digest(*run_one(prob, None, "oracle", None, False, False))
    for name, text in ORACLE_PROBLEMS.items():
        path = tmp_path / name
        path.write_text(text)
        out[name, "oracle"] = _digest(*run_one(str(path), None, "oracle", None, False, False))
    prob, proof = tmp_path / "translate.smt2", tmp_path / "translate.nest"
    prob.write_text(TRANSLATE_PROBLEM)
    proof.write_text(TRANSLATE_PROOF)
    out["translate", "translate"] = _digest(
        *run_one(str(prob), str(proof), "translate", None, False, False))
    return out


def test_output_bytes_are_pinned(tmp_path):
    pins = {(entry["pair"], entry["mode"]): entry["sha256"]
            for entry in json.loads(PINS.read_text())}
    got = _outputs(tmp_path)
    assert len([key for key in got if key[1] == "plain"]) == 32
    assert set(got) == set(pins), sorted(set(got) ^ set(pins))
    for key in sorted(got):
        assert got[key] == pins[key], f"output of {key[0]} in mode {key[1]} changed"


# inputs_sha256 of each benchmark workload at seed 1.  ``perfbench`` builds
# each tree's inputs with that tree's package, so an API change that moved
# a byte would have the benchmark compare different work.
BENCH_INPUTS = {
    "res_chain": "6fc72fb8c9325e7020cf73d95f87f631b4c141761e5ba3cdbe23961ad64234af",
    "smt_lemmas": "bf50f87abfd6cd422bb95a54b2232f3c12d41a2ea5069859d15d277309d389c9",
    "bv_blast": "ab7e7939f112ed2c4fb1851aeb14f681519bf1d5bb932cc53550a0c991e0bfe6",
}


# One sha256 per benchmark workload at seed 1 over each pair's exit code and
# reports from ``run_one``, ``--machine`` and stats, in manifest order: a
# change that keeps the benchmark's inputs must keep its verdicts and
# reports byte for byte.
BENCH_REPORTS = {
    "res_chain": "a46695af59daeffcdad4fcb129f591c7f8e5185ae07cf67ac29d24dcce3adcba",
    "smt_lemmas": "f3e348c7fcc12f4e5c8b86c2b321fb8a9250f2d643892268104895dd3b485c99",
    "bv_blast": "a9ab91dae8d7fbd70b0c26628acc9d62d22ec6be9f7b0c608a3ca8f688d303db",
}


@pytest.fixture(scope="module")
def bench_manifests(tmp_path_factory):
    """Each benchmark workload's seed-1 manifest, its pairs written once."""
    gen, root = gens.benchmark_generator(), tmp_path_factory.mktemp("bench")
    return {w: gen.generate(w, 1, root / w) for w in BENCH_INPUTS}


def _reports_digest(manifest) -> str:
    digest = hashlib.sha256()
    for pair in manifest["pairs"]:
        for mode, machine in (("check", True), ("stats", False)):
            code, report = run_one(pair["problem"], pair["proof"], mode, None, machine, False)
            digest.update(f"{code}\0{report}\0".encode())
    return digest.hexdigest()


def test_benchmark_inputs_are_pinned(bench_manifests):
    got = {w: manifest["inputs_sha256"] for w, manifest in bench_manifests.items()}
    assert got == BENCH_INPUTS


def test_benchmark_reports_are_pinned(bench_manifests):
    got = {w: _reports_digest(manifest) for w, manifest in bench_manifests.items()}
    assert got == BENCH_REPORTS


TRUSTED = ("terms", "steps", "kernel", "resolution", "euf", "lia", "bitblast", "frontend")
UNTRUSTED = {"printer", "preproc", "oracle", "cli"}
# What a Clause offers beyond its tuple, for code outside the trusted base.
CLAUSE_VIEWS = ("lits", "enc", "atoms", "is_empty")
RENDERERS = {"to_sexpr", "clause_to_sexpr", "stats_report", "print_certificate",
             "print_dimacs", "_render_payload"}


def _imports(tree):
    """(certkernel modules, other top-level modules) that a module imports."""
    package, other = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if module in (".", "certkernel"):
                package |= {a.name for a in node.names}
            elif module.startswith((".", "certkernel.")):
                package.add(module.lstrip(".").removeprefix("certkernel."))
            else:
                other.add(module.split(".")[0])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                top, _, sub = alias.name.partition(".")
                if top == "certkernel":
                    package.add(sub)
                else:
                    other.add(top)
    return package, other


def test_trusted_modules_hold_no_renderer():
    """The trusted modules import no untrusted module and define no
    renderer, and the problem readers import no checker module: only
    errors, terms and the standard library."""
    src = HERE.parent / "src" / "certkernel"
    for name in TRUSTED:
        tree = ast.parse((src / f"{name}.py").read_text())
        package, other = _imports(tree)
        assert not package & UNTRUSTED, (name, package & UNTRUSTED)
        if name == "frontend":
            assert package <= {"errors", "terms"}, package
            assert other <= sys.stdlib_module_names, other
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                assert node.name not in RENDERERS, f"{name} defines {node.name}"


def _reads(tree):
    """Every name a module loads, reads as an attribute or imports by name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def _module_names(tree):
    """The names a module's top-level statements define."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def test_every_trusted_name_serves_the_trusted_base_or_the_api():
    """A module-level name of a trusted module is read by some trusted
    module or exported by the package; a table that only untrusted code
    reads belongs in that code."""
    src = HERE.parent / "src" / "certkernel"
    trees = {name: ast.parse((src / f"{name}.py").read_text()) for name in TRUSTED}
    used = {name for tree in trees.values() for name in _reads(tree)}
    used |= set(certkernel._EXPORTS)  # the package's export table
    unused = sorted((module, name) for module, tree in trees.items()
                    for name in _module_names(tree) if name not in used)
    assert unused == [], unused


def test_every_trusted_member_serves_the_trusted_base_or_the_benchmark():
    """A method or property of a class in a trusted module is read as an
    attribute by some trusted module or by the benchmark's ``perfbench``
    scripts.  A literal is its code and a clause the tuple of its codes
    everywhere in the trusted base but ``terms``: no other trusted module
    names ``Literal`` or reads a clause's views ``.lits``, ``.enc``,
    ``.atoms`` or ``.is_empty``.

    Reads are matched by attribute name alone, so a member that shares its
    name with an unrelated attribute slips through: a ``TermStore.sub``
    would pass by the ``re.sub`` that ``frontend`` reads."""
    src = HERE.parent / "src" / "certkernel"
    trees = {name: ast.parse((src / f"{name}.py").read_text()) for name in TRUSTED}
    readers = [*trees.values(), *(ast.parse(path.read_text())
                                  for path in sorted((HERE.parent / "perfbench").glob("*.py")))]
    read = {node.attr for tree in readers for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    unread = sorted((module, cls.name, fn.name) for module, tree in trees.items()
                    for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                    for fn in cls.body if isinstance(fn, ast.FunctionDef)
                    and not fn.name.startswith("__") and fn.name not in read)
    assert unread == [], unread
    views = sorted({module for module, tree in trees.items() if module != "terms"
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and node.id == "Literal"
                    or isinstance(node, ast.Attribute) and node.attr in ("Literal", *CLAUSE_VIEWS)
                    or isinstance(node, ast.ImportFrom)
                    and any(alias.name == "Literal" for alias in node.names)})
    assert views == [], views
    assert set(CLAUSE_VIEWS) == {name for name in vars(Clause) if not name.startswith("_")}


# Input would set the depth of a function that calls itself, so none does:
# the term reader keeps its open lists on a stack of frames, and the
# nested-proof reader and linearizer are walks on a stack of generators.
SELF_CALLS: set[tuple[str, str]] = set()


def test_no_function_calls_itself_by_name():
    src = HERE.parent / "src" / "certkernel"
    found = set()
    for path in sorted(src.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id == fn.name for call in ast.walk(fn)):
                found.add((path.stem, fn.name))
    assert found <= SELF_CALLS, sorted(found - SELF_CALLS)
