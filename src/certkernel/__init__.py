"""certkernel: a checking kernel for SAT/SMT refutation certificates.

The kernel replays linear certificates by dispatching each step to an
independent small checker (resolution/CNF, ground equality, linear integer
arithmetic, bit-blasting).  Small checkers are total: they return either
their conclusion clause or the trivially true clause, so corrupted
certificate material can never strengthen a derivation.  An untrusted
preprocessor linearizes nested proofs into the same format, and a
brute-force oracle gives tests an independent semantic reference.  All
text output comes from one untrusted module, ``certkernel.printer``.

Importing the package loads no submodule: each export is imported from its
module on first use (PEP 562).
"""

# Export name -> the submodule that defines it.
_EXPORTS = {name: module for module, names in {
    "errors": "CertKernelError ForwardReferenceError IncompleteModelError ParseError"
              " ResourceError SortError UnboundNameError UnsupportedError",
    "terms": "BOOL INT BitVecSort BoolSort Clause EMPTY_CLAUSE FunSym IntSort Kind Literal Sort"
             " TRIVIALLY_TRUE TermId TermStore UninterpretedSort mk_clause neg pos",
    "steps": "AssumePayload Certificate RuleKind Step",
    "resolution": "CnfPayload cnf_lemma resolve_chain",
    "euf": "EqRule EqStep EufPayload check_euf",
    "lia": "LiaPayload check_lia normalize_lia_literal",
    "bitblast": "BitBlastState BvPayload",
    "kernel": "CheckContext CheckResult Verdict check dispatch",
    "frontend": "Problem parse_dimacs parse_smt2",
    "printer": "clause_to_sexpr print_certificate print_dimacs stats_report to_sexpr",
    "preproc": "NLet NRef NStep compact linearize parse_certificate parse_nested_proof"
               " stream_certificate",
    "oracle": "Model OracleResult brute_unsat euf_lemma_valid eval_clause eval_term"
              " is_tautology propositionally_implies",
}.items() for name in names.split()}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
