"""certkernel: a checking kernel for SAT/SMT refutation certificates.

The kernel replays linear certificates by dispatching each step to an
independent small checker (resolution/CNF, ground equality, linear integer
arithmetic, bit-blasting).  Small checkers are total: they return either
their conclusion clause or the trivially true clause, so corrupted
certificate material can never strengthen a derivation.  An untrusted
preprocessor linearizes nested proofs into the same format, and a
brute-force oracle gives tests an independent semantic reference.  All
text output comes from one untrusted module, ``certkernel.printer``.
"""

from .errors import (
    CertKernelError, ForwardReferenceError, IncompleteModelError, ParseError,
    RejectError, ResourceError, SortError, UnboundNameError, UnsupportedError,
)
from .terms import (
    BOOL, INT, BitVecSort, BoolSort, Clause, EMPTY_CLAUSE, FunSym, IntSort,
    Kind, Literal, Sort, TRIVIALLY_TRUE, TermId, TermStore, UninterpretedSort,
    mk_clause, neg, pos,
)
from .steps import AssumePayload, Certificate, RuleKind, Step
from .resolution import CnfPayload, cnf_lemma, resolve_chain, resolve_pair
from .euf import EqRule, EqStep, EufPayload, check_euf
from .lia import LiaPayload, LinAtom, LinRel, check_lia, normalize_lia_literal
from .bitblast import BitBlastState, BvPayload
from .kernel import CheckContext, CheckResult, Verdict, check, dispatch
from .frontend import Problem, parse_dimacs, parse_smt2
from .printer import (
    clause_to_sexpr, print_certificate, print_dimacs, stats_report, to_sexpr,
)
from .preproc import (
    NLet, NRef, NStep, TrustReport, compact, extract_trust, linearize,
    parse_certificate, parse_nested_proof,
)
from .oracle import (
    Model, OracleResult, brute_unsat, euf_lemma_valid, eval_clause, eval_term,
    is_tautology, propositionally_implies,
)

__version__ = "0.1.0"
