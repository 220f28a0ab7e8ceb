"""Brute-force semantic evaluation for tests and acceptance suites.

Everything here realizes the interpretation of terms at finite scale:
explicit models, exhaustive satisfiability search, propositional
tautology/implication checks, and finite-model validity for equational
lemmas.  It shares no checking code with the checker modules, only the term
core and the printer, and is allowed to be exponential.

One evaluator serves every search: ``_eval`` walks ``store.postorder``
bottom-up over a memo seeded with the values the search fixes (a model's
variables, an assignment of abstract atoms, or of domain elements), so any
depth is evaluated and no evaluator refers to itself.  A missing function
entry is requested in ascending id order of its application.

Verdict caveats, by construction of the budgets:

* ``brute_unsat`` enumerates Int variables over a finite box and
  uninterpreted domains up to a cap, so an ``unsat`` verdict means "no
  model within the budgeted space".  The result's ``complete`` flag is
  True only when that space provably covers all models (no Int variables,
  and every uninterpreted domain swept up to the distinct-subterm bound).
  ``sat`` verdicts always come with a checkable witness.
* ``euf_lemma_valid`` checks validity in all interpretations up to a domain
  size, which refutes invalid lemmas but cannot certify validity.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field

from .errors import IncompleteModelError, ResourceError
from .printer import to_sexpr
from .terms import (
    BOOL, INT, BOOL_STRUCTURE, BitVecSort, Clause, FunSym, Kind, Sort,
    TermId, TermStore, UninterpretedSort,
)

# A value is bool (Bool), int (Int or an uninterpreted domain element),
# or a tuple of bools LSB-first (bit-vectors).
Value = object

UNSAT = "unsat"
SAT = "sat"
EXHAUSTED = "exhausted"

DEFAULT_INT_BOX = (-10, 10)
DEFAULT_MAX_DOMAIN = 4
DEFAULT_BUDGET = 2_000_000


@dataclass
class Model:
    """A finite interpretation of the free symbols of some terms."""

    bool_vals: dict[TermId, bool] = field(default_factory=dict)
    int_vals: dict[TermId, int] = field(default_factory=dict)
    bv_vals: dict[TermId, tuple[bool, ...]] = field(default_factory=dict)
    elem_vals: dict[TermId, int] = field(default_factory=dict)
    # FunSym -> (explicit entries keyed by argument-value tuple, default)
    fun_tables: dict[FunSym, tuple[dict[tuple, Value], Value | None]] = field(default_factory=dict)
    domains: dict[UninterpretedSort, int] = field(default_factory=dict)

    def fun_value(self, fn: FunSym, args: tuple) -> Value:
        if fn not in self.fun_tables:
            raise IncompleteModelError(fn.name)
        entries, default = self.fun_tables[fn]
        if args in entries:
            return entries[args]
        if default is None:
            raise IncompleteModelError(f"{fn.name}{args}")
        return default

    def set_var(self, store: TermStore, t: TermId, value: Value) -> None:
        sort = store.sort_of(t)
        if sort == BOOL:
            self.bool_vals[t] = value
        elif sort == INT:
            self.int_vals[t] = value
        elif isinstance(sort, BitVecSort):
            self.bv_vals[t] = tuple(value)
        else:
            self.elem_vals[t] = value


def bits_to_int(bits: tuple[bool, ...]) -> int:
    return sum(1 << i for i, b in enumerate(bits) if b)


def int_to_bits(value: int, width: int) -> tuple[bool, ...]:
    return tuple(bool((value >> i) & 1) for i in range(width))


# Kind -> the value of a node of that kind from its argument values.
_SEMANTICS = {
    Kind.TRUE: lambda: True, Kind.FALSE: lambda: False,
    Kind.NOT: operator.not_, Kind.AND: lambda *args: all(args),
    Kind.OR: lambda *args: any(args), Kind.IMPLIES: lambda a, b: (not a) or b,
    Kind.XOR: operator.ne, Kind.IFF: operator.eq, Kind.EQ: operator.eq,
    Kind.ITE: lambda c, a, b: a if c else b,
    Kind.LE: operator.le, Kind.LT: operator.lt, Kind.ADD: lambda *args: sum(args),
    Kind.SUB: operator.sub, Kind.NEG: operator.neg, Kind.MUL: operator.mul,
    Kind.BV_NOT: lambda a: tuple(not x for x in a),
    Kind.BV_AND: lambda a, b: tuple(x and y for x, y in zip(a, b)),
    Kind.BV_OR: lambda a, b: tuple(x or y for x, y in zip(a, b)),
    Kind.BV_XOR: lambda a, b: tuple(x != y for x, y in zip(a, b)),
    Kind.BV_ADD: lambda a, b: int_to_bits(bits_to_int(a) + bits_to_int(b), len(a)),
    Kind.BV_ULT: lambda a, b: bits_to_int(a) < bits_to_int(b),
}


def _eval(store: TermStore, t: TermId, memo: dict, lookup_fun) -> Value:
    """The value of t, in one bottom-up pass over its nodes not in memo.

    memo maps ids to values: the caller seeds it with the value of every
    variable, and it gains every node evaluated.  A variable not in memo is
    an IncompleteModelError, a constant is its own value, an application is
    ``lookup_fun(function symbol, argument values)``, and any other node
    follows _SEMANTICS.
    """
    for u in store.postorder((t,), memo):
        node = store.node(u)
        kind = node.kind
        if kind is Kind.VAR:
            raise IncompleteModelError(node.extra[0])
        args = tuple(map(memo.__getitem__, node.args))
        if kind is Kind.APPLY:
            memo[u] = lookup_fun(node.extra, args)
        elif kind is Kind.INT_CONST or kind is Kind.BV_CONST:
            memo[u] = node.extra
        else:
            memo[u] = _SEMANTICS[kind](*args)
    return memo[t]


def _holds(store: TermStore, clause: Clause, memo: dict, lookup_fun) -> bool:
    """True iff some literal evaluates to its polarity; empty clause is false."""
    return any(bool(_eval(store, code >> 1, memo, lookup_fun)) == ((code & 1) == 0)
               for code in clause.enc)


def _model_memo(model: Model, memo: dict | None) -> dict:
    """memo, seeded with the model's variables if it is new or empty."""
    if not memo:
        memo = {} if memo is None else memo
        for table in (model.elem_vals, model.bv_vals, model.int_vals, model.bool_vals):
            memo.update(table)
    return memo


def eval_term(store: TermStore, model: Model, t: TermId, memo: dict | None = None) -> Value:
    """Evaluate a term under a model; standard semantics per node kind.

    Bit-vector addition is modular at its width, bvult is the unsigned
    order.  Raises IncompleteModelError when the model misses a symbol.
    A memo passed in is kept for later calls with the same model.
    """
    return _eval(store, t, _model_memo(model, memo), model.fun_value)


def eval_clause(store: TermStore, model: Model, clause: Clause, memo: dict | None = None) -> bool:
    """True iff some literal evaluates to its polarity; empty clause is false."""
    return _holds(store, clause, _model_memo(model, memo), model.fun_value)


# ---------------------------------------------------------------------------
# Propositional skeleton checks (theory atoms treated as free)
# ---------------------------------------------------------------------------

def abstract_atoms(store: TermStore, roots) -> tuple[TermId, ...]:
    """Bool-sorted subterms that the propositional rules cannot decompose.

    Walks the Boolean structure from each root; any Bool term whose head is
    not a connective (variables, applications, equalities, comparisons)
    counts as one opaque atom.
    """
    seen: set[TermId] = set()
    atoms: set[TermId] = set()
    stack = list(roots)
    while stack:
        t = stack.pop()
        if t in seen:
            continue
        seen.add(t)
        node = store.node(t)
        if node.kind not in BOOL_STRUCTURE \
                or (node.kind is Kind.ITE and store.sort_of(t) != BOOL):
            atoms.add(t)
        else:  # a connective; TRUE and FALSE have no arguments
            stack.extend(node.args)
    return tuple(sorted(atoms))


def _unassigned(fn: FunSym, args: tuple) -> Value:
    raise IncompleteModelError(fn.name)


def _eval_skeleton(store: TermStore, t: TermId, assign: dict[TermId, bool], memo: dict) -> bool:
    """The value of t when its abstract atoms take their values in assign.
    memo starts empty and is kept for later calls with the same assign."""
    if not memo:
        memo.update(assign)
    return _eval(store, t, memo, _unassigned)


def is_tautology(store: TermStore, clause: Clause, max_atoms: int = 20) -> bool:
    """Truth-table check over the clause's abstract atoms; exhaustive."""
    atoms = abstract_atoms(store, clause.atoms())
    if len(atoms) > max_atoms:
        raise ResourceError(f"{len(atoms)} atoms exceed the {max_atoms}-atom budget")
    for values in itertools.product((False, True), repeat=len(atoms)):
        if not _holds(store, clause, dict(zip(atoms, values)), _unassigned):
            return False
    return True


def propositionally_implies(store: TermStore, premises, conclusion: Clause,
                            max_atoms: int = 20) -> bool:
    """Every atom assignment satisfying all premises satisfies the conclusion."""
    roots = list(conclusion.atoms())
    for p in premises:
        roots.extend(p.atoms())
    atoms = abstract_atoms(store, roots)
    if len(atoms) > max_atoms:
        raise ResourceError(f"{len(atoms)} atoms exceed the {max_atoms}-atom budget")
    for values in itertools.product((False, True), repeat=len(atoms)):
        memo = dict(zip(atoms, values))
        if all(_holds(store, p, memo, _unassigned) for p in premises) \
                and not _holds(store, conclusion, memo, _unassigned):
            return False
    return True


# ---------------------------------------------------------------------------
# Exhaustive model search
# ---------------------------------------------------------------------------

class _NeedValue(Exception):
    def __init__(self, key, choices):
        self.key = key
        self.choices = choices


@dataclass(frozen=True)
class OracleResult:
    status: str                  # "unsat" | "sat" | "exhausted"
    witness: Model | None = None
    complete: bool = True


def _collect_symbols(store: TermStore, clauses):
    bool_vars: set[TermId] = set()
    int_vars: set[TermId] = set()
    bv_vars: set[TermId] = set()
    elem_vars: dict[UninterpretedSort, set[TermId]] = {}
    funs: set[FunSym] = set()
    u_terms: dict[UninterpretedSort, set[TermId]] = {}
    for t in store.postorder(atom for clause in clauses for atom in clause.atoms()):
        node = store.node(t)
        sort = node.sort
        if isinstance(sort, UninterpretedSort):
            u_terms.setdefault(sort, set()).add(t)
        if node.kind is Kind.VAR:
            if sort == BOOL:
                bool_vars.add(t)
            elif sort == INT:
                int_vars.add(t)
            elif isinstance(sort, BitVecSort):
                bv_vars.add(t)
            else:
                elem_vars.setdefault(sort, set()).add(t)
        elif node.kind is Kind.APPLY:
            funs.add(node.extra)
    return bool_vars, int_vars, bv_vars, elem_vars, funs, u_terms


def _sort_values(sort: Sort, int_box: tuple[int, int], domains: dict) -> list:
    if sort == BOOL:
        return [False, True]
    if sort == INT:
        lo, hi = int_box
        return list(range(lo, hi + 1))
    if isinstance(sort, BitVecSort):
        return [int_to_bits(v, sort.width) for v in range(1 << sort.width)]
    return list(range(domains[sort]))


def _search_completions(evaluate, tables: dict, counter: list, budget: int):
    """Depth-first resolution of missing function entries.

    ``evaluate`` must be a pure function of ``tables``; yields one result per
    complete extension.  ``counter`` counts evaluations against the budget.
    """
    try:
        result = evaluate(tables)
    except _NeedValue as nv:
        for v in nv.choices:
            tables[nv.key] = v
            yield from _search_completions(evaluate, tables, counter, budget)
        del tables[nv.key]
        return
    counter[0] += 1
    if counter[0] > budget:
        raise ResourceError("oracle evaluation budget exceeded")
    yield result, dict(tables)


def brute_unsat(store: TermStore, clauses, int_box: tuple[int, int] = DEFAULT_INT_BOX,
                max_domain: int = DEFAULT_MAX_DOMAIN,
                budget: int = DEFAULT_BUDGET) -> OracleResult:
    """Exhaustively search for a model of the clause set.

    Returns sat with a witness model, unsat when every budgeted assignment
    was visited without finding one, or exhausted when the budget would be
    exceeded.  Uninterpreted functions are enumerated lazily over the
    argument tuples actually reached, which keeps UF/LIA combinations
    tractable at desk scale.
    """
    clauses = list(clauses)
    bool_vars, int_vars, bv_vars, elem_vars, funs, u_terms = _collect_symbols(store, clauses)

    u_sorts = sorted(set(elem_vars) | set(u_terms), key=lambda s: s.name)
    # A quantifier-free set is satisfiable iff it has a model no larger than
    # its distinct term count per sort, so sweeping up to that bound is a
    # complete search for those sorts.
    needed = {s: max(1, len(u_terms.get(s, ()))) for s in u_sorts}
    sweeps = {s: min(needed[s], max_domain) for s in u_sorts}
    complete = all(sweeps[s] >= needed[s] for s in u_sorts) and not int_vars

    var_order = sorted(bool_vars) + sorted(int_vars) + sorted(bv_vars) \
        + [v for s in u_sorts for v in sorted(elem_vars.get(s, ()))]

    counter = [0]
    domain_choices = [range(1, sweeps[s] + 1) for s in u_sorts]
    for sizes in itertools.product(*domain_choices):
        domains = dict(zip(u_sorts, sizes))
        value_lists = [_sort_values(store.sort_of(v), int_box, domains) for v in var_order]
        est = 1
        for vl in value_lists:
            est *= len(vl)
            if est > budget:
                return OracleResult(EXHAUSTED)
        for values in itertools.product(*value_lists):
            assign = dict(zip(var_order, values))

            def evaluate(tables, _assign=assign, _domains=domains):
                def lookup_fun(fn: FunSym, args: tuple):
                    key = (fn, args)
                    if key not in tables:
                        raise _NeedValue(key, _sort_values(fn.ret_sort, int_box, _domains))
                    return tables[key]

                memo = dict(_assign)
                return all(_holds(store, clause, memo, lookup_fun) for clause in clauses)

            try:
                for ok, tables in _search_completions(evaluate, {}, counter, budget):
                    if ok:
                        witness = Model(domains=dict(domains))
                        for v, val in assign.items():
                            witness.set_var(store, v, val)
                        grouped: dict[FunSym, dict] = {fn: {} for fn in funs}
                        for (fn, fargs), val in tables.items():
                            grouped.setdefault(fn, {})[fargs] = val
                        for fn, entries in grouped.items():
                            default = _sort_values(fn.ret_sort, int_box, domains)[0]
                            witness.fun_tables[fn] = (entries, default)
                        return OracleResult(SAT, witness=witness)
            except ResourceError:
                return OracleResult(EXHAUSTED)
    return OracleResult(UNSAT, complete=complete)


# ---------------------------------------------------------------------------
# Finite-model validity for equational lemmas
# ---------------------------------------------------------------------------

def euf_lemma_valid(store: TermStore, lemma: Clause, max_domain: int = 3,
                    budget: int = DEFAULT_BUDGET) -> bool:
    """Validity of an equality lemma in all interpretations up to a size.

    Every sort in the lemma (Int included) is treated as an abstract finite
    domain; integer constants become free constants of that domain.  True
    means no falsifying interpretation with domains of size 1..max_domain
    exists, which is sound for refuting bad lemmas but cannot certify
    validity.  Raises ResourceError past the evaluation budget.
    """
    for atom in lemma.atoms():
        if store.kind(atom) is not Kind.EQ:
            raise ResourceError(f"lemma atom {to_sexpr(store, atom)} is not an equality")
    # Variables and integer constants are both abstract domain elements
    # here; only applications compute.
    order = []
    for t in store.postorder(side for atom in lemma.atoms() for side in store.args(atom)):
        kind = store.kind(t)
        if kind is Kind.VAR or kind is Kind.INT_CONST:
            order.append(t)
        elif kind is not Kind.APPLY:
            raise ResourceError(f"unsupported term in equality lemma: {to_sexpr(store, t)}")
    counter = [0]
    for d in range(1, max_domain + 1):
        values = list(range(d))
        for assignment in itertools.product(values, repeat=len(order)):
            assign = dict(zip(order, assignment))

            def evaluate(tables, _assign=assign, _values=values):
                def lookup_fun(fn: FunSym, args: tuple):
                    key = (fn, args)
                    if key not in tables:
                        raise _NeedValue(key, _values)
                    return tables[key]

                return _holds(store, lemma, dict(_assign), lookup_fun)

            for ok, _tables in _search_completions(evaluate, {}, counter, budget):
                if not ok:
                    return False
    return True
