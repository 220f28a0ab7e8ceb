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

One search answers every question: ``_search`` finds the first assignment
of some leaves, with the function entries evaluation reached, under which
every clause of a list holds.  The leaves take their values in
``itertools.product`` order and the entries are filled depth-first from an
explicit stack, so no search path, however long, recurses.
``brute_unsat`` searches the input clauses; ``euf_lemma_valid`` and
``propositionally_implies`` search the premises plus the negated conclusion
as unit clauses, and ``is_tautology`` is the implication from no premises.
A model found is one ``Model.values`` table from variable ids to values.

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

import functools
import itertools
import math
import operator
from typing import NamedTuple

from .errors import IncompleteModelError, ResourceError
from .printer import to_sexpr
from .terms import (
    BOOL, INT, BitVecSort, Clause, FunSym, Kind, Sort,
    TermId, TermStore, UninterpretedSort, class_eq,
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


class Model:
    """A finite interpretation of the free symbols of some terms."""

    def __init__(self, values=None, fun_tables=None, domains=None):
        # term id -> value: every variable, and any other term taken as given
        self.values: dict[TermId, Value] = {} if values is None else values
        # FunSym -> (explicit entries keyed by argument-value tuple, default)
        self.fun_tables: dict[FunSym, tuple[dict[tuple, Value], Value | None]] = (
            {} if fun_tables is None else fun_tables)
        self.domains: dict[UninterpretedSort, int] = {} if domains is None else domains

    def fun_value(self, fn: FunSym, args: tuple) -> Value:
        if fn not in self.fun_tables:
            raise IncompleteModelError(fn.name)
        entries, default = self.fun_tables[fn]
        if args in entries:
            return entries[args]
        if default is None:
            raise IncompleteModelError(f"{fn.name}{args}")
        return default


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
               for code in clause)


def _model_memo(model: Model, memo: dict | None) -> dict:
    """memo, seeded with the model's variables if it is new or empty."""
    if not memo:
        memo = {} if memo is None else memo
        memo.update(model.values)
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
# One model search
# ---------------------------------------------------------------------------

class _Missing(Exception):
    """Evaluation reached a function entry that the search has not filled."""


def _search(store: TermStore, clauses, leaves, values_of, counter: list, budget):
    """The first (assignment, entries) under which every clause holds, or None.

    ``values_of(sort)`` gives the values a leaf or a function result of that
    sort may take, in a new iterable on each call, which may be lazy.  The
    clauses are evaluated in order, each with the usual short-circuit.  An
    entry that evaluation reaches unfilled goes on the stack with its values
    not yet tried and takes the first; after a failing evaluation the top
    entry takes its next value, or leaves the stack when it has none.  Every
    complete evaluation adds one to ``counter[0]``, which searches may
    share, and every bit-vector value an entry takes adds its width, since
    building and evaluating it costs a step per bit; the evaluation that
    ends past ``budget`` raises ResourceError.
    """
    entries: dict[tuple[FunSym, tuple], Value] = {}

    def lookup(fn: FunSym, args: tuple) -> Value:
        if (fn, args) not in entries:
            raise _Missing((fn, args))
        return entries[fn, args]

    for values in itertools.product(*(values_of(store.sort_of(t)) for t in leaves)):
        assign = dict(zip(leaves, values))
        stack: list = []  # (entry, iterator over its values not yet tried)
        while True:
            memo = dict(assign)
            try:
                holds = all(_holds(store, clause, memo, lookup) for clause in clauses)
            except _Missing as missing:
                key = missing.args[0]
                stack.append((key, iter(values_of(key[0].ret_sort))))
            else:
                counter[0] += 1
                if counter[0] > budget:
                    raise ResourceError("oracle evaluation budget exceeded")
                if holds:
                    return assign, entries
            while stack:
                key, untried = stack[-1]
                value = next(untried, None)  # no value is None
                if value is not None:
                    entries[key] = value
                    if isinstance(value, tuple):  # a bit-vector
                        counter[0] += len(value)
                    break
                entries.pop(key, None)
                stack.pop()
            else:
                break  # no completion of this assignment holds
    return None


# ---------------------------------------------------------------------------
# Propositional skeleton checks (theory atoms treated as free)
# ---------------------------------------------------------------------------

# Kinds whose Bool structure the propositional rules can decompose; any other
# Bool-sorted node acts as an opaque atom for truth-table purposes.
BOOL_STRUCTURE = frozenset({
    Kind.TRUE, Kind.FALSE, Kind.NOT, Kind.AND, Kind.OR,
    Kind.IMPLIES, Kind.XOR, Kind.IFF, Kind.ITE,
})


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


def is_tautology(store: TermStore, clause: Clause, max_atoms: int = 20) -> bool:
    """Truth-table check over the clause's abstract atoms; exhaustive."""
    return propositionally_implies(store, (), clause, max_atoms)


def propositionally_implies(store: TermStore, premises, conclusion: Clause,
                            max_atoms: int = 20) -> bool:
    """Every atom assignment satisfying all premises satisfies the conclusion."""
    clauses = [*premises, *(Clause((code ^ 1,)) for code in conclusion)]
    atoms = abstract_atoms(store, [code >> 1 for clause in clauses for code in clause])
    if len(atoms) > max_atoms:
        raise ResourceError(f"{len(atoms)} atoms exceed the {max_atoms}-atom budget")
    return _search(store, clauses, atoms, lambda sort: (False, True), [0], math.inf) is None


# ---------------------------------------------------------------------------
# Exhaustive model search
# ---------------------------------------------------------------------------

@class_eq
class OracleResult(NamedTuple):
    status: str                  # "unsat" | "sat" | "exhausted"
    witness: Model | None = None
    complete: bool = True


def _collect_symbols(store: TermStore, clauses):
    """The clauses' variables in search order (Bool, Int, bit-vector, then
    each uninterpreted sort by name; by id within a sort), their function
    symbols, and the number of distinct terms of each uninterpreted sort."""
    variables: list[TermId] = []
    funs: set[FunSym] = set()
    u_terms: dict[UninterpretedSort, int] = {}
    for t in store.postorder(code >> 1 for clause in clauses for code in clause):
        node, sort = store.node(t), store.sort_of(t)
        if isinstance(sort, UninterpretedSort):
            u_terms[sort] = u_terms.get(sort, 0) + 1
        if node.kind is Kind.VAR:
            variables.append(t)
        elif node.kind is Kind.APPLY:
            funs.add(node.extra)

    def rank(v: TermId):
        sort = store.sort_of(v)
        return ((0, "") if sort == BOOL else (1, "") if sort == INT
                else (2, "") if isinstance(sort, BitVecSort) else (3, sort.name))

    variables.sort(key=rank)  # stable: ids stay ascending within a sort
    return variables, funs, u_terms


def _sort_values(int_box: tuple[int, int], domains: dict, sort: Sort):
    """The values of a sort in search order; a bit-vector's are made lazily."""
    if sort == BOOL:
        return (False, True)
    if sort == INT:
        return range(int_box[0], int_box[1] + 1)
    if isinstance(sort, BitVecSort):
        return map(int_to_bits, range(1 << sort.width), itertools.repeat(sort.width))
    return range(domains[sort])


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
    variables, funs, u_terms = _collect_symbols(store, clauses)
    u_sorts = sorted(u_terms, key=lambda s: s.name)
    # A quantifier-free set is satisfiable iff it has a model no larger than
    # its distinct term count per sort, so sweeping up to that bound is a
    # complete search for those sorts.
    complete = all(n <= max_domain for n in u_terms.values()) \
        and INT not in map(store.sort_of, variables)
    # One value of a bit-vector sort costs a step per bit (see _search), so a
    # function into one wider than the budget would exhaust it on its first
    # value, which for 10^20 bits could not even be built.
    if any(isinstance(fn.ret_sort, BitVecSort) and fn.ret_sort.width > budget for fn in funs):
        return OracleResult(EXHAUSTED)
    counter = [0]
    for sizes in itertools.product(*(range(1, min(u_terms[s], max_domain) + 1)
                                     for s in u_sorts)):
        domains = dict(zip(u_sorts, sizes))
        values_of = functools.partial(_sort_values, int_box, domains)
        # A width of budget.bit_length() alone is past the budget; 1 << 10**20 is never built.
        if math.prod(1 << min(sort.width, budget.bit_length()) if isinstance(sort, BitVecSort)
                     else len(values_of(sort)) for sort in map(store.sort_of, variables)) > budget:
            return OracleResult(EXHAUSTED)
        try:
            found = _search(store, clauses, variables, values_of, counter, budget)
        except ResourceError:
            return OracleResult(EXHAUSTED)
        if found is not None:
            assign, entries = found
            tables = {fn: ({}, next(iter(values_of(fn.ret_sort)))) for fn in funs}
            for (fn, args), value in entries.items():
                tables[fn][0][args] = value
            return OracleResult(SAT, witness=Model(assign, tables, domains))
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
    atoms = [code >> 1 for code in lemma]
    for atom in atoms:
        if store.kind(atom) is not Kind.EQ:
            raise ResourceError(f"lemma atom {to_sexpr(store, atom)} is not an equality")
    # Variables and integer constants are both abstract domain elements
    # here; only applications compute.
    order = []
    for t in store.postorder(side for atom in atoms for side in store.args(atom)):
        kind = store.kind(t)
        if kind is Kind.VAR or kind is Kind.INT_CONST:
            order.append(t)
        elif kind is not Kind.APPLY:
            raise ResourceError(f"unsupported term in equality lemma: {to_sexpr(store, t)}")
    negated = [Clause((code ^ 1,)) for code in lemma]
    counter = [0]
    for d in range(1, max_domain + 1):
        if _search(store, negated, order, lambda sort: range(d), counter, budget) is not None:
            return False
    return True
