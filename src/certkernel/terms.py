"""Hash-consed multi-sorted terms and canonical clauses.

This module is the shared vocabulary of every checker: a deep embedding of
quantifier-free formulas over Bool, Int, bit-vectors and uninterpreted
sorts, plus the SAT-style literal/clause layer on top of it.  Everything
here is purely syntactic; no operation evaluates semantics.

Terms live in a per-problem append-only ``TermStore``.  Structurally equal
nodes always receive the same ``TermId``, so id equality *is* structural
equality.  ``TrueT`` and ``FalseT`` are interned first in every store and
therefore always have ids 0 and 1.  A node's arguments intern before it, so
every argument id is smaller than its parent's and ascending id order is
bottom-up.  Walks over a term use ``TermStore.postorder`` or an explicit
stack, not recursion, so a term of any depth can be walked.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Sequence, Union

from .errors import SortError

TermId = int


# ---------------------------------------------------------------------------
# Sorts
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class BoolSort:
    def __str__(self) -> str:
        return "Bool"


@dataclass(frozen=True, slots=True)
class IntSort:
    def __str__(self) -> str:
        return "Int"


@dataclass(frozen=True, slots=True)
class BitVecSort:
    width: int

    def __post_init__(self):
        if self.width < 1:
            raise SortError(f"bit-vector width must be >= 1, got {self.width}")

    def __str__(self) -> str:
        return f"(_ BitVec {self.width})"


@dataclass(frozen=True, slots=True)
class UninterpretedSort:
    name: str

    def __str__(self) -> str:
        return self.name


Sort = Union[BoolSort, IntSort, BitVecSort, UninterpretedSort]

BOOL = BoolSort()
INT = IntSort()


@dataclass(frozen=True, slots=True)
class FunSym:
    """An uninterpreted function symbol with a fixed signature."""

    name: str
    arg_sorts: tuple[Sort, ...]
    ret_sort: Sort

    @property
    def arity(self) -> int:
        return len(self.arg_sorts)


# ---------------------------------------------------------------------------
# Term nodes
# ---------------------------------------------------------------------------

class Kind(Enum):
    VAR = "var"
    INT_CONST = "int"
    BV_CONST = "bvconst"
    APPLY = "apply"
    EQ = "="
    LE = "<="
    LT = "<"
    TRUE = "true"
    FALSE = "false"
    NOT = "not"
    AND = "and"
    OR = "or"
    IMPLIES = "=>"
    XOR = "xor"
    IFF = "iff"
    ITE = "ite"
    ADD = "+"
    SUB = "-"
    NEG = "neg"
    MUL = "*"
    BV_NOT = "bvnot"
    BV_AND = "bvand"
    BV_OR = "bvor"
    BV_XOR = "bvxor"
    BV_ADD = "bvadd"
    BV_ULT = "bvult"


# Kinds whose Bool structure the propositional rules can decompose; any other
# Bool-sorted node acts as an opaque atom for truth-table purposes.
BOOL_STRUCTURE = frozenset({
    Kind.TRUE, Kind.FALSE, Kind.NOT, Kind.AND, Kind.OR,
    Kind.IMPLIES, Kind.XOR, Kind.IFF, Kind.ITE,
})

# Operator signatures: kind -> (min args, max args or None for any number,
# operand sort, result sort).  Every argument must have the operand sort; the
# operand ``BitVecSort`` stands for "bit-vectors of one width", and a result
# of None means "the operand sort".  Kinds not listed here carry a payload or
# relate operands of any sort, and _compute_sort checks them one by one.
SIGNATURES: dict[Kind, tuple[int, int | None, object, Sort | None]] = {
    Kind.TRUE: (0, 0, BOOL, BOOL),
    Kind.FALSE: (0, 0, BOOL, BOOL),
    Kind.NOT: (1, 1, BOOL, BOOL),
    Kind.AND: (1, None, BOOL, BOOL),
    Kind.OR: (1, None, BOOL, BOOL),
    Kind.IMPLIES: (2, 2, BOOL, BOOL),
    Kind.XOR: (2, 2, BOOL, BOOL),
    Kind.IFF: (2, 2, BOOL, BOOL),
    Kind.LE: (2, 2, INT, BOOL),
    Kind.LT: (2, 2, INT, BOOL),
    Kind.ADD: (2, None, INT, INT),
    Kind.SUB: (2, 2, INT, INT),
    Kind.NEG: (1, 1, INT, INT),
    Kind.MUL: (2, 2, INT, INT),
    Kind.BV_NOT: (1, 1, BitVecSort, None),
    Kind.BV_AND: (2, 2, BitVecSort, None),
    Kind.BV_OR: (2, 2, BitVecSort, None),
    Kind.BV_XOR: (2, 2, BitVecSort, None),
    Kind.BV_ADD: (2, 2, BitVecSort, None),
    Kind.BV_ULT: (2, 2, BitVecSort, BOOL),
}


class Node(NamedTuple):
    kind: Kind
    sort: Sort
    args: tuple[TermId, ...]
    # Per-kind payload: variable name (str), integer value (int),
    # bit tuple LSB-first (tuple[bool, ...]), or FunSym.  None otherwise.
    extra: object


class TermStore:
    """Append-only hash-consing store for one problem."""

    def __init__(self):
        self._nodes: list[Node] = []
        self._index: dict[tuple, TermId] = {}
        self._vars_cache: dict[TermId, frozenset[TermId]] = {}
        self.true_id = self.intern(Kind.TRUE)
        self.false_id = self.intern(Kind.FALSE)

    def __len__(self) -> int:
        return len(self._nodes)

    def node(self, t: TermId) -> Node:
        return self._nodes[t]

    def kind(self, t: TermId) -> Kind:
        return self._nodes[t].kind

    def args(self, t: TermId) -> tuple[TermId, ...]:
        return self._nodes[t].args

    def sort_of(self, t: TermId) -> Sort:
        """Sort of a term; total on valid ids."""
        return self._nodes[t].sort

    # -- interning ----------------------------------------------------------

    def intern(self, kind: Kind, args: Sequence[TermId] = (), extra: object = None) -> TermId:
        """Intern a node, sort-checking it first.  Idempotent.

        Raises SortError when the children do not have the sorts the kind
        demands (bit-vector children must share one width).  A node without
        a payload that is already interned passed that check on its first
        interning, so a hit skips it.  Argument ids must be ints and a
        payload is checked on every call, because 1.0 == 1 and
        (1,) == (True,) would make malformed nodes equal to interned keys.
        """
        args = tuple(args)
        n = len(self._nodes)
        for a in args:
            if a.__class__ is not int or not 0 <= a < n:
                raise SortError(f"invalid child id {a} for {kind.value}")
        key = (kind, args, extra)
        hit = self._index.get(key)
        if hit is not None and extra is None:
            return hit
        sort = self._compute_sort(kind, args, extra)
        if hit is not None:
            return hit
        tid = len(self._nodes)
        self._nodes.append(Node(kind, sort, args, extra))
        self._index[key] = tid
        return tid

    def _compute_sort(self, kind: Kind, args: tuple[TermId, ...], extra: object) -> Sort:
        sorts = tuple(self._nodes[a].sort for a in args)
        sig = SIGNATURES.get(kind)
        if sig is not None:
            lo, hi, operand, result = sig
            if len(args) < lo or (hi is not None and len(args) > hi):
                wanted = lo if lo == hi else f"at least {lo}" if hi is None else f"{lo} to {hi}"
                raise SortError(f"{kind.value} takes {wanted} arguments, got {len(args)}")
            if operand is BitVecSort:
                operand = sorts[0]
                if not isinstance(operand, BitVecSort) or sorts.count(operand) != len(sorts):
                    raise SortError(f"{kind.value} needs bit-vectors of one width, "
                                    f"got {[str(s) for s in sorts]}")
            elif sorts.count(operand) != len(sorts):
                raise SortError(f"{kind.value} needs {operand} operands, "
                                f"got {[str(s) for s in sorts]}")
            return operand if result is None else result
        if kind in (Kind.VAR, Kind.INT_CONST, Kind.BV_CONST) and args:
            raise SortError(f"{kind.value} takes 0 arguments, got {len(args)}")
        if kind is Kind.VAR:
            name, sort = extra
            if not isinstance(name, str):
                raise SortError("variable name must be a string")
            return sort
        if kind is Kind.INT_CONST:
            if not isinstance(extra, int):
                raise SortError("integer constant payload must be int")
            return INT
        if kind is Kind.BV_CONST:
            bits = extra
            if not isinstance(bits, tuple) or not bits or not all(isinstance(b, bool) for b in bits):
                raise SortError("bit-vector constant payload must be a non-empty bool tuple")
            return BitVecSort(len(bits))
        if kind is Kind.APPLY:
            fn = extra
            if not isinstance(fn, FunSym):
                raise SortError("apply payload must be a FunSym")
            if sorts != fn.arg_sorts:
                raise SortError(
                    f"{fn.name} expects {[str(s) for s in fn.arg_sorts]}, "
                    f"got {[str(s) for s in sorts]}")
            return fn.ret_sort
        if kind is Kind.EQ:
            if len(args) != 2:
                raise SortError(f"= takes 2 arguments, got {len(args)}")
            if sorts[0] != sorts[1]:
                raise SortError(f"= over distinct sorts {sorts[0]} / {sorts[1]}")
            if sorts[0] == BOOL:
                raise SortError("= over Bool is represented as iff")
            return BOOL
        if kind is Kind.ITE:
            if len(args) != 3:
                raise SortError(f"ite takes 3 arguments, got {len(args)}")
            if sorts[0] != BOOL:
                raise SortError("ite condition must be Bool")
            if sorts[1] != sorts[2]:
                raise SortError(f"ite branches disagree: {sorts[1]} / {sorts[2]}")
            return sorts[1]
        raise SortError(f"unknown kind {kind}")

    # -- constructors -------------------------------------------------------

    def var(self, name: str, sort: Sort) -> TermId:
        return self.intern(Kind.VAR, (), (name, sort))

    def int_const(self, value: int) -> TermId:
        return self.intern(Kind.INT_CONST, (), value)

    def bv_const(self, bits: Sequence[bool]) -> TermId:
        """Bit-vector constant from bits given LSB first."""
        return self.intern(Kind.BV_CONST, (), tuple(bool(b) for b in bits))

    def bv_const_of_int(self, value: int, width: int) -> TermId:
        return self.bv_const([bool((value >> i) & 1) for i in range(width)])

    def apply(self, fn: FunSym, args: Sequence[TermId]) -> TermId:
        return self.intern(Kind.APPLY, args, fn)

    def eq(self, l: TermId, r: TermId) -> TermId:
        return self.intern(Kind.EQ, (l, r))

    def le(self, l: TermId, r: TermId) -> TermId:
        return self.intern(Kind.LE, (l, r))

    def lt(self, l: TermId, r: TermId) -> TermId:
        return self.intern(Kind.LT, (l, r))

    def not_(self, a: TermId) -> TermId:
        return self.intern(Kind.NOT, (a,))

    def and_(self, args: Sequence[TermId]) -> TermId:
        return self.intern(Kind.AND, args)

    def or_(self, args: Sequence[TermId]) -> TermId:
        return self.intern(Kind.OR, args)

    def implies(self, a: TermId, b: TermId) -> TermId:
        return self.intern(Kind.IMPLIES, (a, b))

    def xor(self, a: TermId, b: TermId) -> TermId:
        return self.intern(Kind.XOR, (a, b))

    def iff(self, a: TermId, b: TermId) -> TermId:
        return self.intern(Kind.IFF, (a, b))

    def ite(self, c: TermId, t: TermId, e: TermId) -> TermId:
        return self.intern(Kind.ITE, (c, t, e))

    def add(self, args: Sequence[TermId]) -> TermId:
        return self.intern(Kind.ADD, args)

    def sub(self, a: TermId, b: TermId) -> TermId:
        return self.intern(Kind.SUB, (a, b))

    def neg(self, a: TermId) -> TermId:
        return self.intern(Kind.NEG, (a,))

    def mul(self, a: TermId, b: TermId) -> TermId:
        return self.intern(Kind.MUL, (a, b))

    def bv_not(self, a: TermId) -> TermId:
        return self.intern(Kind.BV_NOT, (a,))

    def bv_and(self, a: TermId, b: TermId) -> TermId:
        return self.intern(Kind.BV_AND, (a, b))

    def bv_or(self, a: TermId, b: TermId) -> TermId:
        return self.intern(Kind.BV_OR, (a, b))

    def bv_xor(self, a: TermId, b: TermId) -> TermId:
        return self.intern(Kind.BV_XOR, (a, b))

    def bv_add(self, a: TermId, b: TermId) -> TermId:
        return self.intern(Kind.BV_ADD, (a, b))

    def bv_ult(self, a: TermId, b: TermId) -> TermId:
        return self.intern(Kind.BV_ULT, (a, b))

    # -- queries ------------------------------------------------------------

    def width_of(self, t: TermId) -> int:
        sort = self.sort_of(t)
        if not isinstance(sort, BitVecSort):
            raise SortError(f"term {t} is not bit-vector sorted")
        return sort.width

    def postorder(self, roots: Iterable[TermId], done=()) -> list[TermId]:
        """Ids reachable from roots, in ascending order, which is bottom-up.

        Ids in ``done`` are neither listed nor walked into.
        """
        nodes = self._nodes
        seen: set[TermId] = set()
        stack = list(roots)
        while stack:
            t = stack.pop()
            if t not in seen and t not in done:
                seen.add(t)
                stack.extend(nodes[t].args)
        return sorted(seen)

    def vars_of(self, t: TermId) -> frozenset[TermId]:
        """Ids of all VAR nodes reachable from t (cached per store)."""
        cache = self._vars_cache
        hit = cache.get(t)
        if hit is not None:
            return hit
        nodes = self._nodes
        for u in self.postorder((t,), cache):
            node = nodes[u]
            if node.kind is Kind.VAR:
                cache[u] = frozenset((u,))
            else:
                cache[u] = frozenset().union(*(cache[a] for a in node.args))
        return cache[t]

    # -- printing ------------------------------------------------------------

    def to_sexpr(self, t: TermId) -> str:
        """SMT-LIB style concrete syntax; parseable back by the frontend.

        The text expands shared subterms, so it is emitted from an explicit
        stack of ids and closing parentheses, in time linear in its length.
        """
        nodes = self._nodes
        out: list[str] = []
        stack: list[TermId | str] = [t]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            node = nodes[item]
            k = node.kind
            if k is Kind.EQ:
                # Encoded uninterpreted predicates print as their application:
                # (= (p x) $tt) is exactly what the frontend parses (p x) into,
                # and $-names are reserved for that encoding.
                lhs, rhs = (nodes[a] for a in node.args)
                if rhs.kind is Kind.VAR and rhs.extra[0] == "$tt" and lhs.kind is Kind.APPLY:
                    stack.append(node.args[0])
                    continue
            if k is Kind.VAR:
                out.append(node.extra[0])
            elif k is Kind.INT_CONST:
                v = node.extra
                out.append(str(v) if v >= 0 else f"(- {-v})")
            elif k is Kind.BV_CONST:
                out.append("#b" + "".join("1" if b else "0" for b in reversed(node.extra)))
            elif k is Kind.TRUE or k is Kind.FALSE:
                out.append(k.value)
            else:
                head = (node.extra.name if k is Kind.APPLY else "=" if k is Kind.IFF
                        else "-" if k is Kind.NEG else k.value)
                out.append(f"({head} ")
                stack.append(")")
                for a in reversed(node.args[1:]):
                    stack += (a, " ")
                stack.extend(node.args[:1])
        return "".join(out)


# ---------------------------------------------------------------------------
# Literals and clauses
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Literal:
    """A polarity-signed Bool-sorted atom.

    The wire encoding is 2*atom for a positive literal and 2*atom + 1 for a
    negative one; decode inverts it bit-exactly.
    """

    atom: TermId
    positive: bool

    def encode(self) -> int:
        return 2 * self.atom + (0 if self.positive else 1)

    @staticmethod
    def decode(code: int) -> "Literal":
        return Literal(code >> 1, (code & 1) == 0)

    def negate(self) -> "Literal":
        return Literal(self.atom, not self.positive)


def pos(atom: TermId) -> Literal:
    return Literal(atom, True)


def neg(atom: TermId) -> Literal:
    return Literal(atom, False)


@dataclass(frozen=True, slots=True)
class Clause:
    """Canonical disjunction: encoded literals, strictly increasing.

    The empty clause denotes falsity.  The canonical trivially true clause
    is the singleton positive TrueT literal, i.e. ``Clause((0,))`` given that
    TrueT always interns at id 0.
    """

    enc: tuple[int, ...]

    @property
    def lits(self) -> tuple[Literal, ...]:
        return tuple(Literal.decode(c) for c in self.enc)

    def __len__(self) -> int:
        return len(self.enc)

    def is_empty(self) -> bool:
        return not self.enc

    def atoms(self) -> tuple[TermId, ...]:
        return tuple(c >> 1 for c in self.enc)


EMPTY_CLAUSE = Clause(())

# pos(TrueT) encodes to 0 because TrueT interns at id 0 in every store.
TRIVIALLY_TRUE = Clause((0,))


def mk_clause(store: TermStore, lits: Iterable[Literal]) -> Clause:
    """Canonicalize literals into a clause: sort by encoding, deduplicate.

    Raises SortError when some atom is not Bool-sorted.
    """
    codes = []
    for lit in lits:
        if store.sort_of(lit.atom) != BOOL:
            raise SortError(
                f"clause literal atom {lit.atom} has sort "
                f"{store.sort_of(lit.atom)}, expected Bool")
        codes.append(lit.encode())
    return Clause(tuple(sorted(set(codes))))


def clause_to_sexpr(store: TermStore, clause: Clause) -> str:
    """Literal-per-element notation: ``(not <atom>)`` marks negative literals."""
    parts = []
    for code in clause.enc:
        atom = store.to_sexpr(code >> 1)
        parts.append(atom if (code & 1) == 0 else f"(not {atom})")
    return " ".join(parts)
