"""Hash-consed multi-sorted terms and canonical clauses.

This module is the shared vocabulary of every checker: a deep embedding of
quantifier-free formulas over Bool, Int, bit-vectors and uninterpreted
sorts, plus the SAT-style literal/clause layer on top of it.  A literal is
its code, ``2 * atom + negated``, and a clause is the tuple of its codes,
strictly increasing.  Everything here is purely syntactic; no operation
evaluates semantics.

Terms live in a per-problem append-only ``TermStore``.  Structurally equal
nodes always receive the same ``TermId``, so id equality *is* structural
equality.  A node, ``(kind, args, extra)``, is stored once, as its own
index key, and its sort, which those fields determine, in a list beside the
nodes.  ``TrueT`` and ``FalseT`` are interned first in every store and
therefore always have ids 0 and 1.  A node's arguments intern before it, so
every argument id is smaller than its parent's and ascending id order is
bottom-up.  Walks over a term use ``TermStore.postorder`` or an explicit
stack, not recursion, so a term of any depth can be walked.  Nothing here
renders text: terms and clauses print through ``certkernel.printer``.

A store may reserve, when it is made, the Bool variables ``v1`` …
``v<reserved>``, named by numerals as a DIMACS problem's are: ``v<n>`` is
id n + 1.  The range keeps only its count, and one shared placeholder node
and ``BOOL`` in the node and sort lists, so ``kind``, ``args``, ``sort_of``
and walks read it like any node; ``node`` makes a variable's node when
asked.  Reserved nodes are not index keys, so a name lookup checks the
range: whenever ``intern`` or ``var`` would append a variable, a Bool
``v<n>`` with n in the range gets the reserved id instead, and one name
never names two atoms.
"""

from __future__ import annotations

from enum import Enum
from itertools import repeat
from typing import Iterable, NamedTuple, Sequence, Union

from .errors import SortError

TermId = int


# ---------------------------------------------------------------------------
# Sorts
# ---------------------------------------------------------------------------

class _UnitSort:
    """A sort with one instance, ``BOOL`` or ``INT``: the constructor, ``copy``
    and ``pickle`` all return it, so equality and hashing are the identity's,
    which run in C."""

    __slots__ = ()

    def __new__(cls):
        return cls.ONE

    def __reduce__(self) -> str:
        return str(self).upper()  # pickled and copied as the module global

    def __repr__(self) -> str:
        return f"{self}Sort()"

    def __str__(self) -> str:
        return type(self).__name__[:-4]


class BoolSort(_UnitSort):
    """The sort of formulas."""

    __slots__ = ()


class IntSort(_UnitSort):
    """The sort of integers."""

    __slots__ = ()


def class_eq(cls):
    """A named tuple with a dataclass's equality: never equal to a plain tuple or another class."""
    cls.__eq__ = lambda a, b: a.__class__ is b.__class__ and tuple.__eq__(a, b)
    cls.__ne__ = lambda a, b: a.__class__ is not b.__class__ or tuple.__ne__(a, b)
    return cls


class BitVecSort(class_eq(NamedTuple("BitVecSort", [("width", int)]))):
    __slots__ = ()

    def __new__(cls, width: int):
        if width < 1:
            raise SortError(f"bit-vector width must be >= 1, got {width}")
        return tuple.__new__(cls, (width,))

    def __str__(self) -> str:
        return f"(_ BitVec {self.width})"


@class_eq
class UninterpretedSort(NamedTuple):
    name: str

    def __str__(self) -> str:
        return self.name


Sort = Union[BoolSort, IntSort, BitVecSort, UninterpretedSort]
_SORT_CLASSES = (BoolSort, IntSort, BitVecSort, UninterpretedSort)

BOOL = BoolSort.ONE = object.__new__(BoolSort)
INT = IntSort.ONE = object.__new__(IntSort)


@class_eq
class FunSym(NamedTuple):
    """An uninterpreted function symbol with a fixed signature."""

    name: str
    arg_sorts: tuple[Sort, ...]
    ret_sort: Sort


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

    # Members are singletons compared by identity, so the identity hash is
    # consistent with equality; it runs in C, Enum.__hash__ in Python.
    __hash__ = object.__hash__


# Reading an Enum member off its class costs about 150 ns on Python 3.11;
# TermStore.intern and the per-kind checks of _compute_sort read these aliases.
_VAR, _INT_CONST, _BV_CONST, _APPLY, _EQ, _ITE = (
    Kind.VAR, Kind.INT_CONST, Kind.BV_CONST, Kind.APPLY, Kind.EQ, Kind.ITE)


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


class Node(NamedTuple):  # no class_eq: the plain tuple (kind, args, extra) finds it
    kind: Kind
    args: tuple[TermId, ...]
    # Per-kind payload: variable (name, sort), integer value (int),
    # bit tuple LSB-first (tuple[bool, ...]), or FunSym.  None otherwise.
    extra: object


class _ReservedVar(Node):
    """The placeholder stored at every reserved variable's id; no interned
    node equals it, since a variable's payload is never None."""

    __slots__ = ()

    def __reduce__(self) -> str:
        return "_RESERVED"  # pickled and copied as the module global


_RESERVED = _ReservedVar(_VAR, (), None)


class TermStore:
    """Append-only hash-consing store for one problem."""

    def __init__(self, reserved: int = 0):
        """A store of ``TrueT`` and ``FalseT`` and then the reserved Bool
        variables ``v1`` … ``v<reserved>``, ``v<n>`` at id n + 1."""
        self._nodes: list[Node] = []
        self._sorts: list[Sort] = []
        self._index: dict[Node, TermId] = {}
        self._reserved = reserved
        self.true_id = self.intern(Kind.TRUE)
        self.false_id = self.intern(Kind.FALSE)
        self._nodes.extend(repeat(_RESERVED, reserved))
        self._sorts.extend(repeat(BOOL, reserved))

    def __len__(self) -> int:
        return len(self._nodes)

    def node(self, t: TermId) -> Node:
        node = self._nodes[t]
        if node is _RESERVED:
            return Node(_VAR, (), (f"v{t % len(self._nodes) - 1}", BOOL))
        return node

    def kind(self, t: TermId) -> Kind:
        return self._nodes[t].kind

    def args(self, t: TermId) -> tuple[TermId, ...]:
        return self._nodes[t].args

    def sort_of(self, t: TermId) -> Sort:
        """Sort of a term; total on valid ids."""
        return self._sorts[t]

    # -- interning ----------------------------------------------------------

    def intern(self, kind: Kind, args: Sequence[TermId] = (), extra: object = None) -> TermId:
        """Intern a node, sort-checking it first.  Idempotent.

        Raises SortError when the children do not have the sorts the kind
        demands (bit-vector children must share one width).  A node without
        a payload that is already interned passed that check on its first
        interning, so a hit skips it.  Argument ids must be ints and a
        payload is checked on every call, before the index is read, because
        1.0 == 1 and (1,) == (True,) would make malformed nodes equal to
        interned keys; a variable's payload is a ``(name, sort)`` pair, and
        a kind that takes no payload rejects one.
        """
        args = tuple(args)
        n = len(self._nodes)
        for a in args:
            if a.__class__ is not int or not 0 <= a < n:
                raise SortError(f"invalid child id {a} for {kind.value}")
        if extra is None and (hit := self._index.get((kind, args, None))) is not None:
            return hit
        sort = self._compute_sort(kind, args, extra)
        if extra is not None and (hit := self._index.get((kind, args, extra))) is not None:
            return hit
        if kind is _VAR and sort is BOOL and self._reserved:
            # v<n> with 1 <= n <= the count, written without leading zeros,
            # is reserved at id n + 1.  int() has a digit limit.
            name = extra[0]
            digits = name[1:]
            if name[:1] == "v" and digits[:1] != "0" and len(digits) < 20 \
                    and digits.isascii() and digits.isdigit() and int(digits) <= self._reserved:
                return int(digits) + 1
        node = Node(kind, args, extra)
        self._nodes.append(node)
        self._sorts.append(sort)
        self._index[node] = n
        return n

    def _compute_sort(self, kind: Kind, args: tuple[TermId, ...], extra: object) -> Sort:
        sorts = tuple(map(self._sorts.__getitem__, args))
        sig = SIGNATURES.get(kind)
        if extra is not None and (sig is not None or kind is _EQ or kind is _ITE):
            raise SortError(f"{kind.value} takes no payload")
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
        if kind in (_VAR, _INT_CONST, _BV_CONST) and args:
            raise SortError(f"{kind.value} takes 0 arguments, got {len(args)}")
        if kind is _VAR:
            if extra.__class__ is not tuple or len(extra) != 2:
                raise SortError("variable payload must be a (name, sort) pair")
            name, sort = extra
            if not isinstance(name, str):
                raise SortError("variable name must be a string")
            if not isinstance(sort, _SORT_CLASSES):
                raise SortError(f"variable sort must be a sort, got {sort!r}")
            return sort
        if kind is _INT_CONST:
            if not isinstance(extra, int):
                raise SortError("integer constant payload must be int")
            return INT
        if kind is _BV_CONST:
            bits = extra
            if not isinstance(bits, tuple) or not bits or not all(isinstance(b, bool) for b in bits):
                raise SortError("bit-vector constant payload must be a non-empty bool tuple")
            return BitVecSort(len(bits))
        if kind is _APPLY:
            fn = extra
            if not isinstance(fn, FunSym):
                raise SortError("apply payload must be a FunSym")
            if sorts != fn.arg_sorts:
                raise SortError(
                    f"{fn.name} expects {[str(s) for s in fn.arg_sorts]}, "
                    f"got {[str(s) for s in sorts]}")
            return fn.ret_sort
        if kind is _EQ:
            if len(args) != 2:
                raise SortError(f"= takes 2 arguments, got {len(args)}")
            if sorts[0] != sorts[1]:
                raise SortError(f"= over distinct sorts {sorts[0]} / {sorts[1]}")
            if sorts[0] == BOOL:
                raise SortError("= over Bool is represented as iff")
            return BOOL
        if kind is _ITE:
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
        return self.intern(_VAR, (), (name, sort))

    def int_const(self, value: int) -> TermId:
        return self.intern(Kind.INT_CONST, (), value)

    def bv_const(self, bits: Sequence[bool]) -> TermId:
        """Bit-vector constant from bits given LSB first."""
        return self.intern(Kind.BV_CONST, (), tuple(bool(b) for b in bits))

    def apply(self, fn: FunSym, args: Sequence[TermId]) -> TermId:
        return self.intern(Kind.APPLY, args, fn)

    def eq(self, l: TermId, r: TermId) -> TermId:
        return self.intern(Kind.EQ, (l, r))

    def le(self, l: TermId, r: TermId) -> TermId:
        return self.intern(Kind.LE, (l, r))

    def lt(self, l: TermId, r: TermId) -> TermId:
        return self.intern(Kind.LT, (l, r))

    def add(self, args: Sequence[TermId]) -> TermId:
        return self.intern(Kind.ADD, args)

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
        """Ids of all VAR nodes reachable from t, from one uncached walk."""
        nodes = self._nodes
        return frozenset(u for u in self.postorder((t,)) if nodes[u].kind is Kind.VAR)


# ---------------------------------------------------------------------------
# Literals and clauses
# ---------------------------------------------------------------------------

def pos(atom: TermId) -> int:
    """The code of the positive literal of ``atom``: ``2 * atom``."""
    return 2 * atom


def neg(atom: TermId) -> int:
    """The code of the negative literal of ``atom``: ``2 * atom + 1``."""
    return 2 * atom + 1


@class_eq
class Literal(NamedTuple):
    """Read-only view of one literal code, as ``Clause.lits`` lists them."""

    atom: TermId
    positive: bool


@class_eq
class Clause(tuple):
    """Canonical disjunction: the tuple of its literal codes, strictly
    increasing.

    The empty clause denotes falsity.  The canonical trivially true clause
    is the singleton positive TrueT literal, i.e. ``Clause((0,))`` given that
    TrueT always interns at id 0.  One object, with no slot of its own.  It
    is a subclass, not a bare tuple, so that it equals no plain tuple or
    record with the same items, and so that code outside the trusted base
    keeps its views ``enc``, ``lits``, ``atoms`` and ``is_empty``: the
    benchmark's generator reads them.  The trusted base reads a clause only
    as a tuple.
    """

    __slots__ = ()

    @property
    def enc(self) -> tuple[int, ...]:
        return tuple(self)

    @property
    def lits(self) -> tuple[Literal, ...]:
        return tuple(Literal(c >> 1, not c & 1) for c in self)

    def is_empty(self) -> bool:
        return not self

    def atoms(self) -> tuple[TermId, ...]:
        return tuple(c >> 1 for c in self)


EMPTY_CLAUSE = Clause(())

# pos(TrueT) is 0 because TrueT interns at id 0 in every store.
TRIVIALLY_TRUE = Clause((0,))


def _literal_error(store: TermStore, code: object) -> str | None:
    """Why ``code`` is not a literal code over this store, or None when it
    is one: an int in ``[0, 2 * len(store))`` with a Bool-sorted atom.  A
    code < 0 would read the store's end."""
    if code.__class__ is not int or not 0 <= code < 2 * len(store._nodes):
        return f"clause literal {code!r} is not a literal code of this problem"
    sort = store._sorts[code >> 1]
    if sort is not BOOL:
        return f"clause literal atom {code >> 1} has sort {sort}, expected Bool"
    return None


def well_formed(store: TermStore, clause: Clause) -> bool:
    """Whether ``mk_clause`` could build the clause over this store: literal
    codes, strictly increasing.  Checkers test payload clauses first.

    Raises TypeError when ``clause`` is not a ``Clause``, which the kernel
    reports as a malformed step."""
    if clause.__class__ is not Clause:
        raise TypeError(f"a clause must be a Clause, not {clause.__class__.__name__}")
    return all(_literal_error(store, c) is None for c in clause) \
        and list(clause) == sorted(set(clause))


def mk_clause(store: TermStore, codes: Iterable[int]) -> Clause:
    """The clause of the literal codes (``pos``/``neg``), sorted by code and
    deduplicated.

    Raises SortError at the first code, in input order, that is not an int
    in ``[0, 2 * len(store))`` with a Bool-sorted atom.
    """
    codes = tuple(codes)
    for code in codes:
        error = _literal_error(store, code)
        if error is not None:
            raise SortError(error)
    return Clause(sorted(set(codes)))
