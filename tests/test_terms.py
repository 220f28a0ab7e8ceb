"""Hash-consing, sorts, and clause canonicalization."""

import random

import pytest

import gens
from certkernel import (
    BOOL, INT, BitVecSort, Clause, FunSym, Kind, Literal, SortError, TermStore,
    UninterpretedSort, clause_to_sexpr, mk_clause, neg, pos, to_sexpr,
)
from certkernel.oracle import int_to_bits
from certkernel.terms import SIGNATURES, well_formed


def test_intern_idempotent():
    store = TermStore()
    assert store.intern(Kind.TRUE) == store.intern(Kind.TRUE)
    x = store.var("x", BOOL)
    y = store.var("y", BOOL)
    assert store.intern(Kind.AND, [x, y]) == store.intern(Kind.AND, [x, y])
    # argument order is significant: no re-association or sorting
    assert store.intern(Kind.AND, [x, y]) != store.intern(Kind.AND, [y, x])


def test_intern_hit_does_not_accept_malformed_nodes():
    """A node equal to an interned key still gets every check it got on
    first interning: 1.0 == 1 and (1,) == (True,) as index keys, but they
    are not an integer and a bit tuple."""
    store = TermStore()
    one = store.int_const(1)
    bit = store.bv_const([True])
    p = store.var("p", BOOL)
    not_p = store.intern(Kind.NOT, (p,))
    with pytest.raises(SortError):
        store.intern(Kind.INT_CONST, (), 1.0)
    with pytest.raises(SortError):
        store.intern(Kind.BV_CONST, (), (1,))
    for bad in (-1, len(store), len(store) + 5):
        with pytest.raises(SortError, match="invalid child id"):
            store.intern(Kind.NOT, (bad,))
    with pytest.raises(SortError, match="invalid child id"):
        store.intern(Kind.AND, (p, -1))
    assert store.intern(Kind.INT_CONST, (), 1) == one
    assert store.intern(Kind.BV_CONST, (), (True,)) == bit
    assert store.intern(Kind.NOT, [p]) == not_p
    assert len(store) == 6


def _payload_free_args(store, kind):
    """Argument ids that make a well-sorted node of a kind without payload."""
    p, q = store.var("p", BOOL), store.var("q", BOOL)
    i, j = store.var("i", INT), store.var("j", INT)
    a, b = store.var("a", BitVecSort(4)), store.var("b", BitVecSort(4))
    if kind is Kind.EQ:
        return (i, j)
    if kind is Kind.ITE:
        return (p, i, j)
    lo, _, operand, _ = SIGNATURES[kind]
    return {BOOL: (p, q), INT: (i, j), BitVecSort: (a, b)}[operand][:lo]


@pytest.mark.parametrize("kind", [*SIGNATURES, Kind.EQ, Kind.ITE], ids=lambda k: k.name)
def test_a_kind_without_payload_rejects_one(kind):
    """Constants, connectives, arithmetic, bit-vector operators, = and ite
    take no payload: one that is not None is a SortError, never a second
    node beside the payload-free one nor a TypeError from hashing it."""
    store = TermStore()
    args = _payload_free_args(store, kind)
    plain = store.intern(kind, args)
    size = len(store)
    for payload in (5, 0, (), [1], {"a": 1}, "x"):
        with pytest.raises(SortError, match="takes no payload"):
            store.intern(kind, args, payload)
    assert store.intern(kind, args) == plain and len(store) == size


def test_argument_ids_must_be_ints():
    """float(p) == p and True == 1 as index keys, so an index hit would
    otherwise take them for interned argument ids."""
    store = TermStore()
    p = store.var("p", BOOL)
    store.intern(Kind.NOT, (p,))
    store.intern(Kind.NOT, (1,))
    for bad in (float(p), True):
        with pytest.raises(SortError, match="invalid child id"):
            store.intern(Kind.NOT, (bad,))


def test_var_is_intern_of_a_var_node():
    """var gives the ids, nodes and index keys that intern(Kind.VAR, ...)
    gives: for Bool and Int variables, a same-named variable of another
    sort kept apart, a hit returning the existing id, and a name that is
    not a string raising SortError."""
    calls = [("v1", BOOL), ("v2", INT), ("v2", BOOL), ("v1", BOOL), ("v2", INT), ("x", INT)]
    store, interned = TermStore(), TermStore()
    ids = [store.var(name, sort) for name, sort in calls]
    assert ids == [interned.intern(Kind.VAR, (), (name, sort)) for name, sort in calls] \
        == [2, 3, 4, 2, 3, 5]
    assert store._nodes == interned._nodes and store._index == interned._index
    assert store._sorts == interned._sorts
    assert (store.sort_of(3), store.sort_of(4)) == (INT, BOOL)
    for bad in (1, None, b"v1"):
        with pytest.raises(SortError, match="variable name must be a string"):
            store.var(bad, BOOL)
        with pytest.raises(SortError, match="variable name must be a string"):
            interned.intern(Kind.VAR, (), (bad, BOOL))
    assert len(store) == len(interned) == 6


@pytest.mark.parametrize("payload", [
    None, ("x",), ("x", 5), ("x", "notasort"), ("x", BOOL, 1), ["x", BOOL], ("x", [BOOL]),
    ("x", BitVecSort), ("x", None),
], ids=repr)
def test_a_variable_payload_that_is_not_a_name_and_a_sort_is_a_sort_error(payload):
    """intern raised TypeError for None and for an unhashable part,
    ValueError for ("x",), and made variables of sort 5 and "notasort"."""
    store = TermStore()
    with pytest.raises(SortError, match="variable"):
        store.intern(Kind.VAR, (), payload)
    if payload.__class__ is tuple and len(payload) == 2 and isinstance(payload[0], str):
        with pytest.raises(SortError, match="variable sort must be a sort"):
            store.var(*payload)
    assert len(store) == 2


def test_a_reserved_variable_is_found_by_its_name():
    """A Bool v<n> with n reserved is the reserved id, through var and
    intern alike, and adds nothing.  Another sort, a name that spells n
    another way and a numeral outside the range each make a new variable
    after the range, once."""
    store = TermStore(10)
    assert len(store) == 12 and [store.node(t) for t in range(2, 12)] == [
        (Kind.VAR, (), (f"v{n}", BOOL)) for n in range(1, 11)]
    assert [store.kind(t) for t in range(2, 12)] == [Kind.VAR] * 10
    assert [store.sort_of(t) for t in range(2, 12)] == [BOOL] * 10
    assert store.args(3) == () and store.node(-1) == store.node(11)
    assert store.var("v5", BOOL) == store.intern(Kind.VAR, (), ("v5", BOOL)) == 6
    assert store.var("v10", BOOL) == 11 and store.var("v1", BOOL) == 2
    assert len(store) == 12 and len(store._index) == 2
    others = [("v5", INT), ("v05", BOOL), ("v0", BOOL), ("V5", BOOL), ("v+5", BOOL),
              ("v\u0665", BOOL), ("v5 ", BOOL), ("v", BOOL), ("5", BOOL), ("v-1", BOOL),
              ("v11", BOOL), ("v" + "9" * 25, BOOL)]
    ids = [store.var(*other) for other in others]
    assert ids == list(range(12, 12 + len(others)))
    assert [store.intern(Kind.VAR, (), other) for other in others] == ids
    a = store.intern(Kind.AND, (3, 9))
    assert store.vars_of(a) == {3, 9} and store.postorder([a]) == [3, 9, a]
    with pytest.raises(SortError, match="has sort Int"):
        mk_clause(store, [pos(12)])
    assert tuple(mk_clause(store, [neg(4), pos(2)])) == (pos(2), neg(4))


def test_a_count_reserves_v1_to_that_numeral_from_id_2_on():
    store = TermStore(3)
    assert [store.node(t).extra[0] for t in range(2, len(store))] == ["v1", "v2", "v3"]
    assert store.var("v3", BOOL) == 4 and store.var("v4", BOOL) == 5 == len(store) - 1
    assert len(TermStore(0)) == len(TermStore()) == 2
    assert TermStore(0).var("v1", BOOL) == 2


def test_a_reserved_range_is_copied_and_pickled_whole():
    """A copy or a pickle of a store with a reserved range keeps its
    placeholder node, so the copy derives the same nodes and names."""
    import copy
    import pickle

    store = TermStore(7)
    store.var("x", INT)
    for clone in (copy.deepcopy(store), pickle.loads(pickle.dumps(store))):
        assert clone._nodes[2] is store._nodes[2]
        assert [clone.node(t) for t in range(len(store))] == \
            [store.node(t) for t in range(len(store))]
        assert clone.var("v7", BOOL) == 8 and clone.var("x", INT) == 9 and len(clone) == 10


def test_each_node_is_stored_once_as_its_own_index_key():
    """After reading and replaying a corpus bit-vector pair, whose checkers
    intern terms too, every index key is the very node stored at its id,
    and each node has one sort beside it."""
    from pathlib import Path

    from certkernel import Verdict, check, parse_certificate, parse_smt2
    pair = Path(__file__).resolve().parent.parent / "corpus" / "qbv" / "add_w2"
    prob = parse_smt2(pair.with_suffix(".smt2").read_text())
    cert = parse_certificate(pair.with_suffix(".cert").read_text(), prob)
    assert check(prob.store, prob.input_clauses, cert).verdict is Verdict.VALID
    store = prob.store
    assert len(store._index) == len(store._nodes) == len(store._sorts) == len(store) > 2
    assert all(store._nodes[tid] is node for node, tid in store._index.items())


def test_true_false_have_fixed_ids():
    store = TermStore()
    assert store.true_id == 0
    assert store.false_id == 1


def test_sort_clash_raises():
    store = TermStore()
    one = store.int_const(1)
    bv = store.bv_const([True, False])
    with pytest.raises(SortError):
        store.eq(one, bv)
    with pytest.raises(SortError):
        store.le(bv, bv)
    with pytest.raises(SortError):
        store.intern(Kind.AND, [one])
    with pytest.raises(SortError):
        store.intern(Kind.BV_ADD, (bv, store.bv_const([True, False, True])))


def test_bool_equality_must_be_iff():
    store = TermStore()
    p = store.var("p", BOOL)
    with pytest.raises(SortError):
        store.eq(p, p)
    assert store.kind(store.intern(Kind.IFF, (p, p))) is Kind.IFF


def test_sort_of():
    store = TermStore()
    x = store.var("x", INT)
    y = store.var("y", INT)
    assert store.sort_of(store.le(x, y)) == BOOL
    a = store.var("a", BitVecSort(4))
    b = store.var("b", BitVecSort(4))
    assert store.sort_of(store.intern(Kind.BV_ADD, (a, b))) == BitVecSort(4)
    u = UninterpretedSort("U")
    f = FunSym("f", (INT,), u)
    assert store.sort_of(store.apply(f, [x])) == u
    assert store.sort_of(store.intern(Kind.BV_ULT, (a, b))) == BOOL


def test_bv_const_width_and_bits():
    store = TermStore()
    t = store.bv_const(int_to_bits(5, 3))
    assert store.node(t).extra == (True, False, True)  # LSB first
    assert to_sexpr(store, t) == "#b101"
    with pytest.raises(SortError):
        store.bv_const([])


def test_ite_sorts():
    store = TermStore()
    p = store.var("p", BOOL)
    x = store.var("x", INT)
    y = store.var("y", INT)
    assert store.sort_of(store.intern(Kind.ITE, (p, x, y))) == INT
    with pytest.raises(SortError):
        store.intern(Kind.ITE, (x, x, y))
    with pytest.raises(SortError):
        store.intern(Kind.ITE, (p, p, x))


def test_literal_encoding_is_bit_exact():
    """A literal is its code, 2 * atom + negated; ``Clause.lits`` views it."""
    for atom in (0, 1, 5, 1000):
        assert Clause((pos(atom),)).lits == (Literal(atom, True),)
        assert Clause((neg(atom),)).lits == (Literal(atom, False),)
    assert pos(7) == 14
    assert neg(7) == 15
    assert pos(7) ^ 1 == neg(7)


def test_mk_clause_canonicalizes():
    store = TermStore()
    p = store.var("p", BOOL)
    q = store.var("q", BOOL)
    c = mk_clause(store, [neg(p), pos(q), neg(p)])
    assert p < q
    assert c.enc == (neg(p), pos(q))
    assert c.lits == (Literal(p, False), Literal(q, True))
    assert len(c) == 2
    assert mk_clause(store, [pos(q), neg(p)]) == mk_clause(store, [neg(p), pos(q)])
    assert mk_clause(store, []).is_empty()


def test_mk_clause_rejects_non_bool_atoms():
    store = TermStore()
    x = store.var("x", INT)
    with pytest.raises(SortError):
        mk_clause(store, [pos(x)])


@pytest.mark.parametrize("bad", [
    "negative", "end", "float", "old_literal", "non_bool", "bool_flag",
])
def test_mk_clause_rejects_what_is_not_a_literal_code(bad):
    """Each code is an int in [0, 2 * len(store)) with a Bool atom; anything
    else is a SortError, never a clause read from the store's end and never
    a TypeError.  A Bool atom at the store's end tempts a negative code."""
    store = TermStore()
    x = store.var("x", INT)
    p = store.var("p", BOOL)
    code = {"negative": pos(-1), "end": 2 * len(store), "float": 2.0,
            "old_literal": Literal(p, True), "non_bool": neg(x), "bool_flag": True}[bad]
    with pytest.raises(SortError):
        mk_clause(store, [pos(p), code])
    assert store.sort_of(len(store) - 1) == BOOL


def test_mk_clause_names_the_first_bad_literal():
    """The Bool-sort message names the first bad literal in input order, as
    ``preproc`` reports it in its parse errors."""
    store = TermStore()
    x, y = store.var("x", INT), store.var("y", INT)
    p = store.var("p", BOOL)
    with pytest.raises(SortError, match=f"^clause literal atom {y} has sort Int, expected Bool$"):
        mk_clause(store, [pos(p), neg(y), pos(x)])


def test_well_formed_clauses_are_what_mk_clause_builds():
    """A payload's clause passes ``well_formed`` only if it is a ``Clause``
    of literal codes, strictly increasing, as ``mk_clause`` builds them; a
    plain tuple or list of the same codes is a TypeError."""
    store = TermStore()
    x = store.var("x", INT)
    p, q = store.var("p", BOOL), store.var("q", BOOL)
    assert well_formed(store, mk_clause(store, [pos(q), neg(p)]))
    for enc in [(pos(q), neg(p)), (pos(p), pos(p)), (-2,), (pos(p), 2 * len(store)),
                (neg(x),), (2.0,)]:
        assert not well_formed(store, Clause(enc)), enc
    for lookalike in [(pos(p),), [pos(p)]]:
        with pytest.raises(TypeError, match="must be a Clause"):
            well_formed(store, lookalike)


def test_mk_clause_idempotent():
    rng = random.Random(7)
    store = TermStore()
    atoms = [store.var(f"p{i}", BOOL) for i in range(6)]
    for _ in range(200):
        c = gens.rand_clause(store, rng, atoms, 5)
        assert mk_clause(store, c.enc) == c


def test_rebuild_from_store_is_identity():
    """Re-interning every stored node gives back its own id."""
    rng = random.Random(11)
    store = TermStore()
    atoms = [store.var(f"p{i}", BOOL) for i in range(4)]
    for _ in range(50):
        gens.rand_bool_term(store, rng, atoms, 4)
    x = store.var("x", INT)
    store.add([store.intern(Kind.MUL, (store.int_const(3), x)), store.int_const(-2)])
    a = store.var("a", BitVecSort(3))
    store.intern(Kind.BV_ULT, (store.intern(Kind.BV_ADD, (a, a)), store.intern(Kind.BV_NOT, (a,))))
    for tid in range(len(store)):
        node = store.node(tid)
        assert store.intern(node.kind, node.args, node.extra) == tid


def test_hash_consing_soundness_printed_forms():
    """Equal ids print equally, and distinct ids print distinctly (on a
    random corpus without shadowed variable names)."""
    rng = random.Random(13)
    store = TermStore()
    atoms = [store.var(f"p{i}", BOOL) for i in range(4)]
    for _ in range(120):
        gens.rand_bool_term(store, rng, atoms, 3)
    printed = {}
    for tid in range(len(store)):
        text = to_sexpr(store, tid)
        assert printed.setdefault(text, tid) == tid


def test_postorder_lists_reachable_ids_bottom_up():
    store = TermStore()
    p, q = store.var("p", BOOL), store.var("q", BOOL)
    a = store.intern(Kind.AND, [p, q])
    t = store.intern(Kind.OR, [store.intern(Kind.NOT, (a,)), a, p])
    assert store.postorder([t]) == sorted({p, q, a, store.intern(Kind.NOT, (a,)), t})
    # ids in done are neither listed nor walked into
    assert store.postorder([t], done={a}) == sorted({p, store.intern(Kind.NOT, (a,)), t})


def test_depth_10000_terms_walk_without_recursion():
    store = TermStore()
    p = store.var("p", BOOL)
    t = p
    for _ in range(10_000):
        t = store.intern(Kind.NOT, (t,))
    assert store.vars_of(t) == {p}
    text = clause_to_sexpr(store, mk_clause(store, [neg(t)]))
    assert text == "(not " * 10_001 + "p" + ")" * 10_001


# Operator signatures, pinned independently of ``terms.SIGNATURES``:
# kind -> (min args, max args or None for any number, operand sort,
# result sort or None for "the operand sort").  The operand ``BitVecSort``
# stands for "bit-vectors of one width".
OPERATORS = {
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


@pytest.mark.parametrize("kind", list(OPERATORS), ids=lambda k: k.name)
def test_operator_signature(kind):
    lo, hi, operand, result = OPERATORS[kind]
    store = TermStore()

    def operands(n, sort):
        return [store.var(f"v{i}", sort) for i in range(n)]

    good_sorts = [BitVecSort(3), BitVecSort(8)] if operand is BitVecSort else [operand]
    for sort in good_sorts:
        for n in {lo, hi if hi is not None else lo + 2}:
            t = store.intern(kind, operands(n, sort))
            assert store.sort_of(t) == (result or sort)
        if lo > 0:
            with pytest.raises(SortError):
                store.intern(kind, operands(lo - 1, sort))
        if hi is not None:
            with pytest.raises(SortError):
                store.intern(kind, operands(hi + 1, sort))
    if lo == 0:
        return
    wrong = INT if operand is not INT else BOOL
    for i in range(lo):
        args = operands(lo, good_sorts[0])
        args[i] = store.var("w", wrong)
        with pytest.raises(SortError):
            store.intern(kind, args)
    if operand is BitVecSort and lo > 1:
        mixed = [store.var("a", BitVecSort(3)), store.var("b", BitVecSort(4))]
        with pytest.raises(SortError):
            store.intern(kind, mixed)


def test_signature_table_matches_pinned_operators():
    from certkernel.terms import SIGNATURES
    assert SIGNATURES == OPERATORS


def test_bool_and_int_sorts_are_singletons():
    """BoolSort() and IntSort() are BOOL and INT themselves, which compare
    and hash by identity, and copies and pickles of them, alone or inside
    a store, are the same objects."""
    import copy
    import pickle

    from certkernel import BoolSort, IntSort
    assert BoolSort() is BOOL and IntSort() is INT
    assert BOOL == BoolSort() and INT == IntSort() and BOOL != INT
    assert hash(BoolSort()) == object.__hash__(BOOL) and hash(INT) == object.__hash__(INT)
    assert {BOOL: 1, INT: 2}[BoolSort()] == 1 and len({BOOL, BoolSort(), INT, IntSort()}) == 2
    assert (repr(BOOL), str(BOOL), repr(INT), str(INT)) == ("BoolSort()", "Bool", "IntSort()", "Int")
    store = TermStore()
    store.var("p", BOOL)
    store.var("x", INT)
    for sort in (BOOL, INT):
        assert copy.copy(sort) is sort and copy.deepcopy(sort) is sort
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(sort, protocol)) is sort
    for clone in (copy.deepcopy(store), pickle.loads(pickle.dumps(store))):
        assert [clone.sort_of(t) for t in (2, 3)] == [BOOL, INT]
        assert clone.sort_of(2) is BOOL and clone.sort_of(3) is INT
        assert clone.var("p", BOOL) == 2 and len(clone) == len(store)
    with pytest.raises(AttributeError):
        BOOL.width = 1
