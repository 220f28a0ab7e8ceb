"""Records: the value semantics the named tuples and hand-written classes keep.

The frozen records are named tuples, except ``Clause``, a tuple subclass
with no slot whose items are the clause's codes, and ``BitVecSort`` adds
its width check to a named tuple; the mutable ones are plain classes.
Every record must pickle and copy.  A named tuple is a tuple, and so is a
clause, so each would compare equal to a plain tuple; ``terms.class_eq``
makes the records compare by class as well, as dataclasses did, so
clauses, sorts and function symbols, which feed hash-cons keys and the
checkers' comparisons, never equal a lookalike.  The kernel takes a
payload only of its rule's class.
"""

import copy
import pickle
import sys

import pytest

from certkernel import (
    BOOL, INT, AssumePayload, BitVecSort, BvPayload, Certificate, Clause, CnfPayload,
    EqRule, EqStep, EufPayload, FunSym, Kind, LiaPayload, NStep, RuleKind, SortError,
    Step, TermStore, UninterpretedSort, Verdict, check, mk_clause, neg, parse_dimacs,
    parse_smt2, pos,
)

U = UninterpretedSort("U")
F = FunSym("f", (U, BitVecSort(8)), BOOL)

RECORDS = [
    Clause((1, 4, 7)), Clause(()),
    AssumePayload(Clause((2,))),
    CnfPayload(5, 1),
    EufPayload(Clause((3, 6)), (EqStep(EqRule.HYP, hyp=0), EqStep(EqRule.CONG, refs=(0,), fun=F))),
    LiaPayload(Clause((3,)), ((0, 2),), tighten=True),
    BvPayload(4, (5, 6)),
    BOOL, INT, BitVecSort(8), U, F,
    Certificate((Step(2, RuleKind.AND_POS, (), CnfPayload(3, 0)),
                 Step(3, RuleKind.RES, (0, 2))), qed=3),
]


def _round_trips(value):
    yield copy.copy(value)
    yield copy.deepcopy(value)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield pickle.loads(pickle.dumps(value, protocol))


@pytest.mark.parametrize("value", RECORDS, ids=lambda v: type(v).__name__)
def test_records_copy_and_pickle_to_equal_values_of_their_class(value):
    for twin in _round_trips(value):
        assert type(twin) is type(value)
        assert twin == value and not twin != value
        assert hash(twin) == hash(value)
    if value is BOOL or value is INT:
        assert all(twin is value for twin in _round_trips(value))


def test_check_result_and_problem_copy_and_pickle():
    cnf = parse_dimacs("p cnf 2 2\n1 0\n-1 0\n")
    result = check(cnf.store, cnf.input_clauses,
                   Certificate((Step(2, RuleKind.RES, (0, 1)),), qed=2))
    assert result.verdict is Verdict.VALID
    for twin in _round_trips(result):
        assert type(twin) is type(result) and twin == result
    smt = parse_smt2("(set-logic QF_UF) (declare-sort U 0) (declare-const a U)"
                     " (declare-fun f (U) U) (assert (not (= (f a) a)))")
    fields = ("logic", "decls", "sorts", "assertions", "input_clauses",
              "dimacs_header_vars", "term_memo")
    for prob in (cnf, smt):
        for twin in _round_trips(prob):
            assert type(twin) is type(prob)
            assert [getattr(twin, f) for f in fields] == [getattr(prob, f) for f in fields]
            assert twin.store._nodes == prob.store._nodes
            assert twin.store._sorts == prob.store._sorts
            assert twin.store._index == prob.store._index


def test_clause_len_counts_literals_and_the_clause_is_frozen():
    clause = Clause((1, 4, 7))
    assert len(clause) == 3 and not Clause(()) and clause
    with pytest.raises(AttributeError):
        clause.enc = ()
    with pytest.raises(AttributeError):
        del clause.enc
    assert clause.enc == (1, 4, 7)


def test_a_clause_is_one_object_laid_out_as_its_code_tuple():
    store = TermStore()
    p, q = store.var("p", BOOL), store.var("q", BOOL)
    assert Clause.__slots__ == ()
    for codes in ([], [pos(p)], [neg(q), pos(p), neg(q)], [pos(q), neg(q), neg(p), pos(p)]):
        clause = mk_clause(store, codes)
        assert type(clause) is Clause
        assert sys.getsizeof(clause) == sys.getsizeof(tuple(sorted(set(codes))))
        assert not hasattr(clause, "__dict__")


def test_bit_vector_width_is_checked():
    for width in (0, -3):
        with pytest.raises(SortError, match="width must be >= 1"):
            BitVecSort(width)


# Each value beside plain tuples and records of other classes with the same
# items (a one-field record of the value's items, or the value's fields).
LOOKALIKES = [
    (Clause((1, 2)), [((1, 2),), (1, 2), AssumePayload((1, 2))]),
    (BitVecSort(8), [(8,), UninterpretedSort(8), AssumePayload(8), Clause((8,))]),
    (U, [("U",), BitVecSort.__base__("U"), AssumePayload("U")]),
    (F, [("f", (U, BitVecSort(8)), BOOL), NStep("f", (U, BitVecSort(8)), BOOL)]),
]


@pytest.mark.parametrize("value, others", LOOKALIKES, ids=lambda v: type(v).__name__)
def test_clauses_sorts_and_symbols_equal_only_their_own_class(value, others):
    for other in others:
        assert value != other and other != value
        assert not value == other and not other == value
        assert {value: 1}.get(other) is None and {other: 1}.get(value) is None


def test_hash_cons_keys_keep_a_sort_and_its_lookalike_tuple_apart():
    store = TermStore()
    bv = store.var("x", BitVecSort(8))
    with pytest.raises(SortError, match="variable sort must be a sort, got \\(8,\\)"):
        store.var("x", (8,))  # the lookalike is no sort at all
    assert store.var("x", BitVecSort(8)) == bv and len(store) == 3
    with pytest.raises(SortError, match="apply payload must be a FunSym"):
        store.intern(Kind.APPLY, (bv, bv), ("f", (BitVecSort(8),) * 2, BOOL))


def _one_target():
    store = TermStore()
    p, q = store.var("p", BOOL), store.var("q", BOOL)
    t = store.intern(Kind.AND, [p, q])
    return store, t, [mk_clause(store, [pos(t)]), mk_clause(store, [neg(p)])]


@pytest.mark.parametrize("rule, payload", [
    (RuleKind.AND_POS, "tuple"),       # (t, 0) in place of CnfPayload(t, 0)
    (RuleKind.BB_VAR, "cnf"),          # a CnfPayload under a bb_* rule
    (RuleKind.BB_AND, "cnf"),
])
def test_a_payload_of_another_class_is_invalid(rule, payload):
    store, t, inputs = _one_target()
    given = (t, 0) if payload == "tuple" else CnfPayload(t, 0)
    result = check(store, inputs, Certificate((Step(2, rule, (), given),), qed=2))
    assert (result.verdict, result.reason, result.step_id) \
        == (Verdict.INVALID, f"payload does not match rule {rule.value}", 2)
    # the record itself is taken under its own rule
    ok = check(store, inputs, Certificate((Step(2, RuleKind.AND_POS, (), CnfPayload(t, 0)),), qed=2))
    assert ok.reason == "empty clause not derived"
