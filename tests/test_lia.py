"""Linear integer arithmetic small checker: Farkas combinations."""

import itertools
import random

import pytest

import gens
from certkernel import (
    BOOL, INT, FunSym, Kind, LiaPayload, Model, TRIVIALLY_TRUE, TermStore,
    UninterpretedSort, check_lia, eval_clause, mk_clause, neg, normalize_lia_literal, pos,
)


def lia_box_valid(store, lemma, lo=-10, hi=10):
    """Exhaustive check of the lemma over the integer box."""
    int_vars = sorted({v for atom in lemma.atoms() for v in store.vars_of(atom)})
    assert all(store.sort_of(v) == INT for v in int_vars)
    for values in itertools.product(range(lo, hi + 1), repeat=len(int_vars)):
        m = Model(values=dict(zip(int_vars, values)))
        if not eval_clause(store, m, lemma):
            return False
    return True


def test_normalize_negated_le_uses_integrality():
    store = TermStore()
    x = store.var("x", INT)
    row = normalize_lia_literal(store, neg(store.le(x, store.int_const(0))))
    assert row == ({x: 1}, 1, False)  # x >= 1


def test_normalize_strict_less():
    store = TermStore()
    x = store.var("x", INT)
    y = store.var("y", INT)
    row = normalize_lia_literal(store, pos(store.lt(x, y)))
    assert row == ({x: -1, y: 1}, 1, False)  # y - x >= 1


def test_normalize_equality_and_disequality():
    store = TermStore()
    x = store.var("x", INT)
    row = normalize_lia_literal(
        store, pos(store.eq(store.intern(Kind.MUL, (store.int_const(2), x)), store.int_const(1))))
    assert row == ({x: 2}, 1, True)  # 2x = 1
    assert normalize_lia_literal(store, neg(store.eq(x, store.int_const(0)))) is None


def test_normalize_rejects_nonlinear():
    store = TermStore()
    x = store.var("x", INT)
    y = store.var("y", INT)
    product = store.intern(Kind.MUL, (x, y))
    assert normalize_lia_literal(store, pos(store.le(product, store.int_const(0)))) is None


def test_excluded_middle_on_integers():
    store = TermStore()
    x = store.var("x", INT)
    lemma = mk_clause(store, [
        pos(store.le(x, store.int_const(0))),
        pos(store.le(store.int_const(1), x)),
    ])
    payload = LiaPayload(lemma, ((0, 1), (1, 1)))
    assert check_lia(store, payload) == lemma
    assert lia_box_valid(store, lemma)


def test_divisibility_conflict_needs_tightening():
    store = TermStore()
    x = store.var("x", INT)
    atom = store.eq(store.intern(Kind.MUL, (store.int_const(2), x)), store.int_const(1))
    lemma = mk_clause(store, [neg(atom)])
    with_t = LiaPayload(lemma, ((0, 1), (0, -1)), tighten=True)
    assert check_lia(store, with_t) == lemma
    without = LiaPayload(lemma, ((0, 1), (0, -1)), tighten=False)
    assert check_lia(store, without) == TRIVIALLY_TRUE
    # bounded enumeration confirms 2x = 1 has no integer solution
    assert lia_box_valid(store, lemma, lo=-8, hi=8)


def test_coefficient_scaling_invariance():
    rng = random.Random(101)
    for _ in range(100):
        store = TermStore()
        payload = gens.gen_lia_payload(store, rng)
        scale = rng.randint(2, 5)
        scaled = LiaPayload(
            payload.lemma,
            tuple((i, c * scale) for i, c in payload.combination),
            payload.tighten)
        assert check_lia(store, payload) == payload.lemma
        assert check_lia(store, scaled) == payload.lemma


def test_rejection_totality():
    store = TermStore()
    x = store.var("x", INT)
    ge_lemma = mk_clause(store, [
        pos(store.le(x, store.int_const(0))),
        pos(store.le(store.int_const(1), x)),
    ])
    # negative multiplier on an inequality row
    assert check_lia(store, LiaPayload(ge_lemma, ((0, -1), (1, 1)))) == TRIVIALLY_TRUE
    # satisfiable combination (same row twice cannot cancel)
    assert check_lia(store, LiaPayload(ge_lemma, ((0, 1), (0, 1)))) == TRIVIALLY_TRUE
    # empty combination
    assert check_lia(store, LiaPayload(ge_lemma, ())) == TRIVIALLY_TRUE
    # out-of-range hypothesis index
    assert check_lia(store, LiaPayload(ge_lemma, ((7, 1),))) == TRIVIALLY_TRUE
    # nonlinear lemma atom
    y = store.var("y", INT)
    nl = mk_clause(store, [pos(store.le(store.intern(Kind.MUL, (x, y)), store.int_const(0)))])
    assert check_lia(store, LiaPayload(nl, ((0, 1),))) == TRIVIALLY_TRUE
    # non-arithmetic atom
    p = store.var("p", BOOL)
    assert check_lia(store, LiaPayload(mk_clause(store, [pos(p)]), ((0, 1),))) \
        == TRIVIALLY_TRUE


def test_accepted_random_lemmas_hold_on_the_box():
    rng = random.Random(103)
    for _ in range(150):
        store = TermStore()
        payload = gens.gen_lia_payload(store, rng)
        assert check_lia(store, payload) == payload.lemma
        assert lia_box_valid(store, payload.lemma)


def test_corrupted_certificates_all_rejected():
    rng = random.Random(104)
    for _ in range(200):
        store = TermStore()
        payload = gens.gen_lia_payload(store, rng)
        bad = gens.corrupt_lia_payload(payload, rng)
        assert check_lia(store, bad) == TRIVIALLY_TRUE


@pytest.mark.parametrize("kind, positive, coeffs, constant, is_eq", [
    ("le", True, {"x": -1, "y": 1}, -2, False),   # y - x >= -2
    ("le", False, {"x": 1, "y": -1}, 3, False),   # x - y >= 3
    ("lt", True, {"x": -1, "y": 1}, -1, False),   # y - x >= -1
    ("lt", False, {"x": 1, "y": -1}, 2, False),   # x - y >= 2
    ("eq", True, {"x": 1, "y": -1}, 2, True),     # x - y = 2
])
def test_normalize_every_comparison_row(kind, positive, coeffs, constant, is_eq):
    """(x + 3) REL (y + 5) for each row of the (kind, polarity) table."""
    store = TermStore()
    x = store.var("x", INT)
    y = store.var("y", INT)
    atom = getattr(store, kind)(store.add([x, store.int_const(3)]),
                                store.add([y, store.int_const(5)]))
    row = normalize_lia_literal(store, pos(atom) if positive else neg(atom))
    assert row == ({x: coeffs["x"], y: coeffs["y"]}, constant, is_eq)


def test_linearize_each_arithmetic_kind_and_keep_applications_opaque():
    store = TermStore()
    x = store.var("x", INT)
    y = store.var("y", INT)
    # ((3 * x) - (-y)) + (y * 2) + 7 <= 0  ==>  -3x - 3y >= 7
    three_x = store.intern(Kind.MUL, (store.int_const(3), x))
    lhs = store.add([store.intern(Kind.SUB, (three_x, store.intern(Kind.NEG, (y,)))),
                     store.intern(Kind.MUL, (y, store.int_const(2))), store.int_const(7)])
    row = normalize_lia_literal(store, pos(store.le(lhs, store.int_const(0))))
    assert row == ({x: -3, y: -3}, 7, False)
    # a shared summand counts once per use: 0 <= a + a with a = x + 1
    a = store.add([x, store.int_const(1)])
    row = normalize_lia_literal(store, pos(store.le(store.int_const(0), store.add([a, a]))))
    assert row == ({x: 2}, -2, False)
    # an application is an opaque variable, even over a nonlinear product
    t = store.apply(FunSym("f", (INT,), INT), [store.intern(Kind.MUL, (x, y))])
    lemma = mk_clause(store, [pos(store.le(t, store.int_const(0))),
                              pos(store.le(store.int_const(1), t))])
    assert check_lia(store, LiaPayload(lemma, ((0, 1), (1, 1)))) == lemma


def test_normalize_rejects_integer_disequality_and_non_comparisons():
    store = TermStore()
    x = store.var("x", INT)
    assert normalize_lia_literal(store, neg(store.eq(x, store.int_const(0)))) is None
    assert normalize_lia_literal(store, pos(store.var("p", BOOL))) is None
    u = UninterpretedSort("U")
    equal = store.eq(store.var("a", u), store.var("b", u))
    assert normalize_lia_literal(store, pos(equal)) is None


def test_product_needs_a_literal_factor():
    """A constant expression such as (+ 1 1) is not a literal factor; the
    frontend never builds such a product, and lia rejects it."""
    store = TermStore()
    x = store.var("x", INT)
    nonneg = store.le(store.int_const(0), x)
    for factor, accepted in ((store.int_const(2), True),
                             (store.add([store.int_const(1), store.int_const(1)]), False)):
        # not(0 <= x) or not(factor * x <= -1): 2 * (x >= 0) + (-2x >= 1)
        product = store.intern(Kind.MUL, (factor, x))
        lemma = mk_clause(store, [neg(nonneg), neg(store.le(product, store.int_const(-1)))])
        out = check_lia(store, LiaPayload(lemma, ((0, 2), (1, 1))))
        assert out == (lemma if accepted else TRIVIALLY_TRUE)


def test_deep_sum_does_not_recurse():
    store = TermStore()
    x = store.var("x", INT)
    one = store.int_const(1)
    s = x
    for _ in range(10_000):
        s = store.add([s, one])
    lemma = mk_clause(store, [neg(store.le(s, x))])
    assert check_lia(store, LiaPayload(lemma, ((0, 1),))) == lemma


def test_all_zero_multipliers_and_negative_equality_multiplier():
    """A combination whose multipliers are all zero sums to 0 >= 0 and is
    rejected, tightened or not; an equality row used in its negative
    direction still certifies."""
    store = TermStore()
    x = store.var("x", INT)
    one = store.int_const(1)
    eq_atom, le_atom = store.eq(x, one), store.le(x, one)
    # not(x = 1) or x <= 1: the rows are x = 1 and x >= 2.
    lemma = mk_clause(store, [neg(eq_atom), pos(le_atom)])
    eq_idx = [lit.atom for lit in lemma.lits].index(eq_atom)
    le_idx = 1 - eq_idx
    for tighten in (False, True):
        for combination in (((eq_idx, 0),), ((eq_idx, 0), (le_idx, 0))):
            assert check_lia(store, LiaPayload(lemma, combination, tighten)) == TRIVIALLY_TRUE
        assert check_lia(store, LiaPayload(lemma, ((eq_idx, -1), (le_idx, 1)), tighten)) == lemma
        assert check_lia(store, LiaPayload(lemma, ((eq_idx, 1), (le_idx, 1)), tighten)) \
            == TRIVIALLY_TRUE
    assert lia_box_valid(store, lemma)
