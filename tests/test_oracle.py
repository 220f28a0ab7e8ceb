"""Semantic evaluator and brute-force search."""

import gc
import inspect
import sys
import time

import pytest

from certkernel import (
    BOOL, INT, BitVecSort, FunSym, IncompleteModelError, Kind, Model, ResourceError,
    TermStore, UninterpretedSort, brute_unsat, euf_lemma_valid, eval_clause,
    eval_term, is_tautology, mk_clause, neg, parse_smt2, pos, propositionally_implies,
)
from certkernel.cli import run_one
from certkernel.oracle import (
    EXHAUSTED, SAT, UNSAT, abstract_atoms, bits_to_int, int_to_bits,
)


def test_eval_constants_and_comparison():
    store = TermStore()
    assert eval_term(store, Model(), store.true_id) is True
    x = store.var("x", INT)
    m = Model(values={x: 3})
    assert eval_term(store, m, store.le(x, store.int_const(3))) is True
    assert eval_term(store, m, store.lt(x, store.int_const(3))) is False
    assert eval_term(store, m, store.add([x, store.int_const(-5)])) == -2
    assert eval_term(store, m, store.intern(Kind.MUL, (store.int_const(2), x))) == 6


def test_eval_bv_add_is_modular():
    store = TermStore()
    x = store.var("x", BitVecSort(2))
    y = store.var("y", BitVecSort(2))
    m = Model(values={x: int_to_bits(1, 2), y: int_to_bits(1, 2)})
    out = eval_term(store, m, store.intern(Kind.BV_ADD, (x, y)))
    assert bits_to_int(out) == 2
    m2 = Model(values={x: int_to_bits(3, 2), y: int_to_bits(2, 2)})
    assert bits_to_int(eval_term(store, m2, store.intern(Kind.BV_ADD, (x, y)))) == 1
    assert eval_term(store, m2, store.intern(Kind.BV_ULT, (y, x))) is True


def test_eval_uninterpreted_function_table():
    store = TermStore()
    u = UninterpretedSort("U")
    a = store.var("a", u)
    f = FunSym("f", (u,), u)
    fa = store.apply(f, [a])
    m = Model(values={a: 0}, fun_tables={f: ({(0,): 1}, 0)})
    assert eval_term(store, m, fa) == 1
    assert eval_term(store, m, store.eq(fa, a)) is False
    with pytest.raises(IncompleteModelError):
        eval_term(store, Model(values={a: 0}), fa)


def test_eval_clause():
    store = TermStore()
    p = store.var("p", BOOL)
    assert eval_clause(store, Model(), mk_clause(store, [])) is False
    assert eval_clause(store, Model(), mk_clause(store, [pos(store.true_id)])) is True
    taut = mk_clause(store, [pos(p), neg(p)])
    for v in (False, True):
        assert eval_clause(store, Model(values={p: v}), taut) is True


def test_brute_unsat_basics():
    store = TermStore()
    p = store.var("p", BOOL)
    q = store.var("q", BOOL)
    r = brute_unsat(store, [mk_clause(store, [pos(p)]), mk_clause(store, [neg(p)])])
    assert r.status == UNSAT and r.complete
    r2 = brute_unsat(store, [mk_clause(store, [pos(p), pos(q)])])
    assert r2.status == SAT
    assert eval_clause(store, r2.witness, mk_clause(store, [pos(p), pos(q)]))


def test_brute_unsat_bv_fact():
    # 01 + 01 = 10 at width 2, so asserting inequality is unsat
    store = TermStore()
    one = store.bv_const(int_to_bits(1, 2))
    s = store.intern(Kind.BV_ADD, (one, one))
    atom = store.eq(s, store.bv_const(int_to_bits(2, 2)))
    r = brute_unsat(store, [mk_clause(store, [neg(atom)])])
    assert r.status == UNSAT


def test_brute_unsat_exhausted_on_budget():
    store = TermStore()
    vs = [store.var(f"b{i}", BOOL) for i in range(12)]
    clauses = [mk_clause(store, [pos(v) for v in vs])]
    assert brute_unsat(store, clauses, budget=100).status == EXHAUSTED


def test_brute_unsat_int_box_is_flagged_incomplete():
    store = TermStore()
    x = store.var("x", INT)
    r = brute_unsat(store, [mk_clause(store, [pos(store.le(x, store.int_const(-50)))])])
    # The only models are outside the box: verdict is unsat-within-budget.
    assert r.status == UNSAT and not r.complete


def test_tautology_and_implication():
    store = TermStore()
    p = store.var("p", BOOL)
    q = store.var("q", BOOL)
    t = store.intern(Kind.AND, [p, q])
    assert is_tautology(store, mk_clause(store, [neg(t), pos(p)]))
    assert not is_tautology(store, mk_clause(store, [pos(t), pos(p)]))
    premises = [mk_clause(store, [pos(p), pos(q)]), mk_clause(store, [neg(p)])]
    assert propositionally_implies(store, premises, mk_clause(store, [pos(q)]))
    assert not propositionally_implies(store, premises, mk_clause(store, [pos(p)]))


def test_depth_10000_terms_walk_without_recursion():
    store = TermStore()
    p = store.var("p", BOOL)
    atom = store.le(store.var("x", INT), store.int_const(0))
    t = store.intern(Kind.AND, [p, atom])
    for _ in range(10_000):
        t = store.intern(Kind.NOT, (t,))
    assert abstract_atoms(store, [t]) == (p, atom)
    # 2 * 21 assignments exceed the budget only after the symbols are known
    assert brute_unsat(store, [mk_clause(store, [pos(t)])], budget=41).status == EXHAUSTED


def test_euf_lemma_validity():
    store = TermStore()
    u = UninterpretedSort("U")
    a = store.var("a", u)
    b = store.var("b", u)
    c = store.var("c", u)
    f = FunSym("f", (u,), u)
    cong = mk_clause(store, [
        neg(store.eq(a, b)),
        pos(store.eq(store.apply(f, [a]), store.apply(f, [b]))),
    ])
    assert euf_lemma_valid(store, cong, max_domain=3)
    assert not euf_lemma_valid(store, mk_clause(store, [pos(store.eq(a, b))]),
                               max_domain=2)
    trans = mk_clause(store, [
        neg(store.eq(a, b)), neg(store.eq(b, c)), pos(store.eq(a, c)),
    ])
    assert euf_lemma_valid(store, trans, max_domain=3)


def test_euf_oracle_budget():
    store = TermStore()
    u = UninterpretedSort("U")
    vs = [store.var(ch, u) for ch in "abcdefgh"]
    # A valid lemma over many carriers never exits early, so the full sweep
    # must blow a tiny budget.
    lits = [neg(store.eq(vs[i], vs[i + 1])) for i in range(0, 8, 2)]
    lemma = mk_clause(store, lits + [pos(store.eq(vs[0], vs[0]))])
    with pytest.raises(ResourceError):
        euf_lemma_valid(store, lemma, max_domain=3, budget=10)


def _cyclic_garbage_after(call) -> int:
    """Objects the cyclic collector finds after call(), with it paused."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        call()
        return gc.collect()
    finally:
        if collecting:
            gc.enable()


def test_oracle_searches_leave_no_cyclic_garbage():
    store = TermStore()
    u = UninterpretedSort("U")
    a, b = store.var("a", u), store.var("b", u)
    f = FunSym("f", (u,), u)
    fa, fb = store.apply(f, [a]), store.apply(f, [b])
    cong = mk_clause(store, [neg(store.eq(a, b)), pos(store.eq(fa, fb))])
    p = store.var("p", BOOL)
    clauses = [mk_clause(store, [pos(store.eq(a, b))]),
               mk_clause(store, [neg(store.eq(fa, fb)), pos(p)])]
    assert _cyclic_garbage_after(lambda: euf_lemma_valid(store, cong)) == 0
    assert _cyclic_garbage_after(lambda: brute_unsat(store, clauses)) == 0
    assert _cyclic_garbage_after(lambda: is_tautology(store, cong)) == 0


def test_oracle_evaluates_10000_deep_chains():
    store = TermStore()
    p = store.var("p", BOOL)
    t = p
    for _ in range(10_000):
        t = store.intern(Kind.NOT, (t,))
    assert brute_unsat(store, [mk_clause(store, [pos(t)])]).status == SAT
    assert brute_unsat(store, [mk_clause(store, [pos(t)]),
                               mk_clause(store, [neg(p)])]).status == UNSAT
    assert is_tautology(store, mk_clause(store, [pos(t), neg(p)]))
    u = UninterpretedSort("U")
    a, b = store.var("a", u), store.var("b", u)
    f = FunSym("f", (u,), u)
    fa, fb = a, b
    for _ in range(10_000):
        fa, fb = store.apply(f, [fa]), store.apply(f, [fb])
    cong = mk_clause(store, [neg(store.eq(a, b)), pos(store.eq(fa, fb))])
    assert euf_lemma_valid(store, cong, max_domain=2)
    assert not euf_lemma_valid(store, mk_clause(store, [pos(store.eq(fa, b))]),
                               max_domain=2)


def test_euf_oracle_rejects_an_arithmetic_side_before_the_search():
    """Every lemma side is checked up front, even behind a literal that
    holds in every interpretation."""
    store = TermStore()
    x, y, z = (store.var(n, INT) for n in "xyz")
    e = store.eq(x, y)
    lemma = mk_clause(store, [pos(e), neg(e), pos(store.eq(store.add([x, y]), z))])
    with pytest.raises(ResourceError, match=r"unsupported term in equality lemma: \(\+ x y\)"):
        euf_lemma_valid(store, lemma)


def test_a_search_path_of_300_function_entries_takes_no_recursion(tmp_path):
    """Each flat assert (<= (f k) 100) reaches one more entry of f, so one
    search path fills 300 of them; the search holds them on a stack, not
    in Python frames, and runs 200 frames above this test's own depth."""
    text = "(declare-fun f (Int) Int)\n" \
        + "".join(f"(assert (<= (f {k}) 100))\n" for k in range(300))
    path = tmp_path / "flat.smt2"
    path.write_text(text)
    prob = parse_smt2(text)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 200)
    try:
        res = brute_unsat(prob.store, prob.input_clauses)
        code, report = run_one(str(path), None, "oracle", None, False, False)
    finally:
        sys.setrecursionlimit(limit)
    assert res.status == SAT
    assert all(eval_clause(prob.store, res.witness, c) for c in prob.input_clauses)
    assert len(res.witness.fun_tables[prob.decls["f"][1]][0]) == 300
    assert (code, report) == (0, "status sat\n")


_WIDE = "(set-logic QF_BV) (declare-const x (_ BitVec 32)) (declare-const y (_ BitVec 32))" \
    " (declare-fun f (Bool) (_ BitVec 32))"


@pytest.mark.parametrize("asserts,report", [
    ("(assert (bvult x y)) (assert (bvult y x))", "status exhausted\n"),
    ("(assert (bvult (f true) (f false))) (assert (bvult (f false) (f true)))",
     "status exhausted\n"),
    ("(assert (bvult (f true) (f false)))", "status sat\n"),
], ids=["leaves", "function", "function-sat"])
def test_the_oracle_builds_no_value_list_past_its_budget(asserts, report, tmp_path,
                                                          monkeypatch):
    """Two leaves of 2^32 values each are exhausted from their sizes alone,
    and a function result takes its 2^32 values lazily, one per evaluation."""
    path = tmp_path / "wide.smt2"
    path.write_text(f"{_WIDE} {asserts}")
    monkeypatch.setenv("CERTKERNEL_BUDGET", "1000")
    start = time.perf_counter()
    assert run_one(str(path), None, "oracle", None, False, False) == (0, report)
    assert time.perf_counter() - start < 1


def test_a_variable_wider_than_the_budget_has_bits_is_exhausted(tmp_path):
    """A bit-vector variable of 10^20 bits is past any budget by its width
    alone; the search-space check builds no 1 << 10^20."""
    path = tmp_path / "huge.smt2"
    path.write_text("(declare-const x (_ BitVec 100000000000000000000)) (assert (bvult x x))")
    assert run_one(str(path), None, "oracle", None, False, False) == (0, "status exhausted\n")
