"""Equality small checker: justification replay."""

import random

import gens
from certkernel import (
    EqRule, EqStep, EufPayload, FunSym, TRIVIALLY_TRUE, TermStore,
    UninterpretedSort, check_euf, euf_lemma_valid, mk_clause, neg, pos,
)


def _world():
    store = TermStore()
    u = UninterpretedSort("U")
    a = store.var("a", u)
    b = store.var("b", u)
    c = store.var("c", u)
    f = FunSym("f", (u,), u)
    return store, u, a, b, c, f


def test_congruence_axiom_instance():
    store, u, a, b, c, f = _world()
    lemma = mk_clause(store, [
        neg(store.eq(a, b)),
        pos(store.eq(store.apply(f, [a]), store.apply(f, [b]))),
    ])
    payload = EufPayload(lemma, (
        EqStep(EqRule.HYP, hyp=0),
        EqStep(EqRule.CONG, fun=f, refs=(0,)),
    ))
    assert check_euf(store, payload) == lemma


def test_transitivity():
    store, u, a, b, c, f = _world()
    h0 = store.eq(a, b)
    h1 = store.eq(b, c)
    lemma = mk_clause(store, [neg(h0), neg(h1), pos(store.eq(a, c))])
    lits = lemma.lits
    i0 = next(i for i, l in enumerate(lits) if l.atom == h0)
    i1 = next(i for i, l in enumerate(lits) if l.atom == h1)
    payload = EufPayload(lemma, (
        EqStep(EqRule.HYP, hyp=i0),
        EqStep(EqRule.HYP, hyp=i1),
        EqStep(EqRule.TRANS, refs=(0, 1)),
    ))
    assert check_euf(store, payload) == lemma


def test_reflexivity_and_symmetry():
    store, u, a, b, c, f = _world()
    lemma = mk_clause(store, [pos(store.eq(a, a))])
    assert check_euf(store, EufPayload(lemma, (EqStep(EqRule.REFL, term=a),))) \
        == lemma
    lemma2 = mk_clause(store, [neg(store.eq(a, b)), pos(store.eq(b, a))])
    payload = EufPayload(lemma2, (
        EqStep(EqRule.HYP, hyp=0),
        EqStep(EqRule.SYM, refs=(0,)),
    ))
    assert check_euf(store, payload) == lemma2


def test_conclusion_matches_either_orientation():
    store, u, a, b, c, f = _world()
    # conclusion written b = a, derived a = b: accepted without a sym step
    lemma = mk_clause(store, [neg(store.eq(a, b)), pos(store.eq(b, a))])
    payload = EufPayload(lemma, (EqStep(EqRule.HYP, hyp=0),))
    assert check_euf(store, payload) == lemma


def test_trans_requires_exact_middle_term():
    store, u, a, b, c, f = _world()
    h0 = store.eq(a, b)
    h1 = store.eq(c, b)  # not chainable with h0 as written
    lemma = mk_clause(store, [neg(h0), neg(h1), pos(store.eq(a, c))])
    lits = lemma.lits
    i0 = next(i for i, l in enumerate(lits) if l.atom == h0)
    i1 = next(i for i, l in enumerate(lits) if l.atom == h1)
    payload = EufPayload(lemma, (
        EqStep(EqRule.HYP, hyp=i0),
        EqStep(EqRule.HYP, hyp=i1),
        EqStep(EqRule.TRANS, refs=(0, 1)),
    ))
    assert check_euf(store, payload) == TRIVIALLY_TRUE
    # with the second hypothesis flipped first, it chains
    payload2 = EufPayload(lemma, (
        EqStep(EqRule.HYP, hyp=i0),
        EqStep(EqRule.HYP, hyp=i1),
        EqStep(EqRule.SYM, refs=(1,)),
        EqStep(EqRule.TRANS, refs=(0, 2)),
    ))
    assert check_euf(store, payload2) == lemma
    # a = b and c = d do not chain to a = d
    d = store.var("d", u)
    h2 = store.eq(c, d)
    wrong = mk_clause(store, [neg(h0), neg(h2), pos(store.eq(a, d))])
    payload3 = EufPayload(wrong, (
        EqStep(EqRule.HYP, hyp=wrong.index(neg(h0))),
        EqStep(EqRule.HYP, hyp=wrong.index(neg(h2))),
        EqStep(EqRule.TRANS, refs=(0, 1)),
    ))
    assert check_euf(store, payload3) == TRIVIALLY_TRUE


def test_rejects_malformed_material():
    store, u, a, b, c, f = _world()
    lemma = mk_clause(store, [neg(store.eq(a, b)), pos(store.eq(b, a))])
    # dangling reference
    assert check_euf(store, EufPayload(lemma, (EqStep(EqRule.SYM, refs=(0,)),))) \
        == TRIVIALLY_TRUE
    # hyp pointing at the positive literal
    lits = lemma.lits
    pos_index = next(i for i, l in enumerate(lits) if l.positive)
    assert check_euf(store, EufPayload(lemma, (EqStep(EqRule.HYP, hyp=pos_index),))) \
        == TRIVIALLY_TRUE
    # empty justification
    assert check_euf(store, EufPayload(lemma, ())) == TRIVIALLY_TRUE
    # wrong final pair
    payload = EufPayload(lemma, (EqStep(EqRule.REFL, term=a),))
    assert check_euf(store, payload) == TRIVIALLY_TRUE
    # lemma with two positive literals has no unique conclusion
    bad = mk_clause(store, [pos(store.eq(a, b)), pos(store.eq(b, c))])
    assert check_euf(store, EufPayload(bad, (EqStep(EqRule.REFL, term=a),))) \
        == TRIVIALLY_TRUE
    # cong arity mismatch
    payload = EufPayload(lemma, (
        EqStep(EqRule.HYP, hyp=0),
        EqStep(EqRule.CONG, fun=f, refs=(0, 0)),
    ))
    assert check_euf(store, payload) == TRIVIALLY_TRUE


def test_a_rejected_step_ends_the_replay():
    """A refl of no term or of an id outside the store, a trans without two
    refs, a cong without a function, and a sym or cong of a negative ref
    each reject the lemma, though the steps after it prove it; replay stops
    at the rejected step, so the cong after it interns nothing."""
    store, u, a, b, c, f = _world()
    lemma = mk_clause(store, [neg(store.eq(a, b)), pos(store.eq(b, a))])
    for bad in (EqStep(EqRule.REFL), EqStep(EqRule.REFL, term=len(store)),
                EqStep(EqRule.REFL, term=-1), EqStep(EqRule.TRANS, refs=(0,)),
                EqStep(EqRule.TRANS, refs=(0, 0, 0)), EqStep(EqRule.SYM, refs=(-1,)),
                EqStep(EqRule.CONG, refs=(0,)), EqStep(EqRule.CONG, fun=f, refs=(-1,))):
        nodes = len(store)
        payload = EufPayload(lemma, (EqStep(EqRule.HYP, hyp=0), bad,
                                     EqStep(EqRule.CONG, fun=f, refs=(0,)),
                                     EqStep(EqRule.SYM, refs=(0,))))
        assert check_euf(store, payload) == TRIVIALLY_TRUE, bad
        assert len(store) == nodes, bad
    good = EufPayload(lemma, (EqStep(EqRule.HYP, hyp=0), EqStep(EqRule.CONG, fun=f, refs=(0,)),
                              EqStep(EqRule.SYM, refs=(0,))))
    assert check_euf(store, good) == lemma


def test_accepted_random_lemmas_are_finite_model_valid():
    rng = random.Random(77)
    for _ in range(200):
        store = TermStore()
        payload = gens.gen_euf_payload(store, rng)
        assert check_euf(store, payload) == payload.lemma
        assert euf_lemma_valid(store, payload.lemma, max_domain=3)


def test_mutations_never_yield_a_wrong_lemma():
    rng = random.Random(78)
    for _ in range(300):
        store = TermStore()
        payload = gens.gen_euf_payload(store, rng)
        bad = gens.mutate_euf_payload(payload, rng)
        out = check_euf(store, bad)
        assert out == TRIVIALLY_TRUE or out == bad.lemma
