#!/usr/bin/env python3
"""Theory lemmas: equality replay and Farkas arithmetic.

Small checkers validate one theory lemma at a time.  The equality checker
replays an explicit justification; the arithmetic checker verifies that a
non-negative combination of the lemma's negated literals is contradictory.
Both return the lemma on success and the trivially true clause otherwise.
"""

from certkernel import (
    INT, EqRule, EqStep, EufPayload, FunSym, Kind, LiaPayload, TRIVIALLY_TRUE,
    TermStore, UninterpretedSort, check_euf, check_lia, clause_to_sexpr,
    euf_lemma_valid, mk_clause, neg, pos,
)

# --- equality with uninterpreted functions ----------------------------------

store = TermStore()
u = UninterpretedSort("U")
a = store.var("a", u)
b = store.var("b", u)
f = FunSym("f", (u,), u)

# lemma: a = b  entails  f(a) = f(b)
lemma = mk_clause(store, [
    neg(store.eq(a, b)),
    pos(store.eq(store.apply(f, [a]), store.apply(f, [b]))),
])
justification = (
    EqStep(EqRule.HYP, hyp=0),          # import a = b
    EqStep(EqRule.CONG, fun=f, refs=(0,)),  # conclude f(a) = f(b)
)
out = check_euf(store, EufPayload(lemma, justification))
print("euf lemma accepted:", out == lemma)
print("  ", clause_to_sexpr(store, out))
print("finite-model validity (domains 1..3):",
      euf_lemma_valid(store, lemma, max_domain=3))

# Damage the justification and the checker degrades to [true], never to a
# wrong clause.
broken = EufPayload(lemma, (EqStep(EqRule.SYM, refs=(5,)),))
print("broken justification ->", clause_to_sexpr(store, check_euf(store, broken)))

# --- linear integer arithmetic ----------------------------------------------

store = TermStore()
x = store.var("x", INT)

# lemma: x <= 0  or  x >= 1   (excluded middle on integers)
lemma = mk_clause(store, [
    pos(store.le(x, store.int_const(0))),
    pos(store.le(store.int_const(1), x)),
])
# negating the literals gives rows x >= 1 and -x >= 0; their sum is 0 >= 1
payload = LiaPayload(lemma, combination=((0, 1), (1, 1)))
print("\nlia lemma accepted:", check_lia(store, payload) == lemma)

# Divisibility needs gcd tightening: 2x = 1 has no integer solution.
atom = store.eq(store.intern(Kind.MUL, (store.int_const(2), x)), store.int_const(1))
parity = mk_clause(store, [neg(atom)])
tight = LiaPayload(parity, ((0, 1), (0, -1)), tighten=True)
plain = LiaPayload(parity, ((0, 1), (0, -1)), tighten=False)
print("not(2x = 1) with tightening:", check_lia(store, tight) == parity)
print("same certificate without it:", check_lia(store, plain) == TRIVIALLY_TRUE,
      "(rejected)")
