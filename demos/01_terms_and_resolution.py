#!/usr/bin/env python3
"""Terms, clauses, and a first refutation.

Walks through the shared vocabulary of the kernel: hash-consed terms,
encoded literals, canonical clauses, and a two-step resolution proof
replayed by the main checker.
"""

from certkernel import (
    BOOL, Certificate, Kind, RuleKind, Step, TermStore, check, mk_clause, neg, pos,
    resolve_chain, stats_report, to_sexpr,
)

store = TermStore()

# Terms are interned: building the same structure twice gives the same id.
p = store.var("p", BOOL)
q = store.var("q", BOOL)
conj = store.intern(Kind.AND, [p, q])
print("and(p q) id:", conj, "== rebuilt:", store.intern(Kind.AND, [p, q]))
print("printed:", to_sexpr(store, conj))

# A literal is its code, 2*atom + negated; clauses keep codes sorted and unique.
c1 = mk_clause(store, [pos(p), pos(q), pos(p)])
print("\nclause [p, q, p] canonicalizes to encodings:", c1.enc)

# Resolution removes one opposite-polarity pair.
c2 = mk_clause(store, [neg(p)])
print("resolving with [not p] gives:", resolve_chain((c1, c2)).enc, "(just q)")

# No pivot?  The checker answers with the trivially true clause instead of
# failing -- rejected material can never strengthen a derivation.
print("no pivot:", resolve_chain((c1, c1)).enc, "(the clause [true])")

# A full run: the inputs say p and not p; one step derives the empty clause.
inputs = [mk_clause(store, [pos(p)]), mk_clause(store, [neg(p)])]
cert = Certificate((Step(2, RuleKind.RES, (0, 1)),), qed=2)
result = check(store, inputs, cert)
print("\n" + stats_report(store, result))
