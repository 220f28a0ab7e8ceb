"""Reference CNF lemma: the string-template ``cnf_lemma`` that
``certkernel.resolution.cnf_lemma`` replaced.

``cnf_lemma`` now replays templates compiled once from ``TSEITIN``.  This
is the checker it replaced, kept but for its name: it splits the rule's
template string on every call, makes each literal's code with
``pos``/``neg`` and hands the codes to ``mk_clause``.
``test_resolution.py`` compares the two.
"""

from __future__ import annotations

from certkernel import BOOL, TRIVIALLY_TRUE, Clause, CnfPayload, RuleKind, TermStore, mk_clause
from certkernel.resolution import TSEITIN
from certkernel.terms import neg, pos


def naive_cnf_lemma(store: TermStore, rule: RuleKind, payload: CnfPayload) -> Clause:
    entry = TSEITIN.get(rule)
    if entry is None:
        return TRIVIALLY_TRUE
    head, *templates = entry
    t = payload.target
    if not (0 <= t < len(store)) or store.kind(t) is not head:
        return TRIVIALLY_TRUE
    if store.sort_of(t) != BOOL:
        return TRIVIALLY_TRUE
    args = store.args(t)
    i = payload.index
    if len(templates) == 1:
        template = templates[0]
    elif 0 <= i < len(templates):
        template = templates[i]
    else:
        return TRIVIALLY_TRUE
    lits = []
    for ref in template.split():
        positive, ref = ref[0] == "+", ref[1:]
        if ref == "t":
            atoms = (t,)
        elif ref == "*":
            atoms = args
        elif ref != "i":
            atoms = (args[int(ref)],)
        elif 0 <= i < len(args):
            atoms = (args[i],)
        else:
            return TRIVIALLY_TRUE
        lits.extend(pos(a) if positive else neg(a) for a in atoms)
    return mk_clause(store, lits)
