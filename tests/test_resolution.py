"""Resolution and CNF-conversion small checkers."""

import random
import time

import gens
from certkernel import (
    BOOL, INT, Clause, CnfPayload, Kind, RuleKind, SortError, TRIVIALLY_TRUE, TermStore, cnf_lemma,
    is_tautology, mk_clause, neg, pos, propositionally_implies, resolve_chain, to_sexpr,
)
from certkernel.resolution import _SHORT


def _vars(store, n):
    return [store.var(f"p{i}", BOOL) for i in range(n)]


def test_resolve_pair_basic():
    store = TermStore()
    p, q = _vars(store, 2)
    c = resolve_chain((mk_clause(store, [pos(p), pos(q)]), mk_clause(store, [neg(p)])))
    assert c == mk_clause(store, [pos(q)])


def test_resolve_pair_no_pivot_is_trivially_true():
    store = TermStore()
    p, q = _vars(store, 2)
    assert resolve_chain((mk_clause(store, [pos(p)]), mk_clause(store, [pos(q)]))) \
        == TRIVIALLY_TRUE
    assert resolve_chain((mk_clause(store, [pos(p)]), mk_clause(store, [pos(p)]))) \
        == TRIVIALLY_TRUE


def test_resolve_pair_smallest_atom_tie_break():
    store = TermStore()
    p, q = _vars(store, 2)
    c1 = mk_clause(store, [pos(p), neg(q)])
    c2 = mk_clause(store, [neg(p), pos(q)])
    out = resolve_chain((c1, c2))
    # pivot is p (smaller id); the q pair remains as a tautological remainder
    assert out == mk_clause(store, [neg(q), pos(q)])
    assert propositionally_implies(store, [c1, c2], out)


def test_resolve_pair_tautological_premise_stays_sound():
    # Resolving [p, not p] with itself must not collapse to the empty clause.
    store = TermStore()
    (p,) = _vars(store, 1)
    taut = mk_clause(store, [pos(p), neg(p)])
    assert resolve_chain((taut, taut)) == taut
    unit = mk_clause(store, [pos(p)])
    assert resolve_chain((taut, unit)) == unit


def test_resolve_pair_removes_one_pivot_pair_only():
    rng = random.Random(21)
    store = TermStore()
    atoms = _vars(store, 5)
    for _ in range(500):
        c1 = gens.rand_clause(store, rng, atoms, 4)
        c2 = gens.rand_clause(store, rng, atoms, 4)
        out = resolve_chain((c1, c2))
        if out == TRIVIALLY_TRUE:
            continue
        assert propositionally_implies(store, [c1, c2], out)
        # When neither premise is internally tautological in the pivot, the
        # result never carries both pivot polarities.
        pivots = [a for a in atoms
                  if (pos(a) in c1.enc and neg(a) in c2.enc)
                  or (neg(a) in c1.enc and pos(a) in c2.enc)]
        pivot = min(pivots)
        one_sided = not ({pos(pivot), neg(pivot)} <= set(c1.enc)
                         or {pos(pivot), neg(pivot)} <= set(c2.enc))
        if one_sided:
            assert not {pos(pivot), neg(pivot)} <= set(out.enc)


def test_resolve_chain_folds_left():
    store = TermStore()
    p, q = _vars(store, 2)
    chain = [
        mk_clause(store, [pos(p), pos(q)]),
        mk_clause(store, [neg(p)]),
        mk_clause(store, [neg(q)]),
    ]
    assert resolve_chain(chain).is_empty()
    single = mk_clause(store, [pos(p)])
    assert resolve_chain([single]) == single
    assert resolve_chain([]) == TRIVIALLY_TRUE


def test_resolve_chain_result_implied_by_premises():
    rng = random.Random(33)
    store = TermStore()
    atoms = _vars(store, 4)
    for _ in range(300):
        premises = [gens.rand_clause(store, rng, atoms, 3)
                    for _ in range(rng.randint(1, 5))]
        out = resolve_chain(premises)
        assert propositionally_implies(store, premises, out)


def _fold_pair(c1, c2):
    """One two-clause resolution step, kept as the reference for the
    one-pass chain: fresh sets per pair, so a chain folds in quadratic time."""
    s1 = set(c1.enc)
    pivot = None
    for code in c2.enc:
        if (code ^ 1) in s1:
            pivot = code >> 1
            break
    if pivot is None:
        return TRIVIALLY_TRUE
    p_pos, p_neg = 2 * pivot, 2 * pivot + 1
    s2 = set(c2.enc)
    if p_pos in s1 and p_neg in s2:
        merged = (s1 - {p_pos}) | (s2 - {p_neg})
    else:
        merged = (s1 - {p_neg}) | (s2 - {p_pos})
    return Clause(tuple(sorted(merged)))


def test_resolve_chain_matches_the_pairwise_fold():
    """resolve_chain gives what the left fold of the reference pair step
    gives, TRIVIALLY_TRUE and single-premise identity included, on 20 000
    seeded chains over atoms 0..5 (0 is TrueT) with tautological premises,
    no-pivot premises mid-chain and at the end.  At
    least 5 000 chains have two premises, as most res steps do; among them
    are steps whose premises carry both polarities of the pivot, and steps
    whose first premise is longer than the tuple scan takes."""
    rng = random.Random(1515)
    seen = {"tautology": 0, "fails mid-chain": 0, "fails last": 0, "resolves after a fail": 0,
            "both pivot polarities in a premise of two": 0, "long first premise of two": 0}
    pairs = 0
    for _ in range(20_000):
        premises = [Clause(tuple(sorted({rng.randrange(12) for _ in range(
                        rng.randint(0, 4) if rng.random() < 0.8 else rng.randint(5, 24))})))
                    for _ in range(rng.choice((2, rng.randint(0, 7))))]
        expected, fails = premises[0] if premises else TRIVIALLY_TRUE, []
        for c in premises[1:]:
            seen["tautology"] += any(code ^ 1 in c.enc for code in c.enc)
            expected = _fold_pair(expected, c)
            fails.append(expected is TRIVIALLY_TRUE)
        out = resolve_chain(premises)
        assert out == expected and (out is TRIVIALLY_TRUE) == (expected is TRIVIALLY_TRUE) \
            and (len(premises) != 1 or out is premises[0]), premises
        if len(premises) == 2:
            pairs += 1
            first, second = premises[0].enc, premises[1].enc
            pivot = next((code >> 1 for code in second if code ^ 1 in first), None)
            seen["both pivot polarities in a premise of two"] += pivot is not None and any(
                {2 * pivot, 2 * pivot + 1} <= set(side) for side in (first, second))
            seen["long first premise of two"] += len(first) > _SHORT
        seen["fails mid-chain"] += any(fails[:-1])
        seen["fails last"] += bool(fails) and fails[-1]
        seen["resolves after a fail"] += any(a and not b for a, b in zip(fails, fails[1:]))
    assert pairs >= 5000 and min(seen.values()) >= 1000, (pairs, seen)


def test_a_long_resolution_step_is_linear():
    """One res step of 20 000 premises p0, (-p(i-1) p(i) q(i)), ... whose
    resolvent grows by one literal per premise ends in seconds; a fold that
    copies the resolvent per premise took about 17 s."""
    store = TermStore()
    p, q = _vars(store, 20_000), [store.var(f"q{i}", BOOL) for i in range(20_000)]
    premises = [mk_clause(store, [pos(p[0])])] + [
        mk_clause(store, [neg(p[i - 1]), pos(p[i]), pos(q[i])]) for i in range(1, 20_000)]
    start = time.perf_counter()
    out = resolve_chain(premises)
    assert time.perf_counter() - start < 3.0
    assert out == mk_clause(store, [pos(p[-1])] + [pos(a) for a in q[1:]])


def test_cnf_lemma_projections():
    store = TermStore()
    a, b = _vars(store, 2)
    t_and = store.intern(Kind.AND, [a, b])
    assert cnf_lemma(store, RuleKind.AND_POS, CnfPayload(t_and, 0)) \
        == mk_clause(store, [neg(t_and), pos(a)])
    t_or = store.intern(Kind.OR, [a, b])
    assert cnf_lemma(store, RuleKind.OR_NEG, CnfPayload(t_or, 1)) \
        == mk_clause(store, [pos(t_or), neg(b)])
    assert cnf_lemma(store, RuleKind.AND_NEG, CnfPayload(t_and)) \
        == mk_clause(store, [pos(t_and), neg(a), neg(b)])
    t_imp = store.intern(Kind.IMPLIES, (a, b))
    assert cnf_lemma(store, RuleKind.IMP_POS, CnfPayload(t_imp)) \
        == mk_clause(store, [neg(t_imp), neg(a), pos(b)])
    assert cnf_lemma(store, RuleKind.IMP_NEG1, CnfPayload(t_imp)) \
        == mk_clause(store, [pos(t_imp), pos(a)])
    assert cnf_lemma(store, RuleKind.IMP_NEG2, CnfPayload(t_imp)) \
        == mk_clause(store, [pos(t_imp), neg(b)])
    assert cnf_lemma(store, RuleKind.OR_POS, CnfPayload(t_or)) \
        == mk_clause(store, [neg(t_or), pos(a), pos(b)])
    t_xor, t_iff = store.intern(Kind.XOR, (a, b)), store.intern(Kind.IFF, (a, b))
    c = store.var("c", BOOL)
    t_ite = store.intern(Kind.ITE, (c, a, b))
    expected = {
        (RuleKind.XOR_POS1, t_xor): [neg(t_xor), pos(a), pos(b)],
        (RuleKind.XOR_POS2, t_xor): [neg(t_xor), neg(a), neg(b)],
        (RuleKind.XOR_NEG1, t_xor): [pos(t_xor), pos(a), neg(b)],
        (RuleKind.XOR_NEG2, t_xor): [pos(t_xor), neg(a), pos(b)],
        (RuleKind.IFF_POS1, t_iff): [neg(t_iff), neg(a), pos(b)],
        (RuleKind.IFF_POS2, t_iff): [neg(t_iff), pos(a), neg(b)],
        (RuleKind.IFF_NEG1, t_iff): [pos(t_iff), pos(a), pos(b)],
        (RuleKind.IFF_NEG2, t_iff): [pos(t_iff), neg(a), neg(b)],
        (RuleKind.ITE_POS1, t_ite): [neg(t_ite), pos(c), pos(b)],
        (RuleKind.ITE_POS2, t_ite): [neg(t_ite), neg(c), pos(a)],
        (RuleKind.ITE_NEG1, t_ite): [pos(t_ite), pos(c), neg(b)],
        (RuleKind.ITE_NEG2, t_ite): [pos(t_ite), neg(c), neg(a)],
    }
    for (rule, target), lits in expected.items():
        assert cnf_lemma(store, rule, CnfPayload(target)) == mk_clause(store, lits), rule


def test_cnf_lemma_not_not_directions():
    store = TermStore()
    (a,) = _vars(store, 1)
    t = store.intern(Kind.NOT, (a,))
    assert cnf_lemma(store, RuleKind.NOT_NOT, CnfPayload(t, 0)) \
        == mk_clause(store, [neg(t), neg(a)])
    assert cnf_lemma(store, RuleKind.NOT_NOT, CnfPayload(t, 1)) \
        == mk_clause(store, [pos(t), pos(a)])
    assert cnf_lemma(store, RuleKind.NOT_NOT, CnfPayload(t, 2)) == TRIVIALLY_TRUE


def test_cnf_lemma_rejects_mismatches():
    store = TermStore()
    a, b = _vars(store, 2)
    t_and = store.intern(Kind.AND, [a, b])
    # head/kind mismatch
    assert cnf_lemma(store, RuleKind.OR_POS, CnfPayload(t_and)) == TRIVIALLY_TRUE
    # index out of range
    assert cnf_lemma(store, RuleKind.AND_POS, CnfPayload(t_and, 5)) == TRIVIALLY_TRUE
    # bare variable has no connective
    assert cnf_lemma(store, RuleKind.AND_POS, CnfPayload(a, 0)) == TRIVIALLY_TRUE
    # non-Bool ite is not decomposable
    x = store.var("x", INT)
    t_ite = store.intern(Kind.ITE, (a, x, x))
    assert cnf_lemma(store, RuleKind.ITE_POS1, CnfPayload(t_ite)) == TRIVIALLY_TRUE


def test_cnf_lemma_every_emission_is_a_tautology():
    rng = random.Random(55)
    store = TermStore()
    atoms = _vars(store, 5)
    checked = 0
    for _ in range(400):
        target = gens.rand_bool_term(store, rng, atoms, 3)
        if store.kind(target).value in ("var",):
            target = store.intern(Kind.NOT, (target,))
        rule, payload = gens._cnf_rule_for(store, target, rng)
        clause = cnf_lemma(store, rule, payload)
        if clause == TRIVIALLY_TRUE:
            continue
        assert is_tautology(store, clause), (rule, to_sexpr(store, target))
        checked += 1
    assert checked > 300


def _cnf_outcome(lemma, store, rule, payload):
    """("clause", the clause) or ("sort", the SortError's message).  The tag
    tells them apart: a clause is itself a tuple."""
    try:
        return "clause", lemma(store, rule, payload)
    except SortError as e:
        return "sort", str(e)


def test_cnf_lemma_matches_the_string_template_checker():
    """cnf_lemma's compiled templates give the clause, the TRIVIALLY_TRUE
    object itself on a rejection, or the SortError of the string-template
    checker it replaced (naive_cnf.py): for every TSEITIN rule, index -1
    to 4, a target of each head kind and arity, a wrong kind, a non-Bool
    ite, out-of-range ids, and nodes with a non-Bool argument that only a
    store built by hand holds."""
    from naive_cnf import naive_cnf_lemma

    from certkernel.resolution import TSEITIN
    from certkernel.terms import Kind, Node
    store = TermStore()
    a, b, c = _vars(store, 3)
    x = store.var("x", INT)
    targets = [*(store.intern(Kind.AND, args) for args in ((a,), (a, b), (a, b, c))),
               *(store.intern(Kind.OR, args) for args in ((a,), (b, a), (a, b, c, a))),
               store.intern(Kind.IMPLIES, (a, b)), store.intern(Kind.XOR, (b, c)),
               store.intern(Kind.IFF, (a, c)), store.intern(Kind.ITE, (a, b, c)),
               store.intern(Kind.NOT, (a,)),
               store.intern(Kind.NOT, (store.intern(Kind.NOT, (b,)),)),
               a, store.eq(x, x), store.intern(Kind.ITE, (a, x, x))]
    # Hand-built nodes whose argument x is Int: at the i reference, at a
    # position and under *.
    for kind, args in ((Kind.AND, (a, x)), (Kind.OR, (x, b)), (Kind.IMPLIES, (a, x)),
                       (Kind.NOT, (x,))):
        store._nodes.append(Node(kind, args, None))
        store._sorts.append(BOOL)
        targets.append(len(store) - 1)
    targets += [-1, len(store)]
    seen = {"clause": 0, "rejected": 0, "sort": 0}
    for rule in TSEITIN:
        for target in targets:
            for index in range(-1, 5):
                payload = CnfPayload(target, index)
                ours = _cnf_outcome(cnf_lemma, store, rule, payload)
                theirs = _cnf_outcome(naive_cnf_lemma, store, rule, payload)
                assert ours == theirs, (rule, target, index)
                if theirs[1] is TRIVIALLY_TRUE:
                    assert ours[1] is TRIVIALLY_TRUE, (rule, target, index)
                    seen["rejected"] += 1
                else:
                    seen[theirs[0]] += 1
    assert min(seen.values()) > 10, seen
