"""Seeded random generators and certificate builders shared by the tests.

Everything takes an explicit random.Random so failures reproduce.  The
certificate builders construct valid-by-construction material (the checker
is still what decides); corruptors then damage it in ways guaranteed to be
detectable.  Nested-proof generation sticks to stateless rules (res, cnf,
euf, lia, assume) so that dead let-bound lemmas cannot make the memoizing
and duplicating linearizers diverge through bit-blast state.
"""

from __future__ import annotations

import importlib.util
import pathlib
import random

from certkernel import (
    BOOL, INT, BitVecSort, BvPayload, Certificate, CheckContext, Clause,
    CnfPayload, EqRule, EqStep, EufPayload, FunSym, Kind, LiaPayload,
    RuleKind, Step, TermStore, UninterpretedSort, dispatch, mk_clause,
    neg, pos, to_sexpr,
)
from certkernel.oracle import int_to_bits


def benchmark_generator():
    """``perfbench/gen.py``, loaded as a module (``perfbench`` is no package)."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

_BOOL_CONNECTIVES = ("not", "and", "or", "implies", "xor", "iff", "ite")


def rand_bool_term(store: TermStore, rng: random.Random, atoms, depth: int):
    """Random Boolean term over the given atom ids."""
    if depth <= 0 or rng.random() < 0.3:
        return rng.choice(atoms)

    def sub():
        return rand_bool_term(store, rng, atoms, depth - 1)

    head = rng.choice(_BOOL_CONNECTIVES)
    if head == "not":
        return store.not_(sub())
    if head == "and":
        return store.and_([sub() for _ in range(rng.randint(1, 3))])
    if head == "or":
        return store.or_([sub() for _ in range(rng.randint(1, 3))])
    if head == "implies":
        return store.intern(Kind.IMPLIES, (sub(), sub()))
    if head == "xor":
        return store.xor(sub(), sub())
    if head == "iff":
        return store.iff(sub(), sub())
    return store.intern(Kind.ITE, (sub(), sub(), sub()))


def rand_clause(store: TermStore, rng: random.Random, atoms, max_width: int) -> Clause:
    lits = []
    for _ in range(rng.randint(0, max_width)):
        atom = rng.choice(atoms)
        lits.append(pos(atom) if rng.random() < 0.5 else neg(atom))
    return mk_clause(store, lits)


# ---------------------------------------------------------------------------
# Propositional (problem, certificate) pairs
# ---------------------------------------------------------------------------

def gen_res_pair(rng: random.Random):
    """A SAT problem plus a resolution certificate.

    Returns (store, inputs, cert, expect_valid).  Valid instances are unit
    implication chains ending in a conflict; the rest are random clause sets
    with random resolution steps, which the checker may or may not accept.
    """
    store = TermStore()
    n = rng.randint(2, 7)
    vs = [store.var(f"p{i}", BOOL) for i in range(n)]
    if rng.random() < 0.5:
        inputs = [mk_clause(store, [pos(vs[0])])]
        for i in range(n - 1):
            inputs.append(mk_clause(store, [neg(vs[i]), pos(vs[i + 1])]))
        inputs.append(mk_clause(store, [neg(vs[-1])]))
        for _ in range(rng.randint(0, 3)):
            inputs.append(rand_clause(store, rng, vs, 3))
        k = len(inputs)
        if rng.random() < 0.5:
            steps = (Step(k, RuleKind.RES, tuple(range(n + 1))),)
        else:
            steps = []
            prev = 0
            for i in range(n):
                steps.append(Step(k + i, RuleKind.RES, (prev, i + 1)))
                prev = k + i
            steps = tuple(steps)
        return store, inputs, Certificate(steps, qed=k + len(steps) - 1), True
    inputs = [rand_clause(store, rng, vs, 3) for _ in range(rng.randint(1, 6))]
    k = len(inputs)
    steps = []
    for i in range(rng.randint(1, 5)):
        hi = k + i
        # Chain every step off its predecessor so the whole certificate is
        # backwards-reachable from qed (compaction then provably preserves
        # the kernel verdict).
        prems = ((hi - 1,) if i else ()) \
            + tuple(rng.randrange(hi) for _ in range(rng.randint(1, 3)))
        steps.append(Step(hi, RuleKind.RES, prems))
    cert = Certificate(tuple(steps), qed=k + len(steps) - 1)
    return store, inputs, cert, False


# ---------------------------------------------------------------------------
# EUF material
# ---------------------------------------------------------------------------

class EufWorld:
    """A small ground-equality vocabulary shared by a generated lemma."""

    def __init__(self, store: TermStore, rng: random.Random, n_consts: int = 3):
        self.store = store
        self.sort = UninterpretedSort("U")
        self.consts = [store.var(c, self.sort) for c in "abcd"[:n_consts]]
        self.f = FunSym("f", (self.sort,), self.sort)
        self.g = FunSym("g", (self.sort, self.sort), self.sort)


def gen_euf_payload(store: TermStore, rng: random.Random,
                    max_steps: int = 6, big: bool = False) -> EufPayload:
    """A valid-by-construction equality lemma with its justification.

    Builds a random derivation first, then reads the lemma off it: the
    hypotheses actually used become negated literals, the final derived
    pair becomes the positive conclusion.
    """
    world = EufWorld(store, rng)
    terms = list(world.consts)

    hyp_pairs: list[tuple[int, int]] = []
    plan: list[tuple] = []  # mirrors EqStep construction with hyp pairs
    derived: list[tuple[int, int]] = []

    def new_hyp():
        a, b = rng.choice(terms), rng.choice(terms)
        if (a, b) not in hyp_pairs:
            hyp_pairs.append((a, b))
        plan.append(("hyp", (a, b)))
        derived.append((a, b))

    new_hyp()
    for _ in range(rng.randint(1, max_steps)):
        move = rng.choice(("hyp", "refl", "sym", "trans", "cong", "cong"))
        if move == "hyp":
            new_hyp()
        elif move == "refl":
            t = rng.choice(terms)
            plan.append(("refl", t))
            derived.append((t, t))
        elif move == "sym":
            i = rng.randrange(len(derived))
            plan.append(("sym", i))
            a, b = derived[i]
            derived.append((b, a))
        elif move == "trans":
            options = [(i, j) for i, (a, b) in enumerate(derived)
                       for j, (b2, c) in enumerate(derived) if b == b2]
            if not options:
                continue
            i, j = rng.choice(options)
            plan.append(("trans", i, j))
            derived.append((derived[i][0], derived[j][1]))
        else:
            if big and rng.random() < 0.4:
                i, j = rng.randrange(len(derived)), rng.randrange(len(derived))
                us = (derived[i][0], derived[j][0])
                vs = (derived[i][1], derived[j][1])
                plan.append(("cong", world.g, (i, j)))
                pair = (store.apply(world.g, us), store.apply(world.g, vs))
            else:
                i = rng.randrange(len(derived))
                plan.append(("cong", world.f, (i,)))
                pair = (store.apply(world.f, (derived[i][0],)),
                        store.apply(world.f, (derived[i][1],)))
            derived.append(pair)
            terms.append(pair[0])

    conclusion = derived[-1]
    used = [entry[1] for entry in plan if entry[0] == "hyp"]
    lits = [neg(store.eq(a, b)) for a, b in dict.fromkeys(used)]
    concl_atom = store.eq(*conclusion)
    lemma = mk_clause(store, lits + [pos(concl_atom)])

    # Map hypothesis pairs to their canonical literal positions.
    index_of = {}
    for i, lit in enumerate(lemma.lits):
        if not lit.positive:
            index_of[store.args(lit.atom)] = i

    steps = []
    for entry in plan:
        if entry[0] == "hyp":
            steps.append(EqStep(EqRule.HYP, hyp=index_of[entry[1]]))
        elif entry[0] == "refl":
            steps.append(EqStep(EqRule.REFL, term=entry[1]))
        elif entry[0] == "sym":
            steps.append(EqStep(EqRule.SYM, refs=(entry[1],)))
        elif entry[0] == "trans":
            steps.append(EqStep(EqRule.TRANS, refs=(entry[1], entry[2])))
        else:
            steps.append(EqStep(EqRule.CONG, fun=entry[1], refs=entry[2]))
    return EufPayload(lemma, tuple(steps))


def mutate_euf_payload(payload: EufPayload, rng: random.Random) -> EufPayload:
    """Damage one justification step (index shift, rule swap, term swap)."""
    steps = list(payload.justification)
    i = rng.randrange(len(steps))
    s = steps[i]
    choice = rng.random()
    if choice < 0.4 and s.refs:
        refs = list(s.refs)
        j = rng.randrange(len(refs))
        refs[j] = refs[j] + rng.choice((-1, 1, 2))
        steps[i] = EqStep(s.rule, term=s.term, refs=tuple(refs), fun=s.fun, hyp=s.hyp)
    elif choice < 0.7 and s.hyp is not None:
        steps[i] = EqStep(s.rule, hyp=s.hyp + rng.choice((-1, 1, 3)))
    else:
        steps[i] = EqStep(EqRule.REFL, term=0)
    return EufPayload(payload.lemma, tuple(steps))


def lemma_refutation_problem(store: TermStore, lemma: Clause):
    """Inputs asserting the negation of each lemma literal, as units."""
    return [mk_clause(store, [code ^ 1]) for code in lemma.enc]


def theory_pair_from_lemma(store: TermStore, rule: RuleKind, payload):
    """(inputs, certificate): prove the lemma, then resolve it to empty.

    Requires the lemma's atoms to be pairwise distinct, otherwise the fold
    hits the empty clause early and degenerates to the trivially true one.
    """
    inputs = lemma_refutation_problem(store, payload.lemma)
    k = len(inputs)
    steps = (
        Step(k, rule, (), payload),
        Step(k + 1, RuleKind.RES, (k,) + tuple(range(k))),
    )
    return inputs, Certificate(steps, qed=k + 1)


def gen_euf_pair(rng: random.Random):
    """Valid EUF refutation pair: lemma proof plus unit resolutions."""
    store = TermStore()
    while True:
        payload = gen_euf_payload(store, rng)
        atoms = payload.lemma.atoms()
        if len(set(atoms)) == len(atoms):
            break
    inputs, cert = theory_pair_from_lemma(store, RuleKind.EUF, payload)
    return store, inputs, cert, payload


def gen_lia_pair(rng: random.Random):
    """Valid LIA refutation pair: Farkas lemma plus unit resolutions."""
    store = TermStore()
    payload = gen_lia_payload(store, rng)
    inputs, cert = theory_pair_from_lemma(store, RuleKind.LIA, payload)
    return store, inputs, cert, payload


# ---------------------------------------------------------------------------
# LIA material
# ---------------------------------------------------------------------------

def _row_term(store: TermStore, coeffs: dict, const: int):
    """Term for sum(c*x) + const."""
    parts = []
    for v, c in sorted(coeffs.items()):
        if c == 1:
            parts.append(v)
        else:
            parts.append(store.intern(Kind.MUL, (store.int_const(c), v)))
    if const or not parts:
        parts.append(store.int_const(const))
    if len(parts) == 1:
        return parts[0]
    return store.add(parts)


def gen_lia_payload(store: TermStore, rng: random.Random, n_vars: int = 2) -> LiaPayload:
    """A Farkas-certified lemma, accepted by construction.

    Hypothesis rows r_1..r_{n-1} are random; the last row is chosen so the
    unit combination sums to 0 >= k with k >= 1.  Roughly a third of the
    outputs exercise an equality hypothesis used in both directions with
    gcd tightening (a divisibility conflict).
    """
    xs = [store.var(f"x{i}", INT) for i in range(n_vars)]

    if rng.random() < 0.35:
        # not(g*x + spread = c) with g not dividing c - spread
        g = rng.choice((2, 3, 4))
        x = rng.choice(xs)
        c = rng.randrange(1, g) + g * rng.randint(-2, 2)
        atom = store.eq(store.intern(Kind.MUL, (store.int_const(g), x)), store.int_const(c))
        lemma = mk_clause(store, [neg(atom)])
        return LiaPayload(lemma, ((0, 1), (0, -1)), tighten=True)

    while True:
        n_rows = rng.randint(2, 3)
        rows = []
        for _ in range(n_rows - 1):
            coeffs = {}
            for x in rng.sample(xs, rng.randint(1, len(xs))):
                coeffs[x] = rng.choice((-3, -2, -1, 1, 2, 3))
            rows.append((coeffs, rng.randint(-3, 3)))
        last = {}
        for coeffs, _ in rows:
            for v, c in coeffs.items():
                last[v] = last.get(v, 0) - c
        last = {v: c for v, c in last.items() if c != 0}
        if not last:
            continue  # the closing row must itself mention a variable
        consts = sum(k for _, k in rows)
        rows.append((last, 1 + rng.randint(0, 2) - consts))

        hyp_lits = []
        for coeffs, k in rows:
            e = _row_term(store, coeffs, 0)
            kind = rng.random()
            if kind < 0.4:
                # not(e <= k-1)  normalizes to  e >= k
                hyp_lits.append(neg(store.le(e, store.int_const(k - 1))))
            elif kind < 0.8:
                # e > k-1, written k-1 < e
                hyp_lits.append(pos(store.lt(store.int_const(k - 1), e)))
            else:
                # k <= e
                hyp_lits.append(pos(store.le(store.int_const(k), e)))
        # Lemma literals are the hypothesis negations.  All multipliers are
        # 1 and every row is used, so canonical reordering is harmless; but
        # a repeated atom would break unit resolution downstream, so retry.
        lemma = mk_clause(store, [code ^ 1 for code in hyp_lits])
        atoms = lemma.atoms()
        if len(lemma.lits) != len(rows) or len(set(atoms)) != len(atoms):
            continue
        combination = tuple((i, 1) for i in range(len(lemma.lits)))
        return LiaPayload(lemma, combination, tighten=False)


def corrupt_lia_payload(payload: LiaPayload, rng: random.Random) -> LiaPayload:
    """Tweak one Farkas coefficient; the combination can no longer cancel."""
    combo = list(payload.combination)
    i = rng.randrange(len(combo))
    idx, c = combo[i]
    combo[i] = (idx, c + rng.choice((1, 2, 5)))
    return LiaPayload(payload.lemma, tuple(combo), payload.tighten)


# ---------------------------------------------------------------------------
# Bit-vector refutation planner
# ---------------------------------------------------------------------------

class BvRefutation:
    """Builds a complete certificate refuting forced bit-vector assertions.

    Assertions are (atom, claimed) pairs entering the problem as unit
    clauses [atom] or [not atom]; variable values are forced by
    claimed-true equations against constants.  The builder bit-blasts every
    term, turns the link clauses into bit-level units, derives the actual
    value of the one atom whose claim is wrong, and resolves the conflict.
    Steps are dispatched as they are added, so the builder only ever
    references clauses the kernel will reproduce.
    """

    def __init__(self, store: TermStore, input_clauses, var_values=None):
        self.store = store
        self.clauses = list(input_clauses)
        self.ctx = CheckContext(store)
        for c in self.clauses:
            self.ctx.bitblast.note_used(store.postorder(c.atoms()))
        self.steps: list[Step] = []
        self.units: dict[tuple[int, bool], int] = {}
        self.values: dict[int, bool] = {}
        self.var_values: dict[int, int] = dict(var_values or {})
        self.add_links: list[int] = []
        self._aux_n = 0

    # -- plumbing ---------------------------------------------------------

    def add(self, rule: RuleKind, premises=(), payload=None) -> int:
        step_id = len(self.clauses)
        step = Step(step_id, rule, tuple(premises), payload)
        conclusion = dispatch(self.ctx, rule, [self.clauses[p] for p in premises],
                              payload)
        self.steps.append(step)
        self.clauses.append(conclusion)
        self.ctx.bitblast.note_used(self.store.postorder(conclusion.atoms()))
        return step_id

    def _fresh(self, base: str) -> int:
        self._aux_n += 1
        return self.store.var(f"{base}.{self._aux_n}", BOOL)

    def _eval(self, t: int) -> bool:
        if t in self.values:
            return self.values[t]
        store = self.store
        k = store.kind(t)
        args = store.args(t)
        if k is Kind.TRUE:
            v = True
        elif k is Kind.FALSE:
            v = False
        elif k is Kind.NOT:
            v = not self._eval(args[0])
        elif k is Kind.AND:
            v = all(self._eval(a) for a in args)
        elif k is Kind.OR:
            v = any(self._eval(a) for a in args)
        elif k is Kind.XOR:
            v = self._eval(args[0]) != self._eval(args[1])
        elif k is Kind.IFF:
            v = self._eval(args[0]) == self._eval(args[1])
        else:
            raise AssertionError(f"unexpected node in bit formula: {k}")
        self.values[t] = v
        return v

    # -- unit derivation ----------------------------------------------------

    def derive(self, t: int, val: bool) -> int:
        """Clause id of the unit [t] (val) or [not t], built recursively."""
        key = (t, val)
        if key in self.units:
            return self.units[key]
        store = self.store
        k = store.kind(t)
        args = store.args(t)
        if k is Kind.NOT:
            a_id = self.derive(args[0], not val)
            lemma = self.add(RuleKind.NOT_NOT, (),
                             CnfPayload(t, 0 if not val else 1))
            cid = self.add(RuleKind.RES, (lemma, a_id))
        elif k is Kind.AND:
            if val:
                unit_ids = [self.derive(a, True) for a in args]
                lemma = self.add(RuleKind.AND_NEG, (), CnfPayload(t))
                cid = lemma
                for u in unit_ids:
                    cid = self.add(RuleKind.RES, (cid, u))
            else:
                j = next(i for i, a in enumerate(args) if not self._eval(a))
                u = self.derive(args[j], False)
                lemma = self.add(RuleKind.AND_POS, (), CnfPayload(t, j))
                cid = self.add(RuleKind.RES, (lemma, u))
        elif k is Kind.OR:
            if val:
                j = next(i for i, a in enumerate(args) if self._eval(a))
                u = self.derive(args[j], True)
                lemma = self.add(RuleKind.OR_NEG, (), CnfPayload(t, j))
                cid = self.add(RuleKind.RES, (lemma, u))
            else:
                unit_ids = [self.derive(a, False) for a in args]
                lemma = self.add(RuleKind.OR_POS, (), CnfPayload(t))
                cid = lemma
                for u in unit_ids:
                    cid = self.add(RuleKind.RES, (cid, u))
        elif k in (Kind.XOR, Kind.IFF):
            va, vb = self._eval(args[0]), self._eval(args[1])
            ua = self.derive(args[0], va)
            ub = self.derive(args[1], vb)
            if k is Kind.XOR:
                table = {(True, True): RuleKind.XOR_POS2,
                         (False, False): RuleKind.XOR_POS1,
                         (False, True): RuleKind.XOR_NEG1,
                         (True, False): RuleKind.XOR_NEG2}
            else:
                table = {(True, False): RuleKind.IFF_POS1,
                         (False, True): RuleKind.IFF_POS2,
                         (False, False): RuleKind.IFF_NEG1,
                         (True, True): RuleKind.IFF_NEG2}
            lemma = self.add(table[(va, vb)], (), CnfPayload(t))
            cid = self.add(RuleKind.RES, (lemma, ua))
            cid = self.add(RuleKind.RES, (cid, ub))
        else:
            raise AssertionError(
                f"no unit for {to_sexpr(store, t)}={val}; planner bug")
        self.units[key] = cid
        return cid

    def _register(self, t: int, val: bool, cid: int):
        self.units[(t, val)] = cid
        self.values[t] = val

    def _decompose_conjunction(self, formula: int, unit_id: int):
        """Split the unit [formula] into per-conjunct units."""
        if self.store.kind(formula) is Kind.AND:
            out = []
            for j in range(len(self.store.args(formula))):
                lemma = self.add(RuleKind.AND_POS, (), CnfPayload(formula, j))
                out.append((self.store.args(formula)[j],
                            self.add(RuleKind.RES, (lemma, unit_id))))
            return out
        return [(formula, unit_id)]

    def _conjunct_unit(self, conj: int, cid: int):
        """Register a conjunct that is a variable, a negated variable, or a
        carry definition iff."""
        store = self.store
        k = store.kind(conj)
        if k is Kind.VAR:
            self._register(conj, True, cid)
        elif k is Kind.NOT and store.kind(store.args(conj)[0]) is Kind.VAR:
            v = store.args(conj)[0]
            lemma = self.add(RuleKind.NOT_NOT, (), CnfPayload(conj, 0))
            self._register(v, False, self.add(RuleKind.RES, (lemma, cid)))
        elif k is Kind.IFF:
            c_var, definition = store.args(conj)
            v = self._eval(definition)
            du = self.derive(definition, v)
            rule = RuleKind.IFF_POS2 if v else RuleKind.IFF_POS1
            lemma = self.add(rule, (), CnfPayload(conj))
            mid = self.add(RuleKind.RES, (lemma, cid))
            self._register(c_var, v, self.add(RuleKind.RES, (mid, du)))
        else:
            raise AssertionError(f"unexpected conjunct {to_sexpr(store, conj)}")

    # -- top level ----------------------------------------------------------

    def blast(self, t: int):
        """Bit-blast a BV term and everything below it; returns bit values."""
        store = self.store
        state = self.ctx.bitblast
        if t in state.bits:
            return
        k = store.kind(t)
        if k is Kind.VAR:
            name = store.node(t).extra[0]
            width = store.width_of(t)
            aux = tuple(store.var(f"{name}.{i}", BOOL) for i in range(width))
            self.add(RuleKind.BB_VAR, (), BvPayload(t, aux))
            value = self.var_values[t]
            for i, bit in enumerate(aux):
                self.values[bit] = bool((value >> i) & 1)
        elif k is Kind.BV_CONST:
            self.add(RuleKind.BB_CONST, (), BvPayload(t))
            for bit_term, b in zip(state.bits[t], store.node(t).extra):
                self.values[bit_term] = b  # harmless: true/false ids
        else:
            for a in store.args(t):
                self.blast(a)
            if k is Kind.BV_ADD:
                width = store.width_of(t)
                carries = tuple(self._fresh("c") for _ in range(width))
                link = self.add(RuleKind.BB_ADD, (), BvPayload(t, carries))
                # Carry values follow the ripple semantics over operand bits.
                l, r = store.args(t)
                lv = [self._eval(b) for b in state.bits[l]]
                rv = [self._eval(b) for b in state.bits[r]]
                cv = [False]
                for i in range(width - 1):
                    cv.append((lv[i] and rv[i]) or ((lv[i] != rv[i]) and cv[i]))
                for var, v in zip(carries, cv):
                    self.values[var] = v
                # Unit derivation waits until the forcing equations have
                # produced the operand bit units.
                self.add_links.append(link)
            else:
                rule = {Kind.BV_NOT: RuleKind.BB_NOT, Kind.BV_AND: RuleKind.BB_AND,
                        Kind.BV_OR: RuleKind.BB_OR, Kind.BV_XOR: RuleKind.BB_XOR}[k]
                self.add(rule, (), BvPayload(t))

    def assert_unit(self, atom: int, claimed: bool, input_id: int) -> int:
        """Unit [atom] or [not atom] from the input clause at input_id."""
        if claimed:
            return input_id
        not_atom = self.clauses[input_id].enc[0] >> 1
        lemma = self.add(RuleKind.NOT_NOT, (), CnfPayload(not_atom, 0))
        return self.add(RuleKind.RES, (lemma, input_id))

    def link_atom(self, atom: int) -> tuple[int, int]:
        """bb_eq/bb_ult link for an atom; returns (link formula, clause id)."""
        rule = RuleKind.BB_EQ if self.store.kind(atom) is Kind.EQ else RuleKind.BB_ULT
        cid = self.add(rule, (), BvPayload(atom))
        link_term = self.clauses[cid].enc[0] >> 1
        return link_term, cid

    def refute_wrong_atom(self, atom: int, claimed: bool, input_id: int) -> int:
        """Derive the empty clause from one assertion whose claim is wrong.

        The link clause decides the atom's bit formula; the claim decides the
        atom itself; with the claim contradicted, resolving the two units
        yields the empty clause.
        """
        store = self.store
        claim_unit = self.assert_unit(atom, claimed, input_id)
        link_term, link_id = self.link_atom(atom)
        if link_term == atom:
            # Bit formula folded to true, so claimed must be False and the
            # link clause [atom] already contradicts the claim unit.
            return self.add(RuleKind.RES, (claim_unit, link_id))
        if store.kind(link_term) is Kind.NOT and store.args(link_term)[0] == atom:
            # Folded to false: extract [not atom] from the link.
            lemma = self.add(RuleKind.NOT_NOT, (), CnfPayload(link_term, 0))
            neg_unit = self.add(RuleKind.RES, (lemma, link_id))
            return self.add(RuleKind.RES, (claim_unit, neg_unit))
        formula = store.args(link_term)[1]
        rule = RuleKind.IFF_POS1 if claimed else RuleKind.IFF_POS2
        lemma = self.add(rule, (), CnfPayload(link_term))
        mid = self.add(RuleKind.RES, (lemma, link_id))
        claimed_formula_unit = self.add(RuleKind.RES, (mid, claim_unit))
        actual_unit = self.derive(formula, self._eval(formula))
        return self.add(RuleKind.RES, (claimed_formula_unit, actual_unit))


def build_bv_refutation(store: TermStore, assertions, var_values) -> tuple[list, Certificate]:
    """Assemble problem inputs and a full certificate for BV assertions.

    ``assertions`` is a list of (atom id, claimed bool); ``var_values`` maps
    BV variable ids to forced integer values, justified by claimed-true
    equations inside the assertion list.  Exactly the first contradicted
    claim is refuted.  Returns (input clauses, certificate).
    """
    inputs = []
    for atom, claimed in assertions:
        term = atom if claimed else store.not_(atom)
        inputs.append(mk_clause(store, [pos(term)]))

    plan = BvRefutation(store, inputs, var_values)
    for atom, _ in assertions:
        for side in store.args(atom):
            plan.blast(side)

    wrong = None
    actual_of = {}
    for i, (atom, claimed) in enumerate(assertions):
        l, r = store.args(atom)
        lv = _word_value(plan, l)
        rv = _word_value(plan, r)
        actual_of[i] = (lv == rv) if store.kind(atom) is Kind.EQ else (lv < rv)
        if actual_of[i] != claimed and wrong is None:
            wrong = (i, atom, claimed)
    if wrong is None:
        raise AssertionError("no contradicted assertion; nothing to refute")

    # Turn every correct forcing equation (var = const, claimed and actually
    # true) into per-bit units; the wrong atom's derivation feeds on them.
    for i, (atom, claimed) in enumerate(assertions):
        if not (claimed and actual_of[i] and store.kind(atom) is Kind.EQ):
            continue
        l, r = store.args(atom)
        if store.kind(l) is not Kind.VAR or store.kind(r) is not Kind.BV_CONST:
            continue
        unit = plan.assert_unit(atom, True, i)
        link_term, link_id = plan.link_atom(atom)
        lemma = plan.add(RuleKind.IFF_POS1, (), CnfPayload(link_term))
        mid = plan.add(RuleKind.RES, (lemma, link_id))
        f_unit = plan.add(RuleKind.RES, (mid, unit))
        for conj, cid in plan._decompose_conjunction(store.args(link_term)[1], f_unit):
            plan._conjunct_unit(conj, cid)

    for link in plan.add_links:
        link_formula = plan.clauses[link].enc[0] >> 1
        for conj, cid in plan._decompose_conjunction(link_formula, link):
            plan._conjunct_unit(conj, cid)

    i, atom, claimed = wrong
    final = plan.refute_wrong_atom(atom, claimed, i)
    assert plan.clauses[final].is_empty(), "planner failed to reach the empty clause"
    return inputs, Certificate(tuple(plan.steps), qed=final)


def _word_value(plan: BvRefutation, t: int):
    bits = plan.ctx.bitblast.bits[t]
    return sum(1 << i for i, b in enumerate(bits) if plan._eval(b))


def gen_bv_pair(rng: random.Random):
    """Random contradicted bit-vector problem plus its full certificate."""
    store = TermStore()
    width = rng.choice((1, 1, 2, 2, 3))
    x = store.var("x", BitVecSort(width))
    y = store.var("y", BitVecSort(width))
    xv = rng.randrange(1 << width)
    yv = rng.randrange(1 << width)

    def expr():
        choice = rng.random()
        if choice < 0.25:
            return store.intern(Kind.BV_ADD, (x, y)), (xv + yv) % (1 << width)
        if choice < 0.45:
            return store.intern(Kind.BV_AND, (x, y)), xv & yv
        if choice < 0.6:
            return store.intern(Kind.BV_OR, (x, y)), xv | yv
        if choice < 0.75:
            return store.intern(Kind.BV_XOR, (x, y)), xv ^ yv
        if choice < 0.9:
            return store.intern(Kind.BV_NOT, (x,)), (~xv) & ((1 << width) - 1)
        return x, xv

    e, ev = expr()
    if rng.random() < 0.75 or width == 1:
        wrong_val = rng.randrange(1 << width)
        atom = store.eq(e, store.bv_const(int_to_bits(wrong_val, width)))
        actual = ev == wrong_val
    else:
        bound = store.bv_const(int_to_bits(rng.randrange(1 << width), width))
        atom = store.intern(Kind.BV_ULT, (e, bound))
        c = store.args(atom)[1]
        actual = ev < sum(1 << i for i, b in enumerate(store.node(c).extra) if b)
    assertions = [
        (store.eq(x, store.bv_const(int_to_bits(xv, width))), True),
        (store.eq(y, store.bv_const(int_to_bits(yv, width))), True),
        (atom, not actual),
    ]
    inputs, cert = build_bv_refutation(store, assertions, {x: xv, y: yv})
    return store, inputs, cert


def mutate_cert_object(cert: Certificate, rng: random.Random) -> Certificate:
    """Damage an in-memory certificate: premises, payload indices, steps."""
    steps = list(cert.steps)
    if not steps:
        return cert
    i = rng.randrange(len(steps))
    s = steps[i]
    choice = rng.random()
    if choice < 0.3 and s.premises:
        prems = list(s.premises)
        j = rng.randrange(len(prems))
        prems[j] = rng.randrange(max(1, s.id + 3))
        steps[i] = Step(s.id, s.rule, tuple(prems), s.payload)
    elif choice < 0.5 and len(s.premises) >= 2:
        prems = list(s.premises)
        prems[0], prems[-1] = prems[-1], prems[0]
        steps[i] = Step(s.id, s.rule, tuple(prems), s.payload)
    elif choice < 0.65 and isinstance(s.payload, CnfPayload):
        steps[i] = Step(s.id, s.rule, s.premises,
                        CnfPayload(s.payload.target, s.payload.index + 1))
    elif choice < 0.8 and isinstance(s.payload, EufPayload):
        steps[i] = Step(s.id, s.rule, s.premises,
                        mutate_euf_payload(s.payload, rng))
    elif choice < 0.9 and isinstance(s.payload, LiaPayload):
        steps[i] = Step(s.id, s.rule, s.premises,
                        corrupt_lia_payload(s.payload, rng))
    else:
        del steps[rng.randrange(len(steps))]
    return Certificate(tuple(steps), cert.qed)


# ---------------------------------------------------------------------------
# Certificate text mutation
# ---------------------------------------------------------------------------

_RULE_NAMES = [r.value for r in RuleKind if r is not RuleKind.INPUT]


def mutate_cert_text(text: str, rng: random.Random) -> str:
    """Randomly damage certificate text: bytes, tokens, lines, numbers."""
    lines = text.splitlines()
    op = rng.randrange(6)
    if op == 0 and text:
        i = rng.randrange(len(text))
        ch = chr(rng.randrange(32, 127))
        return text[:i] + ch + text[i + 1:]
    if op == 1 and lines:
        del lines[rng.randrange(len(lines))]
    elif op == 2 and lines:
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))
    elif op == 3:
        tokens = text.split(" ")
        if tokens:
            i = rng.randrange(len(tokens))
            if tokens[i].lstrip("-").isdigit():
                tokens[i] = str(int(tokens[i]) + rng.choice((-2, -1, 1, 2, 7)))
            else:
                tokens[i] = rng.choice(_RULE_NAMES)
        return " ".join(tokens)
    elif op == 4 and lines:
        i = rng.randrange(len(lines))
        lines[i] = lines[i].replace("(", ")", 1)
    elif op == 5 and lines:
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Nested proofs
# ---------------------------------------------------------------------------

def gen_nested_tree(rng: random.Random):
    """Random nested proof over a small SAT problem.

    Uses only stateless rules so the memoizing and duplicating linearizers
    must agree on the verdict.  Returns (store, inputs, tree).
    """
    from certkernel import NLet, NRef, NStep

    store = TermStore()
    vs = [store.var(f"p{i}", BOOL) for i in range(4)]
    inputs = [
        mk_clause(store, [pos(vs[0])]),
        mk_clause(store, [neg(vs[0]), pos(vs[1])]),
        mk_clause(store, [neg(vs[1]), pos(vs[2])]),
        mk_clause(store, [neg(vs[2])]),
        rand_clause(store, rng, vs, 3),
    ]

    names = []

    def leaf(depth: int):
        if depth > 0 and rng.random() < 0.5:
            prems = []
            for _ in range(rng.randint(1, 3)):
                rand = rng.random()
                if rand < 0.4 or not names:
                    prems.append(rng.randrange(len(inputs)))
                elif rand < 0.7:
                    prems.append(rng.choice(names))
                else:
                    prems.append(leaf(depth - 1))
            return NStep(RuleKind.RES, tuple(prems))
        if rng.random() < 0.3:
            target = rand_bool_term(store, rng, vs, 2)
            while store.kind(target) is Kind.VAR:
                target = store.not_(target)
            rule, payload = _cnf_rule_for(store, target, rng)
            return NStep(rule, (), payload)
        return NStep(RuleKind.RES, (rng.randrange(len(inputs)),))

    def uses(node, name) -> bool:
        if isinstance(node, NRef):
            return node.name == name
        if isinstance(node, NLet):
            return uses(node.bound, name) or uses(node.body, name)
        return any(p == name if isinstance(p, str)
                   else not isinstance(p, int) and uses(p, name)
                   for p in node.premises)

    def tree(depth: int, budget: list):
        if depth <= 0 or budget[0] <= 0 or rng.random() < 0.35:
            return leaf(depth)
        budget[0] -= 1
        name = f"L{len(names)}"
        bound = tree(depth - 1, budget)
        names.append(name)
        body = tree(depth - 1, budget)
        names.remove(name)
        if not uses(body, name):
            # A proof tree never binds a lemma it does not use; dead bindings
            # would also let the emitted-once and substituting linearizers
            # disagree about steps that exist only on one side.
            body = NStep(RuleKind.RES, (name, body))
        return NLet(name, bound, body)

    root = tree(rng.randint(1, 4), [rng.randint(1, 8)])
    return store, inputs, root


def _cnf_rule_for(store: TermStore, target: int, rng: random.Random):
    k = store.kind(target)
    if k is Kind.AND:
        rule = rng.choice((RuleKind.AND_POS, RuleKind.AND_NEG))
        idx = rng.randrange(len(store.args(target)))
    elif k is Kind.OR:
        rule = rng.choice((RuleKind.OR_POS, RuleKind.OR_NEG))
        idx = rng.randrange(len(store.args(target)))
    elif k is Kind.IMPLIES:
        rule = rng.choice((RuleKind.IMP_POS, RuleKind.IMP_NEG1, RuleKind.IMP_NEG2))
        idx = 0
    elif k is Kind.XOR:
        rule = rng.choice((RuleKind.XOR_POS1, RuleKind.XOR_POS2,
                           RuleKind.XOR_NEG1, RuleKind.XOR_NEG2))
        idx = 0
    elif k is Kind.IFF:
        rule = rng.choice((RuleKind.IFF_POS1, RuleKind.IFF_POS2,
                           RuleKind.IFF_NEG1, RuleKind.IFF_NEG2))
        idx = 0
    elif k is Kind.ITE:
        rule = rng.choice((RuleKind.ITE_POS1, RuleKind.ITE_POS2,
                           RuleKind.ITE_NEG1, RuleKind.ITE_NEG2))
        idx = 0
    else:
        rule = RuleKind.NOT_NOT
        idx = rng.randrange(2)
    return rule, CnfPayload(target, idx)


def gen_random_certificate(rng: random.Random):
    """Random structurally-valid certificate rooted at qed, for compact tests.

    The empty clause, if derivable at all, is only derivable inside the
    qed-rooted region, so compaction must preserve the verdict.
    """
    store, inputs, cert, _ = gen_res_pair(rng)
    vs = [t for t in range(len(store)) if store.kind(t) is Kind.VAR]
    return store, inputs, splice_dead_steps(store, len(inputs), cert, rng, vs)


def splice_dead_steps(store: TermStore, k: int, cert: Certificate,
                      rng: random.Random, atoms) -> Certificate:
    """cert with a CNF lemma over random terms on atoms before about 40 %
    of its steps, renumbered.  No step names a spliced one as a premise,
    and tautology lemmas never resolve to the empty clause on their own."""
    extra = []
    remap = {i: i for i in range(k)}
    next_id = k
    for step in cert.steps:
        if rng.random() < 0.4:
            target = rand_bool_term(store, rng, atoms, 2)
            if store.kind(target) is Kind.VAR:
                target = store.not_(target)
            rule, payload = _cnf_rule_for(store, target, rng)
            extra.append(Step(next_id, rule, (), payload))
            next_id += 1
        extra.append(Step(next_id, step.rule,
                          tuple(remap[p] for p in step.premises), step.payload))
        remap[step.id] = next_id
        next_id += 1
    qed = remap[cert.qed] if cert.qed in remap else cert.qed
    return Certificate(tuple(extra), qed=qed)


def gen_theory_certificate(rng: random.Random, family: str):
    """(store, inputs, certificate, the certificate before splicing): a
    valid ``euf``, ``lia`` or ``bb`` refutation with dead CNF steps spliced
    in (``splice_dead_steps``).  They range over Bool variables of their
    own, so they neither feed a live step nor spend an aux name that a
    ``bb_*`` step declares fresh."""
    if family == "bb":
        store, inputs, cert = gen_bv_pair(rng)
    else:
        store, inputs, cert, _ = (gen_euf_pair if family == "euf" else gen_lia_pair)(rng)
    atoms = [store.var(f"dead{i}", BOOL) for i in range(3)]
    return store, inputs, splice_dead_steps(store, len(inputs), cert, rng, atoms), cert
