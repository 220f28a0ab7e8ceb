"""Seeded inputs for the benchmark workloads, with expected outcomes.

Every workload is a list of (problem, certificate) file pairs plus the
exit code and ``--machine`` record each pair must produce.  Expectations
come from how the pairs are built, never from running the checker:

* valid refutations must exit 0 with ``verdict VALID`` and replay every
  step of the certificate;
* a seeded share of pairs has its final step dropped (``qed`` then names
  the new last step); those must exit 1 with ``verdict INVALID`` and
  ``reason empty clause not derived`` after replaying every remaining step.

Problems are written as text and re-parsed, and certificate terms are
interned on the parsed store in the order the certificate prints them, so
the term ids (and with them the canonical literal order that ``euf`` hyp
indices and ``lia`` Farkas indices refer to) match what a fresh parse of
the files produces.  ``smt_lemmas`` re-parses and re-prints each
certificate to confirm this, and confirms its small problems UNSAT with
the brute-force oracle.  The bit-blast planner dispatches steps while it
builds them, only to learn the exact clauses later steps refer to.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

from certkernel import (
    BOOL, BvPayload, Certificate, CheckContext, CnfPayload, EqRule, EqStep,
    EufPayload, Kind, LiaPayload, RuleKind, Step, dispatch, mk_clause, neg,
    parse_certificate, parse_smt2, pos, print_certificate,
)
from certkernel.oracle import UNSAT, brute_unsat

CHAIN_STEPS = 100_000
SMT_PAIRS = 200
NEGATIVE_SHARE = 0.1
SMALL_SHARE = 0.1

VALID = (0, "VALID", None)
NOT_DERIVED = (1, "INVALID", "empty clause not derived")


# Every seed gets the same mix (rule families, sizes, widths, claim kinds,
# share of negative pairs) in a seeded order, so runs on different seeds do
# the same amount of work and differ only in the terms.

def _fixed_mix(rng: random.Random, values, n: int) -> list:
    """n items cycling through values, in seeded order."""
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def _chosen(rng: random.Random, n: int, share: float) -> set:
    return set(rng.sample(range(n), round(n * share)))


def _expect(outcome, steps: int) -> dict:
    code, verdict, reason = outcome
    return {"exit": code, "verdict": verdict, "reason": reason, "steps": steps}


# ---------------------------------------------------------------------------
# res_chain: one DIMACS implication chain, text only
# ---------------------------------------------------------------------------

def res_chain(rng: random.Random, n: int = CHAIN_STEPS):
    """p0, p0 -> p1, ..., p(n-2) -> p(n-1), not p(n-1), refuted by n
    two-premise ``res`` steps.  The seed permutes the DIMACS numbering,
    the polarity of each variable, the clause order and literal order."""
    number = rng.sample(range(1, n + 1), n)
    flip = [rng.random() < 0.5 for _ in range(n)]

    def lit(i: int, positive: bool) -> int:
        return number[i] if positive != flip[i] else -number[i]

    chain = [[lit(0, True)]]
    chain += [[lit(i - 1, False), lit(i, True)] for i in range(1, n)]
    chain.append([lit(n - 1, False)])
    order = list(range(n + 1))
    rng.shuffle(order)
    input_id = [0] * (n + 1)
    lines = [f"p cnf {n} {n + 1}"]
    for pos_, c in enumerate(order):
        input_id[c] = pos_
        lits = chain[c]
        if len(lits) == 2 and rng.random() < 0.5:
            lits = lits[::-1]
        lines.append(" ".join(map(str, lits)) + " 0")
    k = n + 1
    cert = [f"{k} res ({input_id[0]} {input_id[1]}) {{}}"]
    cert += [f"{k + i} res ({k + i - 1} {input_id[i + 1]}) {{}}" for i in range(1, n)]
    cert.append(f"qed {k + n - 1}")
    return [("chain", ".cnf", "\n".join(lines) + "\n", "\n".join(cert) + "\n",
             _expect(VALID, n))]


# ---------------------------------------------------------------------------
# smt_lemmas: equality and arithmetic lemma chains glued by resolution
# ---------------------------------------------------------------------------

class _Cert:
    """Certificate under construction over a parsed problem."""

    def __init__(self, problem):
        self.problem = problem
        self.store = problem.store
        self.k = len(problem.input_clauses)
        self.steps = []

    def var(self, name: str) -> int:
        return self.problem.decls[name][1]

    def add(self, rule, premises=(), payload=None) -> int:
        sid = self.k + len(self.steps)
        self.steps.append(Step(sid, rule, tuple(premises), payload))
        return sid

    def euf(self, hyps, concl, plan):
        """Lemma (not h)* (= concl) justified by ``plan``; hyps are atoms,
        plan entries name them as ("hyp", atom)."""
        lemma = mk_clause(self.store, [neg(h) for h in hyps] + [pos(concl)])
        index = {lit.atom: i for i, lit in enumerate(lemma.lits) if not lit.positive}
        just = []
        for entry in plan:
            if entry[0] == "hyp":
                just.append(EqStep(EqRule.HYP, hyp=index[entry[1]]))
            elif entry[0] == "sym":
                just.append(EqStep(EqRule.SYM, refs=(entry[1],)))
            elif entry[0] == "trans":
                just.append(EqStep(EqRule.TRANS, refs=(entry[1], entry[2])))
            else:
                just.append(EqStep(EqRule.CONG, fun=entry[1], refs=entry[2]))
        return self.add(RuleKind.EUF, (), EufPayload(lemma, tuple(just)))

    def lia(self, lits):
        """Lemma over literals whose negations sum (all multipliers 1) to
        0 >= 1, or 0 <= -1."""
        lemma = mk_clause(self.store, lits)
        combo = tuple((i, 1) for i in range(len(lemma.lits)))
        return self.add(RuleKind.LIA, (), LiaPayload(lemma, combo))

    def res(self, *premises) -> int:
        return self.add(RuleKind.RES, premises)

    def not_not_unit(self, input_id: int) -> int:
        """[not a] from the input unit [(not a)]."""
        not_atom = self.problem.assertions[input_id]
        lemma = self.add(RuleKind.NOT_NOT, (), CnfPayload(not_atom, 0))
        return self.res(lemma, input_id)


def _eq_chain(c: _Cert, names, flipped, f):
    """Units [c0 = ci] up to the last name via euf ``trans`` lemmas; the
    problem asserts each link (= c(i-1) ci), some flipped, as inputs 0.."""
    store = c.store
    xs = [c.var(n) for n in names]
    link = [store.eq(xs[i], xs[i - 1]) if flipped[i] else store.eq(xs[i - 1], xs[i])
            for i in range(1, len(xs))]
    link.insert(0, None)
    if flipped[1]:
        goal = store.eq(xs[0], xs[1])
        lemma = c.euf([link[1]], goal, [("hyp", link[1]), ("sym", 0)])
        unit = c.res(lemma, 0)
    else:
        unit = 0
    for i in range(2, len(xs)):
        prev = store.eq(xs[0], xs[i - 1])
        goal = store.eq(xs[0], xs[i])
        plan = [("hyp", prev), ("hyp", link[i])]
        if flipped[i]:
            plan.append(("sym", 1))
        plan.append(("trans", 0, len(plan) - 1))
        lemma = c.euf([prev, link[i]], goal, plan)
        unit = c.res(lemma, unit, i - 1)
    last = store.eq(xs[0], xs[-1])
    fa = store.apply(f, (xs[0],))
    fb = store.apply(f, (xs[-1],))
    cong_atom = store.eq(fa, fb)
    lemma = c.euf([last], cong_atom, [("hyp", last), ("cong", f, (0,))])
    return c.res(lemma, unit), cong_atom


def _links(rng, names):
    flipped = [False] + [rng.random() < 0.3 for _ in names[1:]]
    out = []
    for i in range(1, len(names)):
        a, b = names[i - 1], names[i]
        out.append(f"(assert (= {b} {a}))" if flipped[i] else f"(assert (= {a} {b}))")
    return flipped, out


def _uf_pair(rng, m):
    names = [f"c{i}" for i in range(m + 1)]
    flipped, asserts = _links(rng, names)
    text = ["(set-logic QF_UF)", "(declare-sort U 0)", "(declare-fun f (U) U)"]
    text += [f"(declare-const {n} U)" for n in names]
    text += asserts
    text.append(f"(assert (not (= (f c0) (f {names[-1]}))))")

    def build(c):
        unit, _ = _eq_chain(c, names, flipped, c.problem.decls["f"][1])
        return c.res(unit, c.not_not_unit(m))
    return "QF_UF", text, build


def _lia_pair(rng, m):
    names = [f"x{i}" for i in range(m + 1)]
    ks = [0] + [rng.randint(-3, 5) for _ in range(m)]
    acc = [0] * (m + 1)
    for i in range(1, m + 1):
        acc[i] = acc[i - 1] + ks[i]

    def offset(store, x, k):
        return store.add([x, store.int_const(k)]) if k else x

    # Literal text matches to_sexpr of the terms built below.
    def offset_text(name, k):
        if not k:
            return name
        return f"(+ {name} {k})" if k > 0 else f"(+ {name} (- {-k}))"

    text = ["(set-logic QF_LIA)"] + [f"(declare-const {n} Int)" for n in names]
    for i in range(1, m + 1):
        text.append(f"(assert (<= {offset_text(names[i - 1], ks[i])} {names[i]}))")
    strict = rng.random() < 0.5
    if strict:
        text.append(f"(assert (< {names[m]} {offset_text('x0', acc[m])}))")
    else:
        text.append(f"(assert (not (<= {offset_text('x0', acc[m])} {names[m]})))")

    def build(c):
        store = c.store
        xs = [c.var(n) for n in names]
        link = [None] + [store.le(offset(store, xs[i - 1], ks[i]), xs[i])
                         for i in range(1, m + 1)]
        unit, prev = 0, link[1]
        for i in range(2, m + 1):
            goal = store.le(offset(store, xs[0], acc[i]), xs[i])
            lemma = c.lia([neg(prev), neg(link[i]), pos(goal)])
            unit, prev = c.res(lemma, unit, i - 1), goal
        if strict:
            closing = store.lt(xs[m], offset(store, xs[0], acc[m]))
            lemma = c.lia([neg(prev), neg(closing)])
            return c.res(lemma, unit, m)
        return c.res(unit, c.not_not_unit(m))
    return "QF_LIA", text, build


def _uflia_pair(rng, m):
    names = [f"a{i}" for i in range(m + 1)]
    flipped, asserts = _links(rng, names)
    bound = rng.randint(-5, 5)
    b_text = str(bound) if bound >= 0 else f"(- {-bound})"
    b1_text = str(bound + 1) if bound + 1 >= 0 else f"(- {-(bound + 1)})"
    text = ["(set-logic QF_UFLIA)", "(declare-fun f (Int) Int)"]
    text += [f"(declare-const {n} Int)" for n in names]
    text += asserts
    text.append(f"(assert (<= (f a0) {b_text}))")
    text.append(f"(assert (<= {b1_text} (f {names[-1]})))")

    def build(c):
        unit, cong_atom = _eq_chain(c, names, flipped, c.problem.decls["f"][1])
        upper, lower = c.problem.assertions[m], c.problem.assertions[m + 1]
        lemma = c.lia([neg(cong_atom), neg(upper), neg(lower)])
        return c.res(lemma, unit, m, m + 1)
    return "QF_UFLIA", text, build


def smt_lemmas(rng: random.Random, n_pairs: int = SMT_PAIRS):
    """Equal thirds of QF_UF, QF_LIA and QF_UFLIA chains of 10-50 lemmas;
    a tenth are chains of 2-3 links, confirmed UNSAT by the oracle."""
    makers = _fixed_mix(rng, (_uf_pair, _lia_pair, _uflia_pair), n_pairs)
    sizes = _fixed_mix(rng, range(10, 51), n_pairs)
    small = _chosen(rng, n_pairs, SMALL_SHARE)
    negative = _chosen(rng, n_pairs, NEGATIVE_SHARE)
    out = []
    for i in range(n_pairs):
        m = 2 + i % 2 if i in small else sizes[i]
        logic, text, build = makers[i](rng, m)
        problem_text = "\n".join(text + ["(check-sat)"]) + "\n"
        problem = parse_smt2(problem_text)
        c = _Cert(problem)
        build(c)
        steps = c.steps
        outcome = VALID
        if i in negative:
            steps, outcome = steps[:-1], NOT_DERIVED
        cert_text = print_certificate(problem.store, Certificate(tuple(steps), steps[-1].id))
        # Ids must match a fresh parse of the files, or lemma indices drift.
        again = parse_smt2(problem_text)
        if print_certificate(again.store, parse_certificate(cert_text, again)) != cert_text:
            raise AssertionError(f"smt_lemmas pair {i}: certificate does not round-trip")
        if i in small:
            res = brute_unsat(problem.store, problem.input_clauses, int_box=(-3, 3),
                              budget=200_000)
            if res.status != UNSAT:
                raise AssertionError(f"smt_lemmas pair {i}: oracle says {res.status}")
        out.append((f"{logic.lower()}_{i:04d}", ".smt2", problem_text, cert_text,
                    _expect(outcome, len(steps))))
    return out


# ---------------------------------------------------------------------------
# bv_blast: word-level claims refuted through bit-blasting
# ---------------------------------------------------------------------------

class _BvPlan:
    """Builds a refutation of forced bit-vector assertions.

    Variables are forced by claimed-true equations against constants; one
    further claim is false at word level.  The planner bit-blasts every
    term, turns the link clauses into bit-level units, derives the actual
    value of the wrong claim's bit formula, and resolves the conflict.
    """

    def __init__(self, problem, var_values):
        self.store = problem.store
        self.clauses = list(problem.input_clauses)
        self.ctx = CheckContext(self.store)
        for clause in self.clauses:
            self._note(clause)
        self.steps = []
        self.units = {}
        self.values = {}
        self.var_values = var_values
        self.add_links = []
        self.n_aux = 0

    def _note(self, clause):
        for atom in clause.atoms():
            self.ctx.bitblast.note_used(self.store.vars_of(atom))

    def add(self, rule, premises=(), payload=None) -> int:
        sid = len(self.clauses)
        conclusion = dispatch(self.ctx, rule, [self.clauses[p] for p in premises], payload)
        self.steps.append(Step(sid, rule, tuple(premises), payload))
        self.clauses.append(conclusion)
        self._note(conclusion)
        return sid

    def res(self, *premises) -> int:
        return self.add(RuleKind.RES, premises)

    def cnf(self, rule_name: str, target: int, index: int = 0) -> int:
        return self.add(RuleKind(rule_name), (), CnfPayload(target, index))

    def unit_atom(self, cid: int) -> int:
        return self.clauses[cid].enc[0] >> 1

    def eval(self, t: int) -> bool:
        if t in self.values:
            return self.values[t]
        store = self.store
        k, args = store.kind(t), store.args(t)
        if k is Kind.TRUE or k is Kind.FALSE:
            v = k is Kind.TRUE
        elif k is Kind.NOT:
            v = not self.eval(args[0])
        elif k is Kind.AND:
            v = all(self.eval(a) for a in args)
        elif k is Kind.OR:
            v = any(self.eval(a) for a in args)
        elif k is Kind.XOR:
            v = self.eval(args[0]) != self.eval(args[1])
        elif k is Kind.IFF:
            v = self.eval(args[0]) == self.eval(args[1])
        else:
            raise AssertionError(f"unexpected node in bit formula: {k}")
        self.values[t] = v
        return v

    def derive(self, t: int, val: bool) -> int:
        """Clause id of the unit [t] (val true) or [not t]."""
        if (t, val) in self.units:
            return self.units[(t, val)]
        store = self.store
        k, args = store.kind(t), store.args(t)
        if k is Kind.NOT:
            inner = self.derive(args[0], not val)
            cid = self.res(self.cnf("not_not", t, 1 if val else 0), inner)
        elif (k is Kind.AND) == val and k in (Kind.AND, Kind.OR):
            # and true / or false: every argument has the value; resolve
            # each distinct argument unit in once
            units = dict.fromkeys(self.derive(a, val) for a in args)
            cid = self.res(self.cnf("and_neg" if val else "or_pos", t), *units)
        elif k in (Kind.AND, Kind.OR):
            j = next(i for i, a in enumerate(args) if self.eval(a) == val)
            cid = self.res(self.cnf("or_neg" if val else "and_pos", t, j),
                           self.derive(args[j], val))
        elif k in (Kind.XOR, Kind.IFF):
            va, vb = self.eval(args[0]), self.eval(args[1])
            ua, ub = self.derive(args[0], va), self.derive(args[1], vb)
            rule = {
                (Kind.XOR, True, True): "xor_pos2", (Kind.XOR, False, False): "xor_pos1",
                (Kind.XOR, False, True): "xor_neg1", (Kind.XOR, True, False): "xor_neg2",
                (Kind.IFF, True, False): "iff_pos1", (Kind.IFF, False, True): "iff_pos2",
                (Kind.IFF, False, False): "iff_neg1", (Kind.IFF, True, True): "iff_neg2",
            }[(k, va, vb)]
            cid = self.res(self.res(self.cnf(rule, t), ua), ub)
        else:
            raise AssertionError(f"no unit for {store.to_sexpr(t)}={val}")
        self.units[(t, val)] = cid
        return cid

    def register(self, t: int, val: bool, cid: int):
        self.units[(t, val)] = cid
        self.values[t] = val

    def conjuncts(self, formula: int, unit_id: int):
        """Split the unit [formula] into per-conjunct units."""
        if self.store.kind(formula) is not Kind.AND:
            return [(formula, unit_id)]
        return [(a, self.res(self.cnf("and_pos", formula, j), unit_id))
                for j, a in enumerate(self.store.args(formula))]

    def conjunct_unit(self, conj: int, cid: int):
        """Register a bit unit: a variable, a negated variable, or a carry
        definition (iff carry def)."""
        store = self.store
        k = store.kind(conj)
        if k is Kind.VAR:
            self.register(conj, True, cid)
        elif k is Kind.NOT and store.kind(store.args(conj)[0]) is Kind.VAR:
            self.register(store.args(conj)[0], False,
                          self.res(self.cnf("not_not", conj, 0), cid))
        elif k is Kind.IFF:
            carry, definition = store.args(conj)
            v = self.eval(definition)
            du = self.derive(definition, v)
            mid = self.res(self.cnf("iff_pos2" if v else "iff_pos1", conj), cid)
            self.register(carry, v, self.res(mid, du))
        else:
            raise AssertionError(f"unexpected conjunct {store.to_sexpr(conj)}")

    def blast(self, t: int):
        store = self.store
        bits = self.ctx.bitblast.bits
        if t in bits:
            return
        k = store.kind(t)
        if k is Kind.VAR:
            name = store.node(t).extra[0]
            aux = tuple(store.var(f"{name}.{i}", BOOL) for i in range(store.width_of(t)))
            self.add(RuleKind.BB_VAR, (), BvPayload(t, aux))
            for i, bit in enumerate(aux):
                self.values[bit] = bool((self.var_values[t] >> i) & 1)
        elif k is Kind.BV_CONST:
            self.add(RuleKind.BB_CONST, (), BvPayload(t))
        else:
            for a in store.args(t):
                self.blast(a)
            if k is Kind.BV_ADD:
                width = store.width_of(t)
                carries = []
                for _ in range(width):
                    self.n_aux += 1
                    carries.append(store.var(f"c.{self.n_aux}", BOOL))
                link = self.add(RuleKind.BB_ADD, (), BvPayload(t, tuple(carries)))
                lv = [self.eval(b) for b in bits[store.args(t)[0]]]
                rv = [self.eval(b) for b in bits[store.args(t)[1]]]
                cv = [False]
                for i in range(width - 1):
                    cv.append((lv[i] and rv[i]) or ((lv[i] != rv[i]) and cv[i]))
                for var, v in zip(carries, cv):
                    self.values[var] = v
                # Carry units wait for the operand bit units.
                self.add_links.append(link)
            else:
                rule = {Kind.BV_NOT: RuleKind.BB_NOT, Kind.BV_AND: RuleKind.BB_AND,
                        Kind.BV_OR: RuleKind.BB_OR, Kind.BV_XOR: RuleKind.BB_XOR}[k]
                self.add(rule, (), BvPayload(t))

    def claim_unit(self, atom: int, claimed: bool, input_id: int) -> int:
        """Unit [atom] or [not atom] from the input clause at input_id."""
        if claimed:
            return input_id
        return self.res(self.cnf("not_not", self.unit_atom(input_id), 0), input_id)

    def link(self, atom: int) -> tuple[int, int]:
        """bb_eq/bb_ult link for an atom: (link term, clause id)."""
        rule = RuleKind.BB_EQ if self.store.kind(atom) is Kind.EQ else RuleKind.BB_ULT
        cid = self.add(rule, (), BvPayload(atom))
        return self.unit_atom(cid), cid

    def refute(self, atom: int, claimed: bool, input_id: int) -> int:
        """Empty clause from the one claim that is false at word level."""
        store = self.store
        claim = self.claim_unit(atom, claimed, input_id)
        link_term, link_id = self.link(atom)
        if link_term == atom:
            # The bit formula folded to true: [atom] contradicts the claim.
            return self.res(claim, link_id)
        if store.kind(link_term) is Kind.NOT and store.args(link_term)[0] == atom:
            # Folded to false: extract [not atom] from the link.
            return self.res(claim, self.res(self.cnf("not_not", link_term, 0), link_id))
        formula = store.args(link_term)[1]
        mid = self.res(self.cnf("iff_pos1" if claimed else "iff_pos2", link_term), link_id)
        claimed_formula = self.res(mid, claim)
        return self.res(claimed_formula, self.derive(formula, self.eval(formula)))


# 32 bits three times between one width below and one above, so the median
# pair is the middle one of a group of like pairs.
_BV_WIDTHS = (8, 32, 32, 32, 64)
_BV_KINDS = (0, 1, 2)
_BV_BITWISE = ("bvand", "bvor", "bvxor")


def _bv_eval(op, args, mask):
    if op == "bvadd":
        return (args[0] + args[1]) & mask
    if op == "bvand":
        return args[0] & args[1]
    if op == "bvor":
        return args[0] | args[1]
    if op == "bvxor":
        return args[0] ^ args[1]
    return ~args[0] & mask


def _bv_const(value: int, width: int) -> str:
    return "#b" + format(value, f"0{width}b")


def _bv_problem(rng, width, kind):
    """(problem text, var values, index of the false claim, claimed).

    The claimed term is op0(bvadd(l0, l1), op2(l2, l3)) with bitwise op0
    and op2 fixed by the kind, over leaves from x, y, z, one of them under
    bvnot.  kind 0 claims a wrong value, kind 1 denies the
    right one, kind 2 gets a bvult comparison wrong.  Every kind costs
    about the same on every seed.
    """
    mask = (1 << width) - 1
    values = {n: rng.randrange(1 << width) for n in ("x", "y", "z")}

    def leaf(negated):
        name = rng.choice(tuple(values))
        if negated:
            return f"(bvnot {name})", ~values[name] & mask
        return name, values[name]

    def node(op, a, b):
        return f"({op} {a[0]} {b[0]})", _bv_eval(op, [a[1], b[1]], mask)

    ops = [_BV_BITWISE[(kind + 1) % 3], "bvadd", _BV_BITWISE[kind]]
    while True:
        # x op x folds bit formulas the planner's CNF steps cannot split
        negated = rng.randrange(4)
        leaves = [leaf(j == negated) for j in range(4)]
        left, right = node(ops[1], *leaves[:2]), node(ops[2], *leaves[2:])
        if leaves[0] != leaves[1] and leaves[2] != leaves[3] and left != right:
            break
    e, ev = node(ops[0], left, right)
    if kind == 0:
        wrong = rng.randrange(1 << width)
        while wrong == ev:
            wrong = rng.randrange(1 << width)
        claim, claimed = f"(= {e} {_bv_const(wrong, width)})", True
    elif kind == 1:
        claim, claimed = f"(= {e} {_bv_const(ev, width)})", False
    else:
        # c agrees with the term above the middle bit and differs there, so
        # the comparison is decided at the same depth on every seed.
        mid = width // 2
        low = rng.randrange(1 << mid)
        c = (ev >> (mid + 1) << (mid + 1)) | (~ev & (1 << mid)) | low
        claim, claimed = f"(bvult {e} {_bv_const(c, width)})", not ev < c
    text = ["(set-logic QF_BV)"]
    text += [f"(declare-const {n} (_ BitVec {width}))" for n in values]
    text += [f"(assert (= {n} {_bv_const(v, width)}))" for n, v in values.items()]
    text.append(f"(assert {claim})" if claimed else f"(assert (not {claim}))")
    return "\n".join(text + ["(check-sat)"]) + "\n", values, len(values), claimed


def bv_blast(rng: random.Random):
    """One pair per (width, claim kind), in seeded order."""

    mix = [(w, k) for w in _BV_WIDTHS for k in _BV_KINDS]
    rng.shuffle(mix)
    negative = _chosen(rng, len(mix), NEGATIVE_SHARE)
    out = []
    for i, (width, kind) in enumerate(mix):
        text, values, wrong, claimed = _bv_problem(rng, width, kind)
        problem = parse_smt2(text)
        store = problem.store
        var_values = {problem.decls[n][1]: v for n, v in values.items()}
        plan = _BvPlan(problem, var_values)
        atoms = []
        for t in problem.assertions:
            atoms.append(store.args(t)[0] if store.kind(t) is Kind.NOT else t)
        for atom in atoms:
            for side in store.args(atom):
                plan.blast(side)
        # Forcing equations (var = const) become per-bit units.
        for j in range(wrong):
            link_term, link_id = plan.link(atoms[j])
            mid = plan.res(plan.cnf("iff_pos1", link_term), link_id)
            f_unit = plan.res(mid, j)
            for conj, cid in plan.conjuncts(store.args(link_term)[1], f_unit):
                plan.conjunct_unit(conj, cid)
        for link in plan.add_links:
            for conj, cid in plan.conjuncts(plan.unit_atom(link), link):
                plan.conjunct_unit(conj, cid)
        final = plan.refute(atoms[wrong], claimed, wrong)
        if not plan.clauses[final].is_empty():
            raise AssertionError(f"bv_blast pair {i}: planner did not reach the empty clause")
        steps = plan.steps
        outcome = VALID
        if i in negative:
            steps, outcome = steps[:-1], NOT_DERIVED
        cert_text = print_certificate(store, Certificate(tuple(steps), steps[-1].id))
        out.append((f"bv{width}_{i:03d}", ".smt2", text, cert_text,
                    _expect(outcome, len(steps))))
    return out


WORKLOADS = {"res_chain": res_chain, "smt_lemmas": smt_lemmas, "bv_blast": bv_blast}


def generate(workload: str, seed: int, out_dir: Path) -> dict:
    """Write the workload's pairs under out_dir; return its manifest."""
    rng = random.Random(f"{workload}:{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    pairs = []
    for stem, ext, problem_text, cert_text, expect in WORKLOADS[workload](rng):
        problem = out_dir / f"{stem}{ext}"
        proof = out_dir / f"{stem}.cert"
        for path, text in ((problem, problem_text), (proof, cert_text)):
            data = text.encode()
            path.write_bytes(data)
            digest.update(path.name.encode() + b"\0" + data + b"\0")
        pairs.append({"problem": str(problem), "proof": str(proof),
                      "problem_bytes": len(problem_text.encode()),
                      "cert_bytes": len(cert_text.encode()), **expect})
    return {"workload": workload, "seed": seed, "inputs_sha256": digest.hexdigest(),
            "pairs": pairs}
