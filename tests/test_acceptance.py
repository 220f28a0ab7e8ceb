"""Acceptance suite: every criterion at its stated scale and tolerance.

Each test prints one PASS line with the measured scale once its assertions
hold; a failure shows up as an ordinary red test.  Heavier than the unit
modules by design, the whole file stays within the stated runtime budgets.
"""

import itertools
import pathlib
import random
import subprocess
import sys
import time

import gens
from naive_linear import naive_linearize
from certkernel import (
    BOOL, BitBlastState, BitVecSort, BvPayload, CheckContext, Kind, Model,
    RuleKind, TRIVIALLY_TRUE, TermStore, Verdict, brute_unsat, check,
    check_euf, check_lia, clause_to_sexpr, cnf_lemma, compact, dispatch,
    euf_lemma_valid, eval_clause, eval_term, is_tautology, linearize,
    parse_certificate, parse_dimacs, parse_smt2, propositionally_implies,
    resolve_chain, to_sexpr,
)
from certkernel.bitblast import bb_step
from certkernel.cli import run_one
from certkernel.errors import CertKernelError
from certkernel.oracle import SAT, UNSAT

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def _lia_box_valid(store, lemma, lo=-10, hi=10):
    int_vars = sorted({v for atom in lemma.atoms() for v in store.vars_of(atom)})
    for values in itertools.product(range(lo, hi + 1), repeat=len(int_vars)):
        m = Model(values=dict(zip(int_vars, values)))
        if not eval_clause(store, m, lemma):
            return False
    return True


# -- criterion 1: checker soundness over generated pairs ---------------------

def _soundness_round(generate, rng, oracle):
    """Returns (verdict, oracle-confirmed) for one generated pair."""
    store, inputs, cert = generate(rng)
    result = check(store, inputs, cert)
    if result.verdict is Verdict.VALID:
        assert oracle(store, inputs), "VALID verdict on an oracle-satisfiable set"
    return result.verdict


def test_c1_soundness_suite_10k_pairs_per_theory():
    n = 10_000
    rng = random.Random(0xC1)

    def unsat_oracle(store, inputs):
        return brute_unsat(store, inputs).status == UNSAT

    def res_gen(rng):
        store, inputs, cert, _ = gens.gen_res_pair(rng)
        if rng.random() < 0.4:
            cert = gens.mutate_cert_object(cert, rng)
        return store, inputs, cert

    def euf_gen(rng):
        store, inputs, cert, _ = gens.gen_euf_pair(rng)
        if rng.random() < 0.4:
            cert = gens.mutate_cert_object(cert, rng)
        return store, inputs, cert

    def lia_gen(rng):
        store, inputs, cert, _ = gens.gen_lia_pair(rng)
        if rng.random() < 0.4:
            cert = gens.mutate_cert_object(cert, rng)
        return store, inputs, cert

    def bv_gen(rng):
        store, inputs, cert = gens.gen_bv_pair(rng)
        if rng.random() < 0.3:
            cert = gens.mutate_cert_object(cert, rng)
        return store, inputs, cert

    t0 = time.time()
    totals = {}
    for name, generate in (("res", res_gen), ("euf", euf_gen),
                           ("lia", lia_gen), ("bv", bv_gen)):
        counts = {v: 0 for v in Verdict}
        for _ in range(n):
            counts[_soundness_round(generate, rng, unsat_oracle)] += 1
        totals[name] = counts
    elapsed = time.time() - t0
    assert elapsed < 600
    summary = "; ".join(
        f"{name} valid={c[Verdict.VALID]} invalid={c[Verdict.INVALID]}"
        for name, c in totals.items())
    print(f"\nPASS criterion 1: {4 * n} pairs, zero VALID-on-sat "
          f"({summary}) in {elapsed:.0f}s")


# -- criterion 2: step-local soundness ----------------------------------------

def test_c2_step_local_soundness_1000_accepted_each():
    rng = random.Random(0xC2)
    t0 = time.time()

    # resolution: conclusions follow propositionally from the premises
    store = TermStore()
    atoms = [store.var(f"p{i}", BOOL) for i in range(5)]
    accepted = 0
    while accepted < 1000:
        premises = [gens.rand_clause(store, rng, atoms, 3)
                    for _ in range(rng.randint(1, 4))]
        conclusion = resolve_chain(premises)
        assert propositionally_implies(store, premises, conclusion)
        if conclusion != TRIVIALLY_TRUE:
            accepted += 1

    # cnf lemmas: premise-free, so implied means tautological
    store = TermStore()
    atoms = [store.var(f"q{i}", BOOL) for i in range(4)]
    accepted = 0
    while accepted < 1000:
        target = gens.rand_bool_term(store, rng, atoms, 3)
        if store.kind(target) is Kind.VAR:
            target = store.intern(Kind.NOT, (target,))
        rule, payload = gens._cnf_rule_for(store, target, rng)
        clause = cnf_lemma(store, rule, payload)
        if clause == TRIVIALLY_TRUE:
            continue
        assert is_tautology(store, clause)
        accepted += 1

    # euf lemmas: premise-free theory tautologies, finite-model validated
    for _ in range(1000):
        store = TermStore()
        payload = gens.gen_euf_payload(store, rng)
        assert check_euf(store, payload) == payload.lemma
        assert euf_lemma_valid(store, payload.lemma, max_domain=3)

    # lia lemmas: no counterexample in the integer box
    for _ in range(1000):
        store = TermStore()
        payload = gens.gen_lia_payload(store, rng)
        assert check_lia(store, payload) == payload.lemma
        assert _lia_box_valid(store, payload.lemma)

    # bit-blasting: link conclusions hold in every definition-respecting model
    accepted = 0
    while accepted < 1000:
        store, inputs, cert = gens.gen_bv_pair(rng)
        ctx = CheckContext(store)
        clauses = list(inputs)
        links = []
        adds = []
        for step in cert.steps:
            out = dispatch(ctx, step.rule, [clauses[p] for p in step.premises],
                           step.payload)
            clauses.append(out)
            if step.rule in (RuleKind.BB_EQ, RuleKind.BB_ULT) and len(out) == 1:
                links.append(out)
            if step.rule is RuleKind.BB_ADD and len(out) == 1:
                adds.append((step.payload, out))
        words = [t for t in ctx.bitblast.bits if store.kind(t) is Kind.VAR]
        for values in itertools.product(*(range(1 << store.width_of(w))
                                          for w in words)):
            assign = {}
            model = Model()
            for w, v in zip(words, values):
                model.values[w] = tuple(bool((v >> i) & 1)
                                        for i in range(store.width_of(w)))
                for i, bit in enumerate(ctx.bitblast.bits[w]):
                    assign[bit] = bool((v >> i) & 1)
                    model.values[bit] = assign[bit]
            for payload, link in adds:
                l, r = store.args(payload.target)
                memo = {}
                lv = [eval_term(store, Model(assign), b, memo)
                      for b in ctx.bitblast.bits[l]]
                rv = [eval_term(store, Model(assign), b, memo)
                      for b in ctx.bitblast.bits[r]]
                carry = False
                for i, cvar in enumerate(payload.aux):
                    assign[cvar] = carry
                    model.values[cvar] = carry
                    carry = (lv[i] and rv[i]) or ((lv[i] != rv[i]) and carry)
            memo = {}
            for _, link in adds:
                assert eval_term(store, Model(assign), link.enc[0] >> 1, memo)
            for link in links:
                assert eval_term(store, model, link.enc[0] >> 1, {}) is True
        # each link conclusion has now been verified under every
        # definition-respecting model of its problem
        accepted += len(links) + len(adds)

    print(f"\nPASS criterion 2: 1000+ accepted conclusions per checker all "
          f"oracle-implied in {time.time() - t0:.0f}s")


# -- criterion 3: cnf lemma tautologies ---------------------------------------

def test_c3_cnf_lemma_tautology_exhaustive():
    rng = random.Random(0xC3)
    t0 = time.time()
    emitted = 0
    store = TermStore()
    atoms = [store.var(f"a{i}", BOOL) for i in range(8)]
    while emitted < 2000:
        target = gens.rand_bool_term(store, rng, atoms, 4)
        if store.kind(target) is Kind.VAR:
            target = store.intern(Kind.NOT, (target,))
        rule, payload = gens._cnf_rule_for(store, target, rng)
        clause = cnf_lemma(store, rule, payload)
        if clause == TRIVIALLY_TRUE:
            continue
        assert is_tautology(store, clause, max_atoms=16), \
            (rule, to_sexpr(store, target))
        emitted += 1
    elapsed = time.time() - t0
    assert elapsed < 60
    print(f"\nPASS criterion 3: {emitted} emitted lemmas, all truth-table "
          f"tautologies in {elapsed:.0f}s")


# -- criterion 4: bit-blasting exhaustive agreement ---------------------------

def test_c4_bitblast_word_bit_agreement_widths_1_to_4():
    t0 = time.time()
    cases = 0
    for width in (1, 2, 3, 4):
        store = TermStore()
        state = BitBlastState()
        x = store.var("x", BitVecSort(width))
        y = store.var("y", BitVecSort(width))
        for v, tag in ((x, "x"), (y, "y")):
            aux = tuple(store.var(f"{tag}{i}", BOOL) for i in range(width))
            bb_step(store, state, BvPayload(v, aux), Kind.VAR)
        ops = {
            "not": store.intern(Kind.BV_NOT, (x,)),
            "and": store.intern(Kind.BV_AND, (x, y)),
            "or": store.intern(Kind.BV_OR, (x, y)),
            "xor": store.intern(Kind.BV_XOR, (x, y)),
        }
        for t in ops.values():
            bb_step(store, state, BvPayload(t), store.kind(t))
        t_add = store.intern(Kind.BV_ADD, (x, y))
        carries = tuple(store.var(f"c{i}", BOOL) for i in range(width))
        add_link = bb_step(store, state, BvPayload(t_add, carries), Kind.BV_ADD)
        eq_link = bb_step(store, state, BvPayload(store.eq(x, y)), Kind.EQ)
        ult_link = bb_step(store, state, BvPayload(store.intern(Kind.BV_ULT, (x, y))), Kind.BV_ULT)
        mask = (1 << width) - 1

        def word(bits, assign, memo):
            return sum(1 << i for i, b in enumerate(bits)
                       if eval_term(store, Model(assign), b, memo))

        for xv in range(1 << width):
            for yv in range(1 << width):
                assign = {}
                for i, bit in enumerate(state.bits[x]):
                    assign[bit] = bool((xv >> i) & 1)
                for i, bit in enumerate(state.bits[y]):
                    assign[bit] = bool((yv >> i) & 1)
                carry = False
                for i, cvar in enumerate(carries):
                    assign[cvar] = carry
                    xb, yb = assign[state.bits[x][i]], assign[state.bits[y][i]]
                    carry = (xb and yb) or ((xb != yb) and carry)
                memo = {}
                assert word(state.bits[ops["not"]], assign, memo) == (~xv) & mask
                assert word(state.bits[ops["and"]], assign, memo) == xv & yv
                assert word(state.bits[ops["or"]], assign, memo) == xv | yv
                assert word(state.bits[ops["xor"]], assign, memo) == xv ^ yv
                assert eval_term(store, Model(assign), add_link.enc[0] >> 1, memo)
                assert word(state.bits[t_add], assign, memo) == (xv + yv) & mask
                # eq/ult link formulas decide the atoms exactly
                eq_f = store.args(eq_link.enc[0] >> 1)[1]
                ult_f = store.args(ult_link.enc[0] >> 1)[1]
                assert eval_term(store, Model(assign), eq_f, memo) == (xv == yv)
                assert eval_term(store, Model(assign), ult_f, memo) == (xv < yv)
                cases += 7
    elapsed = time.time() - t0
    assert elapsed < 120
    print(f"\nPASS criterion 4: {cases} exhaustive word/bit cases, zero "
          f"mismatches in {elapsed:.0f}s")


# -- criterion 5: lia acceptance and rejection --------------------------------

def test_c5_lia_500_accepted_500_corrupted():
    rng = random.Random(0xC5)
    t0 = time.time()
    for _ in range(500):
        store = TermStore()
        payload = gens.gen_lia_payload(store, rng)
        assert check_lia(store, payload) == payload.lemma
        assert _lia_box_valid(store, payload.lemma)
    for _ in range(500):
        store = TermStore()
        payload = gens.gen_lia_payload(store, rng)
        bad = gens.corrupt_lia_payload(payload, rng)
        assert check_lia(store, bad) == TRIVIALLY_TRUE
    print(f"\nPASS criterion 5: 500 accepted lemmas box-valid, 500 corrupted "
          f"certificates rejected in {time.time() - t0:.0f}s")


# -- criterion 6: mutation fuzz ------------------------------------------------

def test_c6_mutation_fuzz_100k_files():
    rng = random.Random(0xC6)
    t0 = time.time()
    seeds = [
        ("(declare-const p Bool)\n(declare-const q Bool)\n"
         "(assert (or p q))\n(assert (or (not p) q))\n",
         "2 or_pos () {(or p q)}\n3 res (2 0) {}\nqed 3\n"),
        ("(declare-const x Int)\n(assert (<= x 5))\n",
         "1 lia () {(lemma (not (<= x 5)) (not (<= 6 x))) (farkas (0 1) (1 1))}\n"
         "2 res (1 0) {}\nqed 2\n"),
        ("(declare-sort U 0)\n(declare-const a U)\n(declare-const b U)\n"
         "(declare-fun f (U) U)\n(assert (= a b))\n",
         "1 euf () {(lemma (not (= a b)) (= (f a) (f b))) (just (hyp 0) (cong f 0))}\n"
         "2 res (0 1) {}\nqed 2\n"),
        ("(declare-const x (_ BitVec 2))\n(assert (= x #b01))\n",
         "1 bb_var () {x (aux x0 x1)}\n2 bb_const () {#b01}\n"
         "3 bb_eq () {(= x #b01)}\nqed 3\n"),
    ]
    # every seed problem is satisfiable, so VALID must never appear
    parsed = []
    for smt, cert in seeds:
        prob = parse_smt2(smt)
        assert brute_unsat(prob.store, prob.input_clauses).status == SAT
        parsed.append((smt, cert))

    n = 100_000
    no_crash = 0
    for i in range(n):
        smt, cert_text = parsed[i % len(parsed)]
        if i % 1000 == 0:
            problems = [parse_smt2(s) for s, _ in parsed]
        prob = problems[i % len(parsed)]
        mutated = gens.mutate_cert_text(cert_text, rng)
        try:
            cert = parse_certificate(mutated, prob)
            result = check(prob.store, prob.input_clauses, cert)
            assert result.verdict is not Verdict.VALID, mutated
        except CertKernelError:
            pass
        no_crash += 1
    elapsed = time.time() - t0
    print(f"\nPASS criterion 6: {no_crash} mutated certificates, no crash, "
          f"no VALID on satisfiable inputs in {elapsed:.0f}s")


def _corpus_pairs():
    for cert_path in sorted(CORPUS.rglob("*.cert")):
        prob_path = cert_path.with_suffix(".cnf")
        if not prob_path.exists():
            prob_path = cert_path.with_suffix(".smt2")
        yield prob_path, cert_path


def test_c6_problem_text_fuzz_5000_edits(tmp_path):
    """Character edits of the corpus problems, each checked with its own
    certificate: every run ends in a documented exit code, and whatever
    still gets VALID or TRUSTED is not satisfiable."""
    rng = random.Random(0xC6B)
    t0 = time.time()
    pairs = [(p.read_text(), p.suffix, str(c)) for p, c in _corpus_pairs()]
    alphabet = "()\n ;0123456789-+=<>#_abnoprtxy"
    oracle_verdicts: dict = {}
    accepted = 0
    for i in range(5000):
        text, suffix, cert_path = pairs[i % len(pairs)]
        j, op, ch = rng.randrange(len(text) + 1), rng.randrange(3), rng.choice(alphabet)
        mutated = text[:j] + (ch if op < 2 else "") + text[j + (op != 1):]
        prob_path = tmp_path / ("mutated" + suffix)
        prob_path.write_text(mutated)
        code, report = run_one(str(prob_path), cert_path, "check", None, True, False)
        assert code in (0, 1, 2, 3), (mutated, report)
        if code in (0, 2):
            accepted += 1
            prob = parse_dimacs(mutated) if suffix == ".cnf" else parse_smt2(mutated)
            key = tuple(clause_to_sexpr(prob.store, c) for c in prob.input_clauses)
            if key not in oracle_verdicts:
                oracle_verdicts[key] = brute_unsat(prob.store, prob.input_clauses).status
            assert oracle_verdicts[key] != SAT, mutated
    print(f"\nPASS criterion 6 (problems): 5000 mutated problems, {accepted} "
          f"accepted, none satisfiable, in {time.time() - t0:.1f}s")


# -- criterion 7: linearizer differential -------------------------------------

def test_c7_linearizer_and_compact_differentials_1000_each():
    rng = random.Random(0xC7)
    t0 = time.time()
    for _ in range(1000):
        store, inputs, tree = gens.gen_nested_tree(rng)
        memoized = linearize(tree, len(inputs))
        duplicated = naive_linearize(tree, len(inputs))
        assert check(store, inputs, memoized).verdict \
            == check(store, inputs, duplicated).verdict
    for _ in range(1000):
        store, inputs, cert = gens.gen_random_certificate(rng)
        assert check(store, inputs, cert).verdict \
            == check(store, inputs, compact(cert, len(inputs))).verdict
    for family in ("bb", "euf", "lia"):
        for _ in range(1000):
            store, inputs, cert, unspliced = gens.gen_theory_certificate(rng, family)
            small = compact(cert, len(inputs))
            assert check(store, inputs, cert).verdict \
                == check(store, inputs, small).verdict is Verdict.VALID, family
            assert small == compact(unspliced, len(inputs)), family
    print(f"\nPASS criterion 7: 1000 linearizer + 1000 compaction + 3000 bb/euf/lia "
          f"compaction differentials agree in {time.time() - t0:.0f}s")


# -- criterion 8: end-to-end corpus -------------------------------------------

def test_c8_corpus_checks_valid():
    t0 = time.time()
    entries = list(_corpus_pairs())
    assert len(entries) >= 30
    logics = set()
    for prob_path, cert_path in entries:
        text = prob_path.read_text()
        prob = parse_dimacs(text) if prob_path.suffix == ".cnf" else parse_smt2(text)
        logics.add(prob.logic)
        cert = parse_certificate(cert_path.read_text(), prob)
        result = check(prob.store, prob.input_clauses, cert)
        expected = Verdict.TRUSTED if "assume" in cert_path.name else Verdict.VALID
        assert result.verdict is expected, (cert_path, result.reason, result.step_id)
        oracle = brute_unsat(prob.store, prob.input_clauses)
        assert oracle.status == UNSAT, cert_path
    elapsed = time.time() - t0
    assert elapsed < 30
    assert {"SAT", "QF_UF", "QF_LIA", "QF_UFLIA", "QF_BV"} <= logics
    print(f"\nPASS criterion 8: {len(entries)} corpus proofs across "
          f"{sorted(l for l in logics if l)} in {elapsed:.1f}s")


# -- criterion 9: throughput sanity -------------------------------------------

_BENCH = r"""
import time, resource, sys
from certkernel import (BOOL, Certificate, RuleKind, Step, TermStore, Verdict,
                        check, mk_clause, neg, pos)
n = 100_000
store = TermStore()
vs = [store.var(f"p{i}", BOOL) for i in range(n)]
inputs = [mk_clause(store, [pos(vs[0])])]
for i in range(n - 1):
    inputs.append(mk_clause(store, [neg(vs[i]), pos(vs[i + 1])]))
inputs.append(mk_clause(store, [neg(vs[n - 1])]))
k = len(inputs)
steps = [Step(k, RuleKind.RES, (0, 1))]
for i in range(1, n):
    steps.append(Step(k + i, RuleKind.RES, (k + i - 1, min(i + 1, n))))
cert = Certificate(tuple(steps), qed=k + n - 1)
t0 = time.perf_counter()
result = check(store, inputs, cert)
elapsed = time.perf_counter() - t0
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
assert result.verdict is Verdict.VALID
print(f"{elapsed:.3f} {rss_mb:.0f}")
"""


def test_c9_100k_step_resolution_throughput():
    proc = subprocess.run([sys.executable, "-c", _BENCH], capture_output=True, text=True)
    assert proc.returncode == 0, f"benchmark child exited {proc.returncode}:\n{proc.stderr}"
    elapsed, rss_mb = proc.stdout.split()
    elapsed, rss_mb = float(elapsed), float(rss_mb)
    assert elapsed < 5.0, f"100k-step replay took {elapsed:.2f}s"
    assert rss_mb < 500, f"peak memory {rss_mb:.0f}MB"
    print(f"\nPASS criterion 9: 100000 resolution steps checked in "
          f"{elapsed:.2f}s, peak {rss_mb:.0f}MB")


# -- memory: a pair holds one block of its certificate's steps ----------------

_PEAK = r"""
import sys, tracemalloc
from certkernel.cli import run_one
tracemalloc.start()
code, report = run_one(sys.argv[1], sys.argv[2], "check", None, True, False)
print(code, tracemalloc.get_traced_memory()[1] / 1e6)
"""


def test_a_100k_step_chain_peaks_below_78_mb(tmp_path):
    """run_one on the benchmark's 100 000-step DIMACS res chain (seed 1),
    in a fresh process under tracemalloc.  Read whole before replay, the
    certificate's steps and line list took the peak to 87 MB; read block
    by block as replay consumes it, the peak is about 70 MB, level with
    that of reading the problem."""
    pair = gens.benchmark_generator().generate("res_chain", 1, tmp_path)["pairs"][0]
    proc = subprocess.run([sys.executable, "-c", _PEAK, pair["problem"], pair["proof"]],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, peak_mb = proc.stdout.split()
    assert code == "0" and float(peak_mb) < 78, peak_mb
    print(f"\nPASS memory: 100000-step chain checked at a {float(peak_mb):.1f} MB "
          f"tracemalloc peak")
