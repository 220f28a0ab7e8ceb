#!/usr/bin/env python3
"""The whole pipeline on text: problem, certificate, nested proof.

Parses an SMT-LIB problem and its certificate, replays it, translates a
nested natural-deduction-style proof into the same linear format, compacts
away dead steps, and reports the clauses it takes on trust.  The command line wraps
exactly these calls:

    certkernel --problem f.smt2 --proof f.cert            # check, exit 0/1/2/3
    certkernel --problem f.smt2 --proof t.nest --mode translate
    certkernel --problem f.smt2 --proof f.cert --mode stats
"""

from certkernel import (
    brute_unsat, check, clause_to_sexpr, compact, linearize,
    parse_certificate, parse_nested_proof, parse_smt2, print_certificate,
    stats_report,
)

problem_text = """
(set-logic QF_UF)
(declare-sort U 0)
(declare-const a U)
(declare-const b U)
(declare-fun f (U) U)
(assert (= a b))
(assert (not (= (f a) (f b))))
(check-sat)
"""

certificate_text = """
; prove the congruence lemma, then resolve it against both inputs
2 euf () {(lemma (not (= a b)) (= (f a) (f b))) (just (hyp 0) (cong f 0))}
3 not_not () {(not (= (f a) (f b))) 0}
4 res (2 0) {}
5 res (3 1) {}
6 res (4 5) {}
qed 6
"""

problem = parse_smt2(problem_text)
print("input clauses:")
for i, clause in enumerate(problem.input_clauses):
    print(f"  {i}: {clause_to_sexpr(problem.store, clause)}")

cert = parse_certificate(certificate_text, problem)
result = check(problem.store, problem.input_clauses, cert)
print("\n" + stats_report(problem.store, result))
print("oracle agrees:", brute_unsat(problem.store, problem.input_clauses).status)

# The same proof written as a nested tree with a let-bound lemma; the
# untrusted preprocessor linearizes it into the kernel's format.
nested_text = """
(let ((L (step euf () {(lemma (not (= a b)) (= (f a) (f b)))
                       (just (hyp 0) (cong f 0))})))
  (step res ((step not_not () {(not (= (f a) (f b))) 0})
             1
             (step res (L 0) {}))
        {}))
"""
tree = parse_nested_proof(nested_text, problem)
linear = linearize(tree, len(problem.input_clauses))
print("\nlinearized nested proof:")
print(print_certificate(problem.store, linear))
linear_result = check(problem.store, problem.input_clauses, linear)
print("verdict:", linear_result.verdict.value)

# Compaction drops the steps that neither qed nor a bit-blasting step needs,
# and renumbers densely.
small = compact(linear, len(problem.input_clauses))
print(f"compacted: {len(linear.steps)} steps -> {len(small.steps)} steps")

# Trust obligations: a check reports every assumed clause; this proof has none.
print("assumed clauses:", linear_result.assumptions or "none")
