"""The mutants that ``run.py`` applies, one entry each.

An entry names a file, relative to the repository root, a text that occurs
in it exactly once, the text that replaces it, and the tests (pytest node
ids) that must fail on the result.  Each mutant removes or weakens one
decision of a checker or reader; the tests named are the ones written to
catch it.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


_AUX = ("tests/test_bitblast.py::test_bb_var_takes_only_bool_variables_as_aux",)
_FOLD = ("tests/test_bitblast.py::test_bitwise_rules_fold_constant_bits",)
_EUF_STOP = ("tests/test_euf.py::test_a_rejected_step_ends_the_replay",)
_EUF_MALFORMED = ("tests/test_euf.py::test_rejects_malformed_material",)
_COMPACT = ("tests/test_preproc.py::test_compact_drops_dead_steps_and_preserves_verdicts",
            "tests/test_preproc.py::test_compact_differential_random")

MUTANTS = [
    # bitblast: the aux guard and the folding builders
    Mutant("bitblast.aux_is_a_bool_variable", "src/certkernel/bitblast.py",
           "        if store.kind(v) is not Kind.VAR or store.sort_of(v) != BOOL:\n"
           "            return False\n", "", _AUX),
    Mutant("bitblast.aux_in_the_store", "src/certkernel/bitblast.py",
           "        if not (0 <= v < len(store)):\n            return False\n", "", _AUX),
    Mutant("bitblast.fnot_true", "src/certkernel/bitblast.py",
           "    if a == store.true_id:\n        return store.false_id\n", "", _FOLD),
    Mutant("bitblast.fnot_false", "src/certkernel/bitblast.py",
           "    if a == store.false_id:\n        return store.true_id\n", "", _FOLD),
    Mutant("bitblast.fparity_first_unit", "src/certkernel/bitblast.py",
           "    if a == unit:\n        return b\n", "", _FOLD),
    Mutant("bitblast.fparity_first_other", "src/certkernel/bitblast.py",
           "    if a == other:\n        return _fnot(store, b)\n", "", _FOLD),
    # lia and resolution: a comparison or ite of the wrong sort
    Mutant("lia.comparison_over_int", "src/certkernel/lia.py",
           "    if store.sort_of(args[0]) != INT:\n        return None\n", "",
           ("tests/test_lia.py::test_normalize_rejects_integer_disequality_and_non_comparisons",)),
    Mutant("resolution.cnf_target_is_bool", "src/certkernel/resolution.py",
           "    if store.sort_of(t) != BOOL:\n        return TRIVIALLY_TRUE\n", "",
           ("tests/test_resolution.py::test_cnf_lemma_rejects_mismatches",)),
    # euf: each test of check_euf
    Mutant("euf.refl_term", "src/certkernel/euf.py",
           "            if t is None or not (0 <= t < len(store)):\n"
           "                return TRIVIALLY_TRUE\n", "", _EUF_STOP),
    Mutant("euf.hyp_negative_literal", "src/certkernel/euf.py",
           " or not lemma[k] & 1", "", _EUF_MALFORMED),
    Mutant("euf.cong_fun", "src/certkernel/euf.py",
           "rule is EqRule.CONG and fn is not None", "rule is EqRule.CONG", _EUF_STOP),
    Mutant("euf.ref_count", "src/certkernel/euf.py",
           "len(refs) != arity or ", "", _EUF_STOP),
    Mutant("euf.ref_range", "src/certkernel/euf.py",
           " or not all(0 <= r < len(derived) for r in refs)", "", _EUF_STOP + _EUF_MALFORMED),
    Mutant("euf.ref_not_negative", "src/certkernel/euf.py",
           "all(0 <= r < len(derived)", "all(r < len(derived)", _EUF_STOP),
    Mutant("euf.trans_middle_term", "src/certkernel/euf.py",
           "            if b != b2:\n                return TRIVIALLY_TRUE\n", "",
           ("tests/test_euf.py::test_trans_requires_exact_middle_term",)),
    Mutant("euf.empty_justification", "src/certkernel/euf.py",
           "    if not derived:\n        return TRIVIALLY_TRUE\n", "", _EUF_MALFORMED),
    Mutant("euf.hyp_polarity", "src/certkernel/euf.py",
           "or not lemma[k] & 1", "or lemma[k] & 1", _EUF_MALFORMED),
    # faults that earlier tests were written to catch
    Mutant("resolution.xor_neg_swapped", "src/certkernel/resolution.py",
           'RuleKind.XOR_NEG1: (Kind.XOR, "+t +0 -1"),\n'
           '    RuleKind.XOR_NEG2: (Kind.XOR, "+t -0 +1"),',
           'RuleKind.XOR_NEG1: (Kind.XOR, "+t -0 +1"),\n'
           '    RuleKind.XOR_NEG2: (Kind.XOR, "+t +0 -1"),',
           ("tests/test_resolution.py::test_cnf_lemma_projections",)),
    Mutant("resolution.both_pivots_from_one_side", "src/certkernel/resolution.py",
           "        running.discard(mine)\n        other.discard(theirs)\n",
           "        running.discard(mine)\n        running.discard(theirs)\n"
           "        other.discard(theirs)\n",
           ("tests/test_resolution.py::test_resolve_chain_matches_the_pairwise_fold",)),
    Mutant("terms.negative_code", "src/certkernel/terms.py",
           "not 0 <= code < 2 * len(store._nodes)", "not code < 2 * len(store._nodes)",
           ("tests/test_kernel.py::test_negative_codes_do_not_index_the_store_from_its_end",)),
    Mutant("lia.hypotheses_negated", "src/certkernel/lia.py",
           "normalize_lia_literal(store, code ^ 1)", "normalize_lia_literal(store, code)",
           ("tests/test_lia.py::test_divisibility_conflict_needs_tightening",)),
    Mutant("lia.float_multiplier", "src/certkernel/lia.py",
           "        if mult.__class__ is not int:\n"
           "            raise TypeError(f\"multiplier {mult!r} is not an int\")\n", "",
           ("tests/test_kernel.py::test_a_float_multiplier_cannot_refute_a_satisfiable_problem",)),
    Mutant("bitblast.aux_scan_of_the_inputs_only", "src/certkernel/bitblast.py",
           "self.clauses, self.scanned = clauses, 0",
           "self.clauses, self.scanned = list(clauses), 0",
           ("tests/test_kernel.py::test_an_aux_reached_only_deep_in_an_earlier_conclusion_is_not_fresh",)),
    Mutant("frontend.term_memo_inside_let", "src/certkernel/frontend.py",
           "key = None if env or close[k]", "key = None if close[k]",
           ("tests/test_frontend.py::test_let_bindings_are_parallel_and_scoped",
            "tests/test_frontend.py::test_term_memo_holds_closed_terms_of_at_most_64_lexemes")),
    Mutant("preproc.res_run_without_id_check", "src/certkernel/preproc.py",
           "if step_id != expected or not premises", "if not premises",
           ("tests/test_frontend.py::test_res_runs_read_as_the_full_reader_reads_them",)),
    # compact: the one backward pass
    Mutant("compact.bb_steps_live", "src/certkernel/preproc.py",
           " or step.rule in _BB_RULES", "",
           ("tests/test_preproc.py::test_compact_keeps_every_valid_bv_blast_benchmark_pair_valid",)),
    Mutant("compact.premises_live", "src/certkernel/preproc.py",
           "            live.update(step.premises)\n", "", _COMPACT),
    Mutant("compact.forward_pass", "src/certkernel/preproc.py",
           "    for step in reversed(cert.steps):", "    for step in cert.steps:", _COMPACT),
    Mutant("compact.kept_in_id_order", "src/certkernel/preproc.py",
           "    kept.reverse()\n", "", _COMPACT),
    Mutant("compact.premise_naming_no_step", "src/certkernel/preproc.py",
           "remap.get(p, p)", "(remap[p] if p >= n_inputs else p)",
           ("tests/test_preproc.py::test_compact_keeps_a_premise_that_names_no_earlier_step",)),
    Mutant("compact.input_ids_stay_fixed", "src/certkernel/preproc.py",
           "step.id >= n_inputs and ", "",
           ("tests/test_preproc.py::test_compact_keeps_a_premise_that_names_no_earlier_step",)),
]
