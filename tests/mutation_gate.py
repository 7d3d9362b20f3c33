"""Mutation gate: every listed mutant must be killed.  The mutants cover the
sampling code (the branch table, its rule, each leaf's announcements and the
until-halt windows), the one check of every physical invariant
(``tensor.require``: a NaN, its message), the tolerance each of its calls
reads (normalization, residual, zero probability, ready memory, unitarity,
basis vectors, product factors, exact distributions, the phase-blind
comparison, reference states), the residual's and the zero probability's
boundaries, a sampled outcome's collapse, each branch's collapse and the
branches of probability 0, the remaining construction checks (frequency
tables, z-scores), the shared exact distribution's read-only entries, the
integer reads of seeds and counts, a state's own read-only copy, the one (targets, rest) index, the one read (its
labeled outcome, its residual, the level-basis gather, the projected
probabilities, the order of its sum), the premeasurement's writes, the
schedule's reach and announcement rules, each read's premeasurement and its
skip condition, the shared record-free prefixes (the round's start, the
agents' split at their first read), the tier-1 hypothesis profile,
the agents' layouts, level occupancies, announcements, certainty threshold
and calibration, the detection bound's verified bracket, its uncapped Newton
steps, its bisection in bits and its replayed bisection, the detection
verdict, the CLI's usage errors, its fraction rule, its JSON writer and the
check both formats share.

Each mutant is an exact text patch ``(file, old, new, tests)``.  The script
copies the checkout to a temporary directory, runs the tests of every mutant
there once unpatched (they must pass), then for each mutant replaces the one
occurrence of ``old`` in ``file`` with ``new``, runs its ``tests`` with
pytest, and restores the file.  A mutant is killed when its tests fail.
From the repository root, with the tier-1 test dependencies installed::

    python3 tests/mutation_gate.py

It prints one line per mutant and the total runtime, and exits 1 when a
mutant survives, when a patch's ``old`` text does not occur exactly once in
its file (so the list keeps up with the code), or when the unpatched tests
fail.  A change to a patched line updates its patch here.  ``EQUIVALENT``
lists mutants that give the same bits as the code; their patches must apply,
but they are not run.  The file name keeps pytest from collecting it;
``tests/test_mutation_patches.py`` checks in tier-1 that every patch applies,
and that some mutant patches every call of ``tensor.require``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


_EDGES = ("tests/test_protocol.py::test_draw_walk_and_the_reference_agree_on_the_branch_edges",)
_REACH = ("tests/test_perspectives.py::test_reach_rule_keeps_every_verdict_and_announcement",)
_SLACK = 'children += (children[pick_index(probabilities, float("inf"))],)'
_BITS = ("tests/test_analysis.py::test_upper_bound_is_the_bisection_on_large_inputs[cli-golden]",)
_RESIDUAL_ROWS = "lambda: sum(weights)"
_RESIDUAL = "_check_total(total_of(), basis) - sum(probabilities)"
_PREMEASURE_BITS = ("tests/test_perspectives.py::"
                    "test_premeasure_by_index_matches_the_full_cube_bit_for_bit",)
_INDEX_AXES = "perm = axes + [i for i in range(len(dims)) if i not in axes]"
_OWN_COPY = ("tests/test_tensor.py::test_a_state_keeps_its_own_read_only_copy",)
_ENTROPY = "entropy = (index(seed), *map(index, key))"
_COUNTS = "successes, trials = index(successes), index(trials)"
_PAST = "tests/test_invariants.py::test_each_site_raises_its_class_past_its_tolerance"
_INSIDE = "tests/test_invariants.py::test_each_site_passes_inside_its_tolerance"
_REQUIRE = ("tests/test_invariants.py::test_require_passes_only_the_good_side_of_its_limit",)
_CONDITION = "gt, ZERO_PROBABILITY_ATOL, InconsistentOutcomeError"
_CONFIDENCE_CHECK = ('if not 0.0 < confidence < 1.0:\n'
                     '        raise ValueError(f"confidence must lie strictly between 0 and 1, '
                     'got {confidence}")\n    if index(min_ok_rounds)')

MUTANTS = (
    Mutant("draw counts the running sums below u, not at or below it",
           "src/frsim/protocol.py", "picked += limit <= u", "picked += limit < u", _EDGES),
    Mutant("walk counts the running sums below u, not at or below it",
           "src/frsim/protocol.py", "picked += limit[row] <= u", "picked += limit[row] < u",
           _EDGES),
    Mutant("a leaf's row sends its round to the first leaf instead of keeping it",
           "src/frsim/protocol.py", "[[j] * (width + 1) for j in", "[[0] * (width + 1) for j in",
           ("tests/test_protocol.py::test_table_rows_hold_the_running_sums_and_the_slack",)),
    Mutant("the slack above the last running sum has no child",
           "src/frsim/protocol.py", _SLACK, "pass", _EDGES),
    Mutant("the slack above the last running sum takes the first branch",
           "src/frsim/protocol.py", _SLACK, "children += (children[0],)", _EDGES),
    Mutant("the halting round off by one",
           "src/frsim/analysis.py", "= start + 1 + halts[halted]", "= start + halts[halted]",
           ("tests/test_analysis.py::test_rounds_to_halt_across_kernel_calls",)),
    Mutant("a dropped chunk offset: the two-word keys' uniforms land at the grid's start",
           "src/frsim/protocol.py", "yield run, [", "yield slice(0, run.stop - run.start), [",
           ("tests/test_protocol.py::test_grid_uniforms_across_the_two_word_boundary",)),
    Mutant("key entries read as one 32-bit word",
           "src/frsim/protocol.py", "cut = int(np.searchsorted(values, np.uint64(2**32)))",
           "cut = len(values)",
           ("tests/test_protocol.py::test_grid_uniforms_across_the_two_word_boundary",)),
    Mutant("the hash's shift is 15 instead of 16",
           "src/frsim/protocol.py", "* mult\n    return word ^ word >> _XSHIFT",
           "* mult\n    return word ^ word >> np.uint32(15)",
           ("tests/test_protocol.py::test_grid_uniforms_across_the_two_word_boundary",)),
    Mutant("the next window starts HALT_WINDOW rounds later instead of its width",
           "src/frsim/analysis.py", "start += width", "start += HALT_WINDOW",
           ("tests/test_analysis.py::test_rounds_to_halt_samples_each_pair_once",)),
    Mutant("the window widens while its pairs fit, whatever the runs' chance to halt",
           "src/frsim/analysis.py",
           "ROUND_CHUNK * (1.0 - (1.0 - stays**width) ** len(going))", "ROUND_CHUNK",
           ("tests/test_analysis.py::test_a_single_until_halt_run_samples_few_pairs",)),
    Mutant("the widened window is not clipped at max_rounds",
           "src/frsim/analysis.py", "min(start + width, config.max_rounds)", "start + width",
           ("tests/test_analysis.py::test_rounds_to_halt_clips_a_widened_window_at_max_rounds",)),
    Mutant("require lets a NaN through",
           "src/frsim/tensor.py", "if not compare(value, limit):",
           "if not (compare(value, limit) or value != value):", _REQUIRE),
    Mutant("require formats its message before it compares",
           "src/frsim/tensor.py",
           "    if not compare(value, limit):\n        raise error(message())",
           "    text = message()\n    if not compare(value, limit):\n        raise error(text)",
           _REQUIRE),
    Mutant("the normalization check reads RESIDUAL_TOL, not NORM_TOL",
           "src/frsim/measurement.py", "le, NORM_TOL, NormalizationError",
           "le, RESIDUAL_TOL, NormalizationError", (f"{_PAST}[total]",)),
    Mutant("the residual rows of a level basis left out",
           "src/frsim/measurement.py", _RESIDUAL_ROWS,
           "lambda: sum(weights[level] for level in levels)",
           ("tests/test_measurement.py::test_a_memory_left_ready_fails_the_residual_check",)),
    Mutant("the gather reads each outcome's probability off the neighbouring level",
           "src/frsim/measurement.py", "[weights[level] for level in levels]",
           "[weights[level - 1] for level in levels]",
           ("tests/test_measurement.py::"
            "test_level_bases_read_by_index_match_the_projection_bit_for_bit",)),
    Mutant("condition_on without its normalization check",
           "src/frsim/measurement.py", "_check_total(total_of(), basis)\n    return StateVector",
           "return StateVector",
           ("tests/test_measurement.py::"
            "test_one_outcome_of_an_unnormalized_state_fails_the_normalization_check",)),
    Mutant("outcome_probability without its normalization check",
           "src/frsim/measurement.py", "_check_total(total_of(), basis)\n    return probability",
           "return probability", ("tests/test_measurement.py::"
                                  "test_a_nan_state_has_no_outcome_probability",)),
    Mutant("the residual read as the outcome probabilities less the total",
           "src/frsim/measurement.py", _RESIDUAL,
           "sum(probabilities) - _check_total(total_of(), basis)",
           ("tests/test_measurement.py::test_forbidden_residual_tolerance_is_1e_9",)),
    Mutant("a labeled read reads the first outcome",
           "src/frsim/measurement.py", "i = basis.outcomes.index(basis.outcome(label))", "i = 0",
           ("tests/test_measurement.py::"
            "test_level_bases_read_by_index_match_the_projection_bit_for_bit",)),
    Mutant("probabilities computed with np.vdot",
           "src/frsim/measurement.py", "[_weight(c) for c in coefficients]",
           "[np.vdot(c, c).real for c in coefficients]",
           ("tests/test_perspectives.py::test_agent_models_keep_every_bit",)),
    Mutant("premeasure without writing the residual back to the ready level",
           "src/frsim/measurement.py", "amplitudes[rows[ready]] += residual", "pass",
           _PREMEASURE_BITS),
    Mutant("premeasure writes each projection to the ready level, not its label's",
           "src/frsim/measurement.py", "amplitudes[rows[level]] += projected",
           "amplitudes[rows[ready]] += projected",
           _PREMEASURE_BITS),
    Mutant("the unitarity check reads PROBABILITY_ATOL, not UNITARY_ATOL",
           "src/frsim/tensor.py", "le, UNITARY_ATOL, UnitarityError",
           "le, PROBABILITY_ATOL, UnitarityError",
           ("tests/test_tensor.py::test_apply_unitary_checks_unitarity", f"{_PAST}[unitarity]")),
    Mutant("branch_all builds a branch for an outcome of probability 0",
           "src/frsim/measurement.py", "zip(basis.outcomes, probabilities)) if p > 0.0]",
           "zip(basis.outcomes, probabilities)) if p >= 0.0]",
           ("tests/test_measurement.py::test_an_outcome_of_probability_zero_builds_no_branch",)),
    Mutant("branch_all keeps the state as it was for an outcome below the zero-probability "
           "tolerance",
           "src/frsim/measurement.py",
           "StateVector(state.layout, project(index, np.sqrt(p)))",
           "(StateVector(state.layout, project(index, np.sqrt(p))) "
           "if p > ZERO_PROBABILITY_ATOL else state)",
           ("tests/test_measurement.py::"
            "test_a_branch_below_the_zero_probability_tolerance_is_collapsed_onto",)),
    Mutant("sample keeps the state as it was for an outcome below the zero-probability tolerance",
           "src/frsim/measurement.py",
           "StateVector(state.layout, project(i, np.sqrt(probabilities[i])))",
           "(StateVector(state.layout, project(i, np.sqrt(probabilities[i]))) "
           "if probabilities[i] > ZERO_PROBABILITY_ATOL else state)",
           ("tests/test_measurement.py::"
            "test_a_drawn_outcome_below_the_zero_probability_tolerance_is_collapsed_onto",)),
    Mutant("conditioning reads RESIDUAL_TOL, not ZERO_PROBABILITY_ATOL",
           "src/frsim/measurement.py", _CONDITION, "gt, RESIDUAL_TOL, InconsistentOutcomeError",
           (f"{_INSIDE}[zero-probability]",)),
    Mutant("conditioning takes any probability above 0",
           "src/frsim/measurement.py", _CONDITION, "gt, 0.0, InconsistentOutcomeError",
           (f"{_PAST}[zero-probability]",)),
    Mutant("conditioning takes a probability of exactly ZERO_PROBABILITY_ATOL",
           "src/frsim/measurement.py", _CONDITION,
           "gt, np.nextafter(ZERO_PROBABILITY_ATOL, 0.0), InconsistentOutcomeError",
           ("tests/test_invariants.py::"
            "test_conditioning_at_exactly_the_zero_probability_tolerance_raises",)),
    Mutant("the residual check passes a residual of exactly RESIDUAL_TOL",
           "src/frsim/measurement.py", "require(residual, lt, RESIDUAL_TOL",
           "require(residual, le, RESIDUAL_TOL",
           ("tests/test_invariants.py::test_a_residual_at_exactly_its_tolerance_raises",)),
    Mutant("the residual check reads NORM_TOL, not RESIDUAL_TOL",
           "src/frsim/measurement.py", "lt, RESIDUAL_TOL, ResidualError",
           "lt, NORM_TOL, ResidualError",
           ("tests/test_measurement.py::test_forbidden_residual_tolerance_is_1e_9",
            f"{_INSIDE}[residual]")),
    Mutant("the ready check reads RESIDUAL_TOL, not ZERO_PROBABILITY_ATOL",
           "src/frsim/measurement.py", "le, ZERO_PROBABILITY_ATOL, ValueError",
           "le, RESIDUAL_TOL, ValueError", (f"{_PAST}[ready]",)),
    Mutant("the round's start leaves out the first sampled read's premeasurement",
           "src/frsim/protocol.py", "tuple(step for step in steps[:first] if",
           "tuple(step for step in steps[:first - 1] if",
           ("tests/test_protocol.py::test_a_round_premeasures_only_w_after_its_shared_prefix",)),
    Mutant("an agent's fold splits only at its first own read, so a heard read falls into "
           "the prefix",
           "src/frsim/perspectives.py", "enumerate(modelled) if step.outcome is not None)",
           "enumerate(modelled) if step.outcome is not None and step.memory.name == agent)",
           ("tests/test_perspectives.py::test_a_heard_first_fold_conditions_before_it_premeasures",)),
    Mutant("W's premeasurement loses its read's unless condition",
           "src/frsim/protocol.py", "return (_measured(time, basis, memory, unless=unless),",
           "return (_measured(time, basis, memory),",
           ("tests/test_protocol.py::"
            "test_every_read_but_the_intrusion_follows_its_premeasurement",)),
    Mutant("tier-1 hypothesis draws fresh examples on every run",
           "tests/conftest.py", '"tier1", derandomize=True,', '"tier1", derandomize=False,',
           ("tests/test_isolation.py::test_hypothesis_runs_the_deterministic_tier1_profile",)),
    Mutant("level occupancies gathered through the inverse permutation",
           "src/frsim/tensor.py", "reshape(dims).transpose(perm)",
           "reshape(dims).transpose(np.argsort(perm))",
           ("tests/test_perspectives.py::test_agent_models_keep_every_bit",
            "tests/test_measurement.py::"
            "test_level_bases_read_by_index_match_the_projection_bit_for_bit")),
    Mutant("the index built with its target and rest axes swapped",
           "src/frsim/tensor.py", _INDEX_AXES,
           "perm = [i for i in range(len(dims)) if i not in axes] + axes",
           ("tests/test_tensor.py::test_an_index_lists_the_targets_levels_then_the_rest",)),
    Mutant("a basis vector's norm checked against RESIDUAL_TOL, not ORTHO_ATOL",
           "src/frsim/measurement.py", "require(diag.max(), le, ORTHO_ATOL,",
           "require(diag.max(), le, RESIDUAL_TOL,", (f"{_PAST}[basis-norm]",)),
    Mutant("basis vectors' overlaps checked against RESIDUAL_TOL, not ORTHO_ATOL",
           "src/frsim/measurement.py", "require(off.max(), le, ORTHO_ATOL,",
           "require(off.max(), le, RESIDUAL_TOL,", (f"{_PAST}[basis-orthogonality]",)),
    Mutant("product_state checks its factors within NORM_TOL, not FACTOR_NORM_TOL",
           "src/frsim/tensor.py", "le, FACTOR_NORM_TOL, ValueError", "le, NORM_TOL, ValueError",
           (f"{_INSIDE}[factor-norm]",)),
    Mutant("an exact distribution's entries may lie RESIDUAL_TOL (1e-9) below 0",
           "src/frsim/protocol.py", "ge, -PROBABILITY_ATOL, ValueError", "ge, -1e-9, ValueError",
           (f"{_PAST}[distribution-entry]",)),
    Mutant("an exact distribution's total may lie RESIDUAL_TOL (1e-9) off 1",
           "src/frsim/protocol.py", "le, PROBABILITY_ATOL, ValueError", "le, 1e-9, ValueError",
           (f"{_PAST}[distribution-total]",)),
    Mutant("an exact distribution's entries stay writable",
           "src/frsim/protocol.py", "MappingProxyType(dict(self.entries))", "dict(self.entries)",
           ("tests/test_analysis.py::test_the_shared_distribution_is_read_only",)),
    Mutant("a frequency table of zero rounds builds",
           "src/frsim/analysis.py", "if not self.total >= 1:", "if not self.total >= 0:",
           ("tests/test_analysis.py::test_a_frequency_table_needs_at_least_one_round",)),
    Mutant("z_scores takes an exact probability outside [0, 1] as it is",
           "src/frsim/analysis.py", "p = min(max(exact.probability(key), 0.0), 1.0)",
           "p = exact.probability(key)",
           ("tests/test_analysis.py::test_an_exact_probability_in_its_slack_has_a_z_score",)),
    Mutant("a key counted at exact probability 0 scores 0",
           "src/frsim/analysis.py", "if not (se > 0 or diff == 0):", "if False:",
           ("tests/test_analysis.py::test_a_key_counted_at_probability_zero_has_no_z_score",)),
    Mutant("W keeps the coin friend's secret notebook in its model",
           "src/frsim/perspectives.py", 'agent in ("F", "Wbar", "W"):', 'agent in ("F", "Wbar"):',
           ("tests/test_perspectives.py::"
            "test_outside_agents_are_calibrated_at_t2_unless_their_model_misses_a_record",)),
    Mutant("certainty needs a probability within 1e-16 of 1",
           "src/frsim/perspectives.py", "CERTAINTY_TOL = 1e-10", "CERTAINTY_TOL = 1e-16",
           ("tests/test_perspectives.py::test_the_inference_chain_in_every_variant",)),
    Mutant("W is not announced in secret transcripts",
           "src/frsim/protocol.py", '"w", unless, sampled=True, announced=True,',
           '"w", unless, sampled=True, announced=heard,', _REACH),
    Mutant("W is heard in every protocol",
           "src/frsim/protocol.py", "announced=True,\n                          heard=heard)",
           "announced=True,\n                          heard=True)", _REACH),
    Mutant("the intrusion's after-check raises before its field is known",
           "src/frsim/protocol.py",
           "if outcomes.get(field) is not None:  # else the step may yet be reached",
           "if True:", _REACH),
    Mutant("every skipped step gets the unless message",
           "src/frsim/protocol.py",
           "if step.unless is not None:\n                field, label = step.unless\n",
           "if True:\n                field, label = step.unless or step.after\n", _REACH),
    Mutant("the bound's replay sends a mid at or below the verified-high end to hi",
           "src/frsim/analysis.py", "if mid <= a or mid < b and", "if a < mid < b and", _BITS),
    Mutant("the Newton slope's sign flipped (same bits through the bracket, more evaluations)",
           "src/frsim/analysis.py", "slope = -(n - x)", "slope = (n - x)",
           ("tests/test_analysis.py::test_upper_bound_takes_few_tail_evaluations",)),
    Mutant("the bound's Newton loop capped at 8 steps (same bits, more evaluations)",
           "src/frsim/analysis.py",
           "p = (successes + 1) / (trials + 2)\n    while a < p < b:",
           "p, steps = (successes + 1) / (trials + 2), 0\n"
           "    while a < p < b and (steps := steps + 1) <= 8:",
           ("tests/test_analysis.py::test_upper_bound_runs_newton_without_a_step_cap",)),
    Mutant("the bound's search returns lo instead of hi",
           "src/frsim/analysis.py", "    return hi\n", "    return lo\n", _BITS),
    Mutant("detect_records' confidence check lets a NaN --confidence through",
           "src/frsim/analysis.py", _CONFIDENCE_CHECK,
           _CONFIDENCE_CHECK.replace("not 0.0 < confidence < 1.0",
                                     "confidence <= 0.0 or confidence >= 1.0"),
           ("tests/test_cli.py::test_values_the_library_rejects_are_usage_errors"
            "[nan-confidence-without-a-bound]",)),
    Mutant("the verdict read off the bound at or below 1",
           "src/frsim/analysis.py", '"record-detected" if up_count < ok_rounds else',
           '"record-detected" if bound <= 1.0 else',
           ("tests/test_analysis.py::test_sampled_verdicts_agree_with_their_exact_rates"
            "[without-record]",)),
    Mutant("the verdict read off the bound below 1, which rounds to 1 near it",
           "src/frsim/analysis.py", '"record-detected" if up_count < ok_rounds else',
           '"record-detected" if bound < 1.0 else',
           ("tests/test_analysis.py::test_detection_decides_by_the_counts_not_the_bound",)),
    Mutant("a run whose ok rounds all read up counts as a detection",
           "src/frsim/analysis.py", '"record-detected" if up_count < ok_rounds else',
           '"record-detected" if up_count <= ok_rounds else',
           ("tests/test_analysis.py::test_detection_reports_no_record_without_cheating",)),
    Mutant("a transcript halts on Wbar's ok alone",
           "src/frsim/protocol.py", "return self.outcomes.halts",
           'return self.outcomes.wbar == "ok"',
           ("tests/test_protocol.py::test_halting_flag_consistency",)),
    Mutant("main without its ValueError handler",
           "src/frsim/cli.py", "except (ValueError, MemoryError) as exc:",
           "except MemoryError as exc:",
           ("tests/test_cli.py::test_values_the_library_rejects_are_usage_errors",)),
    Mutant("fractions searched up to denominator 23, not 24",
           "src/frsim/cli.py", "for q in range(1, 25):", "for q in range(1, 24):",
           ("tests/test_cli.py::test_fraction_matches_the_limit_denominator_rule",)),
    Mutant("the JSON writer keeps each dict's own key order",
           "src/frsim/cli.py", "for key in sorted(value):", "for key in value:",
           ("tests/test_cli.py::test_writer_matches_json_dumps_on_the_goldens",)),
    Mutant("the JSON writer lets a NaN through",
           "src/frsim/cli.py", "if not isfinite(value):", "if False:",
           ("tests/test_cli.py::test_writer_rejects_what_json_dumps_rejects",)),
    Mutant("the text renderer lets a NaN through",
           "src/frsim/cli.py",
           'rendered = doc.to_json()\n        if args.format == "text":\n'
           '            rendered = render_text(doc)',
           'rendered = doc.to_json() if args.format == "json" else render_text(doc)',
           ("tests/test_cli.py::test_a_non_finite_result_exits_4_and_writes_nothing",)),
    Mutant("apply_announcement does not condition",
           "src/frsim/perspectives.py",
           "state=condition_on(model.state, record_basis(memory), label)", "state=model.state",
           ("tests/test_perspectives.py::test_external_observer_predicts_the_exact_conditionals",)),
    Mutant("_weight sums in reverse order",
           "src/frsim/measurement.py", "np.add.reduce(np.abs(amplitudes) ** 2, axis=None)",
           "np.add.reduce((np.abs(amplitudes) ** 2).ravel()[::-1], axis=None)",
           ("tests/test_perspectives.py::test_agent_models_keep_every_bit",)),
    Mutant("C's model skips the coin friend's secret notebook",
           "src/frsim/perspectives.py", 'agent in ("F", "Wbar", "W"):',
           'agent in ("F", "Wbar", "W", "C"):',
           ("tests/test_perspectives.py::"
            "test_external_observer_before_any_record_is_the_prepared_state",)),
    Mutant("a StateVector shares the caller's array instead of copying it",
           "src/frsim/tensor.py", "amps = np.array(self.amplitudes,",
           "amps = np.asarray(self.amplitudes,",
           _OWN_COPY),
    Mutant("a StateVector's amplitudes stay writable",
           "src/frsim/tensor.py", "amps.setflags(write=False)\n        object.", "object.",
           _OWN_COPY),
    Mutant("round_rng truncates a float seed",
           "src/frsim/protocol.py", _ENTROPY, "entropy = (int(seed), *map(index, key))",
           ("tests/test_protocol.py::test_seeds_and_counts_are_integers[round_rng-seed]",)),
    Mutant("round_rng truncates a float key",
           "src/frsim/protocol.py", _ENTROPY, "entropy = (index(seed), *map(int, key))",
           ("tests/test_protocol.py::test_seeds_and_counts_are_integers[round_rng-key]",)),
    Mutant("the uniforms kernel truncates a float seed",
           "src/frsim/protocol.py", "n = index(n)", "n = int(n)",
           ("tests/test_protocol.py::test_seeds_and_counts_are_integers[grid-seed]",)),
    Mutant("a config takes a float seed",
           "src/frsim/protocol.py", "if index(self.seed) < 0:", "if self.seed < 0:",
           ("tests/test_protocol.py::test_seeds_and_counts_are_integers[config-seed]",)),
    Mutant("a config takes a float max_rounds",
           "src/frsim/protocol.py", "if index(self.max_rounds) < 1:", "if self.max_rounds < 1:",
           ("tests/test_protocol.py::test_seeds_and_counts_are_integers[config-max_rounds]",)),
    Mutant("the bound truncates a float count of successes",
           "src/frsim/analysis.py", _COUNTS, "successes, trials = int(successes), index(trials)",
           ("tests/test_analysis.py::test_upper_bound_takes_integer_counts[float-successes]",)),
    Mutant("the bound truncates a float count of trials",
           "src/frsim/analysis.py", _COUNTS, "successes, trials = index(successes), int(trials)",
           ("tests/test_analysis.py::test_upper_bound_takes_integer_counts[float-trials]",)),
    Mutant("monte_carlo compares a float count of rounds as it stands",
           "src/frsim/analysis.py", "if not 1 <= index(rounds) <= 2**64:",
           "if not 1 <= int(rounds) <= 2**64:",
           ("tests/test_analysis.py::test_counts_are_integers[monte_carlo-rounds]",)),
    Mutant("rounds_to_halt truncates a float count of runs",
           "src/frsim/analysis.py", "if index(repeats) < 1:", "if int(repeats) < 1:",
           ("tests/test_analysis.py::test_counts_are_integers[halt-repeats]",)),
    Mutant("detect_records takes a float min_ok_rounds",
           "src/frsim/analysis.py", "if index(min_ok_rounds) < 1:", "if min_ok_rounds < 1:",
           ("tests/test_analysis.py::test_counts_are_integers[detect-min_ok_rounds]",)),
    Mutant("the phase-blind comparison reads RESIDUAL_TOL, not NORM_TOL",
           "src/frsim/tensor.py", "max(tol, NORM_TOL)", "max(tol, RESIDUAL_TOL)",
           (f"{_PAST}[phase-blind-norm]",)),
    Mutant("the reference loader reads PROBABILITY_ATOL (1e-10), not NORM_TOL",
           "src/frsim/reference.py", "le, NORM_TOL, ValueError", "le, 1e-10, ValueError",
           (f"{_PAST}[reference-norm]",)),
    Mutant("the bound's Newton phase halves its bracket instead of bisecting it in bits",
           "src/frsim/analysis.py",
           "float(\n            (np.array([a, b]).view(np.int64).sum() // 2).view(np.float64))",
           "0.5 * (a + b)",
           ("tests/test_analysis.py::"
            "test_upper_bound_at_a_tiny_confidence_takes_few_tail_evaluations",)),
    Mutant("the announcements table lists every sampled step, announced or not",
           "src/frsim/protocol.py", "if step.announced and getattr(key, step.outcome)",
           "if step.sampled and getattr(key, step.outcome)",
           ("tests/test_protocol.py::test_announcements_follow_variant",)),
    Mutant("draw reads the announcements of the leaf before its own",
           "src/frsim/protocol.py", "RoundTranscript(round_index, key, self.announcements[key])",
           "RoundTranscript(round_index, key, self.announcements[self.leaves[row - 1]])",
           ("tests/test_protocol.py::test_sampler_matches_reference_path",)),
)

# At every node of the 24 variants' trees, pick_index's fallback is the last
# branch of nonzero probability, so the first mutant gives the same tree.
# Only one-branch nodes are padded in those trees, and each next row of such
# a node is its one branch's: a 0.0 pad, which every uniform reaches, moves
# the count one entry on, to a row the padding repeats.  So the second gives
# the same leaves; only the table test's check of the padding tells it apart.
EQUIVALENT = (
    Mutant("the slack above the last running sum takes the last branch",
           "src/frsim/protocol.py", _SLACK, "children += (children[-1],)", ()),
    Mutant("a node's running sums padded with 0.0 instead of +inf",
           "src/frsim/protocol.py", 'limits.append(sums + [float("inf")] * pad)',
           "limits.append(sums + [0.0] * pad)", ()),
)


def _pytest(checkout: Path, tests) -> int:
    # pytest's own ``pythonpath`` setting puts the copy's src/ on the path;
    # the caller's PYTHONPATH could point at the unpatched checkout.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=checkout, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def run_gate() -> bool:
    """Print the verdict of every mutant; True when every one is killed."""
    ok = True
    with tempfile.TemporaryDirectory() as scratch:
        checkout = Path(scratch) / "checkout"
        shutil.copytree(ROOT, checkout, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        for mutant in MUTANTS + EQUIVALENT:
            found = (checkout / mutant.file).read_text().count(mutant.old)
            if found != 1:
                print(f"NO PATCH  {mutant.name}: {mutant.old!r} occurs {found} times "
                      f"in {mutant.file}")
                ok = False
        if not ok:
            return False
        tests = tuple(dict.fromkeys(test for mutant in MUTANTS for test in mutant.tests))
        if _pytest(checkout, tests) != 0:
            print("FAILED    the mutants' tests fail on the unpatched checkout")
            return False
        for mutant in MUTANTS:
            path = checkout / mutant.file
            source = path.read_text()
            path.write_text(source.replace(mutant.old, mutant.new))
            start = time.perf_counter()
            try:
                code = _pytest(checkout, mutant.tests)
            finally:
                path.write_text(source)
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR {code}")
            print(f"{verdict:<9} {mutant.name} ({time.perf_counter() - start:.1f} s)")
            ok &= code == 1
        for mutant in EQUIVALENT:
            print(f"{'equiv.':<9} {mutant.name} (not run)")
    return ok


if __name__ == "__main__":
    start = time.perf_counter()
    ok = run_gate()
    print(f"{len(MUTANTS)} mutants, {'all killed' if ok else 'GATE FAILED'}, "
          f"in {time.perf_counter() - start:.1f} s")
    sys.exit(0 if ok else 1)
