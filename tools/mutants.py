"""Mutation check for the shared map predicate and ``embedding_ok``, the
candidate filter ``agreeing`` (its row-lookup narrowing: the comparison and
the sides of the placed pair it reads), the completion rule (its minimum,
its tie order and filler), ``amalgamate``'s input check (``_side``: the
embedding, then the validity of that side's own space, not the overlap's)
and its e_a-before-e_b order, its output as the span oracle sees it, the
symmetry of its glued rows and its glued order's sort keys (the tie between
a gap's b points and the overlap point closing it, the key past the last
overlap point), ``extend_one_point``'s slot check against its own base and
its column insert, the int-row space (its one conversion ``scaled`` and the
exactness guard on it, its rescale ``_rows_over``, its value rule, which
refuses a float, its refusals of a repeated point, a missing pair, a pair
given two distances and a nonzero diagonal entry), its triangle pass and
its embedding search's candidate order, the limit builder's stage layout,
rescale, feasibility test (the one
check ``realize`` makes, its scale factor and positivity check), fresh
names and schedule (its first level, strictly increasing subsets, the gap
bound), the entry checks of back-and-forth and ``apply_auto`` and image
search, the orbit test's support and the orbit search's support-filtered
level per entry and its stack's cut of the placed entries, the Fraisse
direct engine's embedding lists and side verdicts (per overlap, a failed
side's message returned and kept per tag, e_a first), the AP estimate's
overlap sizes per space size and its lower bound before a size below the
largest is enumerated, the grid's dtype bound, the vector JEP verdict, the
HP subset search, the class ranking's key compaction and zero-width
vectors, the AP check's overlap grouping, its four class-fact families and
the batched pass's padding (the agreement check counting padded cells, a
zero pad, a target's class offset off by one; counting padded cells in
positivity is an equivalent mutant while the pad is positive), the CLI's
start without numpy, its ASCII integer rule, the digit limit of integer and
rational tokens, its short echo of a malformed one and its exit 3 for any
unexpected exception, the space-file reader of canonical documents (its
head comparison, row offsets, budget decline and whitespace decline of a
value token) and the line parser's token memo and dist-line arity check,
and the witness table's far distance, its admissibility test, shift core
(its reads outside the bits a verdict may depend on), exhaust's
minimal-index classes (class size, representative, which failure is first),
trace bitmask conversions and reserved chain names.

    python tools/mutants.py

Each mutant names a file, an exact source snippet, its replacement and the
tests that must catch it.  The unmutated tree must first pass every named
test.  Then each mutant is applied in its own temporary copy of ``src/``
and ``tests/``, and its tests must fail (pytest exit status 1).  The
mutants run in a pool of one thread per CPU, each thread driving one
pytest process at a time; verdicts print in list order.  A snippet
that does not occur exactly once in its file is an error, so a refactor
has to port the mutants it touches.  Exit status 0 when every mutant is
killed, 1 otherwise.  Standard library only; the tests need pytest.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    file: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]


SPACES = "src/ordmet/spaces.py"
AMALGAM = "src/ordmet/amalgam.py"
LIMIT = "src/ordmet/limit.py"
WITNESS = "src/ordmet/witness.py"
FRAISSE = "src/ordmet/fraisse.py"
CLI = "src/ordmet/cli.py"
ORBITS = "src/ordmet/orbits.py"
SPACEFILE = "src/ordmet/spacefile.py"
RATIONALS = "src/ordmet/rationals.py"
PARSE_TESTS = "tests/test_spacefile.py"
FAMILY = "tests/test_fraisse.py::test_class_path_catches_each_family_alone"
PADDED = "tests/test_fraisse.py::test_padded_batch_reads_each_targets_own_classes"
PRESERVES = "tests/test_preserves.py::test_caller_matches_reference_preserves"
IDENTITY = "tests/test_preserves.py::test_identity_is_checked_where_distances_cannot_tell"
AGREEING = "tests/test_preserves.py::test_agreeing_keeps_what_agrees_located_accepts_on_broken_tables"
NARROWING = "rows[here[2]][xp0] == rows[here[3]][yq0]"
COLUMN = "tests/test_amalgam.py::test_shortest_path_column"
GLUED_ORDER = (
    "tests/test_amalgam.py::test_amalgam_order_rule_gap_interleaving",
    "tests/test_amalgam.py::test_glued_order_matches_the_gap_bucket_walk",
)
GROWN = "tests/test_limit.py::test_grown_stages_are_byte_identical"
REALIZE_ORACLE = "tests/test_limit.py::test_realize_matches_reference_feasibility_on_new_denominators"
BACK_AND_FORTH = "tests/test_limit.py::test_back_and_forth_stage_is_byte_identical"
DRAWN = "tests/test_limit.py::test_every_drawn_task_names_existing_points"
TASK_LEVELS = "tests/test_limit.py::test_tasks_of_weight_matches_the_generate_and_sort_reference"
SHIFT_CORE = "tests/test_witness.py::test_shift_core_matches_reference_on_every_mask[4]"
ADMISSIBLE = (
    "tests/test_witness.py::test_admissible_and_min_index_match_reference_on_every_subset[2-1]",
    "tests/test_witness.py::test_injection_refuses_like_reference[2-1]",
)
BAD_INPUT = "tests/test_amalgam.py::test_amalgam_refuses_each_bad_input_embedding"
HP_FIRST = "tests/test_fraisse.py::test_hp_pass_reports_the_first_failing_subset"
RESERVED = "tests/test_witness.py::test_reserved_names_match_the_chain_name_loop"
READ_SET = "tests/test_witness.py::test_shift_core_verdict_reads_only_low_bits_and_end_indices[4]"
INJECTED = "tests/test_witness.py::test_exhaust_reports_injected_failures_like_reference[2-3]"
INJECTED_SLICE = "tests/test_fraisse.py::test_injected_broken_space_gets_the_recorded_reports"
SIDES_ONCE = "tests/test_fraisse.py::test_direct_engine_checks_each_side_once_per_overlap"
FAILING_SIDE = "tests/test_fraisse.py::test_a_failing_side_is_checked_once_per_tag"
AMALGAM_REFERENCE = "tests/test_amalgam.py::test_amalgamate_matches_the_reference"
NARROWEST = "tests/test_fraisse.py::test_grid_dtype_is_the_narrowest_that_holds_five_times_top"
NOT_METRIC = "tests/test_amalgam.py::test_amalgam_refuses_a_side_that_is_not_a_metric"
FULL_RECHECK = "tests/test_amalgam.py::test_amalgamate_refuses_exactly_the_spans_the_full_recheck_refuses"
VALUE_RULE = "tests/test_spaces.py::test_a_distance_is_a_fraction_an_int_or_a_rational_string"

MUTANTS = [
    Mutant(
        "embedding-ok-target-test-dropped",
        SPACES,
        "if any(q not in y for q in emb.cod):",
        "if False:",
        ("tests/test_preserves.py::test_embedding_ok_refuses_bad_maps_without_raising[outside-target]",),
    ),
    Mutant(
        "float-distance-accepted",
        SPACES,
        "int: Fraction, str",
        "int: Fraction, float: Fraction, str",
        (f"{VALUE_RULE}[0.1]",),
    ),
    Mutant(
        "repeated-point-accepted",
        SPACES,
        "if len(pos) != len(pts):",
        "if False:",
        ("tests/test_spaces.py::test_duplicate_point_refused",),
    ),
    Mutant(
        "missing-pair-accepted",
        SPACES,
        "if None in row:",
        "if False:",
        ("tests/test_spaces.py::test_missing_pair_reported",),
    ),
    Mutant(
        "two-distances-accepted",
        SPACES,
        "if rows[i][j] not in (None, value):",
        "if False:",
        ("tests/test_spaces.py::test_asymmetry_reported",),
    ),
    Mutant(
        "nonzero-diagonal-accepted",
        SPACES,
        "if i == j and value:",
        "if False:",
        ("tests/test_spaces.py::test_bad_diagonal_reported",),
    ),
    Mutant(
        "agrees-identity-dropped",
        SPACES,
        "if (p == p2) != (q == q2):",
        "if False:",
        (IDENTITY, f"{PRESERVES}[agrees]", f"{PRESERVES}[preserves]"),
    ),
    Mutant(
        "agrees-injectivity-dropped",
        SPACES,
        "if (p == p2) != (q == q2):",
        "if p == p2 and q != q2:",
        (IDENTITY, f"{PRESERVES}[agrees]", f"{PRESERVES}[preserves]"),
    ),
    Mutant(
        "agrees-order-dropped",
        SPACES,
        "if (xp < xp2) != (yq < yq2):",
        "if False:",
        (f"{PRESERVES}[partial_iso_ok]", f"{PRESERVES}[iso_ok]"),
    ),
    Mutant(
        "agrees-distance-dropped",
        SPACES,
        "if xrow[xp2] * fx != yrow[yq2] * fy:",
        "if False:",
        (f"{PRESERVES}[canonical_iso]", f"{PRESERVES}[same_fix_orbit]"),
    ),
    Mutant(
        "agreeing-narrowing-inverted",
        SPACES,
        NARROWING,
        NARROWING.replace("==", "!="),
        (AGREEING,),
    ),
    Mutant(
        "agreeing-narrowing-transposed",
        SPACES,
        NARROWING,
        "rows[here[2]][yq0] == rows[here[3]][xp0]",
        (AGREEING,),
    ),
    Mutant(
        "scale-ignored-across-spaces",
        SPACES,
        "return common // sx, common // sy",
        "return 1, 1",
        ("tests/test_spaces.py::test_equal_scaled_ints_over_different_scales_are_told_apart",),
    ),
    Mutant(
        "space-lcm-ignored",
        SPACES,
        "scale = lcm(*{v.denominator for v in given.values()})",
        "scale = max({v.denominator for v in given.values()}, default=1)",
        ("tests/test_spaces.py::test_rows_resolve_like_the_given_table",),
    ),
    Mutant(
        "triangle-emitted-on-equality",
        SPACES,
        "if ab > ac + bc:",
        "if ab >= ac + bc:",
        ("tests/test_spaces.py::test_validate_matches_reference_on_candidate_tables",),
    ),
    Mutant(
        "parse-memo-keyed-on-value",
        SPACEFILE,
        "k = token_index[value] = len(values) - 1",
        "k = token_index[values[-1]] = len(values) - 1",
        (f"{PARSE_TESTS}::test_each_distinct_value_token_is_parsed_once",),
    ),
    Mutant(
        "canonical-head-comparison-dropped",
        SPACEFILE,
        "if not all(map(str.startswith, block, heads)):",
        "if False:",
        (f"{PARSE_TESTS}::test_a_dist_line_cut_to_its_token_is_not_read",),
    ),
    Mutant(
        "canonical-row-offset-one-off",
        SPACEFILE,
        "stop = start + n - 1 - i",
        "stop = start + n - i",
        (f"{PARSE_TESTS}::test_grown_stage_and_witness_table_load_without_the_line_parser",),
    ),
    Mutant(
        "canonical-budget-decline-dropped",
        SPACEFILE,
        " or store_bytes(n) > STORE_BUDGET_BYTES:",
        ":",
        (f"{PARSE_TESTS}::test_parse_refuses_the_first_point_past_the_store_budget",),
    ),
    Mutant(
        "canonical-token-whitespace-decline-dropped",
        SPACEFILE,
        "if token != token.strip():",
        "if False:",
        (f"{PARSE_TESTS}::test_tokens_with_surrounding_whitespace_are_left_to_the_line_parser",),
    ),
    Mutant(
        "digit-limit-unchecked",
        RATIONALS,
        "if limit and len(digits) > limit:",
        "if False:",
        (
            "tests/test_rationals.py::test_parse_refuses_more_digits_than_int_converts",
            "tests/test_cli.py::test_long_integer_tokens_are_refused_in_our_words",
        ),
    ),
    Mutant(
        "malformed-rational-echoed-whole",
        RATIONALS,
        'raise ValueError(f"malformed rational {shown(text)}")',
        'raise ValueError(f"malformed rational {text!r}")',
        ("tests/test_cli.py::test_long_malformed_tokens_are_shown_short",),
    ),
    Mutant(
        "parse-dist-arity-dropped",
        SPACEFILE,
        "if len(tokens) != 4:",
        "if False:",
        ("tests/test_cli.py::test_validate_refuses_a_malformed_document[dist-arity]",),
    ),
    Mutant(
        "amalgam-input-preserves-check-dropped",
        AMALGAM,
        "if not preserves(c, space, ((z, mapping[z]) for z in c.points)):",
        "if not True:",
        (f"{BAD_INPUT}[order-e_a]", f"{BAD_INPUT}[distance-e_b]"),
    ),
    Mutant(
        "column-max-instead-of-min",
        AMALGAM,
        "m if m <= (s := leg + v) else s",
        "m if m >= (s := leg + v) else s",
        (f"{COLUMN}_completes_through_every_anchor", f"{COLUMN}_matches_the_reference[2-int]"),
    ),
    Mutant(
        "column-tie-keeps-later-leg",
        AMALGAM,
        "m if m <= (s := leg + v) else s",
        "m if m < (s := leg + v) else s",
        (f"{COLUMN}_matches_the_reference[2-mixed]",),
    ),
    Mutant(
        "amalgam-e_b-checked-first",
        AMALGAM,
        '_side(a, c, e_a, "e_a")\n    _side(b, c, e_b, "e_b")',
        '_side(b, c, e_b, "e_b")\n    _side(a, c, e_a, "e_a")',
        (f"{BAD_INPUT}[order-e_b]", AMALGAM_REFERENCE),
    ),
    Mutant(
        "amalgam-side-validity-dropped",
        AMALGAM,
        "if not report.is_valid:",
        "if False:",
        (f"{NOT_METRIC}[e_a-triangle]", f"{NOT_METRIC}[e_b-positivity]", FULL_RECHECK),
    ),
    Mutant(
        "amalgam-side-validates-overlap",
        AMALGAM,
        "report = validate(space)",
        "report = validate(c)",
        (f"{NOT_METRIC}[e_a-positivity]", f"{NOT_METRIC}[e_b-triangle]", FULL_RECHECK),
    ),
    Mutant(
        "amalgam-overlap-image-not-through-e_a",
        AMALGAM,
        "else map_a[image_b[q]]",
        "else image_b[q]",
        ("tests/test_amalgam.py::test_every_span_of_a_slice_passes_the_output_checks_amalgamate_leaves_out",),
    ),
    Mutant(
        "amalgam-order-b-after-anchor",
        AMALGAM,
        "keyed = [((i, 1, 0), p)",
        "keyed = [((i, -1, 0), p)",
        GLUED_ORDER,
    ),
    Mutant(
        "amalgam-order-last-gap-closed-early",
        AMALGAM,
        "closing = anchors_a + [len(a)]",
        "closing = anchors_a + [len(a) - 1]",
        GLUED_ORDER,
    ),
    Mutant(
        "extend-slot-unchecked",
        AMALGAM,
        "if not 0 <= ext.slot <= len(base):",
        "if False:",
        ("tests/test_amalgam.py::test_extend_refuses_a_slot_outside_its_own_base",),
    ),
    Mutant(
        "extend-column-appended",
        AMALGAM,
        "row.insert(ext.slot, value)",
        "row.append(value)",
        ("tests/test_amalgam.py::test_extend_one_point_matches_the_constructor_reference",),
    ),
    Mutant(
        "glued-b-pair-one-way",
        AMALGAM,
        "rows[i][j] = rows[j][i] = b_rows[b_at[q1]][b_at[q2]]",
        "rows[i][j] = b_rows[b_at[q1]][b_at[q2]]",
        ("tests/test_amalgam.py::test_every_span_of_a_slice_passes_the_output_checks_amalgamate_leaves_out",),
    ),
    Mutant(
        "column-wrong-filler",
        AMALGAM,
        "return [filler] * size",
        "return [0] * size",
        (
            f"{COLUMN}_fills_an_empty_overlap",
            "tests/test_amalgam.py::test_amalgam_empty_overlap_constant",
        ),
    ),
    Mutant(
        "rows-over-scale-ignored",
        SPACES,
        "factor = scale // self._scale",
        "factor = 1",
        (
            "tests/test_limit.py::test_builder_reads_like_its_stage",
            "tests/test_amalgam.py::test_amalgam_valid_on_random_spans",
        ),
    ),
    Mutant(
        "scaled-denominator-ignored",
        SPACES,
        "value.numerator * (scale // value.denominator)",
        "value.numerator * scale",
        ("tests/test_spaces.py::test_rows_resolve_like_the_given_table",),
    ),
    Mutant(
        "scaled-true-division",
        SPACES,
        "value.numerator * (scale // value.denominator)",
        "value.numerator * (scale / value.denominator)",
        ("tests/test_exactness.py::test_modules_make_no_float[spaces.py]",),
    ),
    Mutant(
        "stage-row-appended",
        LIMIT,
        "row.insert(index, value)",
        "row.append(value)",
        (GROWN,),
    ),
    Mutant(
        "stage-pos-refresh-late",
        LIMIT,
        "zip(points[index:], range(index, len(points)))",
        "zip(points[index + 1:], range(index + 1, len(points)))",
        (GROWN,),
    ),
    Mutant(
        "fresh-name-suffixed-once",
        LIMIT,
        "while name in self._seed_names:",
        "if name in self._seed_names:",
        ("tests/test_limit.py::test_realized_name_skips_every_taken_suffix",),
    ),
    Mutant(
        "stage-rescale-skipped",
        LIMIT,
        "rows = self._rows = self._rows_over(scale)\n        self._scale = scale\n",
        "rows = self._rows\n",
        ("tests/test_limit.py::test_builder_reads_like_its_stage",),
    ),
    Mutant(
        "orbit-support-dropped",
        ORBITS,
        "return preserves(stage, stage, fixed + list(zip(t1, t2)))",
        "return preserves(stage, stage, list(zip(t1, t2)))",
        ("tests/test_orbits.py::test_support_is_pinned",),
    ),
    Mutant(
        "orbit-level-of-depth-0-reused",
        ORBITS,
        "agreeing(rows, levels[depth], chosen)",
        "agreeing(rows, levels[0], chosen)",
        ("tests/test_orbits.py::test_orbit_traces_matches_reference_on_broken_tables",),
    ),
    Mutant(
        "orbit-stack-cuts-chosen-one-level-off",
        ORBITS,
        "del chosen[len(stack) - 1 :]",
        "del chosen[len(stack) - 2 :]",
        ("tests/test_preserves.py::test_orbit_traces_matches_brute_force_scan",),
    ),
    Mutant(
        "back-and-forth-entry-check-dropped",
        LIMIT,
        'not in stage")\n        if not self.iso_ok(iso):',
        'not in stage")\n        if False:',
        ("tests/test_limit.py::test_back_and_forth_refuses_a_broken_map_before_any_step",),
    ),
    Mutant(
        "apply-auto-entry-check-dropped",
        LIMIT,
        "return iso.mapping[x]\n        if not self.iso_ok(iso):",
        "return iso.mapping[x]\n        if False:",
        ("tests/test_limit.py::test_apply_auto_refuses_a_broken_map_before_any_step",),
    ),
    Mutant(
        "realize-feasibility-dropped",
        LIMIT,
        "refusal = feasibility_violation(self, dvec, sub)",
        "refusal = None",
        (
            "tests/test_limit.py::test_realize_infeasible_rejected",
            "tests/test_limit.py::test_grown_columns_meet_every_lower_bound",
        ),
    ),
    Mutant(
        "realize-scale-factor-dropped",
        AMALGAM,
        "factor = scale // base._scale",
        "factor = 1",
        (REALIZE_ORACLE,),
    ),
    Mutant(
        "realize-positivity-check-dropped",
        AMALGAM,
        "if v <= 0:",
        "if False:",
        ("tests/test_limit.py::test_realize_refuses_a_nonpositive_value_before_any_pair",),
    ),
    Mutant(
        "image-search-in-stage-order",
        LIMIT,
        "for w in self._created]",
        "for w in self.points]",
        (BACK_AND_FORTH,),
    ),
    Mutant(
        "image-search-identity-on-target",
        LIMIT,
        "(target, w, tpos, pos[w])",
        "(target, target, tpos, pos[w])",
        ("tests/test_limit.py::test_image_search_matches_reference_failures",),
    ),
    Mutant(
        "schedule-skips-level-zero",
        LIMIT,
        "count()",
        "count(1)",
        (f"{DRAWN}[empty]", GROWN),
    ),
    Mutant(
        "tuples-not-strictly-increasing",
        LIMIT,
        "v + 1",
        "v",
        (TASK_LEVELS,),
    ),
    Mutant(
        "gap-past-subset-size",
        LIMIT,
        "low=left - size",
        "low=left - size - 1",
        (TASK_LEVELS,),
    ),
    Mutant(
        "direct-engine-embeddings-of-the-first-c",
        FRAISSE,
        "into = [list(enumerate_embeddings(c, s)) for s in spaces]",
        "into = [list(enumerate_embeddings(spaces[0], s)) for s in spaces]",
        (f"{INJECTED_SLICE}[triangle]",),
    ),
    Mutant(
        "direct-engine-side-cache-kept-across-overlaps",
        FRAISSE,
        "passed = [[False] * len(embeddings) for embeddings in into]",
        'passed = _span_failures.__dict__.setdefault("passed", [[False] * len(embeddings) for embeddings in into])',
        (SIDES_ONCE,),
    ),
    Mutant(
        "direct-engine-side-error-dropped",
        FRAISSE,
        "if not passed[i][k] and (i, k, tag) not in refused:",
        "if not passed[i][k]:",
        (FAILING_SIDE,),
    ),
    Mutant(
        "direct-engine-e_b-side-first",
        FRAISSE,
        'yield refusal(i, k, "e_a") or refusal(j, l, "e_b")',
        'yield refusal(j, l, "e_b") or refusal(i, k, "e_a")',
        (FAILING_SIDE,),
    ),
    Mutant(
        "direct-engine-refused-side-passes",
        FRAISSE,
        "return None if passed[i][k] else refused[i, k, tag]",
        "return None",
        (f"{INJECTED_SLICE}[triangle]", f"{INJECTED_SLICE}[positivity]"),
    ),
    Mutant(
        "vector-jep-always-ok",
        FRAISSE,
        "jep_ok = hp_ok",
        "jep_ok = True",
        (f"{INJECTED_SLICE}[triangle]", f"{INJECTED_SLICE}[positivity]"),
    ),
    Mutant(
        "ap-work-overlap-as-large-as-the-slice",
        FRAISSE,
        "range(1, min(ka, max_size - 1) + 1)",
        "range(1, min(ka, max_size) + 1)",
        ("tests/test_fraisse.py::test_ap_work_estimate_by_hand",),
    ),
    Mutant(
        "grid-bound-four-times-top",
        FRAISSE,
        "bound = 5 * ints[-1]",
        "bound = 4 * ints[-1]",
        tuple(f"{NARROWEST}[{index}]" for index in range(3)),
    ),
    Mutant(
        "hp-subset-pairs-one-way",
        FRAISSE,
        "*permutations(keep, 2)]",
        "*combinations(keep, 2)]",
        (f"{HP_FIRST}[pair-first]",),
    ),
    Mutant(
        "grouping-assumes-sorted-c-batch",
        FRAISSE,
        "targets = c_row[ids]",
        "targets = ids",
        ("tests/test_fraisse.py::test_grouping_follows_an_out_of_order_c_batch",),
    ),
    Mutant(
        "grouping-unmatched-overlap-ignored",
        FRAISSE,
        "if (targets < 0).any():",
        "if False:",
        ("tests/test_fraisse.py::test_grouping_refuses_an_overlap_outside_the_c_batch",),
    ),
    Mutant(
        "classes-keys-never-compacted",
        FRAISSE,
        "        if bound * count > 1 << 62:\n",
        "        if False:\n",
        ("tests/test_fraisse.py::test_classes_rank_lead_first_like_unique_rows[wide]",),
    ),
    Mutant(
        "classes-zero-width-by-minus-one",
        FRAISSE,
        "part.reshape(n, width)",
        "part.reshape(-1, width)",
        ("tests/test_fraisse.py::test_classes_index_every_vector",),
    ),
    Mutant(
        "ap-early-bound-at-largest-size",
        FRAISSE,
        "if k < max_size:",
        "if True:",
        ("tests/test_fraisse.py::test_ap_budget_refuses_at_the_first_size_past_it",),
    ),
    Mutant(
        "ap-positivity-admits-zero",
        FRAISSE,
        "((x <= 0) & real)",
        "((x < 0) & real)",
        (f"{FAMILY}[positivity]",),
    ),
    Mutant(
        "ap-overlap-agreement-one-sided",
        FRAISSE,
        "((x != f_part[z]) & real)",
        "((x > f_part[z]) & real)",
        (f"{FAMILY}[overlap]",),
    ),
    Mutant(
        "ap-a-triangle-pair-end-repeated",
        FRAISSE,
        "ids[:, pa], ids[:, pa2], cross)",
        "ids[:, pa], ids[:, pa], cross)",
        (f"{FAMILY}[a-triangle]",),
    ),
    Mutant(
        "ap-b-triangle-table-dropped",
        FRAISSE,
        "b_bad.append(_triangle_failures(d_b, ids[:, pb], ids[:, pb2], cross_t))",
        "b_bad.append(np.zeros((m.shape[0], cross_t.shape[1]), dtype=bool))",
        (f"{FAMILY}[b-triangle]",),
    ),
    Mutant(
        "ap-b-triangle-target-dropped",
        FRAISSE,
        "failing += [t[bad_a.any(axis=1)], t[bad_b.any(axis=1)]]",
        "failing += [t[bad_a.any(axis=1)]]",
        (f"{FAMILY}[b-triangle]",),
    ),
    Mutant(
        "ap-agreement-counts-padding",
        FRAISSE,
        "((x != f_part[z]) & real)",
        "(x != f_part[z])",
        (PADDED,),
    ),
    Mutant(
        "ap-pad-zero",
        FRAISSE,
        "pad = max(m.max() for m, _, _ in blocks)",
        "pad = 0",
        (PADDED,),
    ),
    Mutant(
        "ap-target-class-offset-off-by-one",
        FRAISSE,
        'first = np.searchsorted(other, own, "left")',
        'first = np.searchsorted(other, own, "left") + 1',
        (PADDED,),
    ),
    Mutant(
        "enumeration-first-pair-fastest",
        FRAISSE,
        "np.repeat(np.tile(grid, len(grid) ** col), len(grid) ** (len(pairs) - 1 - col))",
        "np.tile(np.repeat(grid, len(grid) ** col), len(grid) ** (len(pairs) - 1 - col))",
        ("tests/test_fraisse.py::test_valid_matrices_match_one_axis_per_pair[grid1]",),
    ),
    Mutant(
        "fraisse-imported-eagerly",
        CLI,
        "from .limit import new_builder\n",
        "from .limit import new_builder\nfrom .fraisse import check_fraisse_properties\n",
        ("tests/test_cli.py::test_only_fraisse_check_loads_numpy",),
    ),
    Mutant(
        "cli-int-any-digit",
        RATIONALS,
        '_INTEGER = "-?[0-9]+"',
        '_INTEGER = r"-?\\d+"',
        (
            "tests/test_cli.py::test_integer_options_take_ascii_digits_only",
            "tests/test_cli.py::test_trace_tokens_take_ascii_digits_only",
        ),
    ),
    Mutant(
        "cli-catch-all-removed",
        CLI,
        "    except Exception as exc:  # a fault of the program, not of the input\n"
        '        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)\n'
        "        return 3\n",
        "",
        ("tests/test_cli.py::test_internal_error_exits_three[KeyError]",),
    ),
    Mutant(
        "embeddings-stack-order",
        SPACES,
        "stack.append(iter(candidates))",
        "stack.append(iter(candidates[::-1]))",
        (
            "tests/test_spaces.py::test_unit_pair_embeds_three_ways",
            "tests/test_spaces.py::test_embeddings_lexicographic_and_preserving",
        ),
    ),
    Mutant(
        "witness-far-quarter",
        WITNESS,
        "diameter(support) + 4",
        "diameter(support) / 4",
        ("tests/test_witness.py::test_table_is_a_metric[pair-1-1-1]",),
    ),
    Mutant(
        "witness-tail-shifted-down",
        WITNESS,
        "tail = (2 << top) - (1 << top - config.n + 1)",
        "tail = (1 << top) - (1 << top - config.n)",
        ADMISSIBLE,
    ),
    Mutant(
        "witness-below-2k-dropped",
        WITNESS,
        "return mask & tail == tail and not mask & ((1 << 2 * config.k) - 1)",
        "return mask & tail == tail",
        ADMISSIBLE,
    ),
    Mutant(
        "witness-window-off-by-one",
        WITNESS,
        "pattern = image & ((2 << end) - 1) & ~below_k",
        "pattern = image & ((4 << end) - 1) & ~below_k",
        (SHIFT_CORE,),
    ),
    Mutant(
        "witness-shift-flipped",
        WITNESS,
        "image = (mask << j) & chain",
        "image = (mask >> j) & chain",
        (SHIFT_CORE,),
    ),
    Mutant(
        "witness-unknown-as-out-in-pair-test",
        WITNESS,
        "i >= j2 and not",
        "not",
        (SHIFT_CORE,),
    ),
    Mutant(
        "witness-unknown-as-out-in-window",
        WITNESS,
        "end < k or j <= k",
        "True",
        (SHIFT_CORE,),
    ),
    Mutant(
        "witness-distinct-check-dropped",
        WITNESS,
        "distinct = False",
        "distinct = True",
        (SHIFT_CORE,),
    ),
    Mutant(
        "witness-end-test-reads-one-below-the-end",
        WITNESS,
        "image >> top & 1 == 1",
        "image >> top - 1 & 1 == 1",
        (READ_SET,),
    ),
    Mutant(
        "witness-exhaust-class-size-off-by-one",
        WITNESS,
        "count = 1 << start - 1 - low if",
        "count = 1 << start - low if",
        ("tests/test_witness.py::test_exhaust_matches_enumeration[3-5]",),
    ),
    Mutant(
        "witness-exhaust-first-failure-from-largest-class",
        WITNESS,
        "elif first_failure is None:",
        "else:",
        (INJECTED,),
    ),
    Mutant(
        "witness-exhaust-tail-class-not-first",
        WITNESS,
        "for low in (start, *range(2 * config.k, start)):",
        "for low in range(2 * config.k, start + 1):",
        (INJECTED,),
    ),
    Mutant(
        "witness-exhaust-representative-one-up",
        WITNESS,
        "mask = tail | 1 << low\n",
        "mask = tail | 1 << low + 1\n",
        ("tests/test_witness.py::test_exhaust_checks_one_admissible_representative_per_class[2-3]",),
    ),
    Mutant(
        "witness-indices-skip-bit-0",
        WITNESS,
        'at = digits.rfind("1", 2)\n',
        'at = digits.rfind("1", 2, last)\n',
        ("tests/test_witness.py::test_indices_and_mask_match_set_bits_on_dense_and_sparse_masks",),
    ),
    Mutant(
        "witness-mask-drops-chain-end",
        WITNESS,
        "if not 0 <= i <= 3 * config.k:",
        "if not 0 <= i < 3 * config.k:",
        ("tests/test_witness.py::test_trace_index_out_of_range",),
    ),
    Mutant(
        "witness-reserved-bound-exclusive",
        WITNESS,
        "(len(match[1]), match[1]) <= (len(top), top)",
        "(len(match[1]), match[1]) < (len(top), top)",
        (f"{RESERVED}[a3k]",),
    ),
    Mutant(
        "witness-leading-zero-names-reserved",
        WITNESS,
        'r"a(0|[1-9][0-9]*)"',
        'r"a([0-9]+)"',
        (f"{RESERVED}[a01]",),
    ),
]


def copy_tree(dest: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def pytest_status(tree: Path, tests) -> int:
    """Exit status of pytest on ``tests`` inside ``tree``; no bytecode is
    written, so a restored or mutated source is always recompiled."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "--tb=no", "-p", "no:cacheprovider", *tests]
    quiet = subprocess.DEVNULL
    done = subprocess.run(cmd, cwd=tree, env=env, stdout=quiet, stderr=quiet, timeout=TIMEOUT_S)
    return done.returncode


def run_mutant(tmp: Path, m: Mutant) -> int:
    """Exit status of ``m``'s tests in its own copy of the tree, mutated."""
    tree = tmp / m.name
    copy_tree(tree)
    path = tree / m.file
    path.write_text(path.read_text().replace(m.snippet, m.replacement))
    try:
        return pytest_status(tree, m.tests)
    finally:
        shutil.rmtree(tree)


def main() -> int:
    stale = [m.name for m in MUTANTS if (ROOT / m.file).read_text().count(m.snippet) != 1]
    if stale:
        print(f"error: snippet not found exactly once for {', '.join(stale)}", file=sys.stderr)
        return 1

    with tempfile.TemporaryDirectory(prefix="ordmet-mutants-") as tmp:
        pristine = Path(tmp) / "pristine"
        copy_tree(pristine)
        tests = sorted({t for m in MUTANTS for t in m.tests})
        if pytest_status(pristine, tests) != 0:
            print("error: the unmutated tree fails the mutants' tests", file=sys.stderr)
            return 1
        survivors = 0
        # each worker thread waits on its own pytest process; map yields in list order
        with ThreadPoolExecutor(os.cpu_count() or 1) as pool:
            for m, status in zip(MUTANTS, pool.map(partial(run_mutant, Path(tmp)), MUTANTS)):
                verdict = {0: "SURVIVED", 1: "killed"}.get(status, f"ERROR (pytest exit {status})")
                survivors += status != 1
                print(f"{verdict:<10} {m.name}", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
