import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_complete_table,
    enumerated_exhaust,
    reference_admissible,
    reference_distinct,
    reference_exhaust,
    reference_injection,
    reference_shift,
    valid_spaces,
)
from ordmet import witness
from ordmet import (
    InadmissibleTraceError,
    SpaceError,
    admissible,
    ball_trace,
    build_witness,
    compose,
    exhaust_all_traces,
    make_space,
    min_index,
    partial_iso_ok,
    same_fix_orbit,
    shift_iso,
    validate,
    verify_injection,
)


def singleton_support():
    return make_space(["b0"], {})


def pair_support(distance):
    return make_space(["b0", "b1"], {("b0", "b1"): distance})


def admissible_traces(config):
    """Every admissible trace, in the order exhaust_all_traces checks them."""
    free = [i for i in config.window if i not in config.tail]
    for r in range(len(free) + 1):
        for extra in combinations(free, r):
            yield frozenset(config.tail) | frozenset(extra)


def as_mask(indices) -> int:
    return sum(map((1).__lshift__, indices))


# -- build_witness ---------------------------------------------------------------


def test_build_simplest_config():
    config = build_witness(singleton_support(), 1, 1)
    assert config.k == 1
    assert len(config.chain) == 4
    assert config.far == 4
    b = config.support.points[0]
    for p in config.chain:
        assert config.space.d(b, p) == 4
    assert config.space.d(config.chain[0], config.chain[3]) == 3
    assert validate(config.space).is_valid


def test_build_with_wide_support():
    config = build_witness(pair_support(2), 2, 1)
    assert config.k == 2
    assert config.far == 6  # diameter 2 plus 4
    assert len(config.chain) == 7
    assert config.space.d(config.chain[0], config.chain[1]) == Fraction(1, 2)
    assert validate(config.space).is_valid


def test_support_precedes_chain():
    config = build_witness(pair_support(1), 1, 2)
    top_support = max(config.space.position(b) for b in config.support.points)
    bottom_chain = min(config.space.position(p) for p in config.chain)
    assert top_support < bottom_chain
    positions = [config.space.position(p) for p in config.chain]
    assert positions == sorted(positions)


SUPPORTS = {
    "single": singleton_support(),
    "pair-1/2": pair_support(Fraction(1, 2)),
    "pair-1": pair_support(1),
    "pair-2": pair_support(2),
}


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("support", SUPPORTS.values(), ids=SUPPORTS.keys())
def test_table_is_a_metric(support, n, m):
    """Oracle for the table's proof by construction: ``space`` builds it
    without validating it."""
    assert validate(build_witness(support, n, m).space).is_valid


@settings(max_examples=40, deadline=None)
@given(valid_spaces(max_size=5), st.integers(1, 3), st.integers(1, 3))
def test_table_is_a_metric_on_random_supports(support, n, m):
    space = build_witness(support, n, m).space
    assert_complete_table(space)
    assert validate(space).is_valid


def test_build_parameter_validation():
    with pytest.raises(SpaceError):
        build_witness(singleton_support(), 0, 1)
    with pytest.raises(SpaceError):
        build_witness(singleton_support(), 1, 0)
    from ordmet import FinSpace

    with pytest.raises(SpaceError):
        build_witness(FinSpace((), {}), 1, 1)
    broken = make_space(["p", "q", "r"], {("p", "q"): 1, ("q", "r"): 1, ("p", "r"): 3})
    with pytest.raises(SpaceError):
        build_witness(broken, 1, 1)


def test_reserved_chain_names_rejected():
    with pytest.raises(SpaceError):
        build_witness(make_space(["a0"], {}), 1, 1)


def reference_reserved(names, k):
    """The reserved-name check as a loop over every chain name a0 .. a{3k},
    lowest first."""
    taken = set(names)
    for name in map("a{}".format, range(3 * k + 1)):
        if name in taken:
            return name
    return None


@pytest.mark.parametrize(
    "names",
    [
        ["a0"],
        ["a12"],  # a{3k}
        ["a13"],  # a{3k+1}
        ["a01"],
        ["a00"],
        ["a\u0663"],  # ARABIC-INDIC DIGIT THREE
        ["a" + "1" * 5000],
        ["a" + "0" * 5000],
        ["b0", "a", "A3", "a-1", "a 3", "a3b"],
        ["a13", "a7", "a12", "a3", "a10"],  # several reserved: the lowest is named
    ],
    ids=["a0", "a3k", "a3k+1", "a01", "a00", "non-ascii", "5000-digits", "5000-zeros",
         "no-numeral", "several"],
)
def test_reserved_names_match_the_chain_name_loop(names):
    k = 4  # n = 2, m = 2: chain names a0 .. a12
    support = make_space(names, {pair: 1 for pair in combinations(names, 2)})
    expected = reference_reserved(names, k)
    if expected is None:
        assert build_witness(support, 2, 2).k == k
    else:
        with pytest.raises(SpaceError) as info:
            build_witness(support, 2, 2)
        assert str(info.value) == f"support uses reserved chain point name {expected!r}"


# -- shift_iso --------------------------------------------------------------------


def test_shift_iso_k1_contents():
    config = build_witness(singleton_support(), 1, 1)
    shift = shift_iso(config)
    b = config.support.points[0]
    assert set(shift.dom) == {b, *config.chain[:-1]}
    assert shift.mapping[b] == b
    for i in range(3):
        assert shift.mapping[config.chain[i]] == config.chain[i + 1]
    assert partial_iso_ok(config.space, shift)


def test_shift_is_support_fixing_conjugacy():
    config = build_witness(pair_support(1), 2, 1)
    support = set(config.support.points)
    assert same_fix_orbit(
        config.space, support, config.chain[:-1], config.chain[1:]
    )


def test_shift_composed_twice():
    config = build_witness(singleton_support(), 3, 1)
    shift = shift_iso(config)
    assert compose(shift, shift).mapping[config.chain[0]] == config.chain[2]


# -- tail claim ---------------------------------------------------------------------


@pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2)])
def test_ball_tail_is_exact(n, m):
    config = build_witness(singleton_support(), n, m)
    ball = ball_trace(config.space, config.top, Fraction(1, m))
    assert ball & set(config.chain) == {
        config.chain[i] for i in config.tail
    }
    # support points are far away, never inside
    assert not ball & set(config.support.points)


# -- admissibility ---------------------------------------------------------------


def test_admissible_examples():
    config = build_witness(singleton_support(), 2, 1)  # k=2: window 4..6, tail 5..6
    assert admissible(config, {5, 6})
    assert admissible(config, {4, 5, 6})
    assert not admissible(config, {6})  # tail not contained
    assert not admissible(config, {3, 5, 6})  # escapes the window
    assert not admissible(config, {4, 5})  # misses the end


def test_admissible_accepts_any_iterable_of_indices():
    config = build_witness(singleton_support(), 2, 1)
    for trace in ([5, 6], (6, 5, 6), range(4, 7), iter([6, 5])):
        assert admissible(config, trace)


@pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (1, 2), (3, 1)])
def test_admissible_and_min_index_match_reference_on_every_subset(n, m):
    config = build_witness(singleton_support(), n, m)
    top = 3 * config.k
    for r in range(top + 2):
        for members in map(frozenset, combinations(range(top + 1), r)):
            expected = reference_admissible(config, members)
            assert admissible(config, members) == expected, sorted(members)
            if expected:
                assert min_index(config, members) == min(members)
            else:
                with pytest.raises(InadmissibleTraceError) as info:
                    min_index(config, members)
                assert str(info.value) == f"trace {sorted(members)} is not admissible"


def test_trace_index_out_of_range():
    config = build_witness(singleton_support(), 2, 1)
    for bad in (-1, 7):
        with pytest.raises(SpaceError, match=f"trace index {bad} outside 0..6"):
            admissible(config, {bad})
    assert not admissible(config, {0})
    assert not admissible(config, {6})


# -- min_index -------------------------------------------------------------------


def test_min_index_examples():
    config = build_witness(singleton_support(), 2, 1)
    assert min_index(config, {5, 6}) == 5  # 3k - n + 1
    assert min_index(config, {4, 5, 6}) == 4  # 2k
    assert min_index(config, set(config.window)) == 4
    with pytest.raises(InadmissibleTraceError):
        min_index(config, {6})


# -- shifted traces ---------------------------------------------------------------


def shifted(config, members, shift):
    """Chain indices of the shift-by-j image of a trace; indices below j are
    UNKNOWN and never set."""
    shifts, _, _ = witness._shift_core(config.k, shift + 1, as_mask(members))
    return set(witness._indices(shifts[shift][0]))


def test_shifted_trace_identity_shift():
    config = build_witness(singleton_support(), 2, 1)
    assert shifted(config, {5, 6}, 0) == {5, 6}


def test_shifted_trace_pull_back():
    config = build_witness(singleton_support(), 2, 1)
    assert shifted(config, {5, 6}, 1) == {6}  # index 7 would be in, but the chain stops at 6


def test_shifted_trace_top_always_in():
    for n, m in [(2, 1), (3, 1), (2, 2)]:
        config = build_witness(singleton_support(), n, m)
        for j in range(n):
            assert 3 * config.k in shifted(config, set(config.tail), j)


# -- verify_injection --------------------------------------------------------------


def test_injection_tail_trace():
    config = build_witness(singleton_support(), 2, 1)
    report = verify_injection(config, {5, 6})
    assert report.min_member == 5
    assert [check.pattern for check in report.checks] == [(5,), (6,)]
    assert report.distinct and report.injective


def test_injection_window_trace():
    config = build_witness(singleton_support(), 2, 1)
    report = verify_injection(config, {4, 5, 6})
    assert report.min_member == 4
    assert [check.pattern for check in report.checks] == [(4,), (5,)]
    assert report.injective


def test_injection_trivial_single_shift():
    config = build_witness(singleton_support(), 1, 2)
    for members in ({6}, {4, 6}, {4, 5, 6}, {5, 6}):
        report = verify_injection(config, members)
        assert len(report.checks) == 1
        assert report.checks[0].pattern == (min(members),)
        assert report.injective


def test_injection_rejects_inadmissible():
    config = build_witness(singleton_support(), 2, 1)
    with pytest.raises(InadmissibleTraceError):
        verify_injection(config, {6})


@pytest.mark.parametrize(
    "n, m", [(n, m) for n in range(1, 13) for m in range(1, 13) if n * m <= 12]
)
def test_injection_matches_reference_on_every_admissible_trace(n, m):
    config = build_witness(singleton_support(), n, m)
    for members in admissible_traces(config):
        report, expected = verify_injection(config, members), reference_injection(config, members)
        assert report == expected
        assert report.lines() == expected.lines()
        assert report.injective


def raised(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (1, 2), (3, 1)])
def test_injection_refuses_like_reference(n, m):
    config = build_witness(singleton_support(), n, m)
    top = 3 * config.k
    bad = [{-1}, {top + 1}, {0, top + 5}, [top + 2, top]]
    for r in range(top + 2):
        bad.extend(
            set(members) for members in combinations(range(top + 1), r)
            if not reference_admissible(config, set(members))
        )
    for trace in bad:
        expected = raised(reference_injection, config, trace)
        assert raised(verify_injection, config, trace) == expected


@pytest.mark.parametrize("k", range(1, 6))
def test_shift_core_matches_reference_on_every_mask(k):
    """Every nonempty trace over 0..3k, admissible or not, with n up to
    k + 2, so that the window, the UNKNOWN indices and the pair tests all
    fail somewhere."""
    config = replace(build_witness(singleton_support(), 1, k), n=k + 2)
    seen = {"determinable": set(), "pattern_ok": set(), "distinct": set()}
    for mask in range(1, 2 ** (3 * k + 1)):
        members = frozenset(i for i in range(3 * k + 1) if mask >> i & 1)
        low = min(members)
        images, facts = zip(*(reference_shift(config, members, low, j) for j in range(k + 2)))
        expected = [
            (as_mask(image), top_in, determinable, as_mask(pattern), ok)
            for image, (top_in, determinable, pattern, ok) in zip(images, facts)
        ]
        for n in range(1, k + 3):
            shifts, distinct, injective = witness._shift_core(k, n, mask)
            assert shifts == expected[:n], (k, n, sorted(members))
            expected_distinct = reference_distinct(images[:n], low)
            assert distinct == expected_distinct, (k, n, sorted(members))
            assert injective == (expected_distinct and all(f[0] and f[1] and f[3] for f in facts[:n]))
            seen["distinct"].add(distinct)
        seen["determinable"].update(f[1] for f in facts)
        seen["pattern_ok"].update(f[3] for f in facts)
    if k >= 2:
        assert all(values == {True, False} for values in seen.values()), seen


@pytest.mark.parametrize("k", range(1, 5))
def test_shift_core_verdict_reads_only_low_bits_and_end_indices(k):
    """The invariant exhaust's classes rest on: on every nonempty mask over
    0..3k, admissible or not, with n up to k + 2, the verdict is the same
    with every bit outside {0..L} and the end indices {3k - j : j < n}
    cleared, and with all of them set (L the lowest set bit)."""
    chain = (2 << 3 * k) - 1
    verdicts = set()
    for n in range(1, k + 3):
        ends = chain - ((1 << 3 * k - n + 1) - 1)
        for mask in range(1, chain + 1):
            low = (mask & -mask).bit_length() - 1
            read = (2 << low) - 1 | ends
            verdict = witness._shift_core(k, n, mask)[2]
            assert witness._shift_core(k, n, mask & read)[2] == verdict, (k, n, bin(mask))
            assert witness._shift_core(k, n, mask | chain & ~read)[2] == verdict, (k, n, bin(mask))
            verdicts.add(verdict)
    assert verdicts == {True, False}


# -- exhaust ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "n, m, expected",
    [
        (1, 1, 2),
        (2, 1, 2),
        (2, 2, 8),
        (3, 1, 2),
        (3, 2, 16),
        (1, 2, 4),
    ],
)
def test_exhaust_counts_and_verdicts(n, m, expected):
    config = build_witness(singleton_support(), n, m)
    report = exhaust_all_traces(config)
    assert report.checked == expected == 2 ** (config.k + 1 - n)
    assert report.passed == expected
    assert report.all_passed
    assert report.first_failure is None


def test_exhaust_report_lines():
    config = build_witness(singleton_support(), 2, 1)
    assert exhaust_all_traces(config).lines() == [
        "checked 2",
        "passed 2",
        "verdict pass",
    ]


@pytest.mark.parametrize("n, m", [(1, 4), (2, 3), (3, 2)])
def test_exhaust_matches_reference(n, m):
    config = build_witness(singleton_support(), n, m)
    assert exhaust_all_traces(config) == reference_exhaust(config)


# Every (n, m) with n <= 6 whose 2^(k+1-n) traces number at most 2^13,
# the benchmark's (3, 5) and (4, 4) among them.
ENUMERABLE = [(n, m) for n in range(1, 7) for m in range(1, 14) if n * m + 1 - n <= 13]


@pytest.mark.parametrize("n, m", ENUMERABLE)
def test_exhaust_matches_enumeration(n, m):
    config = build_witness(singleton_support(), n, m)
    assert exhaust_all_traces(config) == enumerated_exhaust(config)


@pytest.mark.parametrize("n, m", ENUMERABLE)
def test_exhaust_checks_one_admissible_representative_per_class(n, m, monkeypatch):
    """k + 2 - n calls, each on the smallest trace of one minimal-index
    class: the tail alone first, then tail | {L} for L = 2k, 2k + 1, .."""
    config = build_witness(singleton_support(), n, m)
    core, masks = witness._shift_core, []

    def recorded(k, n, mask):
        masks.append(mask)
        return core(k, n, mask)

    monkeypatch.setattr(witness, "_shift_core", recorded)
    exhaust_all_traces(config)
    tail = as_mask(config.tail)
    assert masks == [tail] + [tail | 1 << low for low in range(2 * config.k, config.tail.start)]
    assert len(masks) == config.k + 2 - n
    assert all(witness._is_admissible(config, mask) for mask in masks)


def failing_classes(config):
    """Minimal indices to fail: the tail-only class with a free class, two
    free classes, the last free class alone, and every class."""
    start, free = config.tail.start, range(2 * config.k, config.tail.start)
    yield {start, free[1]}
    yield {free[1], free[3]}
    yield {free[-1]}
    yield {start, *free}


@pytest.mark.parametrize("n, m", [(1, 4), (2, 3)])
def test_exhaust_reports_injected_failures_like_reference(n, m, monkeypatch):
    """No real trace fails, so the verdict is made to fail for chosen
    minimal indices, class by class, in both the class engine and the
    reference; checked, passed, first-failure and the report lines must
    agree."""
    config = build_witness(singleton_support(), n, m)
    core = witness._shift_core
    for failing in failing_classes(config):

        def injected(k, n, mask):
            shifts, distinct, injective = core(k, n, mask)
            return shifts, distinct, injective and (mask & -mask).bit_length() - 1 not in failing

        monkeypatch.setattr(witness, "_shift_core", injected)
        report = exhaust_all_traces(config)
        expected = reference_exhaust(config, lambda members: min(members) not in failing)
        assert report == expected
        assert report.lines() == expected.lines()
        assert report.lines()[-1] == "verdict fail"
        first = config.tail.start if config.tail.start in failing else min(failing)
        assert report.first_failure == tuple(sorted({first, *config.tail}))


def test_exhaust_builds_no_membership_dicts(monkeypatch):
    def forbidden(*args):
        raise AssertionError("exhaust went through the membership path")

    config = build_witness(singleton_support(), 2, 2)
    for name in ("verify_injection", "_mask"):
        monkeypatch.setattr(witness, name, forbidden)
    monkeypatch.setattr(witness, "frozenset", forbidden, raising=False)  # shadows the builtin
    assert exhaust_all_traces(config).lines() == ["checked 8", "passed 8", "verdict pass"]


def test_exhaust_budget_boundary(monkeypatch):
    # n = 2: each trace costs 2 shift checks and 1 pair test
    monkeypatch.setattr(witness, "EXHAUST_BUDGET_CHECKS", 24)
    assert exhaust_all_traces(build_witness(singleton_support(), 2, 2)).checked == 8
    with pytest.raises(
        SpaceError,
        match=r"exhaust would check 32 traces \(2\^5\) at n = 2, 96 shift checks and pair tests",
    ):
        exhaust_all_traces(build_witness(singleton_support(), 2, 3))
    # the same 8 traces at n = 1 cost 8 checks; 16 of them cost 16
    monkeypatch.setattr(witness, "EXHAUST_BUDGET_CHECKS", 15)
    assert exhaust_all_traces(build_witness(singleton_support(), 1, 3)).checked == 8
    with pytest.raises(SpaceError, match=r"exhaust would check 16 traces \(2\^4\) at n = 1"):
        exhaust_all_traces(build_witness(singleton_support(), 1, 4))


def test_exhaust_budget_admits_two_to_the_twenty():
    assert witness._exhaust_checks(2**20, 1) <= witness.EXHAUST_BUDGET_CHECKS
    # n = 19 once admitted 2^20 traces (67 s); now the work bounds it
    assert witness._exhaust_checks(2**12, 19) <= witness.EXHAUST_BUDGET_CHECKS
    assert witness._exhaust_checks(2**13, 19) > witness.EXHAUST_BUDGET_CHECKS


def test_exhaust_refuses_two_to_the_twenty_traces_at_n_19(monkeypatch):
    def enumerated(*args):
        raise AssertionError("exhaust enumerated traces past its budget")

    config = build_witness(singleton_support(), 19, 2)
    monkeypatch.setattr(witness, "_shift_core", enumerated)
    with pytest.raises(SpaceError, match=r"2\^20\) at n = 19, 199229440 shift checks"):
        exhaust_all_traces(config)


def test_verify_and_exhaust_build_no_table():
    config = build_witness(singleton_support(), 2, 3)
    assert verify_injection(config, set(config.tail)).injective
    assert exhaust_all_traces(config).all_passed
    assert "space" not in vars(config) and "chain" not in vars(config)
    assert len(config.space) == 1 + 3 * config.k + 1
    assert "space" in vars(config)
    assert config.chain == tuple(range(1, 3 * config.k + 2))


def test_space_refuses_from_k_before_building_the_chain():
    config = build_witness(pair_support(1), 1, 10**12)
    with pytest.raises(SpaceError, match=r"configuration of 3000000000003 points needs about"):
        config.space
    assert "chain" not in vars(config)


def set_bits(mask):
    """Reference for the set bits of a mask: a bit test per bit of each
    little-endian byte."""
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    return [8 * b + i for b, byte in enumerate(data) for i in range(8) if byte >> i & 1]


def test_indices_and_mask_match_set_bits_on_dense_and_sparse_masks():
    config = build_witness(singleton_support(), 1, 33334)  # chain indices 0 .. 100002
    rng = random.Random(1)
    masks = [0, 1, 2, 3, 1 << 3 * config.k, (2 << 3 * config.k) - 1]
    for bits in (1, 7, 8, 9, 64, 1000, 10**5):
        masks.append(rng.getrandbits(bits))  # dense
        masks.append(sum(1 << rng.randrange(bits) for _ in range(5)))  # sparse
    for mask in masks:
        indices = set_bits(mask)
        assert witness._indices(mask) == tuple(indices)
        assert witness._mask(config, indices) == mask
        assert witness._mask(config, reversed(indices)) == mask


def test_min_index_window_holds_on_every_trace():
    config = build_witness(singleton_support(), 2, 2)  # k=4
    for members in admissible_traces(config):
        low = min_index(config, members)
        assert 2 * config.k <= low <= 3 * config.k - config.n + 1


def test_decimal_switches_to_bit_length_past_4300_digits():
    assert witness._decimal(10**4300 - 1) == "9" * 4300
    assert witness._decimal(10**4300) == f"(a {(10**4300).bit_length()}-bit number)"
    assert witness._count(10**4300, 1) == f"(a {(10**4300).bit_length()}-bit number) * 2^1"
    assert witness._count(3, 100) == str(3 << 100)


def test_build_refuses_a_chain_end_past_4300_digits():
    support = make_space(["b0"], {})
    n = 10**4300 // 3  # 3k = 10^4300 - 1 still has 4,300 digits
    assert build_witness(support, n, 1).k == n
    with pytest.raises(SpaceError, match=r"^chain end index 3k has 14285 bits;"):
        build_witness(support, n + 1, 1)
