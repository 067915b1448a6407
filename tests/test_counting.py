import dataclasses
import gc
import random
import weakref
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from slicekit import (
    ProblemInstance,
    counting,
    brute_force_cube_count,
    enumerate_achievable_r,
    exact_card,
    expansion_value,
    lyapunov_estimate,
    parse_instance,
    witness_ur,
)
from slicekit.counting import CardResult, CycleCertificate
from slicekit.errors import CoveringRequired, HypothesisViolated, OutOfRange, TooLarge
from slicekit.lattice import children, interval_type_counts, open_children
from slicekit.report import build_report
from slicekit.spectral import transition_matrices
from conftest import FIXTURES, counting_instances, load
from helpers import dense_cube_count_vector, long_division_expansion
from test_golden import SCALED
from test_properties import instances
from test_references import _pairs_steps, kernel_states


def _expansion(inst, x):
    """The long-division expansion of x, whose preperiod and period
    lengths ``counting._expansion_lengths`` must find without writing a
    digit."""
    exp = long_division_expansion(inst, x)
    assert counting._expansion_lengths(inst, x) == (len(exp.preperiod), len(exp.period))
    return exp


def test_expansion_periodic(cantor_diff):
    exp = _expansion(cantor_diff, Fraction(1, 2))
    assert exp.integer_part == 0
    assert not exp.boundary
    assert exp.digits(5) == (1, 1, 1, 1, 1)
    assert exp.preperiod == () and exp.period == (1,)


def test_expansion_boundary(cantor_diff):
    exp = _expansion(cantor_diff, Fraction(1, 3))
    assert exp.boundary
    assert exp.digits(4) == (1, 0, 0, 0)


def test_expansion_negative(cantor_diff):
    exp = _expansion(cantor_diff, Fraction(-5, 6))
    assert exp.integer_part == -1
    assert exp.digits(4) == (0, 1, 1, 1)


def test_expansion_out_of_range(cantor_diff):
    with pytest.raises(OutOfRange):
        counting._expansion_lengths(cantor_diff, Fraction(3, 2))


def test_expansion_cap(monkeypatch, cantor_diff):
    """_EXPANSION_CAP caps the digits of an expansion, preperiod and
    repeating period together, before exact_card counts one: in base 3,
    1/7 is 0.(010212), 1/6 is 0.0(1) and 1/9 is 0.01; each passes at a cap
    of its own length and is refused below it, also by exact_card and by
    ``slicekit count``, with exit code 3."""
    from slicekit.cli import main

    for x, digits, verdict in (
        (Fraction(1, 7), 6, "Infinite"),
        (Fraction(1, 6), 2, "Finite"),
        (Fraction(1, 9), 2, "Finite"),
    ):
        monkeypatch.setattr(counting, "_EXPANSION_CAP", digits)
        exp = _expansion(cantor_diff, x)
        assert len(exp.preperiod) + (0 if exp.boundary else len(exp.period)) == digits
        assert exact_card(cantor_diff, x).verdict == verdict
        monkeypatch.setattr(counting, "_EXPANSION_CAP", digits - 1)
        with pytest.raises(TooLarge):
            counting._expansion_lengths(cantor_diff, x)
        with pytest.raises(TooLarge):
            exact_card(cantor_diff, x)
        instance = FIXTURES / "cantor_diff.json"
        assert main(["count", str(instance), "--x", f"{x.numerator}/{x.denominator}"]) == 3


def test_expansion_value_round_trip(cantor_diff):
    rng = random.Random(2)
    for _ in range(40):
        q = rng.choice([5, 7, 11, 13])
        p = rng.randrange(-q, q)
        x = Fraction(p, q)
        exp = long_division_expansion(cantor_diff, x)
        assert (
            expansion_value(3, exp.integer_part, exp.preperiod, exp.period) == x
        )


def test_cube_count_vectors(cantor_diff):
    assert dense_cube_count_vector(cantor_diff, Fraction(1, 2), 2) == (0, 1)
    assert dense_cube_count_vector(cantor_diff, Fraction(1, 6), 3) == (0, 2)
    assert dense_cube_count_vector(cantor_diff, Fraction(1, 4), 4) == (0, 4)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(counting_instances(), st.sampled_from([1, 6, counting.DEFAULT_BUDGET]))
def test_open_children_are_every_row_of_the_digit_matrices(inst, budget):
    """For every digit d and offset t below proj_max, the open children of
    (d, t) are the nonzero entries of row t of T_d, the digit table's open
    entry at t decoded, and the types of interval n*t + d; the closed entry
    decodes to the children uncut."""
    bits = (budget * inst.cube_count).bit_length()
    table = counting.digit_table(inst, bits)
    lo = inst.proj_min

    def decoded(entry):
        packed, shift, mask, j0, total = entry
        kids = [
            (lo + j0 + i, packed >> bits * i & (1 << bits) - 1)
            for i in range(mask.bit_length())
            if mask >> i & 1
        ]
        assert (shift, total) == (bits * j0, sum(c for _, c in kids))
        return kids

    for matrix in transition_matrices(inst):
        d = matrix.digit
        for t in range(lo, inst.proj_max):
            kids = children(inst, d, t)
            cut = open_children(inst, kids)
            row = matrix.entries[t - lo]
            assert cut == [(lo + v, count) for v, count in enumerate(row) if count]
            assert cut == decoded(table[d][0][t - lo])
            assert cut == interval_type_counts(inst, inst.n * t + d)
            assert kids == decoded(table[d][1][t - lo])


def test_digit_table_rows_capped_before_any_is_built(monkeypatch):
    """A digit table of more than _TABLE_ROWS rows, n * (span + 1), is
    refused with TooLarge before any row's children are listed; one of
    exactly _TABLE_ROWS rows is built and counts."""
    inst = ProblemInstance(n=3, digit_sets=((0, 2), (0, 2)), coefficients=(-1, 1))
    rows = inst.n * (inst.span + 1)
    listed = []
    monkeypatch.setattr(counting, "children", lambda *args: listed.append(args) or children(*args))
    monkeypatch.setattr(counting, "_TABLE_ROWS", rows - 1)
    with pytest.raises(TooLarge, match=f"the digit table has {rows} rows, more than {rows - 1}"):
        exact_card(inst, Fraction(1, 3))
    assert listed == []
    monkeypatch.setattr(counting, "_TABLE_ROWS", rows)
    assert (exact_card(inst, Fraction(1, 3)).verdict, len(listed)) == ("Finite", rows)


def test_state_advance_matches_manual(cantor_diff):
    # offsets -1, 1, 1 on the lattice (1/3)Z, as scaled offsets
    states = kernel_states(cantor_diff, Fraction(1, 3), 2)
    assert states[1] == states[2] == ((-3, 1), (3, 2))


def reference_advance(inst, offsets):
    """One digit on the expanded tuple of Fraction offsets, one entry per
    chain, so a digit costs O(cardinality)."""
    lo, hi, n = inst.proj_min, inst.proj_max, inst.n
    children = []
    for r in offsets:
        base = n * r
        for w, count in inst.cube_weights.items():
            v = base - w
            if lo <= v <= hi:
                children.extend([v] * count)
    return tuple(sorted(children))


def reference_exact_card(inst, x, budget, max_depth=None):
    """``exact_card`` keyed on the expanded offset tuple."""
    exp = long_division_expansion(inst, x)
    pre, per = len(exp.preperiod), len(exp.period)
    if max_depth is None:
        max_depth = 64 * (pre + per)
    offsets, depth = (Fraction(x),), 0
    seen_exact, seen_support = {}, {}
    while True:
        phase = depth if depth < pre else pre + (depth - pre) % per
        card = len(offsets)
        if (phase, offsets) in seen_exact:
            start = seen_exact[phase, offsets]
            cert = CycleCertificate(start, depth - start, card, card)
            return CardResult("Finite", card, depth, cert)
        seen_exact[phase, offsets] = depth
        support = (phase, tuple(sorted(set(offsets))))
        if support in seen_support:
            depth0, card0 = seen_support[support]
            if card > card0:
                cert = CycleCertificate(depth0, depth - depth0, card0, card)
                return CardResult("Infinite", None, depth, cert)
        else:
            seen_support[support] = (depth, card)
        if card > budget or depth >= max_depth:
            return CardResult("ExceedsBudget", card, depth, None)
        offsets, depth = reference_advance(inst, offsets), depth + 1


def _points(inst, max_q):
    """Every rational in [proj_min, proj_max] with denominator <= max_q."""
    return sorted(
        {
            Fraction(p, q)
            for q in range(1, max_q + 1)
            for p in range(q * inst.proj_min, q * inst.proj_max + 1)
            if gcd(p, q) == 1
        }
    )


SPAN9_INSTANCES = {
    "span9": ProblemInstance(n=3, digit_sets=((0, 2), (0, 2)), coefficients=(-4, 5)),
    "n5_narrow": ProblemInstance(
        n=5, digit_sets=((0, 2, 4), (0, 2, 4)), coefficients=(-4, 5)
    ),
}


# At q <= 25 the span-9 instances would cost the reference about nine times
# as much, nearly all of it in the ~950 points that reach the budget;
# q <= 16 keeps four of those.
@pytest.mark.parametrize(
    "name, max_q",
    [
        ("cantor_diff", 25),
        ("cantor_sum", 25),
        ("cantor_double_diff", 25),
        ("span9", 16),
        ("n5_narrow", 16),
    ],
)
def test_exact_card_matches_expanded_reference(request, name, max_q):
    """Multiplicity pairs and the expanded offset tuple give the same
    CardResult at every point of the benchmark's count instances."""
    inst = SPAN9_INSTANCES.get(name) or request.getfixturevalue(name)
    for x in _points(inst, max_q):
        expected = reference_exact_card(inst, x, budget=256)
        assert exact_card(inst, x, budget=256) == expected, x


@st.composite
def points(draw, inst):
    """A rational in [proj_min, proj_max] with denominator at most 25."""
    q = draw(st.integers(1, 25))
    return Fraction(draw(st.integers(q * inst.proj_min, q * inst.proj_max)), q)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(instances(), st.data())
def test_advance_state_matches_expanded_reference_random(inst, data):
    """Eight digits of the packed kernel give the expanded offset tuple's
    multisets."""
    x = data.draw(points(inst))
    offsets = (x,)
    for state in kernel_states(inst, x, 8)[1:]:
        offsets = reference_advance(inst, offsets)
        scaled = Counter(int(x.denominator * v) for v in offsets)
        assert state == tuple(sorted(scaled.items()))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(instances(), st.data())
def test_advance_state_scales_with_multiplicity(inst, data):
    """Multiplying every count of a packed vector by m multiplies every
    child's count, and the cardinality, by m and keeps the support mask,
    and the support stays on the span + 1 fields of [proj_min, proj_max]:
    the cost of a digit does not depend on the number of chains."""
    x = data.draw(points(inst))
    n, q, lo = inst.n, x.denominator, inst.proj_min
    depth = 8
    bits = (2**64 * inst.cube_count**depth).bit_length()
    table = counting.digit_table(inst, bits)
    t, r = divmod(x.numerator, q)
    vec, mask = 1 << bits * (t - lo), 1 << (t - lo)
    for _ in range(depth):
        d, r = divmod(n * r, q)
        entry = table[d][not r]
        child, child_mask, card = counting._advance(entry, bits, vec, mask)
        for m in (2, 7, 2**64):
            assert counting._advance(entry, bits, m * vec, mask) == (m * child, child_mask, m * card)
        assert child_mask >> inst.span + 1 == 0
        vec, mask = child, child_mask


@settings(max_examples=40, deadline=None, derandomize=True)
@given(counting_instances(), st.data())
def test_exact_card_matches_expanded_reference_random(inst, data):
    x = data.draw(points(inst))
    assert exact_card(inst, x, budget=256) == reference_exact_card(
        inst, x, budget=256
    )


@st.composite
def boundary_points(draw, inst):
    """A base-n boundary point k/n^j of [proj_min, proj_max], which
    ``points`` seldom draws."""
    q = inst.n ** draw(st.integers(1, 2 if inst.n <= 5 else 1))
    return Fraction(draw(st.integers(q * inst.proj_min, q * inst.proj_max)), q)


@st.composite
def count_queries(draw):
    """An instance that meets the hypotheses and a point of its range with
    denominator at most 25; half the draws are base-n boundary points."""
    inst = draw(counting_instances())
    if draw(st.booleans()):
        return inst, draw(points(inst))
    return inst, draw(boundary_points(inst))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(count_queries(), st.integers(1, 64), st.none() | st.integers(0, 6))
def test_exact_card_limits_match_expanded_reference_random(query, budget, max_depth):
    """Every exit of the counting loop (Finite, Infinite, the budget cut and
    the depth cut, at integer, boundary and periodic x) agrees with the
    expanded reference, and a cut's count is the cardinality the raw pairs
    loop reaches at the same depth."""
    inst, x = query
    res = exact_card(inst, x, budget=budget, max_depth=max_depth)
    assert res == reference_exact_card(inst, x, budget, max_depth)
    exp = long_division_expansion(inst, x)
    event(res.verdict)
    event("integer x" if x.denominator == 1 else "boundary x" if exp.boundary else "periodic x")
    if res.verdict == "ExceedsBudget":
        event("budget cut" if res.count > budget else "depth cut")
        steps, _ = _pairs_steps(inst, x, budget, max_depth)
        assert steps[res.depth_reached][0] == res.count


def _counted(fn, calls):
    def wrapper(*args):
        calls[fn.__name__] += 1
        return fn(*args)

    return wrapper


def test_hypotheses_decided_once_per_instance(monkeypatch, full_interval, no_cover):
    """The hypotheses and the digit table for the default budget's field
    width are built once for 20 queries, in a record that goes with the
    instance."""
    calls = Counter()
    for name in ("covering_condition", "strong_separation", "_build_table"):
        monkeypatch.setattr(counting, name, _counted(getattr(counting, name), calls))
    inst = ProblemInstance(n=5, digit_sets=((0, 2, 4), (0, 2, 4)), coefficients=(5, -4))
    assert id(inst) not in counting._RECORDS
    for k in range(20):
        exact_card(inst, Fraction(k, 7))
    assert calls == {"covering_condition": 1, "strong_separation": 1, "_build_table": 1}
    width = (counting.DEFAULT_BUDGET * inst.cube_count).bit_length()
    assert list(counting._RECORDS[id(inst)].tables) == [width]
    # a failing instance raises on every call, and is decided at most once
    for failing in (full_interval, no_cover):
        with pytest.raises(HypothesisViolated):
            exact_card(failing, Fraction(1, 2))
        decided = dict(calls)
        for k in range(5):
            with pytest.raises(HypothesisViolated):
                exact_card(failing, Fraction(k, 5))
        assert calls == decided
    # the record does not keep the instance alive, and forgets it with it
    ref, key = weakref.ref(inst), id(inst)
    del inst
    gc.collect()
    assert ref() is None
    assert key not in counting._RECORDS


def test_record_lives_as_long_as_its_instance():
    """Two equal instances each get a record of their own, and one's
    record stays, tables and all, when the other goes."""
    a = ProblemInstance(n=3, digit_sets=((0, 2), (0, 2)), coefficients=(-2, 3))
    b = ProblemInstance(n=3, digit_sets=((0, 2), (0, 2)), coefficients=(-2, 3))
    assert a == b and a is not b
    exact_card(a, Fraction(1, 7))
    exact_card(b, Fraction(1, 7))
    rec = counting._record(b)
    assert rec is not counting._record(a)
    del a
    gc.collect()
    assert counting._record(b) is rec
    assert list(rec.tables) == [(counting.DEFAULT_BUDGET * b.cube_count).bit_length()]


def test_search_steps_the_counting_tables(monkeypatch):
    """The multiplicity search builds no digit table of its own: its
    vectors, its integer counts and its witness checks all read the
    instance's record at one width, (max_r * cubes).bit_length(); a second
    search builds none."""
    calls = Counter()
    monkeypatch.setattr(counting, "_build_table", _counted(counting._build_table, calls))
    inst = ProblemInstance(n=3, digit_sets=((0, 2), (0, 2)), coefficients=(-3, 5))
    assert id(inst) not in counting._RECORDS
    for _ in range(2):
        search = enumerate_achievable_r(inst, 6)
        for r in search.achievable():
            witness_ur(search, r)
    assert calls == {"_build_table": 1}
    assert list(counting._RECORDS[id(inst)].tables) == [(6 * 4).bit_length()]


# The scaled instances of the benchmark's analyze-scaled workload.
_BENCH_SCALED = ["span9", "span13", "span15", "span17", "n5", "n7", "l3", "l4"]


@pytest.mark.parametrize("name", _BENCH_SCALED)
def test_report_decides_hypotheses_and_builds_one_table(name, monkeypatch):
    """One ``build_report`` builds one digit table, at the width of its
    max_r, and decides covering and strong separation once each, in the
    instance's counting record; ``exact_card`` and ``lyapunov_estimate`` on
    the same instance afterwards read them from there."""
    calls = Counter()
    for attr in ("covering_condition", "strong_separation", "_build_table"):
        monkeypatch.setattr(counting, attr, _counted(getattr(counting, attr), calls))
    inst = parse_instance(SCALED[name][0])
    data = build_report(inst)["data"]
    assert calls == {"covering_condition": 1, "strong_separation": 1, "_build_table": 1}
    assert list(counting._RECORDS[id(inst)].tables) == [(6 * inst.cube_count).bit_length()]
    assert (data["covering"], data["ssc"]) == (True, [True] * inst.l)
    exact_card(inst, Fraction(1, 11))
    lyapunov_estimate(inst, samples=1, depth=1, seed=0)
    assert (calls["covering_condition"], calls["strong_separation"]) == (1, 1)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(count_queries(), st.sampled_from([1, 2, 3, 6, 30]))
def test_budget_max_r_keeps_every_count_up_to_max_r(query, max_r):
    """What the multiplicity search relies on to count at budget max_r: a
    point is Finite at that budget exactly when its unbudgeted count is
    Finite and at most max_r, with the same result, certificate included."""
    inst, x = query
    capped = exact_card(inst, x, budget=max_r)
    full = exact_card(inst, x)
    event(capped.verdict)
    assert capped.is_finite == (full.is_finite and full.count <= max_r)
    if capped.is_finite:
        assert capped == full


@settings(max_examples=200, deadline=None, derandomize=True)
@given(count_queries(), st.sampled_from([1, 7, 4096]))
def test_recurrences_span_whole_periods(query, budget):
    """The cycle checks key on the remainder, which recurs exactly when the
    digit phase does: every certificate starts inside the period of the
    expansion and spans a whole number of periods."""
    inst, x = query
    cert = exact_card(inst, x, budget).certificate
    if cert is not None:
        exp = long_division_expansion(inst, x)
        assert cert.start_depth >= len(exp.preperiod)
        assert cert.period % len(exp.period) == 0


def _cold_card(inst, x, *limits):
    """exact_card on a fresh record: the instance's record, with its tables
    and transition caches, is dropped before and after the call."""
    counting._RECORDS.pop(id(inst), None)
    try:
        return exact_card(inst, x, *limits)
    finally:
        counting._RECORDS.pop(id(inst), None)


def _cached_bits(rec):
    """The bits the record's transition caches hold, counted entry by
    entry as ``_Record.keep`` counts them."""
    return sum(
        vec.bit_length() + step[0].bit_length() + step[1].bit_length() + counting._ENTRY_BITS
        for steps in rec.steps.values()
        for by_flag in steps
        for cache in by_flag
        for vec, step in cache.items()
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(count_queries(), st.data(), st.sampled_from([1, 3, 64, 4096]))
def test_warm_record_matches_cold_random(query, data, budget):
    """A sweep that shares one record gives every point the CardResult of
    a fresh record per point, on the first pass, while its transition cache
    fills, and on a second pass, which reads the steps of every point from
    the cache; the points mix boundary points, whose steps take the closed
    rows, with others."""
    inst, x = query
    sweep = [x, *data.draw(st.lists(points(inst) | boundary_points(inst), min_size=1, max_size=12))]
    cold = [_cold_card(inst, p, budget) for p in sweep]
    for _ in range(2):
        assert [exact_card(inst, p, budget) for p in sweep] == cold
    rec = counting._RECORDS[id(inst)]
    assert 0 < rec.step_bits == _cached_bits(rec) <= counting._STEP_CACHE_BITS


# The five instances of the benchmark's count-sweep workload.
_SWEEP_INSTANCES = {
    "cantor_diff": load("cantor_diff"),
    "cantor_sum": load("cantor_sum"),
    "cantor_double_diff": load("cantor_double_diff"),
    "span9": parse_instance(SCALED["span9"][0]),
    "n5_narrow": ProblemInstance(n=5, digit_sets=((0, 2, 4), (0, 2, 4)), coefficients=(-4, 5)),
}


def _sweep_grid(inst):
    """Every p/q of the range with q <= 12, and every p/n^2, ascending."""
    return sorted(
        {
            Fraction(p, q)
            for q in (*range(1, 13), inst.n**2)
            for p in range(q * inst.proj_min, q * inst.proj_max + 1)
        }
    )


@pytest.mark.parametrize("label", sorted(_SWEEP_INSTANCES))
def test_warm_record_matches_cold_sweep(label, monkeypatch):
    """On the count-sweep instances, a sweep that shares one record gives
    every point the CardResult of a fresh record per point; swept again, it
    takes every step from the transition cache and calls ``_advance`` no
    more."""
    inst = _SWEEP_INSTANCES[label]
    grid = _sweep_grid(inst)
    cold = [_cold_card(inst, x) for x in grid]
    assert [exact_card(inst, x) for x in grid] == cold
    calls = Counter()
    monkeypatch.setattr(counting, "_advance", _counted(counting._advance, calls))
    assert [exact_card(inst, x) for x in grid] == cold
    assert calls == Counter()


@pytest.mark.parametrize("label", ["cantor_diff", "n5_narrow", "span9"])
def test_transition_cache_stays_within_its_bound(label, monkeypatch):
    """With the bound lowered to a few entries, the cache is emptied again
    and again during a sweep, never holds more bits than the bound, and
    every point still gets the CardResult of a fresh record; a bound below
    one entry keeps nothing."""
    inst = _SWEEP_INSTANCES[label]
    grid = _sweep_grid(inst)
    cold = [_cold_card(inst, x) for x in grid]
    bound = 8 * counting._ENTRY_BITS
    monkeypatch.setattr(counting, "_STEP_CACHE_BITS", bound)
    emptied, held = 0, 0
    for x, expected in zip(grid, cold):
        assert exact_card(inst, x) == expected
        rec = counting._RECORDS[id(inst)]
        assert rec.step_bits == _cached_bits(rec) <= bound
        emptied += rec.step_bits < held
        held = rec.step_bits
    assert emptied >= 10
    monkeypatch.setattr(counting, "_STEP_CACHE_BITS", counting._ENTRY_BITS - 1)
    counting._RECORDS.pop(id(inst))
    assert [exact_card(inst, x) for x in grid] == cold
    rec = counting._RECORDS[id(inst)]
    assert rec.step_bits == _cached_bits(rec) == 0


def test_exact_card_examples(cantor_diff):
    assert exact_card(cantor_diff, Fraction(1, 3)) == exact_card(
        cantor_diff, Fraction(1, 3)
    )
    for x, verdict, count in [
        (Fraction(1, 3), "Finite", 3),
        (Fraction(1, 6), "Finite", 2),
        (Fraction(1, 4), "Infinite", None),
        (Fraction(1, 2), "Finite", 1),
        (Fraction(-1), "Finite", 1),
        (Fraction(1), "Finite", 1),
        (Fraction(0), "Infinite", None),
    ]:
        res = exact_card(cantor_diff, x)
        assert (res.verdict, res.count) == (verdict, count), x


def test_exact_card_certificates(cantor_diff):
    res = exact_card(cantor_diff, Fraction(1, 6))
    assert res.verdict == "Finite"
    assert res.certificate is not None and res.certificate.period >= 1
    res = exact_card(cantor_diff, Fraction(1, 4))
    assert res.verdict == "Infinite"
    cert = res.certificate
    assert cert.cardinality_after > cert.cardinality_before


def test_exact_card_budget(cantor_diff):
    res = exact_card(cantor_diff, Fraction(1, 4), budget=2)
    assert res.verdict in ("ExceedsBudget", "Infinite")
    res = exact_card(cantor_diff, Fraction(1, 2), max_depth=0)
    assert res.verdict == "ExceedsBudget"


def test_exact_card_refuses_invalid_limits(cantor_diff, base7_double):
    for kwargs in ({"max_depth": -5}, {"budget": 0}, {"budget": -1}):
        with pytest.raises(OutOfRange):
            exact_card(cantor_diff, Fraction(1, 3), **kwargs)
    # the limits are checked before the hypotheses
    with pytest.raises(OutOfRange):
        exact_card(base7_double, Fraction(1, 3), budget=0)


def test_card_results_are_dataclasses(cantor_diff):
    # callers rebuild a result or its certificate with dataclasses.replace
    res = exact_card(cantor_diff, Fraction(1, 3))
    changed = dataclasses.replace(res, count=4)
    assert (changed.verdict, changed.count) == ("Finite", 4)
    cert = dataclasses.replace(res.certificate, period=res.certificate.period + 1)
    assert cert.period == res.certificate.period + 1
    assert dataclasses.replace(res, certificate=cert).certificate == cert


def test_exact_card_requires_hypotheses(base7_double, no_cover):
    with pytest.raises(HypothesisViolated):
        exact_card(base7_double, Fraction(1, 2))
    with pytest.raises(HypothesisViolated):
        exact_card(no_cover, Fraction(1, 2))


def test_exact_card_out_of_range(cantor_diff):
    with pytest.raises(OutOfRange):
        exact_card(cantor_diff, Fraction(5, 2))


def test_state_cardinality_three_way(cantor_diff, cantor_sum):
    """State cardinality = product-vector norm = brute-force count."""
    rng = random.Random(31)
    for inst in (cantor_diff, cantor_sum):
        for _ in range(100):
            q = rng.choice([5, 7, 11, 13])
            k = rng.randrange(1, q)
            x = Fraction(inst.proj_min) + Fraction(
                rng.randrange(1, inst.span * q), q
            )
            if x.denominator == 1 or x <= inst.proj_min or x >= inst.proj_max:
                continue
            states = kernel_states(inst, x, 6)
            for depth in range(1, 7):
                vec = dense_cube_count_vector(inst, x, depth)
                count = brute_force_cube_count(inst, x, depth)
                assert sum(m for _, m in states[depth]) == sum(vec) == count


def test_finite_card_is_eventual_cube_count(cantor_diff):
    for x, r in [(Fraction(1, 3), 3), (Fraction(1, 6), 2), (Fraction(1, 2), 1)]:
        res = exact_card(cantor_diff, x)
        assert (res.verdict, res.count) == ("Finite", r)
        start = res.certificate.start_depth
        for k in range(start, start + 4):
            assert brute_force_cube_count(cantor_diff, x, k) == r


def test_lyapunov_trivial_zero(full_interval):
    est, err = lyapunov_estimate(full_interval, samples=100, depth=40, seed=5)
    assert est == 0.0
    assert err == 0.0


def test_lyapunov_deterministic(cantor_diff):
    a = lyapunov_estimate(cantor_diff, samples=300, depth=120, seed=42)
    b = lyapunov_estimate(cantor_diff, samples=300, depth=120, seed=42)
    assert a == b
    c = lyapunov_estimate(cantor_diff, samples=300, depth=120, seed=43)
    assert a != c
    assert 0.0 < a[0] < 1.0


def test_lyapunov_needs_covering(no_cover):
    with pytest.raises(CoveringRequired):
        lyapunov_estimate(no_cover, samples=10, depth=10, seed=1)


def test_lyapunov_refuses_a_negative_seed(cantor_diff):
    """numpy's SeedSequence takes non-negative entropy only, so a negative
    seed is refused with the range checks, before numpy is imported; the
    smallest seed still runs."""
    with pytest.raises(OutOfRange, match="seed must be >= 0, got -1"):
        lyapunov_estimate(cantor_diff, samples=10, depth=10, seed=-1)
    est, _ = lyapunov_estimate(cantor_diff, samples=10, depth=10, seed=0)
    assert 0.0 < est < 1.0
