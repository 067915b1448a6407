import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicekit import (
    ProblemInstance,
    brute_force_cube_count,
    cube_count_vector,
    exact_card,
    expansion_value,
    lyapunov_estimate,
    nadic_expansion,
)
from slicekit.counting import (
    CardResult,
    CycleCertificate,
    SliceState,
    advance_state,
    initial_state,
)
from slicekit.errors import (
    BoundaryPoint,
    CoveringRequired,
    HypothesisViolated,
    OutOfRange,
)
from conftest import counting_instances
from test_properties import instances


def test_expansion_periodic(cantor_diff):
    exp = nadic_expansion(cantor_diff, Fraction(1, 2), depth=5)
    assert exp.integer_part == 0
    assert not exp.boundary
    assert exp.prefix == (1, 1, 1, 1, 1)
    assert exp.preperiod == () and exp.period == (1,)


def test_expansion_boundary(cantor_diff):
    exp = nadic_expansion(cantor_diff, Fraction(1, 3), depth=4)
    assert exp.boundary
    assert exp.prefix == (1, 0, 0, 0)


def test_expansion_negative(cantor_diff):
    exp = nadic_expansion(cantor_diff, Fraction(-5, 6), depth=4)
    assert exp.integer_part == -1
    assert exp.prefix == (0, 1, 1, 1)


def test_expansion_out_of_range(cantor_diff):
    with pytest.raises(OutOfRange):
        nadic_expansion(cantor_diff, Fraction(3, 2))


def test_expansion_value_round_trip(cantor_diff):
    rng = random.Random(2)
    for _ in range(40):
        q = rng.choice([5, 7, 11, 13])
        p = rng.randrange(-q, q)
        x = Fraction(p, q)
        exp = nadic_expansion(cantor_diff, x)
        assert (
            expansion_value(3, exp.integer_part, exp.preperiod, exp.period) == x
        )


def test_cube_count_vectors(cantor_diff):
    assert cube_count_vector(cantor_diff, Fraction(1, 2), 2) == (0, 1)
    assert cube_count_vector(cantor_diff, Fraction(1, 6), 3) == (0, 2)
    assert cube_count_vector(cantor_diff, Fraction(1, 4), 4) == (0, 4)


def test_cube_count_vector_boundary(cantor_diff):
    with pytest.raises(BoundaryPoint):
        cube_count_vector(cantor_diff, Fraction(1, 3), 2)


def test_cube_count_vector_needs_covering(no_cover):
    with pytest.raises(CoveringRequired):
        cube_count_vector(no_cover, Fraction(3, 5), 2)


def test_state_advance_matches_manual(cantor_diff):
    state = initial_state(cantor_diff, Fraction(1, 3))
    # offsets -1, 1, 1 on the lattice (1/3)Z
    for _ in range(2):
        state = advance_state(cantor_diff, state)
        assert state.scale == 3
        assert state.pairs == ((-3, 1), (3, 2))


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
    exp = nadic_expansion(inst, x)
    if max_depth is None:
        max_depth = 64 * (len(exp.preperiod) + len(exp.period))
    offsets, depth = (Fraction(x),), 0
    seen_exact, seen_support = {}, {}
    while True:
        phase, card = exp.phase(depth), len(offsets)
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
    x = data.draw(points(inst))
    state, offsets = initial_state(inst, x), (x,)
    for _ in range(8):
        state, offsets = advance_state(inst, state), reference_advance(inst, offsets)
        scaled = Counter(int(state.scale * v) for v in offsets)
        assert state.pairs == tuple(sorted(scaled.items()))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(counting_instances(), st.data())
def test_exact_card_matches_expanded_reference_random(inst, data):
    x = data.draw(points(inst))
    assert exact_card(inst, x, budget=256) == reference_exact_card(
        inst, x, budget=256
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(instances(), st.data())
def test_advance_state_scales_with_multiplicity(inst, data):
    """Multiplying every multiplicity by m multiplies every child's by m and
    leaves the support alone, and the support stays on the
    span * q + 1 lattice points of [proj_min, proj_max]: the cost of a
    digit does not depend on the number of chains."""
    state = initial_state(inst, data.draw(points(inst)))
    q = state.scale
    for _ in range(8):
        child = advance_state(inst, state)
        for m in (2, 7, 2**64):
            scaled = SliceState(
                pairs=tuple((a, m * k) for a, k in state.pairs),
                scale=state.scale,
                depth=state.depth,
            )
            scaled_child = advance_state(inst, scaled)
            assert scaled_child.support() == child.support()
            assert scaled_child.pairs == tuple((a, m * k) for a, k in child.pairs)
            assert scaled_child.cardinality == m * child.cardinality
        support = child.support()
        assert len(support) <= inst.span * q + 1
        assert all(q * inst.proj_min <= a <= q * inst.proj_max for a in support)
        state = child


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
            state = initial_state(inst, x)
            for depth in range(1, 7):
                state = advance_state(inst, state)
                vec = cube_count_vector(inst, x, depth)
                count = brute_force_cube_count(inst, x, depth)
                assert state.cardinality == sum(vec) == count


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
