import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicekit import ProblemInstance, parse_instance
from slicekit.errors import (
    BadBase,
    DigitOutOfRange,
    DuplicateDigit,
    EmptyDigitSet,
    InvalidDocument,
    LengthMismatch,
    ZeroCoefficient,
)


def test_parse_basic(cantor_diff):
    text = json.dumps(
        {"n": 3, "digit_sets": [[0, 2], [0, 2]], "coefficients": [-1, 1]}
    )
    inst = parse_instance(text)
    assert inst == cantor_diff
    assert (inst.proj_min, inst.proj_max, inst.span) == (-1, 1, 2)


def test_parse_degenerate_singleton():
    inst = parse_instance('{"n": 2, "digit_sets": [[0]], "coefficients": [1]}')
    assert (inst.proj_min, inst.proj_max, inst.span) == (0, 1, 1)


def test_parse_digit_out_of_range():
    with pytest.raises(DigitOutOfRange):
        parse_instance('{"n": 7, "digit_sets": [[0, 3, 7]], "coefficients": [1]}')


def test_derived_bounds_examples():
    mk = lambda coeffs: ProblemInstance(
        n=3, digit_sets=tuple(((0, 2),) * len(coeffs)), coefficients=coeffs
    )
    bounds = lambda inst: (inst.proj_min, inst.proj_max, inst.span)
    assert bounds(mk((-2, 1))) == (-2, 1, 3)
    assert bounds(mk((1, 1))) == (0, 2, 2)
    assert bounds(mk((-1, -1))) == (-2, 0, 2)


def test_validation_errors():
    with pytest.raises(BadBase):
        ProblemInstance(n=1, digit_sets=((0,),), coefficients=(1,))
    with pytest.raises(EmptyDigitSet):
        ProblemInstance(n=3, digit_sets=((),), coefficients=(1,))
    with pytest.raises(ZeroCoefficient):
        ProblemInstance(n=3, digit_sets=((0,),), coefficients=(0,))
    with pytest.raises(LengthMismatch):
        ProblemInstance(n=3, digit_sets=((0,), (1,)), coefficients=(1,))
    with pytest.raises(LengthMismatch):
        ProblemInstance(n=3, digit_sets=(), coefficients=())
    with pytest.raises(DuplicateDigit):
        ProblemInstance(n=3, digit_sets=((0, 0, 2),), coefficients=(1,))


def test_booleans_refused_on_both_paths():
    """bool is an int subclass, yet no digit or coefficient may be one: the
    constructor refuses True and False with the exception type and message
    that a document's true and false get, and the document path's errors
    are unchanged."""
    cases = (
        ((3, [[False, 2], [0, 2]], [1, -2]), DigitOutOfRange, "digit False is not an integer"),
        ((3, [[0, 2], [0, 2]], [True, -2]), ZeroCoefficient, "coefficient True is not an integer"),
        ((3, [[0, 2], [0, 2]], [1, False]), ZeroCoefficient, "coefficient False is not an integer"),
        # any other non-integer takes the same message on both paths, and
        # is refused before the base and the lengths are checked
        ((3, [[0, 2], [0, 2]], [1.5, -2]), ZeroCoefficient, "coefficient 1.5 is not an integer"),
        ((1, [[0.5]], [1]), DigitOutOfRange, "digit 0.5 is not an integer"),
    )
    for (n, sets, coeffs), error, message in cases:
        with pytest.raises(error) as direct:
            ProblemInstance(n, sets, coeffs)
        assert str(direct.value) == message
        document = json.dumps({"n": n, "digit_sets": sets, "coefficients": coeffs})
        with pytest.raises(error) as parsed:
            parse_instance(document)
        assert str(parsed.value) == message
    # a call the constructor used to accept: the digit is refused first
    with pytest.raises(DigitOutOfRange, match="digit False is not an integer"):
        ProblemInstance(3, [[False, 2], [0, 2]], [True, -2])
    # a document's digits are checked before its base and its lengths
    for document, error, message in (
        ('{"n": 1, "digit_sets": [[true]], "coefficients": [1]}', DigitOutOfRange,
         "digit True is not an integer"),
        ('{"n": 3, "digit_sets": [[0], [1]], "coefficients": [false]}', ZeroCoefficient,
         "coefficient False is not an integer"),
        ('{"n": true, "digit_sets": [[0]], "coefficients": [1]}', BadBase,
         "'n' must be an integer, got True"),
        ('{"n": 3, "digit_sets": [[0, 1.5]], "coefficients": [1]}', DigitOutOfRange,
         "digit 1.5 is not an integer"),
    ):
        with pytest.raises(error) as parsed:
            parse_instance(document)
        assert str(parsed.value) == message


def test_document_errors():
    with pytest.raises(InvalidDocument):
        parse_instance("[1, 2]")
    with pytest.raises(InvalidDocument):
        parse_instance('{"n": 3, "digit_sets": [[0]], "coefficients": [1], "x": 0}')
    with pytest.raises(InvalidDocument):
        parse_instance('{"n": 3, "digit_sets": [[0]]}')
    with pytest.raises(InvalidDocument):
        parse_instance("not json")


def test_repr_names_the_fields():
    # the benchmark compares repr(op.arg), which holds an instance
    inst = parse_instance('{"n":3,"digit_sets":[[0,2],[0,2]],"coefficients":[-1,1]}')
    assert repr(inst) == (
        "ProblemInstance(n=3, digit_sets=((0, 2), (0, 2)), coefficients=(-1, 1))"
    )


def test_equal_instances_hash_equal(cantor_diff):
    inst = ProblemInstance(n=3, digit_sets=((2, 0), (0, 2)), coefficients=[-1, 1])
    assert inst == cantor_diff and hash(inst) == hash(cantor_diff)
    assert inst != ProblemInstance(n=3, digit_sets=((0, 2), (0, 2)), coefficients=(1, -1))
    table = {inst: "cantor_diff"}
    document = '{"n": 3, "digit_sets": [[0, 2], [2, 0]], "coefficients": [-1, 1]}'
    assert table[parse_instance(document)] == "cantor_diff"
    with pytest.raises(AttributeError):
        inst.n = 5


def test_digit_sets_sorted():
    inst = parse_instance('{"n": 5, "digit_sets": [[4, 0, 2]], "coefficients": [2]}')
    assert inst.digit_sets == ((0, 2, 4),)


def test_cube_weights_match_enumeration(base7_double):
    from collections import Counter

    direct = Counter(
        base7_double.weight(d) for d in base7_double.iter_cubes()
    )
    assert direct == base7_double.cube_weights


instances = st.integers(2, 9).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.sets(st.integers(0, n - 1), min_size=1, max_size=n).map(
                lambda s: tuple(sorted(s))
            ),
            min_size=1,
            max_size=3,
        ),
    ).flatmap(
        lambda pair: st.tuples(
            st.just(pair[0]),
            st.just(tuple(pair[1])),
            st.tuples(
                *[
                    st.integers(-4, 4).filter(lambda m: m != 0)
                    for _ in pair[1]
                ]
            ),
        )
    )
).map(lambda t: ProblemInstance(n=t[0], digit_sets=t[1], coefficients=t[2]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(instances)
def test_bounds_invariants(inst):
    lo, hi, span = inst.proj_min, inst.proj_max, inst.span
    assert lo <= 0 <= hi
    assert span == sum(abs(m) for m in inst.coefficients) == hi - lo
