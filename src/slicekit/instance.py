"""Problem instances: a base n, one digit set per factor set, and an integer
coefficient vector.

An instance describes the family of sets K_i = union_{a in A_i} (K_i + a)/n
inside [0,1] together with the linear form sum_i m_i * y_i.  Everything else
in the package is derived from these three ingredients.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import cached_property
from itertools import product
from typing import Iterator

from .errors import (
    BadBase,
    DigitOutOfRange,
    DuplicateDigit,
    EmptyDigitSet,
    InvalidDocument,
    LengthMismatch,
    ZeroCoefficient,
)

_DOCUMENT_KEYS = {"n", "digit_sets", "coefficients"}


class ProblemInstance:
    """Validated, immutable problem statement.

    digit_sets are stored sorted; coefficients keep their input order.
    Instances compare and hash by (n, digit_sets, coefficients).
    Derived scalars, each computed once: ``proj_min``/``proj_max`` are the
    minimum and maximum of the coefficient form over the unit cube (the sums
    of the negative and of the positive coefficients), ``span`` their
    difference (the 1-norm of the coefficient vector), ``cube_count`` the
    number of depth-1 digit cubes.
    """

    n: int
    digit_sets: tuple[tuple[int, ...], ...]
    coefficients: tuple[int, ...]

    def __init__(self, n: int, digit_sets, coefficients) -> None:
        # first, so a document's errors keep their order; bool is refused too
        for d in (d for digits in digit_sets for d in digits):
            if isinstance(d, bool) or not isinstance(d, int):
                raise DigitOutOfRange(f"digit {d!r} is not an integer")
        for m in coefficients:
            if isinstance(m, bool) or not isinstance(m, int):
                raise ZeroCoefficient(f"coefficient {m!r} is not an integer")
        if not isinstance(n, int) or n < 2:
            raise BadBase(f"base must be an integer >= 2, got {n!r}")
        if len(digit_sets) != len(coefficients):
            raise LengthMismatch(
                f"{len(digit_sets)} digit sets vs {len(coefficients)} coefficients"
            )
        if not digit_sets:
            raise LengthMismatch("at least one digit set is required")
        norm_sets = []
        for idx, digits in enumerate(digit_sets):
            if len(digits) == 0:
                raise EmptyDigitSet(f"digit set #{idx} is empty")
            if len(set(digits)) != len(digits):
                raise DuplicateDigit(f"digit set #{idx} has duplicates: {digits}")
            for d in digits:
                if not 0 <= d <= n - 1:
                    raise DigitOutOfRange(f"digit {d!r} in set #{idx} not in 0..{n - 1}")
            norm_sets.append(tuple(sorted(digits)))
        for idx, m in enumerate(coefficients):
            if m == 0:
                raise ZeroCoefficient(f"coefficient #{idx} is {m!r}")
        # written to __dict__, as cached_property does: __setattr__ refuses
        self.__dict__.update(
            n=n, digit_sets=tuple(norm_sets), coefficients=tuple(coefficients)
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"ProblemInstance is immutable; cannot set {name!r}")

    def _key(self) -> tuple:
        return (self.n, self.digit_sets, self.coefficients)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return other is self or self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"ProblemInstance(n={self.n!r}, digit_sets={self.digit_sets!r}, "
            f"coefficients={self.coefficients!r})"
        )

    # -- derived scalars -------------------------------------------------

    @property
    def l(self) -> int:
        return len(self.coefficients)

    @cached_property
    def proj_min(self) -> int:
        """Sum of the negative coefficients: the minimum of the form
        over the unit cube."""
        return sum(m for m in self.coefficients if m < 0)

    @cached_property
    def proj_max(self) -> int:
        return sum(m for m in self.coefficients if m > 0)

    @cached_property
    def span(self) -> int:
        return self.proj_max - self.proj_min

    @cached_property
    def cube_weights(self) -> Counter[int]:
        """Multiset of the form values over all depth-1 digit cubes, in
        descending weight order, so that the children d + n*t - w of a
        chain (``lattice.children``) come ascending.

        Computed by convolving the per-factor multisets, so it stays cheap
        even when the plain product of the digit sets is huge.
        """
        acc: Counter[int] = Counter({0: 1})
        for m, digits in zip(self.coefficients, self.digit_sets):
            step = Counter(m * d for d in digits)
            nxt: Counter[int] = Counter()
            for a, ca in acc.items():
                for b, cb in step.items():
                    nxt[a + b] += ca * cb
            acc = nxt
        return Counter(dict(sorted(acc.items(), reverse=True)))

    @cached_property
    def cube_count(self) -> int:
        total = 1
        for digits in self.digit_sets:
            total *= len(digits)
        return total

    def iter_cubes(self) -> Iterator[tuple[int, ...]]:
        """All depth-1 digit tuples, lexicographically."""
        return product(*self.digit_sets)

    def weight(self, digits: tuple[int, ...]) -> int:
        return sum(m * d for m, d in zip(self.coefficients, digits))


def parse_instance(text: str) -> ProblemInstance:
    """Parse and validate a UTF-8 JSON instance document.

    The document must contain exactly the keys "n", "digit_sets" and
    "coefficients"; unknown keys are rejected.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidDocument(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidDocument("instance document must be a JSON object")
    extra = set(doc) - _DOCUMENT_KEYS
    if extra:
        raise InvalidDocument(f"unknown keys: {sorted(extra)}")
    missing = _DOCUMENT_KEYS - set(doc)
    if missing:
        raise InvalidDocument(f"missing keys: {sorted(missing)}")
    n = doc["n"]
    sets = doc["digit_sets"]
    coeffs = doc["coefficients"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise BadBase(f"'n' must be an integer, got {n!r}")
    if not isinstance(sets, list) or not all(isinstance(s, list) for s in sets):
        raise InvalidDocument("'digit_sets' must be an array of arrays")
    if not isinstance(coeffs, list):
        raise InvalidDocument("'coefficients' must be an array")
    return ProblemInstance(
        n=n,
        digit_sets=tuple(tuple(s) for s in sets),
        coefficients=tuple(coeffs),
    )
