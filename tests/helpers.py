"""Paper definitions that the package does not compute, written out as
the references several test modules check it against, and the report
helper the golden comparisons share.

* ``type_assignment``: the cubes covering one integer interval, with their
  types, found by trying every depth-1 cube: a cube of weight w covers
  interval u exactly when t = u - w lies in [proj_min, proj_max - 1].
* ``scan_type_counts`` and ``scan_full_graph``: interval u's types, from
  every working interval t with a cube of weight u - t, and the full graph,
  where u goes to the n intervals of each of its types.
* ``subset_successor``: the subset graph's edge rule, one residue h and
  one subset at a time; ``graphs.aligned`` applies it to a whole base.
* ``long_division_expansion``: the base-n digits of x, written out until a
  remainder of the fractional part recurs.
* ``dense_cube_count_vector``: the matrix route, e_i T_{j1} ... T_{jk} as
  dense vector-matrix products on the digit matrices, whose 1-norm counts
  the depth-k cubes meeting the slice at a non-boundary x.
* ``data_section``: a serialised report without its ``meta`` key.
* ``restricted``: a context's restricted graph with its index and its
  0-1 matrix M, as the report prints them.
* ``block_rows``: a dense matrix as a block's sparse rows, the form
  ``block_radius``, ``compare_radii`` and the context's blocks take.
* ``spelled``: the multiplicity search's vector records with each word
  node spelled out as its digit tuple, the form the tests compare.
"""

import json
from fractions import Fraction
from typing import NamedTuple

from slicekit.analysis import Analysis, spell_word
from slicekit.graphs import component_matrix
from slicekit.lattice import u_range
from slicekit.spectral import transition_matrices


def projection_interval(inst, weight):
    """The image of a depth-1 cube of weight ``weight`` under the form:
    (weight + [proj_min, proj_max]) / n."""
    return Fraction(weight + inst.proj_min, inst.n), Fraction(weight + inst.proj_max, inst.n)


class SmallCube(NamedTuple):
    """A depth-1 digit cube: its digit tuple, form value and projection
    interval."""

    digits: tuple
    weight: int
    projection: tuple


class TypeAssignment(NamedTuple):
    """All (type, cube) pairs covering one integer interval; the type is
    the interval's position inside the cube's projection interval."""

    entries: tuple


def type_assignment(inst, u):
    """The cubes covering interval u, in ``iter_cubes`` order, with their
    types."""
    entries = []
    for digits in inst.iter_cubes():
        w = inst.weight(digits)
        if inst.proj_min <= u - w < inst.proj_max:
            entries.append((u - w, SmallCube(digits, w, projection_interval(inst, w))))
    return TypeAssignment(tuple(entries))


def scan_type_counts(inst, u):
    """Interval u's (type, cube count) pairs, ascending: every working
    interval t, with the cubes of weight u - t."""
    weights = inst.cube_weights
    return [
        (t, weights[u - t]) for t in range(inst.proj_min, inst.proj_max) if weights.get(u - t, 0)
    ]


def scan_full_graph(inst):
    """The full graph's adjacency: interval u goes to the n intervals of
    each of its types."""
    n = inst.n
    adjacency = {}
    for u in u_range(inst):
        targets = set()
        for t, _ in scan_type_counts(inst, u):
            targets.update(range(n * t, n * t + n))
        adjacency[u] = tuple(sorted(targets))
    return adjacency


def subset_successor(types, n, members, h):
    """Image of a subset under residue h, or None when it leaves the
    uniquely covered collection (the keys of ``types``)."""
    image = sorted({n * types[u] + h for u in members})
    if all(v in types for v in image):
        return tuple(image)
    return None


class NadicExpansion(NamedTuple):
    """Base-n expansion x = integer_part + 0.d1 d2 d3 ...

    ``preperiod`` then ``period`` (repeating) describe the whole digit
    stream; terminating expansions carry period (0,) and the boundary flag.
    """

    integer_part: int
    preperiod: tuple
    period: tuple
    boundary: bool

    def digits(self, count):
        """The first ``count`` digits."""
        pre, per = self.preperiod, self.period
        return tuple(
            pre[k] if k < len(pre) else per[(k - len(pre)) % len(per)] for k in range(count)
        )


def long_division_expansion(inst, x):
    """Base-n long division of x until a remainder of the fractional part
    recurs, which pins down the preperiod/period split."""
    x = Fraction(x)
    n = inst.n
    i, p = divmod(x.numerator, x.denominator)
    q = x.denominator
    digits = []
    seen = {}
    while True:
        if p == 0:
            return NadicExpansion(i, tuple(digits), (0,), True)
        if p in seen:
            cut = seen[p]
            return NadicExpansion(i, tuple(digits[:cut]), tuple(digits[cut:]), False)
        seen[p] = len(digits)
        d, p = divmod(n * p, q)
        digits.append(d)


def dense_cube_count_vector(inst, x, k):
    """e_i T_{j1} ... T_{jk} as k dense vector-matrix products on the n
    digit matrices."""
    exp = long_division_expansion(inst, x)
    mats = transition_matrices(inst)
    span = inst.span
    vec = [0] * span
    vec[exp.integer_part - inst.proj_min] = 1
    for j in exp.digits(k):
        rows = mats[j].entries
        vec = [sum(vec[u] * rows[u][v] for u in range(span)) for v in range(span)]
    return tuple(vec)


def data_section(report_text):
    """Parse a serialised report and drop the meta key (golden comparisons)."""
    doc = json.loads(report_text)
    doc.pop("meta", None)
    return doc


def restricted(inst):
    """The restricted graph of a fresh ``Analysis`` context, its index (the
    uniquely covered u, ascending) and its 0-1 matrix M on that index."""
    xi = Analysis(inst).xi
    return xi, [u for (u,) in xi.vertices], component_matrix(xi.succ, range(len(xi.succ)))


def block_rows(matrix):
    """The sparse rows of a dense matrix: each row's nonzero entries as
    (column, entry) pairs, ascending column, as tuples."""
    return tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in matrix)


def spelled(records):
    """The records (counts, norm, integer_part, word, support) of
    ``analysis._reachable_vectors``, in order, each with its word node
    spelled out by ``spell_word``, as a route's record holds it."""
    return tuple(
        (counts, norm, i, spell_word(word), support)
        for counts, norm, i, word, support in records
    )
