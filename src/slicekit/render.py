"""SVG figures of planar instances: the unit square, the digit cubes to a
given depth, and the projection lines with their interval labels.

Only the CLI's ``render`` command imports this module, so no other command
compiles it.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotPlanar, OutOfRange, TooLarge
from .instance import ProblemInstance

_RENDER_CUBE_CAP = 4096
# Deepest render, log2 of the cube cap: past it two or more cubes exceed the
# cap, and the one-cube case needs no deeper figure.
_RENDER_DEPTH_CAP = _RENDER_CUBE_CAP.bit_length() - 1

_CANVAS = 800
_MARGIN = 60
_SIDE = _CANVAS - 2 * _MARGIN


def _to_canvas(y1: float, y2: float) -> tuple[float, float]:
    return _MARGIN + y1 * _SIDE, _MARGIN + (1.0 - y2) * _SIDE


def _clip_line(m1: int, m2: int, c: Fraction) -> tuple | None:
    """Segment of the line m1*y1 + m2*y2 = c inside the unit square."""
    pts = set()
    for y1 in (Fraction(0), Fraction(1)):
        if m2 != 0:
            y2 = (c - m1 * y1) / m2
            if 0 <= y2 <= 1:
                pts.add((y1, y2))
    for y2 in (Fraction(0), Fraction(1)):
        if m1 != 0:
            y1 = (c - m2 * y2) / m1
            if 0 <= y1 <= 1:
                pts.add((y1, y2))
    pts = sorted(pts)
    if len(pts) < 2:
        return None
    return pts[0], pts[-1]


def render_grid(inst: ProblemInstance, depth: int = 1) -> str:
    """Deterministic SVG: unit square, shaded digit cubes to the given
    depth, projection lines through every integer-interval endpoint, and
    interval labels."""
    if inst.l != 2:
        raise NotPlanar("render requires l=2")
    if depth < 0:
        raise OutOfRange("depth must be >= 0")
    # the depth cap comes first, so the cube count is never a huge power
    if depth > _RENDER_DEPTH_CAP:
        raise TooLarge(f"render depth must be <= {_RENDER_DEPTH_CAP}, got {depth}")
    if inst.cube_count**depth > _RENDER_CUBE_CAP:
        raise TooLarge(f"depth {depth} renders more than {_RENDER_CUBE_CAP} cubes")
    m1, m2 = inst.coefficients
    n = inst.n
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CANVAS}" height="{_CANVAS}" '
        f'viewBox="0 0 {_CANVAS} {_CANVAS}">',
        f'<rect width="{_CANVAS}" height="{_CANVAS}" fill="white"/>',
    ]

    def rect(y1, y2, side):
        x, y = _to_canvas(float(y1), float(y2 + side))
        w = float(side) * _SIDE
        parts.append(
            f'<rect class="cube" x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" '
            f'height="{w:.2f}" fill="#7a7abf" fill-opacity="0.45"/>'
        )

    def chains(level):
        if level == 0:
            yield (Fraction(0), Fraction(0))
            return
        for a, b in chains(level - 1):
            for d1 in inst.digit_sets[0]:
                for d2 in inst.digit_sets[1]:
                    yield (
                        a + Fraction(d1, n**level),
                        b + Fraction(d2, n**level),
                    )

    if depth > 0:
        side = Fraction(1, n**depth)
        for a, b in sorted(chains(depth)):
            rect(a, b, side)

    x0, y0 = _to_canvas(0.0, 1.0)
    parts.append(
        f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{_SIDE:.2f}" height="{_SIDE:.2f}" '
        f'fill="none" stroke="black" stroke-width="1.5"/>'
    )

    lo, hi = inst.n * inst.proj_min, inst.n * inst.proj_max
    for u in range(lo, hi + 1):
        seg = _clip_line(m1, m2, Fraction(u, n))
        if seg is None:
            continue
        (a1, a2), (b1, b2) = seg
        xa, ya = _to_canvas(float(a1), float(a2))
        xb, yb = _to_canvas(float(b1), float(b2))
        heavy = u % n == 0
        parts.append(
            f'<line class="proj" x1="{xa:.2f}" y1="{ya:.2f}" x2="{xb:.2f}" y2="{yb:.2f}" '
            f'stroke="{"#c03030" if heavy else "#404040"}" '
            f'stroke-width="{1.6 if heavy else 0.7}"/>'
        )
    for u in range(lo, hi):
        seg = _clip_line(m1, m2, Fraction(2 * u + 1, 2 * n))
        if seg is None:
            continue
        (a1, a2), (b1, b2) = seg
        mx, my = _to_canvas(float((a1 + b1) / 2), float((a2 + b2) / 2))
        parts.append(
            f'<text class="interval-label" x="{mx:.2f}" y="{my:.2f}" font-size="13" '
            f'text-anchor="middle" fill="#202020">I{u - lo}</text>'
        )
    for t in range(inst.proj_min, inst.proj_max):
        seg = _clip_line(m1, m2, Fraction(2 * t + 1, 2))
        if seg is None:
            continue
        (a1, a2), (b1, b2) = seg
        mx, my = _to_canvas(float((a1 + b1) / 2), float((a2 + b2) / 2))
        parts.append(
            f'<text class="working-label" x="{mx + 18:.2f}" y="{my - 18:.2f}" '
            f'font-size="16" font-weight="bold" text-anchor="middle" '
            f'fill="#c03030">J{t}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
