"""Regularly spaced points on the unit circle and their exact tour formulas.

Consecutive arcs are the cheapest subsets of a regular circle point set,
which makes balanced arc partitions optimal and yields the closed-form
lower-bound family used by the bounds table.  The checks here verify those
claims exhaustively at small sizes instead of assuming them.

Indices are 1-based at the API boundary (``p_1 .. p_n``); bitmask positions
are 0-based internally.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import sub
from typing import NamedTuple

from .exact import Instance, _capped, speedup_ratio
from .geometry import Point

# How far a subset may beat its arc, or a gap fill raise a tour value,
# before an exhaustive check fails: the rounding of the exact solvers.
CHECK_TOL = 1e-9


class VerificationError(Exception):
    """An exhaustive optimality check failed."""


def circle_points(n: int) -> Instance:
    """``n`` points equally spaced on the unit circle, p_i at angle 2*pi*i/n."""
    if n < 2:
        raise ValueError(f"need at least 2 circle points, got {n}")
    angles = (2.0 * math.pi * i / n for i in range(1, n + 1))
    return Instance(tuple(Point(math.cos(a), math.sin(a)) for a in angles))


def arc_tour_length(n: int, m: int) -> float:
    """Optimal tour length of ``m`` consecutive points of the n-point circle.

    Closed form: walk the arc along its m-1 unit chords and return along the
    spanning chord.  Specializes to the full polygon at m = n.
    """
    if not 1 <= m <= n:
        raise ValueError(f"arc size must be in 1..{n}, got {m}")
    if m == 1:
        return 0.0
    return (m - 1) * 2.0 * math.sin(math.pi / n) + 2.0 * math.sin(math.pi * (m - 1) / n)


def circle_limit_ratio(k: int) -> float:
    """Limit of the balanced k-way circle ratio as the point count grows."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return 1.0 / k + math.sin(math.pi / k) / math.pi


@lru_cache(maxsize=None)
def _subset_values(n: int) -> list[float]:
    """Optimal tour length of every subset of the n-circle, by bitmask.

    Each value is the perimeter of the subset's polygon.  Circle points are
    in convex position and no three are collinear, so two crossing edges of
    a tour can always be uncrossed into a strictly shorter tour, and an
    optimal tour has no crossing.  The only crossing-free tour through
    points in convex position is their polygon: any other order has an edge
    with members on both sides, and the tour must cross it to reach both.
    Bit b is p_(b+1), at angle 2*pi*(b+1)/n, so the polygon visits the
    members in ascending bit order.  The polygon of a mask is then that of
    the mask less its top point t, with the closing edge hi -> lo, from that
    mask's top point to its lowest, replaced by hi -> t -> lo.  One or two
    points make the tours of length 0 and 2*d.

    Floats: each point adds three rounded operations on sums below 2*pi,
    and the Held-Karp table adds the same chords in another order, so the
    two tables differ by under 1e-13 at 18 points (measured: at most
    4.5e-15, or 7.5e-16 relative), far inside ``CHECK_TOL``.
    """
    dist = circle_points(_capped(n)).distance_matrix()
    values = [0.0]  # the empty mask
    lows = [0]  # each mask's lowest point; the empty mask has none
    for top in range(n):  # the masks 2^top + rest, for every rest below 2^top
        to_top = dist[top * n:(top + 1) * n]
        values.append(0.0)  # the single point
        for hi in range(top):  # the rests whose top point is hi
            rests = slice(1 << hi, 2 << hi)
            from_hi = dist[hi * n:(hi + 1) * n]
            hi_top = from_hi[top]
            values += [
                v - from_hi[lo] + hi_top + to_top[lo] for v, lo in zip(values[rests], lows[rests])
            ]
        lows += [top] + lows[1:1 << top]
    return values


def _indices_of(mask: int, n: int) -> tuple[int, ...]:
    return tuple(i for i in range(1, n + 1) if (mask >> (i - 1)) & 1)


class ArcOptimalityReport(NamedTuple):
    """Outcome of checking one arc against every same-size subset."""

    n: int
    m: int
    arc_value: float
    min_value: float
    min_subset: tuple[int, ...]
    subsets_checked: int


def verify_arc_optimality(n: int, m: int) -> ArcOptimalityReport:
    """Check that the leading arc is a cheapest m-subset of the n-circle.

    Reads every m-subset's exact tour value, in ascending mask order, and
    raises VerificationError if any beats the arc by more than
    ``CHECK_TOL``.  The report names the first strict minimum.
    """
    if not 1 <= m <= n:
        raise ValueError(f"arc size must be in 1..{n}, got {m}")
    values = _subset_values(n)
    arc_mask = mask = (1 << m) - 1
    arc_value = values[arc_mask]
    min_value = math.inf
    min_mask = arc_mask
    while mask < 1 << n:
        v = values[mask]
        if v < min_value:
            min_value = v
            min_mask = mask
        # the next larger mask of m points (Gosper's rule)
        low = mask & -mask
        carry = mask + low
        mask = carry | ((carry ^ mask) >> 2) // low
    if arc_value > min_value + CHECK_TOL:
        raise VerificationError(
            f"subset {_indices_of(min_mask, n)} of the {n}-circle beats the "
            f"{m}-arc: {min_value} < {arc_value}"
        )
    return ArcOptimalityReport(
        n=n,
        m=m,
        arc_value=arc_value,
        min_value=min_value,
        min_subset=_indices_of(min_mask, n),
        subsets_checked=math.comb(n, m),
    )


def verify_gap_fill_monotonicity(n: int) -> int:
    """Exhaustively check that every valid gap-fill move never costs tour length.

    Runs over all subsets of the n-circle and all valid (i, j) pairs; raises
    VerificationError on any move that increases the exact tour value by
    more than ``CHECK_TOL``, naming the first in order of subset mask, then
    i.  Returns the number of moves checked.

    The moves are checked by class (i, gap): the subsets that hold p_i and
    its next member j = i + gap, none of the points between them and any of
    the rest.  Every move of a class trades j for p_i's successor.
    """
    values = _subset_values(n)
    get = values.__getitem__
    moves = 0
    costly = []  # (mask, i, j, delta) of every move that raised a value
    for i in range(n):  # bit i is p_(i+1)
        for gap in range(2, n):
            j = (i + gap) % n
            olds = [1 << i | 1 << j]
            news = [1 << i | 1 << (i + 1) % n]
            for offset in range(gap + 1, n):  # the rest, each in or out
                bit = 1 << (i + offset) % n
                olds += [mask | bit for mask in olds]
                news += [mask | bit for mask in news]
            moves += len(olds)
            if min(map(sub, map(get, olds), map(get, news))) < -CHECK_TOL:
                for mask, new_mask in zip(olds, news):
                    delta = values[mask] - values[new_mask]
                    if delta < -CHECK_TOL:
                        costly.append((mask, i + 1, j + 1, delta))
    if costly:
        mask, i, j, delta = min(costly)
        raise VerificationError(
            f"gap fill on subset {_indices_of(mask, n)} of the {n}-circle (i={i}, j={j}) "
            f"increased the tour value by {-delta}"
        )
    return moves


def circle_ratio(n: int, k: int) -> float:
    """k-way speedup ratio of the regular n-point circle.

    Uses the balanced-arc closed form when k divides n, otherwise
    ``speedup_ratio`` of the circle points, capped before any is built.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if n < 2:
        raise ValueError(f"need at least 2 circle points, got {n}")
    if n % k == 0:
        return arc_tour_length(n, n // k) / arc_tour_length(n, n)
    return speedup_ratio(circle_points(_capped(n)), k)
