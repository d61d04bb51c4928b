"""Planar primitives: points, directions, closed polygonal tours, hulls, widths.

Everything here is a pure function over immutable values.  Tours carry a
canonical arclength parametrization starting at their first vertex, so a
parameter difference equals the distance travelled along the curve.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Union


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"point coordinates must be finite, got ({self.x}, {self.y})")

    def distance_to(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


PointInput = Union[Point, tuple]


def _as_points(points: Iterable[PointInput]) -> tuple[Point, ...]:
    """The points as a tuple of Points; (x, y) pairs are converted."""
    return tuple(p if isinstance(p, Point) else Point(p[0], p[1]) for p in points)


def _unit_scale(size: float) -> float:
    """The power of two that brings ``size`` into [0.5, 1).

    Multiplying by a power of two is exact outside the subnormal range, so
    arithmetic on scaled values gives the scaled result to the bit, while
    products of size-sized values neither overflow nor underflow.
    """
    return math.ldexp(1.0, min(-math.frexp(size)[1], 1023))


@dataclass(frozen=True)
class Direction:
    """An undirected planar direction, stored as an angle in [0, pi)."""

    theta: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.theta):
            raise ValueError("direction angle must be finite")
        object.__setattr__(self, "theta", self.theta % math.pi)

    @property
    def unit(self) -> tuple[float, float]:
        return (math.cos(self.theta), math.sin(self.theta))

    def orthogonal(self) -> "Direction":
        return Direction(self.theta + math.pi / 2.0)


@dataclass(frozen=True)
class ClosedTour:
    """A closed polygonal curve traversed cyclically through its vertices.

    The parametrization starts at ``vertices[0]`` and follows the stored
    vertex order; ``point_at(t)`` walks ``t`` length units along the curve.
    A tour whose length overflows the float range is rejected.
    """

    vertices: tuple[Point, ...]
    length: float = field(init=False, compare=False)
    _cum: tuple[float, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        verts = _as_points(self.vertices)
        if not verts:
            raise ValueError("a closed tour needs at least one vertex")
        cum = [0.0]
        for i, a in enumerate(verts):
            b = verts[(i + 1) % len(verts)]
            cum.append(cum[-1] + a.distance_to(b))
        if not math.isfinite(cum[-1]):
            raise ValueError("the tour's length overflows the float range")
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "length", cum[-1])
        object.__setattr__(self, "_cum", tuple(cum))

    @property
    def vertex_arclengths(self) -> tuple[float, ...]:
        """Arclength position of each vertex, in traversal order."""
        return self._cum[:-1]

    def point_at(self, t: float) -> Point:
        """The point at arclength ``t`` (taken modulo the tour length)."""
        if self.length == 0.0:
            raise ValueError("point_at is undefined on a zero-length tour")
        t = t % self.length
        i = min(bisect_right(self._cum, t) - 1, len(self.vertices) - 1)
        return Point(*self._on_edge(i, t))

    def _on_edge(self, i: int, t: float) -> tuple[float, float]:
        """Coordinates at arclength ``t`` on edge ``i``, the edge that
        ``point_at`` picks for ``t``; a zero-length edge gives its start."""
        a = self.vertices[i]
        seg = self._cum[i + 1] - self._cum[i]
        if seg == 0.0:
            return a.x, a.y
        b = self.vertices[(i + 1) % len(self.vertices)]
        f = (t - self._cum[i]) / seg
        return a.x + f * (b.x - a.x), a.y + f * (b.y - a.y)

    def subcurve(self, t1: float, t2: float) -> tuple[Point, ...]:
        """The points of the open path from arclength ``t1`` forward to ``t2``.

        Its arclength is ``(t2 - t1) mod length``; a zero span yields a
        single point.
        """
        if self.length == 0.0:
            raise ValueError("subcurve is undefined on a zero-length tour")
        start = t1 % self.length
        span = (t2 - t1) % self.length
        first = self.point_at(start)
        if span == 0.0:
            return (first,)
        interior = []
        for idx, s in enumerate(self._cum[:-1]):
            rel = (s - start) % self.length
            if 0.0 < rel < span:
                interior.append((rel, idx))
        interior.sort()
        pts = [first] + [self.vertices[idx] for _, idx in interior] + [self.point_at(start + span)]
        return tuple(pts)

    def arclength_of(self, pt: Point, tol: float) -> float:
        """Smallest arclength at which ``pt`` lies on the curve, within ``tol``.

        Raises ValueError when the point is farther than ``tol`` from every
        edge.
        """
        m = len(self.vertices)
        # one factor of each quadratic term is scaled to the tour's size, so
        # the dot product and seg^2 neither overflow nor underflow
        s = _unit_scale(self.length)
        for i in range(m):
            a = self.vertices[i]
            b = self.vertices[(i + 1) % m]
            seg = self._cum[i + 1] - self._cum[i]
            if seg == 0.0:
                if pt.distance_to(a) <= tol:
                    return self._cum[i]
                continue
            ax, ay = (pt.x - a.x) * s, (pt.y - a.y) * s
            bx, by = b.x - a.x, b.y - a.y
            f = (ax * bx + ay * by) / (seg * s * seg)
            f = 0.0 if f < 0.0 else (1.0 if f > 1.0 else f)
            cx, cy = a.x + f * bx, a.y + f * by
            if math.hypot(pt.x - cx, pt.y - cy) <= tol:
                return self._cum[i] + f * seg
        raise ValueError(f"point ({pt.x}, {pt.y}) does not lie on the tour")


@dataclass(frozen=True)
class Diagonal:
    """A straight segment between two points of a closed tour."""

    p: Point
    q: Point
    t_p: float
    t_q: float

    @property
    def length(self) -> float:
        return self.p.distance_to(self.q)


def convex_hull(points: Iterable[PointInput]) -> tuple[Point, ...]:
    """Convex hull vertices in counterclockwise order, strictly convex.

    Duplicate points are dropped.  Collinear input reduces to the two
    extreme points; a single point is returned as is.  The turn tests run
    on the coordinates scaled to the bounding box's size, so their cross
    products neither overflow nor underflow.
    """
    pts = sorted(set((p.x, p.y) for p in _as_points(points)))
    if not pts:
        raise ValueError("need at least one point")
    if len(pts) <= 2:
        return tuple(Point(x, y) for x, y in pts)
    dx = pts[-1][0] - pts[0][0]
    ys = [y for _, y in pts]
    dy = max(ys) - min(ys)
    s = _unit_scale(max(dx, dy))
    eps = 1e-12 * math.hypot(dx * s, dy * s)
    # (scaled x, scaled y, x, y): the chain turns on the first pair
    chain = [(x * s, y * s, x, y) for x, y in pts]

    def monotone(seq) -> list[tuple]:
        """One half of the monotone chain: pop while o, a, p does not turn left."""
        out: list[tuple] = []
        for p in seq:
            px, py = p[0], p[1]
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                if (a[0] - o[0]) * (py - o[1]) - (a[1] - o[1]) * (px - o[0]) <= eps:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = monotone(chain)
    upper = monotone(reversed(chain))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 2:
        # all points collinear after tolerance pruning
        hull = [chain[0], chain[-1]]
    return tuple(Point(p[2], p[3]) for p in hull)


def min_width(obj: Union[ClosedTour, Iterable[PointInput]]) -> tuple[float, Direction]:
    """Minimum width over all directions, with an achieving direction.

    The minimum of a convex polygon is attained with a support line flush
    with one of its edges, so only edge-normal directions are examined.
    Rotating calipers (Toussaint 1983) find each edge's farthest vertex
    with a pointer that goes round the hull once, so the cost after the
    hull is O(h).  Each edge's width is max - min of the projections of its
    endpoints, the far vertex and their neighbours; the neighbours cover
    extremes that rounding moves by one vertex, so the result is the same
    to the bit as projecting every hull vertex.
    """
    hull = convex_hull(obj.vertices if isinstance(obj, ClosedTour) else obj)
    h = len(hull)
    if h == 1:
        return 0.0, Direction(0.0)
    if h == 2:
        a, b = hull
        along = Direction(math.atan2(b.y - a.y, b.x - a.x))
        return 0.0, along.orthogonal()
    xs = [p.x for p in hull]
    ys = [p.y for p in hull]
    pi, half_pi = math.pi, math.pi / 2.0
    best_w = math.inf
    best_theta = 0.0
    j = 1
    for i in range(h):
        i1 = (i + 1) % h
        # the angle of Direction(atan2(...)).orthogonal(), without the objects
        theta = (math.atan2(ys[i1] - ys[i], xs[i1] - xs[i]) % pi + half_pi) % pi
        ux, uy = math.cos(theta), math.sin(theta)
        base = xs[i] * ux + ys[i] * uy
        # Distance from edge i's line is unimodal around a convex hull, and
        # its peak never moves backwards as i advances.
        j = max(j, i + 1)
        far_proj = xs[j % h] * ux + ys[j % h] * uy
        far = abs(far_proj - base)
        while True:
            next_proj = xs[(j + 1) % h] * ux + ys[(j + 1) % h] * uy
            d = abs(next_proj - base)
            if d <= far:
                break
            far_proj, far = next_proj, d
            j += 1
        # max - min over edge i's endpoints, the far vertex j and their
        # neighbours; reusing base and the far projections is exact
        before = xs[i - 1] * ux + ys[i - 1] * uy
        end = xs[i1] * ux + ys[i1] * uy
        after = xs[(i + 2) % h] * ux + ys[(i + 2) % h] * uy
        near = xs[(j - 1) % h] * ux + ys[(j - 1) % h] * uy
        w = max(before, base, end, after, near, far_proj, next_proj) - min(
            before, base, end, after, near, far_proj, next_proj
        )
        if w < best_w:
            best_w = w
            best_theta = theta
    return best_w, Direction(best_theta)
