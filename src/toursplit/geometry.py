"""Planar primitives: points, directions, closed polygonal tours, hulls, widths.

Everything here is a pure function over immutable values.  Tours carry a
canonical arclength parametrization starting at their first vertex, so a
parameter difference equals the distance travelled along the curve.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate
from operator import itemgetter, sub
from typing import Iterable, NamedTuple, Optional, Sequence, Union


def _checked_make(cls, fields):
    """``_make`` for a record whose ``__new__`` checks its fields, so that
    ``_make`` and ``_replace`` check them too."""
    return cls(*fields)


class _Frozen:
    """Base of the ``__slots__`` records: their fields are read-only."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class _PointFields(NamedTuple):
    x: float
    y: float


class Point(_PointFields):
    """A planar point with finite coordinates, the tuple ``(x, y)``."""

    __slots__ = ()

    def __new__(cls, x: float, y: float) -> "Point":
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"point coordinates must be finite, got ({x}, {y})")
        return tuple.__new__(cls, (x, y))

    _make = classmethod(_checked_make)

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


class _DirectionFields(NamedTuple):
    theta: float


class Direction(_DirectionFields):
    """An undirected planar direction, stored as an angle in [0, pi)."""

    __slots__ = ()

    def __new__(cls, theta: float) -> "Direction":
        if not math.isfinite(theta):
            raise ValueError("direction angle must be finite")
        return tuple.__new__(cls, (theta % math.pi,))

    _make = classmethod(_checked_make)

    @property
    def unit(self) -> tuple[float, float]:
        return (math.cos(self.theta), math.sin(self.theta))

    def orthogonal(self) -> "Direction":
        return Direction(self.theta + math.pi / 2.0)


def _cumulative(xs: Sequence[float], ys: Sequence[float]) -> list[float]:
    """Arclength at each vertex of a closed coordinate list, then the length.

    ``xs`` and ``ys`` repeat the first vertex at the end, so entry ``i`` and
    ``i + 1`` bound edge ``i``.  A length that overflows the float range is
    rejected.
    """
    edges = map(math.hypot, map(sub, xs, xs[1:]), map(sub, ys, ys[1:]))
    cum = list(accumulate(edges, initial=0.0))
    if not math.isfinite(cum[-1]):
        raise ValueError("the tour's length overflows the float range")
    return cum


def _point_at(
    xs: Sequence[float], ys: Sequence[float], cum: Sequence[float], t: float
) -> tuple[float, float]:
    """Coordinates at arclength ``t`` (modulo the length) on a closed curve
    of positive length; a zero-length edge gives its start."""
    t = t % cum[-1]
    i = min(bisect_right(cum, t) - 1, len(cum) - 2)
    seg = cum[i + 1] - cum[i]
    if seg == 0.0:
        return xs[i], ys[i]
    f = (t - cum[i]) / seg
    return xs[i] + f * (xs[i + 1] - xs[i]), ys[i] + f * (ys[i + 1] - ys[i])


def _subpath(
    xs: Sequence[float], ys: Sequence[float], cum: Sequence[float], t1: float, t2: float
) -> tuple[tuple[float, float], list[int], list[int], Optional[tuple[float, float]]]:
    """The open path from arclength ``t1`` forward to ``t2`` on a closed curve
    of positive length: its start, the indices of the vertices that are the
    start (at its arclength and coordinates), the indices of the other
    vertices in [t1, t2) in path order, and its end (None when the span is
    zero).  A vertex at the start's arclength but not at its coordinates,
    past an edge shorter than an ulp of the arclength, comes first."""
    ell = cum[-1]
    start = t1 % ell
    span = (t2 - t1) % ell
    first = _point_at(xs, ys, cum, start)
    if span == 0.0:
        return first, [], [], None
    rel = [(s - start) % ell for s in cum[:-1]]
    starts, inside = [], []
    for i, r in enumerate(rel):
        if r < span:
            (starts if r == 0.0 and (xs[i], ys[i]) == first else inside).append(i)
    # a stable sort by rel keeps ties in index order
    inside.sort(key=rel.__getitem__)
    return first, starts, inside, _point_at(xs, ys, cum, start + span)


class ClosedTour(_Frozen):
    """A closed polygonal curve traversed cyclically through its vertices.

    The parametrization starts at ``vertices[0]`` and follows the stored
    vertex order; ``point_at(t)`` walks ``t`` length units along the curve.
    A tour whose length overflows the float range is rejected.  Tours
    compare and hash by their vertices alone.
    """

    # _cum holds the arclength at each vertex, then the length; _xs and _ys
    # the vertex coordinates with the first vertex repeated at the end
    __slots__ = ("vertices", "length", "_cum", "_xs", "_ys")

    def __init__(self, vertices: Iterable[PointInput]) -> None:
        verts = _as_points(vertices)
        if not verts:
            raise ValueError("a closed tour needs at least one vertex")
        xs = tuple(p.x for p in verts + verts[:1])
        ys = tuple(p.y for p in verts + verts[:1])
        cum = _cumulative(xs, ys)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "length", cum[-1])
        object.__setattr__(self, "_cum", tuple(cum))
        object.__setattr__(self, "_xs", xs)
        object.__setattr__(self, "_ys", ys)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.vertices == other.vertices
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.vertices,))

    def __repr__(self) -> str:
        return f"ClosedTour(vertices={self.vertices!r}, length={self.length!r})"

    def __reduce__(self):
        return ClosedTour, (self.vertices,)

    def point_at(self, t: float) -> Point:
        """The point at arclength ``t`` (taken modulo the tour length)."""
        if self.length == 0.0:
            raise ValueError("point_at is undefined on a zero-length tour")
        return Point(*_point_at(self._xs, self._ys, self._cum, t))

    def subcurve(self, t1: float, t2: float) -> tuple[Point, ...]:
        """The points of the open path from arclength ``t1`` forward to ``t2``.

        Its arclength is ``(t2 - t1) mod length``; a zero span yields a
        single point.
        """
        if self.length == 0.0:
            raise ValueError("subcurve is undefined on a zero-length tour")
        first, _, inside, last = _subpath(self._xs, self._ys, self._cum, t1, t2)
        if last is None:
            return (Point(*first),)
        return (Point(*first),) + tuple(self.vertices[i] for i in inside) + (Point(*last),)

    def arclength_of(self, pt: Point, tol: float) -> float:
        """Smallest arclength at which ``pt`` lies on the curve, within ``tol``,
        by a scan over every edge.

        Raises ValueError when the point is farther than ``tol`` from every
        edge.
        """
        xs, ys, cum, (px, py) = self._xs, self._ys, self._cum, pt
        # one factor of each quadratic term is scaled to the tour's size, so
        # the dot product and seg^2 neither overflow nor underflow
        s = _unit_scale(cum[-1])
        for i in range(len(cum) - 1):
            ax, ay = xs[i], ys[i]
            seg = cum[i + 1] - cum[i]
            if seg == 0.0:
                if math.hypot(px - ax, py - ay) <= tol:
                    return cum[i]
                continue
            dx, dy = (px - ax) * s, (py - ay) * s
            bx, by = xs[i + 1] - ax, ys[i + 1] - ay
            f = (dx * bx + dy * by) / (seg * s * seg)
            f = 0.0 if f < 0.0 else (1.0 if f > 1.0 else f)
            cx, cy = ax + f * bx, ay + f * by
            if math.hypot(px - cx, py - cy) <= tol:
                return cum[i] + f * seg
        raise ValueError(f"point ({px}, {py}) does not lie on the tour")


class Diagonal(NamedTuple):
    """A straight segment between two points of a closed tour."""

    p: Point
    q: Point
    t_p: float
    t_q: float

    @property
    def length(self) -> float:
        return self.p.distance_to(self.q)


def _hull(pairs: Iterable[tuple[float, float]]) -> list[tuple[float, float]]:
    """Convex hull of coordinate pairs, as ``convex_hull`` describes it."""
    pts = sorted(set(pairs))
    if not pts:
        raise ValueError("need at least one point")
    if len(pts) <= 2:
        return pts
    dx = pts[-1][0] - pts[0][0]
    ys = [y for _, y in pts]
    dy = max(ys) - min(ys)
    s = _unit_scale(max(dx, dy))
    eps = 1e-12 * math.hypot(dx * s, dy * s)
    # The chain runs along the bounding box's longer side, so its two ends,
    # which it always keeps, are the extremes of a sliver that the tolerance
    # flattens.  A stable sort by y keeps ties in x order: (y, x) order.
    if dy > dx:
        pts.sort(key=itemgetter(1))
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
    # both halves keep the chain's ends, so the hull has at least two vertices
    hull = [(p[2], p[3]) for p in lower[:-1] + upper[:-1]]
    if dx >= dy:
        return hull
    i = hull.index(min(hull))  # the lexicographically smallest vertex goes first
    return hull[i:] + hull[:i]


def convex_hull(points: Iterable[PointInput]) -> tuple[Point, ...]:
    """Convex hull vertices in counterclockwise order, strictly convex,
    starting from the lexicographically smallest vertex.

    Duplicate points are dropped.  Collinear input, in any orientation,
    reduces to its two extreme points; a single point is returned as is.
    The turn tests run on the coordinates scaled to the bounding box's
    size, so their cross products neither overflow nor underflow.
    """
    return tuple(Point(x, y) for x, y in _hull((p.x, p.y) for p in _as_points(points)))


def _min_width(pairs: Iterable[tuple[float, float]]) -> tuple[float, float]:
    """Minimum width of coordinate pairs and the angle in [0, pi) of an
    achieving direction, as ``min_width`` describes them."""
    hull = _hull(pairs)
    h = len(hull)
    pi, half_pi = math.pi, math.pi / 2.0
    if h == 1:
        return 0.0, 0.0
    if h == 2:
        (ax, ay), (bx, by) = hull
        # the angle of Direction(atan2(...)).orthogonal(), without the objects
        return 0.0, (math.atan2(by - ay, bx - ax) % pi + half_pi) % pi
    # two rounds of the hull, so index i + h is vertex i again: the far
    # pointer j stays below i + h, where the distance is back to zero
    xs = [x for x, _ in hull] * 2
    ys = [y for _, y in hull] * 2
    atan2, cos, sin = math.atan2, math.cos, math.sin
    best_w = math.inf
    best_theta = 0.0
    j = 1
    for i in range(h):
        x0, y0 = xs[i], ys[i]
        x1, y1 = xs[i + 1], ys[i + 1]
        theta = (atan2(y1 - y0, x1 - x0) % pi + half_pi) % pi
        ux, uy = cos(theta), sin(theta)
        base = x0 * ux + y0 * uy
        # Distance from edge i's line is unimodal around a convex hull, and
        # its peak never moves backwards as i advances.
        if j <= i:
            j = i + 1
        far_proj = xs[j] * ux + ys[j] * uy
        far = abs(far_proj - base)
        while True:
            next_proj = xs[j + 1] * ux + ys[j + 1] * uy
            d = abs(next_proj - base)
            if d <= far:
                break
            far_proj, far = next_proj, d
            j += 1
        # max - min below is at least |far_proj - base| = far, rounding
        # being monotone, so an edge with far >= best_w cannot win
        if far >= best_w:
            continue
        # max - min over edge i's endpoints, the far vertex j and their
        # neighbours; reusing base and the far projections is exact
        before = xs[i - 1] * ux + ys[i - 1] * uy
        end = x1 * ux + y1 * uy
        after = xs[i + 2] * ux + ys[i + 2] * uy
        near = xs[j - 1] * ux + ys[j - 1] * uy
        w = max(before, base, end, after, near, far_proj, next_proj) - min(
            before, base, end, after, near, far_proj, next_proj
        )
        if w < best_w:
            best_w = w
            best_theta = theta
    return best_w, best_theta


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
    if isinstance(obj, ClosedTour):
        pairs = zip(obj._xs, obj._ys)
    else:
        pairs = ((p.x, p.y) for p in _as_points(obj))
    w, theta = _min_width(pairs)
    return w, Direction(theta)
