"""Short-diagonal tour splitting with guaranteed worst-case ratios.

A closed tour can always be cut at two points a prescribed arclength apart
by a diagonal no longer than length/pi: project onto the hull's minimum
width direction and scan the resulting piecewise-linear function for a
root.  Splitting recursively along a precomputed plan bounds the longest
piece by a ratio g(k) of the original length, and pairing those ratios
with the circle-limit lower bounds reproduces the k = 1..10 bounds table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence, Union

from .circle import circle_limit_ratio
from .exact import Instance, Partition, SolveResult
from .geometry import ClosedTour, Diagonal, Point, _as_points, _unit_scale, min_width

INV_PI = 1.0 / math.pi

# Candidate decompositions within this of each other are treated as equal,
# keeping the product label on exact mathematical ties.
_TIE_TOL = 1e-12


class ChordSearchError(RuntimeError):
    """No chord root was found; this contradicts the existence guarantee."""


def chord_at_arclength(tour: ClosedTour, x: float, u: tuple[float, float]) -> float:
    """Smallest t where the chord from c(t) to c(t+x) is orthogonal to u.

    The projection f(t) = (c(t+x) - c(t)) . u is piecewise linear with
    breakpoints where either endpoint crosses a tour vertex, so roots are
    found by scanning breakpoints for sign changes and interpolating.  The
    scan works on f scaled to the tour's length, so neither the sign test
    nor the interpolation overflows or underflows.
    """
    ell = tour.length
    if ell <= 0.0:
        raise ValueError("chord search needs a tour of positive length")
    if not 0.0 < x < ell:
        raise ValueError(f"arclength offset must be in (0, {ell}), got {x}")
    ux, uy = u
    norm = math.hypot(ux, uy)
    if norm == 0.0:
        raise ValueError("projection vector must be nonzero")
    ux, uy = ux / norm, uy / norm

    def f(t: float) -> float:
        p = tour.point_at(t)
        q = tour.point_at(t + x)
        return (q.x - p.x) * ux + (q.y - p.y) * uy

    breaks = sorted(
        {s % ell for s in tour.vertex_arclengths}
        | {(s - x) % ell for s in tour.vertex_arclengths}
    )
    s = _unit_scale(ell)
    # f at each break, as point_at would give it: two edge pointers walk the
    # cumulative lengths forward, and move back only where t + x wraps past
    # the tour's start (or b rounds up to ell).
    cum = tour._cum
    last = len(tour.vertices) - 1
    on_edge = tour._on_edge
    values = []
    i = j = 0
    for b in breaks:
        tp = b % ell
        tq = (b + x) % ell
        if tp < cum[i]:
            i = 0
        while i < last and cum[i + 1] <= tp:
            i += 1
        if tq < cum[j]:
            j = 0
        while j < last and cum[j + 1] <= tq:
            j += 1
        px, py = on_edge(i, tp)
        qx, qy = on_edge(j, tq)
        values.append(((qx - px) * ux + (qy - py) * uy) * s)
    zero_tol = 1e-12 * ell * s
    roots = []
    m = len(breaks)
    for i in range(m):
        f0 = values[i]
        if abs(f0) <= zero_tol:
            roots.append(breaks[i])
            continue
        b1 = breaks[(i + 1) % m]
        f1 = values[(i + 1) % m]
        if i + 1 == m:
            b1 += ell
        if f0 * f1 < 0.0:
            roots.append(breaks[i] + (b1 - breaks[i]) * f0 / (f0 - f1))
    if not roots:
        raise ChordSearchError("no sign change found in the chord projection")
    t = min(r % ell for r in roots)
    if abs(f(t)) > 1e-9 * ell:
        raise ChordSearchError(f"chord root residual too large: {f(t)}")
    return t


def short_diagonal(tour: ClosedTour, x: float) -> Diagonal:
    """A diagonal cutting off arclength ``x``, no longer than length/pi.

    The chord is taken parallel to the minimum-width direction of the
    tour's hull, so its length is bounded by that width.
    """
    _, direction = min_width(tour)
    t = chord_at_arclength(tour, x, direction.orthogonal().unit)
    t_q = (t + x) % tour.length
    return Diagonal(p=tour.point_at(t), q=tour.point_at(t_q), t_p=t, t_q=t_q)


@dataclass(frozen=True)
class SplitResult:
    """Two sub-tours sharing a diagonal, with the input points divided."""

    diagonal: Diagonal
    tour1: ClosedTour
    tour2: ClosedTour
    points1: tuple[Point, ...]
    points2: tuple[Point, ...]


def assign_points(
    tour: ClosedTour, diagonal: Diagonal, points: Iterable[Point]
) -> tuple[tuple[Point, ...], tuple[Point, ...]]:
    """Divide points by which side of the diagonal's cut they lie on.

    A point at arclength s joins the first side when s is in [t_p, t_q)
    cyclically, so a point at the cut start goes left and one at the cut
    end goes right.  A point equal to a tour vertex reads its arclength by
    index, at the vertex's first occurrence; any other point falls back to
    ``ClosedTour.arclength_of``, so it must lie on the tour within 1e-9 of
    its length.
    """
    ell = tour.length
    if ell <= 0.0:
        raise ValueError("point assignment needs a tour of positive length")
    tol = 1e-9 * ell
    span = (diagonal.t_q - diagonal.t_p) % ell
    arclengths = tour.vertex_arclengths
    index: dict[Point, int] = {}
    for i, v in enumerate(tour.vertices):
        index.setdefault(v, i)
    first: list[Point] = []
    second: list[Point] = []
    for pt in points:
        i = index.get(pt)
        s = arclengths[i] if i is not None else tour.arclength_of(pt, tol)
        rel = (s - diagonal.t_p) % ell
        (first if rel < span else second).append(pt)
    return tuple(first), tuple(second)


def split_tour(
    tour: ClosedTour, points: Union[Instance, Iterable[Point]], fraction: float
) -> SplitResult:
    """Split so the first side carries ``fraction`` of the tour's arclength."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"split fraction must be in (0, 1), got {fraction}")
    diagonal = short_diagonal(tour, fraction * tour.length)
    # closing edge of each sub-tour is exactly the shared diagonal
    tour1 = ClosedTour(tour.subcurve(diagonal.t_p, diagonal.t_q))
    tour2 = ClosedTour(tour.subcurve(diagonal.t_q, diagonal.t_p))
    pts = points.points if isinstance(points, Instance) else _as_points(points)
    points1, points2 = assign_points(tour, diagonal, pts)
    return SplitResult(diagonal, tour1, tour2, points1, points2)


def halve_tour(
    tour: ClosedTour, points: Union[Instance, Iterable[Point]]
) -> SplitResult:
    """Split at antipodal arclengths; both halves are at most (1/2 + 1/pi) of the tour."""
    return split_tour(tour, points, 0.5)


def equalizing_fraction(ratio_a: float, ratio_b: float) -> float:
    """The cut fraction balancing both sides' guaranteed ratios.

    Solves (x + 1/pi) * ratio_a = (1 - x + 1/pi) * ratio_b for x; plugging
    the result back gives (1 + 2/pi) * ra * rb / (ra + rb) on both sides.
    The balance point only lies inside (0, 1) when the ratios are within a
    factor pi + 1 of each other; lopsided pairs are rejected since no cut
    fraction can equalize them.
    """
    if not 0.0 < ratio_a <= 1.0 or not 0.0 < ratio_b <= 1.0:
        raise ValueError("ratios must lie in (0, 1]")
    total = ratio_a + ratio_b
    x = ratio_b / total + (ratio_b - ratio_a) / (math.pi * total)
    if not 0.0 < x < 1.0:
        raise ValueError(
            f"ratios {ratio_a} and {ratio_b} are too lopsided to balance with a cut"
        )
    return x


@dataclass(frozen=True)
class PlanNode:
    """One node of a binary split plan covering ``size`` salespeople."""

    size: int
    ratio: float
    left: Optional["PlanNode"] = None
    right: Optional["PlanNode"] = None
    fraction: Optional[float] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _combine(left: PlanNode, right: PlanNode) -> PlanNode:
    x = equalizing_fraction(left.ratio, right.ratio)
    ratio = max((x + INV_PI) * left.ratio, (1.0 - x + INV_PI) * right.ratio)
    return PlanNode(left.size + right.size, ratio, left, right, x)


def _graft(outer: PlanNode, inner: PlanNode) -> PlanNode:
    """Replace every leaf of ``outer`` with ``inner``, rebalancing fractions."""
    if outer.is_leaf:
        return inner
    return _combine(_graft(outer.left, inner), _graft(outer.right, inner))


@dataclass(frozen=True)
class SplitPlan:
    """A binary splitting recipe for k salespeople with guaranteed ratio."""

    root: PlanNode
    decomposition: str

    @property
    def k(self) -> int:
        return self.root.size

    @property
    def ratio(self) -> float:
        return self.root.ratio


@lru_cache(maxsize=None)
def _plan(k: int) -> tuple[PlanNode, str]:
    if k == 1:
        return PlanNode(1, 1.0), "trivial"
    best: Optional[tuple[PlanNode, str]] = None
    for a in range(2, k):
        if k % a == 0 and a <= k // a:
            cand = _graft(_plan(a)[0], _plan(k // a)[0])
            if best is None or cand.ratio < best[0].ratio - _TIE_TOL:
                best = (cand, f"{a}*{k // a}")
    for a in range(1, k // 2 + 1):
        try:
            cand = _combine(_plan(a)[0], _plan(k - a)[0])
        except ValueError:
            # unbalanceable pair: a near-balanced alternative always beats it
            continue
        if best is None or cand.ratio < best[0].ratio - _TIE_TOL:
            best = (cand, f"{a}+{k - a}")
    assert best is not None
    return best


def split_plan(k: int) -> SplitPlan:
    """Best known splitting recipe for ``k``: sum and product rules combined.

    Sum decompositions a+b cost (1 + 2/pi) * g(a)g(b) / (g(a)+g(b)); product
    decompositions a*b cost g(a)g(b).  When both achieve the minimum the
    product label is reported.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    # _plan(k) recurses through _plan(k - 1); filling the cache bottom-up
    # keeps that recursion one level deep for any k.
    for j in range(1, k):
        _plan(j)
    node, label = _plan(k)
    return SplitPlan(node, label)


@dataclass(frozen=True)
class BoundsRow:
    """One line of the worst-case ratio bounds table."""

    k: int
    lower: float
    upper: float
    decomposition: str


def bounds_table(k_max: int) -> list[BoundsRow]:
    """Lower and upper bounds on the worst-case k-way ratio for k = 1..k_max."""
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    rows = []
    for k in range(1, k_max + 1):
        plan = split_plan(k)
        rows.append(BoundsRow(k, circle_limit_ratio(k), plan.ratio, plan.decomposition))
    return rows


def guaranteed_partition(
    points: Union[Instance, Sequence[Point]],
    tour: ClosedTour,
    k: int,
) -> SolveResult:
    """Split a tour of the points into k pieces within g(k) of its length.

    Each piece keeps the sub-tour the recursive splitting cut for it, which
    is what the guarantee is proved for.  Leaves that receive no points are
    dropped from the result, so a zero-length tour (a single point) stays
    one block.
    """
    instance = points if isinstance(points, Instance) else Instance.from_points(points)
    plan = split_plan(k)
    if tour.length == 0.0:
        return SolveResult(Partition((instance.points,)), (tour,), 0.0)
    leaves: list[tuple[tuple[Point, ...], ClosedTour]] = []
    diagonals: list[Diagonal] = []

    def descend(node: PlanNode, node_tour: ClosedTour, pts: tuple[Point, ...]) -> None:
        if node.is_leaf:
            leaves.append((pts, node_tour))
            return
        result = split_tour(node_tour, pts, node.fraction)
        diagonals.append(result.diagonal)
        descend(node.left, result.tour1, result.points1)
        descend(node.right, result.tour2, result.points2)

    descend(plan.root, tour, instance.points)
    kept = [(pts, t) for pts, t in leaves if pts]
    blocks = tuple(pts for pts, _ in kept)
    tours = tuple(t for _, t in kept)
    return SolveResult(
        partition=Partition(blocks),
        tours=tours,
        value=max(t.length for t in tours),
        diagonals=tuple(diagonals),
    )
