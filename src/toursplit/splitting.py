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
from functools import lru_cache
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .circle import circle_limit_ratio
from .exact import CapacityError, Instance, Partition, SolveResult
from .geometry import (
    ClosedTour,
    Diagonal,
    Point,
    _cumulative,
    _min_width,
    _point_at,
    _subpath,
    _unit_scale,
)

INV_PI = 1.0 / math.pi

# The largest k that split_plan accepts.  A plan is built in O(log k) steps,
# but `bounds` prints one row per k: at this cap it takes about 0.95 s and
# 74 MB (2-core x86_64, Python 3.11), and three times the cap 2.3 s and
# 190 MB.
MAX_SPLIT_K = 100_000


class ChordSearchError(RuntimeError):
    """A split missed its guarantee: no chord root was found, a piece came
    out longer than g(k) times the tour's length, or a sub-tour that holds
    points rounded to length 0.  Each contradicts the proof, so only
    rounding can cause it."""


def _chord_root(
    xs: Sequence[float],
    ys: Sequence[float],
    cum: Sequence[float],
    x: float,
    u: tuple[float, float],
) -> tuple[float, tuple[float, float], tuple[float, float]]:
    """The chord search of ``chord_at_arclength`` on a closed flat curve
    (``xs``/``ys`` repeat the first vertex, ``cum`` ends with the length).

    Returns the root t and the coordinates at t and at t + x.
    """
    ell = cum[-1]
    if ell <= 0.0:
        raise ValueError("chord search needs a tour of positive length")
    if not 0.0 < x < ell:
        raise ValueError(f"arclength offset must be in (0, {ell}), got {x}")
    ux, uy = u
    norm = math.hypot(ux, uy)
    if norm == 0.0:
        raise ValueError("projection vector must be nonzero")
    ux, uy = ux / norm, uy / norm

    # Breaks where either end crosses a vertex.  A repeated break adds an
    # empty interval, where f takes one value twice and finds no new root,
    # so the list is sorted as built, a few sorted runs, without a set.
    arcs = cum[:-1]
    breaks = [s % ell for s in arcs]
    breaks += [(s - x) % ell for s in arcs]
    breaks.sort()
    s = _unit_scale(ell)
    zero_tol = 1e-12 * ell * s

    def f(t: float) -> float:
        px, py = _point_at(xs, ys, cum, t)
        qx, qy = _point_at(xs, ys, cum, t + x)
        return (qx - px) * ux + (qy - py) * uy

    # The wrap interval [breaks[-1], breaks[0] + ell] goes first: its root,
    # taken mod ell, can be the smallest.
    first, top = breaks[0], breaks[-1]
    f_first, f_top = f(first) * s, f(top) * s
    best = math.inf
    if abs(f_top) <= zero_tol:
        best = top % ell
    elif f_top * f_first < 0.0:
        best = (top + (first + ell - top) * f_top / (f_top - f_first)) % ell
    # Any other root r is at least its interval's start b, since the step
    # added to b is never negative.  It passes the interval's end by a few
    # ulps at most (|f0| > zero_tol bounds the quotient's underflow), so
    # while the last break stays this far below ell, r < ell and r % ell is
    # r: the walk can stop at the first b >= best.
    can_stop = top < ell - (16.0 * math.ulp(ell) + 2.0**-1000)
    # f at each break, as point_at gives it: two edge pointers walk the
    # cumulative lengths forward, and move back only where t + x wraps past
    # the tour's start (or b rounds up to ell).
    last = len(arcs) - 1
    i = j = 0
    b0, f0 = first, f_first
    for b1 in breaks[1:]:
        if b0 >= best and can_stop:
            break
        tp = b1 % ell
        tq = (b1 + x) % ell
        if tp < cum[i]:
            i = 0
        while i < last and cum[i + 1] <= tp:
            i += 1
        if tq < cum[j]:
            j = 0
        while j < last and cum[j + 1] <= tq:
            j += 1
        # tp and tq lie in [0, ell), so now cum[i] <= tp < cum[i + 1] and
        # cum[j] <= tq < cum[j + 1]: neither edge is empty
        w = (tp - cum[i]) / (cum[i + 1] - cum[i])
        px, py = xs[i] + w * (xs[i + 1] - xs[i]), ys[i] + w * (ys[i + 1] - ys[i])
        w = (tq - cum[j]) / (cum[j + 1] - cum[j])
        qx, qy = xs[j] + w * (xs[j + 1] - xs[j]), ys[j] + w * (ys[j + 1] - ys[j])
        f1 = ((qx - px) * ux + (qy - py) * uy) * s
        if abs(f0) <= zero_tol:
            best = min(best, b0 % ell)
        elif f0 * f1 < 0.0:
            best = min(best, (b0 + (b1 - b0) * f0 / (f0 - f1)) % ell)
        b0, f0 = b1, f1
    if best == math.inf:
        raise ChordSearchError("no sign change found in the chord projection")
    t = best
    p = _point_at(xs, ys, cum, t)
    q = _point_at(xs, ys, cum, t + x)
    residual = (q[0] - p[0]) * ux + (q[1] - p[1]) * uy
    if abs(residual) > 1e-9 * ell:
        # Far from the origin the coordinates' rounding outweighs 1e-9 * ell.
        # With M the largest coordinate magnitude, an interpolated coordinate
        # is within 3 ulp(M) of the curve's (a rounding each in the edge's
        # difference, its product with the weight and the sum), so with the
        # roundings of the difference and the dot product a projected chord
        # reads within 16 ulp(M) of its exact value.  That holds here and at
        # the breaks the root was interpolated between, so a true root reads
        # within 32 ulp(M); a missed one reads about the tour's size.
        big = max(map(abs, (*xs, *ys)))
        if abs(residual) > 1e-9 * ell + 32.0 * math.ulp(big):
            raise ChordSearchError(f"chord root residual too large: {residual}")
    return t, p, q


def chord_at_arclength(tour: ClosedTour, x: float, u: tuple[float, float]) -> float:
    """Smallest t where the chord from c(t) to c(t+x) is orthogonal to u.

    The projection f(t) = (c(t+x) - c(t)) . u is piecewise linear with
    breakpoints where either endpoint crosses a tour vertex, so roots are
    found by scanning breakpoints for sign changes and interpolating.  The
    scan works on f scaled to the tour's length, so neither the sign test
    nor the interpolation overflows or underflows, and stops at the first
    breakpoint past the smallest root found.
    """
    return _chord_root(tour._xs, tour._ys, tour._cum, x, u)[0]


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


class PlanNode(NamedTuple):
    """One node of a binary split plan covering ``size`` salespeople.

    ``decomposition`` names the root cut: ``2*h`` for two equal halves of
    size h >= 2, ``a+b`` for any other pair of sizes, ``trivial`` for a leaf.
    """

    size: int
    ratio: float
    left: Optional["PlanNode"] = None
    right: Optional["PlanNode"] = None
    fraction: Optional[float] = None
    decomposition: str = "trivial"

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _combine(left: PlanNode, right: PlanNode) -> PlanNode:
    x = equalizing_fraction(left.ratio, right.ratio)
    ratio = max((x + INV_PI) * left.ratio, (1.0 - x + INV_PI) * right.ratio)
    a, b = left.size, right.size
    label = f"2*{a}" if a == b >= 2 else f"{a}+{b}"
    return PlanNode(a + b, ratio, left, right, x, label)


@lru_cache(maxsize=None)
def _plan(k: int) -> PlanNode:
    if k == 1:
        return PlanNode(1, 1.0)
    if k % 2 == 0:
        a = k // 2
    else:
        top = 1 << (k.bit_length() - 1)
        a = max(top // 2, k - top)
    return _combine(_plan(a), _plan(k - a))


def split_plan(k: int) -> PlanNode:
    """The splitting recipe for ``k``: a balanced tree built by a rule.

    P(1) is a leaf.  An even k is two halves, labelled 2*(k/2) (1+1 at
    k = 2).  An odd k, with 2^d <= k < 2^(d+1), is a + (k - a) with
    a = max(2^(d-1), k - 2^d), labelled a+(k-a).  Every leaf sits at depth
    d or d + 1.  A sum cut a + b gives c * g(a)g(b) / (g(a) + g(b)) with
    c = 1 + 2/pi, so 1/g adds c^-depth over the leaves and the plan's
    ratio is

        g(k) = 1 / ((2^(d+1) - k) * c^-d + 2(k - 2^d) * c^-(d+1)).

    These are the trees, labels and ratios that a search over every sum
    a + b and product a * b of smaller plans picks, for every k checked
    (k <= 1000).  A k above ``MAX_SPLIT_K`` raises CapacityError.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > MAX_SPLIT_K:
        raise CapacityError(f"split plans are limited to k = {MAX_SPLIT_K}, got {k}")
    return _plan(k)


class BoundsRow(NamedTuple):
    """One line of the worst-case ratio bounds table."""

    k: int
    lower: float
    upper: float
    decomposition: str


def bounds_table(k_max: int) -> list[BoundsRow]:
    """Lower and upper bounds on the worst-case k-way ratio for k = 1..k_max."""
    split_plan(k_max)  # fails on a bad k_max before any row is built
    rows = []
    for k in range(1, k_max + 1):
        plan = _plan(k)
        rows.append(BoundsRow(k, circle_limit_ratio(k), plan.ratio, plan.decomposition))
    return rows


def _subtour(
    xs: Sequence[float],
    ys: Sequence[float],
    cum: Sequence[float],
    ids: Sequence[int],
    t1: float,
    t2: float,
) -> tuple[list[float], list[float], list[float], list[int]]:
    """The sub-tour from arclength t1 forward to t2, closed by its chord,
    as flat lists: every vertex in [t1, t2) keeps its id, and the far end
    takes -1."""
    first, starts, inside, last = _subpath(xs, ys, cum, t1, t2)
    sub_xs = [first[0]] + [xs[i] for i in inside]
    sub_ys = [first[1]] + [ys[i] for i in inside]
    # the start takes the id of the vertices that are the start; vertices at
    # one coordinate pair hold its point's id or -1, so max picks the id
    sub_ids = [max([ids[i] for i in starts], default=-1)] + [ids[i] for i in inside]
    if last is not None:
        sub_xs.append(last[0])
        sub_ys.append(last[1])
        sub_ids.append(-1)
    sub_xs.append(sub_xs[0])
    sub_ys.append(sub_ys[0])
    return sub_xs, sub_ys, _cumulative(sub_xs, sub_ys), sub_ids


def _split(
    xs: Sequence[float],
    ys: Sequence[float],
    cum: Sequence[float],
    ids: Sequence[int],
    fraction: float,
    members: Iterable[int],
) -> tuple[Diagonal, tuple, tuple, list[bool]]:
    """One cut of a closed flat curve (``xs``/``ys`` repeat the first
    vertex, ``cum`` ends with the length, ``ids`` holds a point id per
    vertex or -1): the diagonal cutting off ``fraction`` of the length
    parallel to the hull's minimum width direction, the ``_subtour`` on
    each side of it, and for each member id whether its first vertex lies
    on the first side [t_p, t_q).  That vertex is in that side's sub-tour.
    """
    ell = cum[-1]
    x = fraction * ell
    _, theta = _min_width(zip(xs, ys))
    # the unit vector of Direction(theta).orthogonal()
    phi = (theta + math.pi / 2.0) % math.pi
    t_p, p, q = _chord_root(xs, ys, cum, x, (math.cos(phi), math.sin(phi)))
    # t_p + x >= 0, so the residual check's point at t_p + x is the one at t_q
    t_q = (t_p + x) % ell
    left = _subtour(xs, ys, cum, ids, t_p, t_q)
    right = _subtour(xs, ys, cum, ids, t_q, t_p)
    span = (t_q - t_p) % ell
    # filled backwards, so each id keeps its first position
    at = dict(zip(reversed(ids), range(len(ids) - 1, -1, -1)))
    sides = [(cum[at[i]] - t_p) % ell < span for i in members]
    return Diagonal(Point(*p), Point(*q), t_p, t_q), left, right, sides


def _closed(xs: Sequence[float], ys: Sequence[float]) -> ClosedTour:
    """The ClosedTour through a closed flat curve's vertices."""
    return ClosedTour(tuple(map(Point, xs[:-1], ys[:-1])))


def guaranteed_partition(
    points: Union[Instance, Sequence[Point]],
    tour: ClosedTour,
    k: int,
) -> SolveResult:
    """Split a tour of the points into k pieces within g(k) of its length.

    Every point must be a vertex of the tour.  Each piece keeps the
    sub-tour the recursive splitting cut for it, which is what the
    guarantee is proved for.  A plan subtree that receives no points is
    neither cut nor kept, so ``diagonals`` holds only the cuts on the paths
    to kept pieces, and a zero-length tour (a single point) stays one
    block.  Each level runs one ``_split`` on the sub-tour's coordinates;
    Points and ClosedTours are built only for the result.  A point goes
    to the side of its first vertex, which that side's sub-tour keeps.
    Raises ChordSearchError when rounding breaks the guarantee: a piece
    longer than g(k) times the tour's length (with 1e-9 relative slack),
    or a sub-tour that holds points but has length 0.
    """
    instance = points if isinstance(points, Instance) else Instance.from_points(points)
    plan = split_plan(k)
    points = instance.points
    id_of = {p: i for i, p in enumerate(points)}
    ids = [id_of.get(v, -1) for v in zip(tour._xs[:-1], tour._ys[:-1])]
    on_tour = set(ids)
    for i, p in enumerate(points):
        if i not in on_tour:
            raise ValueError(f"point ({p.x}, {p.y}) is not a vertex of the tour")
    if tour.length == 0.0:
        return SolveResult(Partition((points,)), (tour,), 0.0)
    kept: list[tuple[list[int], Sequence[float], Sequence[float]]] = []
    diagonals: list[Diagonal] = []
    # depth first, left before right: the order recursion would visit
    stack = [(plan, tour._xs, tour._ys, tour._cum, ids, list(range(len(points))))]
    while stack:
        node, xs, ys, cum, ids, members = stack.pop()
        if not members:
            continue  # a subtree without points would only cut pieces it drops
        if cum[-1] == 0.0:
            raise ChordSearchError(
                "a sub-tour that holds points has length 0: the tour is too "
                "short for the precision of its coordinates"
            )
        if node.is_leaf:
            kept.append((members, xs, ys))
            continue
        diagonal, left, right, sides = _split(xs, ys, cum, ids, node.fraction, members)
        diagonals.append(diagonal)
        stack.append((node.right, *right, [i for i, side in zip(members, sides) if not side]))
        stack.append((node.left, *left, [i for i, side in zip(members, sides) if side]))
    blocks = tuple(tuple(points[i] for i in members) for members, _, _ in kept)
    tours = tuple(_closed(xs, ys) for _, xs, ys in kept)
    value = max(t.length for t in tours)
    bound = plan.ratio * tour.length
    if value > bound * (1.0 + 1e-9):
        raise ChordSearchError(
            f"the longest piece, {value}, exceeds g({k}) times the tour's length, {bound}"
        )
    return SolveResult(
        partition=Partition(blocks),
        tours=tours,
        value=value,
        diagonals=tuple(diagonals),
    )
