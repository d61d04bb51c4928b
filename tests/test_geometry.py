"""Geometry primitives: tours, parametrization, hulls, widths."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    chain_length,
    naive_min_width,
    projection_width,
    random_points,
    random_simple_tour,
)
from toursplit import (
    ClosedTour,
    Direction,
    Point,
    circle_points,
    convex_hull,
    min_width,
    optimal_tour,
    Instance,
)

SQUARE = ClosedTour((Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)))


coords = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)
point_lists = st.lists(
    st.tuples(coords, coords), min_size=3, max_size=12, unique=True
).map(lambda ps: [Point(x, y) for x, y in ps])


def tour_strategy():
    return point_lists.map(lambda ps: ClosedTour(tuple(ps)))


class TestPoint:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Point(math.nan, 0.0)
        with pytest.raises(ValueError):
            Point(0.0, math.inf)

    def test_distance(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == 5.0


class TestDirection:
    def test_normalizes_to_half_turn(self):
        assert Direction(math.pi).theta == 0.0
        assert Direction(-math.pi / 2).theta == pytest.approx(math.pi / 2)
        assert 0.0 <= Direction(17.3).theta < math.pi

    def test_orthogonal(self):
        d = Direction(0.3)
        assert d.orthogonal().theta == pytest.approx(0.3 + math.pi / 2)


class TestTourLength:
    def test_unit_square(self):
        assert SQUARE.length == pytest.approx(4.0)

    def test_single_point(self):
        assert ClosedTour((Point(3, 7),)).length == 0.0

    def test_two_points_out_and_back(self):
        assert ClosedTour((Point(0, 0), Point(2, 0))).length == pytest.approx(4.0)

    def test_overflowing_length_rejected(self):
        with pytest.raises(ValueError, match="overflow"):
            ClosedTour((Point(1e308, 0), Point(0, 0)))


class TestPointAt:
    def test_origin(self):
        assert SQUARE.point_at(0) == Point(0, 0)

    def test_mid_third_edge(self):
        p = SQUARE.point_at(2.5)
        assert (p.x, p.y) == pytest.approx((0.5, 1.0))

    def test_wraparound(self):
        p = SQUARE.point_at(6.5)
        assert (p.x, p.y) == pytest.approx((0.5, 1.0))

    def test_zero_length_tour_rejected(self):
        with pytest.raises(ValueError):
            ClosedTour((Point(1, 2),)).point_at(0.0)

    def test_periodicity_exact_on_dyadic_parameters(self):
        # square length 4: t and t + 4 are both exact binary floats
        for i in range(16):
            t = i * 0.25
            assert SQUARE.point_at(t) == SQUARE.point_at(t + 4.0)

    @given(tour_strategy(), st.floats(min_value=0, max_value=1000, allow_nan=False))
    @settings(max_examples=150)
    def test_periodicity_fuzz(self, tour, t):
        a = tour.point_at(t)
        b = tour.point_at(t + tour.length)
        assert a.distance_to(b) <= 1e-9 * max(tour.length, 1.0)


class TestSubcurve:
    def test_first_two_edges(self):
        chain = SQUARE.subcurve(0, 2)
        assert chain == (Point(0, 0), Point(1, 0), Point(1, 1))
        assert chain_length(chain) == pytest.approx(2.0)

    def test_wraps_origin(self):
        chain = SQUARE.subcurve(3.5, 0.5)
        assert chain == (Point(0, 0.5), Point(0, 0), Point(0.5, 0))
        assert chain_length(chain) == pytest.approx(1.0)

    def test_half_tour_span(self):
        chain = SQUARE.subcurve(0.7, 0.7 + 2.0)
        assert chain_length(chain) == pytest.approx(2.0)

    def test_keeps_a_vertex_at_the_start_arclength(self):
        # (1, 0) and (1, 1e-17) lie at one arclength: the start point is the
        # later one, and the path keeps the earlier one right after it
        tour = ClosedTour(((0, 0), (1, 0), (1, 1e-17), (2, 0), (2, 1), (0, 1)))
        assert tour._cum[1] == tour._cum[2] == 1.0
        chain = tour.subcurve(1.0, 3.0)
        assert chain == (Point(1, 1e-17), Point(1, 0), Point(2, 0), Point(2, 1))

    @given(
        tour_strategy(),
        st.floats(min_value=0, max_value=100, allow_nan=False),
        st.floats(min_value=0, max_value=100, allow_nan=False),
    )
    @settings(max_examples=150)
    def test_complement_lengths_add_up(self, tour, t1, t2):
        forward = tour.subcurve(t1, t2)
        backward = tour.subcurve(t2, t1)
        total = chain_length(forward) + chain_length(backward)
        if (t2 - t1) % tour.length == 0.0:
            return  # degenerate single-point chains
        assert total == pytest.approx(tour.length, rel=1e-9)


class TestArclengthOf:
    @pytest.mark.parametrize("scale", [1e-200, 1e300])
    def test_edge_midpoint_far_from_unit_size(self, scale):
        tour = ClosedTour(tuple(Point(p.x * scale, p.y * scale) for p in SQUARE.vertices))
        mid = Point(scale, 0.5 * scale)
        t = tour.arclength_of(mid, 1e-9 * tour.length)
        assert t == pytest.approx(1.5 * scale, rel=1e-12)


class TestConvexHull:
    def test_square_with_interior_point(self):
        hull = convex_hull([Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1), Point(0.5, 0.5)])
        assert set(hull) == {Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)}

    def test_collinear_returns_extremes(self):
        hull = convex_hull([Point(0, 0), Point(1, 0), Point(2, 0)])
        assert hull == (Point(0, 0), Point(2, 0))

    def test_single_point(self):
        assert convex_hull([Point(2, 3)]) == (Point(2, 3),)

    def test_regular_octagon_in_circular_order(self):
        pts = [
            Point(math.cos(2 * math.pi * i / 8), math.sin(2 * math.pi * i / 8))
            for i in range(1, 9)
        ]
        hull = convex_hull(pts)
        assert len(hull) == 8
        start = hull.index(min(pts, key=lambda p: (p.x, p.y)))
        angles = [
            math.atan2(hull[(start + i) % 8].y, hull[(start + i) % 8].x) % (2 * math.pi)
            for i in range(8)
        ]
        # counterclockwise means strictly increasing angle from the start
        rotated = [(a - angles[0]) % (2 * math.pi) for a in angles]
        assert rotated == sorted(rotated)

    def test_counterclockwise_and_strictly_convex(self):
        rng = random.Random(11)
        for _ in range(50):
            pts = random_points(rng, rng.randint(3, 40))
            hull = convex_hull(pts)
            if len(hull) < 3:
                continue
            m = len(hull)
            for i in range(m):
                a, b, c = hull[i], hull[(i + 1) % m], hull[(i + 2) % m]
                cross = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
                assert cross > 0.0  # left turns only: CCW, no 3 collinear

    def test_subnormal_extent(self):
        tiny = [Point(0, 0), Point(1e-310, 0), Point(0, 1e-310)]
        assert convex_hull(tiny) == (Point(0, 0), Point(1e-310, 0), Point(0, 1e-310))

    def test_duplicates_dropped(self):
        hull = convex_hull([Point(0, 0), Point(0, 0), Point(1, 0), Point(1, 0)])
        assert hull == (Point(0, 0), Point(1, 0))

    def test_near_vertical_sliver_keeps_its_ends(self):
        # a chain along x ran across the 1e-17 sliver, and the turn
        # tolerance dropped both ends of its unit-long side
        pts = [Point(0, 1), Point(0, 0), Point(1e-17, 0), Point(1e-18, 1)]
        assert convex_hull(pts) == (Point(0, 0), Point(1e-18, 1))
        w, d = min_width(pts)
        assert w == 0.0
        assert abs(math.sin(d.theta)) < 1e-15  # the normal of the long side

    def test_tall_hull_starts_at_its_smallest_vertex(self):
        # taller than wide, so the chain runs along y and the hull is rotated
        pts = [Point(0.5, 3), Point(1, 0), Point(0, 1), Point(1, 2), Point(0, 2.5)]
        assert convex_hull(pts) == (
            Point(0, 1), Point(1, 0), Point(1, 2), Point(0.5, 3), Point(0, 2.5)
        )

    @given(
        st.one_of(
            st.sampled_from([(1.0, 0.0), (0.0, 1.0)]),
            st.floats(0.0, math.pi).map(lambda a: (math.cos(a), math.sin(a))),
        ),
        st.lists(
            st.tuples(
                st.floats(-1.0, 1.0),
                st.one_of(st.just(0.0), st.floats(1e-17, 1e-11), st.floats(-1e-11, -1e-17)),
            ),
            min_size=2,
            max_size=12,
        ),
    )
    @settings(max_examples=500, derandomize=True)
    def test_near_collinear_hull_keeps_the_diameter(self, unit, offsets):
        # points within 1e-11 of a line at any angle: the tolerance may
        # flatten the hull to a segment, but never shorten it
        ux, uy = unit
        pts = [Point(3.0 + t * ux - o * uy, -2.0 + t * uy + o * ux) for t, o in offsets]

        def diameter(ps):
            return max(a.distance_to(b) for a in ps for b in ps)

        assert diameter(convex_hull(pts)) == pytest.approx(diameter(pts), rel=1e-9, abs=0.0)


class TestMinWidth:
    def test_rectangle_short_side(self):
        rect = [Point(0, 0), Point(2, 0), Point(2, 1), Point(0, 1)]
        w, d = min_width(rect)
        assert w == pytest.approx(1.0)
        assert d.theta == pytest.approx(math.pi / 2)

    def test_collinear_zero_width(self):
        w, d = min_width([Point(0, 0), Point(2, 0)])
        assert w == 0.0
        assert d.theta == pytest.approx(math.pi / 2)

    def test_unit_square(self):
        w, d = min_width(SQUARE)
        assert w == pytest.approx(1.0)
        assert min(abs(d.theta - 0.0), abs(d.theta - math.pi / 2)) < 1e-12

    def test_never_exceeds_any_directional_width(self):
        rng = random.Random(5)
        for _ in range(50):
            pts = random_points(rng, rng.randint(2, 25))
            w, _ = min_width(pts)
            for j in range(37):
                theta = j * math.pi / 37
                assert projection_width(pts, theta) >= w - 1e-12

    def test_bit_identical_to_every_edge_projection(self):
        rng = random.Random(17)
        for i in range(3000):
            pts = random_points(rng, rng.randint(1, 60), scale=(1e-3, 1.0, 1e3)[i % 3])
            w, d = min_width(pts)
            ref_w, ref_d = naive_min_width(pts)
            assert (w, d.theta) == (ref_w, ref_d.theta)

    def test_power_of_two_scaling_is_exact(self):
        # the hull's cross products are quadratic in the coordinates, so
        # at 2^-900 they underflowed and at 2^900 they overflowed
        rng = random.Random(19)
        for _ in range(200):
            pts = random_points(rng, rng.randint(3, 30))
            hull = convex_hull(pts)
            w, d = min_width(pts)
            for f in (2.0**-900, 2.0**900):
                far = [Point(p.x * f, p.y * f) for p in pts]
                assert convex_hull(far) == tuple(Point(p.x * f, p.y * f) for p in hull)
                assert min_width(far) == (w * f, d)

    def test_regular_polygons_bit_identical(self):
        # every edge ties with its neighbours up to rounding, so the
        # first-minimum choice is sensitive to each projection's last bit
        for n in range(3, 401):
            pts = circle_points(n).points
            w, d = min_width(pts)
            ref_w, ref_d = naive_min_width(pts)
            assert (w, d.theta) == (ref_w, ref_d.theta)


class TestConvexWidthBound:
    def test_hull_width_at_most_perimeter_over_pi(self):
        # mean width of a convex closed curve is perimeter/pi, so the
        # minimum width can never exceed it
        rng = random.Random(42)
        for _ in range(1000):
            pts = random_points(rng, rng.randint(3, 20), scale=rng.choice([0.1, 1.0, 50.0]))
            hull = convex_hull(pts)
            if len(hull) < 3:
                continue
            w, _ = min_width(hull)
            assert w <= ClosedTour(hull).length / math.pi + 1e-9

    def test_hull_perimeter_no_longer_than_optimal_tour(self):
        rng = random.Random(43)
        for _ in range(20):
            pts = random_points(rng, rng.randint(3, 8))
            hull_len = ClosedTour(convex_hull(pts)).length
            opt = optimal_tour(Instance(tuple(pts))).length
            assert hull_len <= opt + 1e-9
