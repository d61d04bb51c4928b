"""Tour splitting: chord search, short diagonals, plans, guarantees."""

import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    cut_diagonal,
    ellipse_tour,
    leaf_count,
    naive_assign_points,
    naive_chord_at_arclength,
    naive_guaranteed_partition,
    naive_plan,
    naive_vertex_sides,
    random_instance,
    random_simple_tour,
)
from toursplit import (
    MAX_SPLIT_K,
    ChordSearchError,
    ClosedTour,
    Diagonal,
    Instance,
    Point,
    bounds_table,
    chord_at_arclength,
    circle_points,
    equalizing_fraction,
    guaranteed_partition,
    optimal_partition,
    optimal_tour,
    split_plan,
)
from toursplit import geometry, splitting
from toursplit.splitting import _plan

INV_PI = 1.0 / math.pi
PARITY_KS = (2, 3, 4, 5, 8, 10)

SQUARE = ClosedTour((Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)))
SQUARE_POINTS = SQUARE.vertices


def regular_polygon_tour(n: int) -> ClosedTour:
    return ClosedTour(tuple(circle_points(n).points))


def parity_tours() -> list[ClosedTour]:
    """Seeded star-shaped and ellipse tours at m = 100, 300, then 200 small ones."""
    tours = []
    for m in (100, 300):
        tours.append(random_simple_tour(random.Random(m), m))
        tours.append(ellipse_tour(random.Random(m), m))
    rng = random.Random(89)
    for _ in range(200):
        tours.append(random_simple_tour(rng, rng.randint(3, 30), rng.choice([1e-3, 1.0, 1e3])))
    return tours


def scale_tours() -> list[ClosedTour]:
    """Seeded star-shaped and ellipse tours at m = 10..58, then 100 small ones."""
    tours = []
    for m in range(10, 60, 2):
        tours.append(random_simple_tour(random.Random(m), m))
        tours.append(ellipse_tour(random.Random(m), m))
    rng = random.Random(97)
    for _ in range(100):
        tours.append(random_simple_tour(rng, rng.randint(3, 30)))
    return tours


def chord_tours() -> list[ClosedTour]:
    """Seeded star-shaped and ellipse tours at m = 100-1000, small tours at
    three scales, and tours with zero-length edges or a closing repeat."""
    tours = []
    for m in (100, 300, 1000):
        tours.append(random_simple_tour(random.Random(m), m))
        tours.append(ellipse_tour(random.Random(m), m))
    rng = random.Random(83)
    for scale in (1e-3, 1.0, 1e3):
        for _ in range(20):
            tours.append(random_simple_tour(rng, rng.randint(3, 30), scale))
    for _ in range(20):
        verts = list(random_simple_tour(rng, rng.randint(3, 12)).vertices)
        i = rng.randrange(len(verts))
        verts.insert(i, verts[i])
        tours.append(ClosedTour(tuple(verts)))
        tours.append(ClosedTour(tuple(verts[i:] + verts[:i + 1])))
    return tours


def chord_outcome(search, tour: ClosedTour, x: float, u) -> object:
    try:
        return search(tour, x, u)
    except ChordSearchError as exc:
        return repr(exc)


def scaled(p: Point, f: float) -> Point:
    return Point(p.x * f, p.y * f)


def result_bits(result) -> str:
    """Blocks, tours, diagonals and value of a split, as exact float reprs."""
    return repr((
        [[(p.x, p.y) for p in block] for block in result.partition.blocks],
        [[(v.x, v.y) for v in t.vertices] for t in result.tours],
        [(d.p.x, d.p.y, d.q.x, d.q.y, d.t_p, d.t_q) for d in result.diagonals],
        result.value,
    ))


def assert_points_are_vertices(result) -> None:
    """Every point of every block is a vertex of that block's tour."""
    for block, piece in zip(result.partition.blocks, result.tours):
        for pt in block:
            assert pt in piece.vertices, (pt, piece.vertices)


@st.composite
def degenerate_tours(draw) -> ClosedTour:
    """Collinear tours, tours through repeated vertices, duplicate-heavy grids."""
    kind = draw(st.sampled_from(["collinear", "repeated", "grid"]))
    if kind == "collinear":
        dx, dy = draw(st.sampled_from([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.3, -0.7)]))
        steps = draw(st.lists(st.integers(-20, 20), min_size=1, max_size=12))
        return ClosedTour(tuple(Point(t * dx, t * dy) for t in steps))
    if kind == "repeated":
        coord = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
        base = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=10, unique=True))
        extra = draw(st.lists(st.integers(0, len(base) - 1), max_size=8))
        order = draw(st.permutations(list(range(len(base))) + extra))
        return ClosedTour(tuple(Point(*base[i]) for i in order))
    cells = st.tuples(st.integers(0, 3), st.integers(0, 3))
    return ClosedTour(tuple(Point(*c) for c in draw(st.lists(cells, min_size=1, max_size=20))))


class TestGuaranteeProperties:
    @given(degenerate_tours(), st.integers(1, 64))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_guarantees_hold_on_degenerate_tours(self, tour, k):
        # k runs past the number of distinct points and up to 64
        result = guaranteed_partition(tour.vertices, tour, k)
        ell = tour.length
        assert all(d.length <= ell * INV_PI * (1 + 1e-9) for d in result.diagonals)
        bound = split_plan(k).ratio * ell * (1 + 1e-9)
        assert all(t.length <= bound for t in result.tours)
        covered = sorted((p.x, p.y) for block in result.partition.blocks for p in block)
        assert covered == sorted(set((p.x, p.y) for p in tour.vertices))
        assert_points_are_vertices(result)
        oracle = naive_guaranteed_partition(tour.vertices, tour, k)
        assert result_bits(result) == result_bits(oracle)


class TestChordSearch:
    def test_square_vertical_cut(self):
        t = chord_at_arclength(SQUARE, 2.0, (1.0, 0.0))
        p = SQUARE.point_at(t)
        q = SQUARE.point_at(t + 2.0)
        assert p.x == pytest.approx(q.x, abs=1e-9)
        # smallest root: the cut at (0.5, 0) - (0.5, 1)
        assert t == pytest.approx(0.5, abs=1e-9)

    def test_regular_polygon_antipodal(self):
        tour = regular_polygon_tour(100)
        x = tour.length / 2
        t = chord_at_arclength(tour, x, (0.37, 0.93))
        p, q = tour.point_at(t), tour.point_at(t + x)
        chord = (q.x - p.x, q.y - p.y)
        proj = chord[0] * 0.37 + chord[1] * 0.93
        assert abs(proj) / math.hypot(0.37, 0.93) <= 1e-9 * tour.length

    def test_degenerate_collinear_zero_chord(self):
        tour = ClosedTour((Point(0, 0), Point(2, 0)))
        t = chord_at_arclength(tour, 2.0, (1.0, 0.0))
        p, q = tour.point_at(t), tour.point_at(t + 2.0)
        assert p.distance_to(q) == pytest.approx(0.0, abs=1e-9)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            chord_at_arclength(SQUARE, 0.0, (1, 0))
        with pytest.raises(ValueError):
            chord_at_arclength(SQUARE, 4.0, (1, 0))
        with pytest.raises(ValueError):
            chord_at_arclength(SQUARE, 1.0, (0, 0))

    def test_root_is_smallest(self):
        rng = random.Random(17)
        for _ in range(50):
            tour = random_simple_tour(rng, rng.randint(3, 10))
            x = rng.uniform(0.1, 0.9) * tour.length
            u = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            if math.hypot(*u) < 1e-6:
                continue
            t = chord_at_arclength(tour, x, u)
            # scanning slightly below t must find no earlier root
            ux, uy = u
            norm = math.hypot(ux, uy)
            for frac in (0.0, 0.25, 0.5, 0.75):
                s = t * frac
                p, q = tour.point_at(s), tour.point_at(s + x)
                f = ((q.x - p.x) * ux + (q.y - p.y) * uy) / norm
                if abs(f) <= 1e-9 * tour.length:
                    assert s == pytest.approx(t, abs=1e-9 * tour.length)

    def test_matches_the_point_at_search(self):
        # bit for bit, failures included, against the search that bisects
        # for both ends of every break
        for tour in chord_tours():
            ell = tour.length
            # an offset just above a vertex's arclength puts a break within
            # an ulp of ell, where the walk may not stop early
            arcs = tour._cum[:-1]
            near = [s + math.ulp(s) for s in (arcs[len(arcs) // 2], arcs[-1])]
            offsets = (math.ulp(ell), 1e-9 * ell, 0.3 * ell, 0.5 * ell,
                       (1 - 1e-9) * ell, ell - math.ulp(ell),
                       *(x for x in near if 0.0 < x < ell))
            for x in offsets:
                for u in ((1.0, 0.0), (0.37, -0.93)):
                    got = chord_outcome(chord_at_arclength, tour, x, u)
                    assert got == chord_outcome(naive_chord_at_arclength, tour, x, u)

    def test_breaks_are_walked_without_point_at(self, monkeypatch):
        # Only point evaluation bisects.  Each split bisects 10 times: for
        # both ends of the chord at the wrap interval's two breaks and at
        # the root, and for each sub-tour's two ends; no other break does.
        tour = ellipse_tour(random.Random(10_000), 10_000)
        calls = []
        bisect_right = geometry.bisect_right

        def counted(a, x):
            calls.append(x)
            return bisect_right(a, x)

        monkeypatch.setattr(geometry, "bisect_right", counted)
        result = guaranteed_partition(tour.vertices, tour, 8)
        assert len(result.diagonals) == 7
        assert len(calls) == 10 * 7
        bound = split_plan(8).ratio * tour.length
        assert all(t.length <= bound + 1e-9 for t in result.tours)
        assert all(d.length <= tour.length * INV_PI + 1e-9 for d in result.diagonals)


class TestShortDiagonal:
    def test_rectangle_prescribed_half(self):
        rect = ClosedTour((Point(0, 0), Point(2, 0), Point(2, 1), Point(0, 1)))
        d = cut_diagonal(rect, 0.5)
        assert d.length == pytest.approx(1.0, abs=1e-9)
        assert d.length <= rect.length / math.pi + 1e-9
        # chord is vertical: the min width direction of the rectangle
        assert d.p.x == pytest.approx(d.q.x, abs=1e-9)

    def test_square_half(self):
        d = cut_diagonal(SQUARE, 0.5)
        assert d.length == pytest.approx(1.0, abs=1e-9)
        assert d.length <= 4.0 / math.pi + 1e-9

    def test_polygon_halving_is_near_diameter(self):
        tour = regular_polygon_tour(100)
        d = cut_diagonal(tour, 0.5)
        assert d.length == pytest.approx(2.0, abs=1e-3)
        assert d.length <= tour.length / math.pi + 1e-9

    def test_arclength_span_is_exact(self):
        rng = random.Random(23)
        for _ in range(100):
            tour = random_simple_tour(rng, rng.randint(3, 12))
            frac = rng.uniform(0.05, 0.95)
            d = cut_diagonal(tour, frac)
            x = frac * tour.length
            span = (d.t_q - d.t_p) % tour.length
            assert abs(span - x) <= 1e-9 * tour.length
            assert d.length <= tour.length / math.pi + 1e-9


class TestHalveTour:
    """Two-way splitting: ``guaranteed_partition(..., 2)`` makes one halving cut."""

    def test_square_halves(self):
        result = guaranteed_partition(SQUARE_POINTS, SQUARE, 2)
        assert [t.length for t in result.tours] == pytest.approx([3.0, 3.0], abs=1e-9)
        bound = (0.5 + INV_PI) * SQUARE.length
        assert result.value <= bound + 1e-9

    def test_halves_always_equal(self):
        rng = random.Random(31)
        for _ in range(50):
            tour = random_simple_tour(rng, rng.randint(3, 10))
            tour1, tour2 = guaranteed_partition(tour.vertices, tour, 2).tours
            assert abs(tour1.length - tour2.length) <= 1e-9 * tour.length
            bound = (0.5 + INV_PI) * tour.length + 1e-9
            assert tour1.length <= bound
            assert tour2.length <= bound

    def test_two_point_degenerate(self):
        tour = ClosedTour((Point(0, 0), Point(2, 0)))
        result = guaranteed_partition(tour.vertices, tour, 2)
        assert [t.length for t in result.tours] == pytest.approx([2.0, 2.0], abs=1e-9)
        assert result.diagonals[0].length == pytest.approx(0.0, abs=1e-9)

    def test_circle_ratio_approaches_limit_from_below(self):
        limit = 0.5 + INV_PI
        previous = 0.0
        for n in (8, 16, 32, 64, 128):
            tour = regular_polygon_tour(n)
            ratio = guaranteed_partition(tour.vertices, tour, 2).value / tour.length
            assert previous < ratio < limit + 1e-12
            previous = ratio
        assert previous == pytest.approx(limit, abs=1e-3)


class TestSplitTour:
    """Cuts at any fraction, from the one-level primitives and ``subcurve``."""

    @staticmethod
    def sides(tour: ClosedTour, d: Diagonal) -> tuple[ClosedTour, ClosedTour]:
        return ClosedTour(tour.subcurve(d.t_p, d.t_q)), ClosedTour(tour.subcurve(d.t_q, d.t_p))

    def test_quarter_fraction_contract(self):
        tour1, tour2 = self.sides(SQUARE, cut_diagonal(SQUARE, 0.25))
        assert tour1.length <= 1.0 + 4.0 / math.pi + 1e-9
        assert tour2.length <= 3.0 + 4.0 / math.pi + 1e-9

    def test_rectangle_third(self):
        rect = ClosedTour((Point(0, 0), Point(2, 0), Point(2, 1), Point(0, 1)))
        d = cut_diagonal(rect, 1.0 / 3.0)
        tour1, _ = self.sides(rect, d)
        assert tour1.length == pytest.approx(2.0 + d.length, rel=1e-9)
        assert d.length <= 6.0 / math.pi + 1e-9

    def test_lengths_follow_the_cut(self):
        rng = random.Random(37)
        for _ in range(60):
            tour = random_simple_tour(rng, rng.randint(3, 12))
            frac = rng.uniform(0.05, 0.95)
            d = cut_diagonal(tour, frac)
            tour1, tour2 = self.sides(tour, d)
            x = frac * tour.length
            assert tour1.length == pytest.approx(x + d.length, rel=1e-9, abs=1e-9)
            assert tour2.length == pytest.approx(
                tour.length - x + d.length, rel=1e-9, abs=1e-9
            )


class TestAssignPoints:
    def test_square_halving_assignment(self):
        # input order is preserved within each side
        result = guaranteed_partition(SQUARE_POINTS, SQUARE, 2)
        (d,) = result.diagonals
        assert (d.p.x, d.p.y) == pytest.approx((0.5, 0.0), abs=1e-9)
        assert (d.q.x, d.q.y) == pytest.approx((0.5, 1.0), abs=1e-9)
        assert result.partition.blocks == (
            (Point(1, 0), Point(1, 1)),
            (Point(0, 0), Point(0, 1)),
        )

    def test_sides_match_the_edge_scan(self):
        # the root cut's sides from the cut step that guaranteed_partition
        # runs at every level; chord_tours() adds small tours with
        # zero-length edges and closing repeats, and its six large tours
        # would only slow the O(m^2) references
        for tour in parity_tours() + chord_tours()[6:]:
            pts = Instance.from_points(tour.vertices).points
            ids = [pts.index(v) for v in tour.vertices]
            for k in PARITY_KS:
                d, _, _, flags = splitting._split(
                    tour._xs, tour._ys, tour._cum, ids, split_plan(k).fraction, range(len(pts))
                )
                sides = (
                    tuple(p for p, side in zip(pts, flags) if side),
                    tuple(p for p, side in zip(pts, flags) if not side),
                )
                assert sides == naive_vertex_sides(tour, d, pts)
                assert sides == naive_assign_points(tour, d, pts)

    def test_repeated_vertex_reads_its_first_visit(self):
        # the tour passes the origin at arclengths 0 and 2 + sqrt(2), half
        # its length apart, so the halving cut puts the visits on opposite
        # sides and the point must follow its first visit
        o = Point(0, 0)
        tour = ClosedTour((o, Point(1, 0), Point(1, 1), o, Point(-1, 0), Point(-1, -1)))
        pts = (o, Point(1, 1))
        result = guaranteed_partition(pts, tour, 2)
        (d,) = result.diagonals
        span = (d.t_q - d.t_p) % tour.length
        first_visit, second_visit = (
            (s - d.t_p) % tour.length < span for s in tour._cum[:-1:3]
        )
        assert first_visit != second_visit
        blocks = result.partition.blocks
        assert (o in blocks[0]) == first_visit
        for sides in (naive_vertex_sides(tour, d, pts), naive_assign_points(tour, d, pts)):
            assert blocks == tuple(side for side in sides if side)

    def test_large_tour_points_stay_vertices(self):
        tour = ellipse_tour(random.Random(10_000), 10_000)
        result = guaranteed_partition(tour.vertices, tour, 8)
        assert_points_are_vertices(result)
        bound = split_plan(8).ratio * tour.length
        assert all(t.length <= bound + 1e-9 for t in result.tours)
        assert all(d.length <= tour.length * INV_PI + 1e-9 for d in result.diagonals)

    def test_every_assigned_point_lies_on_its_tour(self):
        rng = random.Random(41)
        for _ in range(50):
            tour = random_simple_tour(rng, rng.randint(4, 12))
            assert_points_are_vertices(guaranteed_partition(tour.vertices, tour, rng.randint(2, 8)))
        # (4, 3) and the vertex after it lie at one arclength; the cut at
        # k = 2 starts there, and the sub-tour that holds (4, 3) keeps it
        near = ClosedTour(((1, 4), (4, 4), (3, 3), (2, 3), (1, 2), (2, 0), (4, 3),
                           (4, 3.0000000000000004)))
        result = guaranteed_partition(near.vertices, near, 2)
        assert_points_are_vertices(result)
        assert result_bits(result) == result_bits(naive_guaranteed_partition(near.vertices, near, 2))

    def test_start_takes_the_id_of_any_vertex_at_it(self):
        # At k = 16 one sub-tour starts at a chord end (no id) followed by
        # two vertices at its coordinates, (1, 1), and the next cut starts
        # there: the start is all three, so it must carry (1, 1)'s id.
        grid = ClosedTour(((3, 1), (1, 2), (1, 0), (1, 0), (2, 3), (1, 3), (2, 1), (2, 3),
                           (1, 2), (2, 2), (1, 2), (1, 1), (1, 1), (3, 2), (1, 2), (1, 1),
                           (1, 0), (3, 1), (1, 1), (2, 3)))
        for k in (16, 32):
            result = guaranteed_partition(grid.vertices, grid, k)
            assert_points_are_vertices(result)
            oracle = naive_guaranteed_partition(grid.vertices, grid, k)
            assert result_bits(result) == result_bits(oracle)


class TestEqualizingFraction:
    def test_symmetric_is_half(self):
        assert equalizing_fraction(0.7, 0.7) == pytest.approx(0.5, abs=1e-15)

    def test_known_value_from_bisection(self):
        # root of (x + 1/pi) * 1 = (1 - x + 1/pi) * g2, solved independently
        g2 = 0.5 + INV_PI
        assert equalizing_fraction(1.0, g2) == pytest.approx(
            0.4182324104997831, abs=1e-12
        )

    @given(
        st.floats(min_value=0.3, max_value=1.0),
        st.floats(min_value=0.3, max_value=1.0),
    )
    @settings(max_examples=300)
    def test_equalizes_both_sides(self, ra, rb):
        # quotient at most 1/0.3 < pi + 1, so the balance point is interior
        x = equalizing_fraction(ra, rb)
        assert 0.0 < x < 1.0
        left = (x + INV_PI) * ra
        right = (1.0 - x + INV_PI) * rb
        assert abs(left - right) <= 1e-12
        combined = (1.0 + 2.0 * INV_PI) * ra * rb / (ra + rb)
        assert left == pytest.approx(combined, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            equalizing_fraction(0.0, 0.5)
        with pytest.raises(ValueError):
            equalizing_fraction(0.5, 1.5)

    def test_lopsided_ratios_rejected(self):
        # beyond a factor of pi + 1 no cut fraction balances the two sides
        with pytest.raises(ValueError):
            equalizing_fraction(1.0, 0.125)
        with pytest.raises(ValueError):
            equalizing_fraction(0.125, 1.0)
        edge = 1.0 / (math.pi + 1.0)
        assert 0.0 < equalizing_fraction(1.0, edge + 0.01) < 1.0


class TestSplitPlan:
    def test_pair_ratio_is_exactly_half_plus_inv_pi(self):
        assert split_plan(2).ratio == 0.5 + INV_PI
        assert split_plan(2).decomposition == "1+1"

    def test_three_splits_one_plus_two(self):
        plan = split_plan(3)
        assert plan.ratio == pytest.approx(0.7365422966835738, abs=1e-12)
        assert plan.decomposition == "1+2"

    def test_ten_uses_two_times_five(self):
        plan = split_plan(10)
        assert plan.ratio == pytest.approx(0.5191489425165302, abs=1e-12)
        assert plan.decomposition == "2*5"

    def test_leaf_counts_match(self):
        for k in range(1, 13):
            plan = split_plan(k)
            assert leaf_count(plan) == k
            assert plan.size == k

    def test_ratios_non_increasing(self):
        ratios = [split_plan(k).ratio for k in range(1, 13)]
        for a, b in zip(ratios, ratios[1:]):
            assert b <= a + 1e-12

    def test_product_rule_consistency(self):
        for a in range(2, 7):
            for b in range(2, 7):
                if a * b > 12:
                    continue
                assert (
                    split_plan(a * b).ratio
                    <= split_plan(a).ratio * split_plan(b).ratio + 1e-12
                )

    def test_fractions_strictly_interior(self):
        def walk(node):
            if node.is_leaf:
                assert node.ratio == 1.0
                return
            assert 0.0 < node.fraction < 1.0
            walk(node.left)
            walk(node.right)

        for k in range(1, 13):
            walk(split_plan(k))

    def test_plans_match_the_search_that_builds_every_candidate(self):
        # the closed rule must build the plans the search picks, bit for bit:
        # == on the frozen nodes compares every size, ratio, fraction and
        # label exactly, and is ten times faster than comparing their reprs;
        # the search's own label checks the one _combine derives
        for k in range(1, 1001):
            naive_plan(k)  # bottom-up, so the reference recursion stays shallow
            assert split_plan(k) == naive_plan(k)[0], k
            assert split_plan(k).decomposition == naive_plan(k)[1], k

    def test_ratio_matches_the_closed_form(self):
        c = 1.0 + 2.0 / math.pi

        def g(k):
            d = k.bit_length() - 1
            return 1.0 / ((2 ** (d + 1) - k) * c**-d + 2 * (k - 2**d) * c ** -(d + 1))

        rng = random.Random(11)
        ks = [*range(1, 257), MAX_SPLIT_K, *rng.sample(range(257, MAX_SPLIT_K), 500)]
        for k in ks:
            assert split_plan(k).ratio == pytest.approx(g(k), rel=1e-15, abs=0.0), k
        # the rule itself has no cap: 60 levels deep, still to the last bits
        assert _plan(2**60).ratio == pytest.approx(g(2**60), rel=1e-15, abs=0.0)

    def test_cold_cache_needs_no_deep_recursion(self):
        _plan.cache_clear()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            plan = split_plan(MAX_SPLIT_K)
        finally:
            sys.setrecursionlimit(limit)
        assert plan.size == MAX_SPLIT_K


class TestBoundsTable:
    def test_trivial_row(self):
        row = bounds_table(1)[0]
        assert (row.k, row.lower, row.upper) == (1, 1.0, 1.0)
        assert row.decomposition == "trivial"

    def test_rows_are_well_formed(self):
        for row in bounds_table(12):
            assert 0.0 < row.lower <= row.upper <= 1.0

    def test_selected_rows_at_three_decimals(self):
        rows = {r.k: r for r in bounds_table(10)}
        assert round(rows[5].lower, 3) == 0.387
        assert round(rows[5].upper, 3) == 0.634
        assert round(rows[8].lower, 3) == 0.247
        assert round(rows[8].upper, 3) == 0.548

    def test_equal_arcs_bound_the_ratio_by_2_over_k(self):
        # Cutting the optimal tour into k equal arcs, each closed by its
        # chord, makes every loop at most 2L/k, so OPT_k <= (2/k) OPT_1.
        # The circle's lower bound stays under 2/k, and from k = 3 on the
        # printed upper bound g(k), the plan's, lies above it.
        for row in bounds_table(MAX_SPLIT_K):
            assert row.lower <= 2.0 / row.k, row.k
            if row.k >= 3:
                assert row.upper > 2.0 / row.k, row.k


class TestGuaranteedPartition:
    def test_k1_returns_the_tour(self):
        result = guaranteed_partition(SQUARE_POINTS, SQUARE, 1)
        assert result.value == SQUARE.length
        assert result.tours[0].vertices == SQUARE.vertices
        assert result.diagonals == ()

    def test_square_two_ways(self):
        result = guaranteed_partition(SQUARE_POINTS, SQUARE, 2)
        assert result.value == pytest.approx(3.0, abs=1e-9)
        assert result.value <= 0.8184 * SQUARE.length
        assert len(result.partition.blocks) == 2
        assert len(result.diagonals) == 1

    def test_respects_plan_guarantee(self):
        rng = random.Random(53)
        for _ in range(40):
            tour = random_simple_tour(rng, rng.randint(4, 20))
            k = rng.randint(2, 8)
            result = guaranteed_partition(tour.vertices, tour, k)
            assert result.value <= split_plan(k).ratio * tour.length + 1e-9

    def test_blocks_partition_the_points(self):
        rng = random.Random(59)
        for _ in range(30):
            tour = random_simple_tour(rng, rng.randint(4, 15))
            k = rng.randint(2, 6)
            result = guaranteed_partition(tour.vertices, tour, k)
            covered = sorted(
                (p.x, p.y) for block in result.partition.blocks for p in block
            )
            assert covered == sorted((p.x, p.y) for p in tour.vertices)

    def test_oracle_never_worse(self):
        rng = random.Random(61)
        for _ in range(15):
            inst = random_instance(rng, rng.randint(4, 9))
            tour = optimal_tour(inst)
            k = rng.randint(2, 4)
            heuristic = guaranteed_partition(inst, tour, k)
            oracle = optimal_partition(inst, k)
            assert oracle.value <= heuristic.value + 1e-9

    def test_matches_the_edge_scan_and_every_edge_width(self):
        # bit for bit against the recursion over ClosedTours with the
        # every-edge width, the bisecting chord search and the edge scan;
        # chord_tours() adds small tours with zero-length edges and closing
        # repeats, and its six large tours would only slow the O(m^2) oracle
        for tour in parity_tours() + chord_tours()[6:]:
            for k in PARITY_KS:
                got = guaranteed_partition(tour.vertices, tour, k)
                ref = naive_guaranteed_partition(tour.vertices, tour, k, naive_assign_points)
                assert result_bits(got) == result_bits(ref)

    def test_two_way_split_is_the_halving_cut(self):
        # at k = 2 the partition's single cut is the halving cut that the
        # one-level primitives find, bit for bit
        for tour in parity_tours():
            (d,) = guaranteed_partition(tour.vertices, tour, 2).diagonals
            assert repr(d) == repr(cut_diagonal(tour, 0.5))

    def test_near_duplicate_cut_start_keeps_both_vertices(self):
        # Each tour has two vertices 1e-17 or an ulp apart, at one arclength.
        # The root cut starts there, at the later vertex: its sub-tour keeps
        # the earlier one too, right after the start, and so does the piece.
        for verts, pair in (
            ([(0, 0), (1, 0), (1, 1e-17), (2, 0), (2, 1), (1, 1), (0, 1)], 1),
            ([(0, 0), (1, 0), (2, 0), (2, 1), (1, 1), (1, 1.0000000000000002), (0, 1)], 4),
        ):
            tour = ClosedTour(tuple(Point(*v) for v in verts))
            got = guaranteed_partition(tour.vertices, tour, 4)
            assert tour._cum[pair] == tour._cum[pair + 1]
            later, earlier = tour.vertices[pair + 1], tour.vertices[pair]
            assert got.diagonals[0].p == later or got.diagonals[0].q == later
            assert any(
                (later, earlier) in zip(piece.vertices, piece.vertices[1:]) for piece in got.tours
            ), got.tours
            assert_points_are_vertices(got)
            for assign in (naive_vertex_sides, naive_assign_points):
                ref = naive_guaranteed_partition(tour.vertices, tour, 4, assign)
                assert result_bits(got) == result_bits(ref)

    def test_matches_the_recursive_oracle_on_scale_tours(self):
        for tour in scale_tours():
            for k in PARITY_KS:
                got = guaranteed_partition(tour.vertices, tour, k)
                ref = naive_guaranteed_partition(tour.vertices, tour, k)
                assert result_bits(got) == result_bits(ref)

    def test_points_must_be_tour_vertices(self):
        # an edge midpoint lies on the tour but is not one of its vertices
        for extra in (Point(0.5, 0.5), Point(0.5, 0.0)):
            with pytest.raises(ValueError, match=rf"\({extra.x}, {extra.y}\) is not a vertex"):
                guaranteed_partition(SQUARE_POINTS + (extra,), SQUARE, 2)

    def test_vertex_at_the_cut_start_goes_left(self):
        # At k = 10 one cut on the octagon starts on a vertex up to rounding.
        # The edge scan put that vertex an ulp before the cut start, so it
        # went right and shared a block; read by index it lies an ulp after,
        # so it goes left like any point at the cut start, and every point
        # gets its own block.
        pts = circle_points(8).points
        result = guaranteed_partition(pts, ClosedTour(pts), 10)
        assert [len(block) for block in result.partition.blocks] == [1] * 8
        for block, tour in zip(result.partition.blocks, result.tours):
            assert block[0] in tour.vertices
        assert result.value == 2.4018631658336846
        oracle = naive_guaranteed_partition(pts, ClosedTour(pts), 10)
        assert result_bits(result) == result_bits(oracle)

    def test_power_of_two_scaling_is_exact(self):
        # Scaling by 2^e is exact, so every block, diagonal and the value
        # must scale by exactly 2^e, far from unit size included.
        for tour in scale_tours():
            for k in (2, 3, 5, 8):
                base = guaranteed_partition(tour.vertices, tour, k)
                for f in (2.0**-900, 2.0**900):
                    big = ClosedTour(tuple(scaled(p, f) for p in tour.vertices))
                    got = guaranteed_partition(big.vertices, big, k)
                    assert got.partition.blocks == tuple(
                        tuple(scaled(p, f) for p in block) for block in base.partition.blocks
                    )
                    assert got.diagonals == tuple(
                        Diagonal(scaled(d.p, f), scaled(d.q, f), d.t_p * f, d.t_q * f)
                        for d in base.diagonals
                    )
                    assert got.value == base.value * f

    def test_far_from_the_origin_keeps_the_guarantee(self):
        # offsets from 1e8 to 1e14, where an ulp of a coordinate (up to
        # 0.016) is far above 1e-9 of these 1- to 100-wide tours
        rng = random.Random(89)
        for e in range(8, 14):
            for _ in range(8):
                off = 10.0**e * rng.uniform(1.0, 10.0)
                width = 10.0 ** rng.uniform(0.0, 2.0)
                tour = random_simple_tour(rng, rng.randint(4, 20), width)
                pts = [Point(off + p.x, p.y - off) for p in tour.vertices]
                far = ClosedTour(tuple(dict.fromkeys(pts)))
                for k in (2, 5, 16):
                    result = guaranteed_partition(far.vertices, far, k)
                    assert result.value <= split_plan(k).ratio * far.length * (1 + 1e-9)
                    for d in result.diagonals:
                        assert d.p.distance_to(d.q) <= far.length / math.pi * (1 + 1e-9)

    def test_more_leaves_than_points_drops_empty_blocks(self):
        tri = ClosedTour((Point(0, 0), Point(1, 0), Point(0.5, 0.8)))
        result = guaranteed_partition(tri.vertices, tri, 6)
        assert 1 <= len(result.partition.blocks) <= 3
        covered = sorted((p.x, p.y) for b in result.partition.blocks for p in b)
        assert covered == sorted((p.x, p.y) for p in tri.vertices)
