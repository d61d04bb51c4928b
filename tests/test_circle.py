"""Circle point sets: closed forms, arc optimality, gap-fill monotonicity."""

import math
import random
import re

import pytest

from helpers import (
    brute_force_tour_length,
    gap_fill_move_count,
    naive_gap_fill_failure,
    use_lane,
)
from toursplit import (
    Instance,
    VerificationError,
    arc_tour_length,
    circle_limit_ratio,
    circle_points,
    circle_ratio,
    optimal_tour,
    speedup_ratio,
    tour_values_by_subset,
    verify_arc_optimality,
    verify_gap_fill_monotonicity,
)
from toursplit import _core_py, circle, kernels


class TestCirclePoints:
    def test_four_points_quarter_turns(self):
        pts = circle_points(4).points
        expected = [(0, 1), (-1, 0), (0, -1), (1, 0)]
        for p, (x, y) in zip(pts, expected):
            assert (p.x, p.y) == pytest.approx((x, y), abs=1e-12)

    def test_two_points(self):
        pts = circle_points(2).points
        assert (pts[0].x, pts[0].y) == pytest.approx((-1, 0), abs=1e-12)
        assert (pts[1].x, pts[1].y) == pytest.approx((1, 0), abs=1e-12)

    def test_hexagon_on_unit_circle(self):
        for p in circle_points(6).points:
            assert math.hypot(p.x, p.y) == pytest.approx(1.0)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            circle_points(1)


class TestArcTourLength:
    def test_full_polygon(self):
        assert arc_tour_length(8, 8) == pytest.approx(16 * math.sin(math.pi / 8), abs=1e-12)
        assert arc_tour_length(8, 8) == pytest.approx(
            optimal_tour(circle_points(8)).length, abs=1e-9
        )

    def test_half_octagon_matches_exact_solver(self):
        expected = 6 * math.sin(math.pi / 8) + 2 * math.sin(3 * math.pi / 8)
        assert arc_tour_length(8, 4) == pytest.approx(expected, abs=1e-12)
        arc_pts = circle_points(8).points[:4]
        assert arc_tour_length(8, 4) == pytest.approx(
            optimal_tour(Instance(arc_pts)).length, abs=1e-9
        )
        assert arc_tour_length(8, 4) == pytest.approx(
            brute_force_tour_length(arc_pts), abs=1e-9
        )

    def test_degenerate_sizes(self):
        assert arc_tour_length(9, 1) == 0.0
        assert arc_tour_length(9, 2) == pytest.approx(4 * math.sin(math.pi / 9))

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError):
            arc_tour_length(8, 0)
        with pytest.raises(ValueError):
            arc_tour_length(8, 9)


class TestCircleLimitRatio:
    def test_k1(self):
        assert circle_limit_ratio(1) == pytest.approx(1.0, abs=1e-12)

    def test_k2_half_plus_inv_pi(self):
        assert circle_limit_ratio(2) == pytest.approx(0.5 + 1 / math.pi, abs=1e-15)

    def test_k3_three_decimals(self):
        assert round(circle_limit_ratio(3), 3) == 0.609


class TestSineShiftInequality:
    def test_grid(self):
        # moving a chord endpoint toward the near end of its gap never pays:
        # sin(a) + sin(t - a) >= sin(b) + sin(t - b) for 0 <= b <= a <= t/2
        steps = 27
        checked = 0
        for ti in range(1, steps + 1):
            t = 2 * math.pi * ti / steps
            for ai in range(1, steps + 1):
                a = (t / 2) * ai / steps
                for bi in range(0, ai + 1):
                    b = (t / 2) * bi / steps
                    lhs = math.sin(a) + math.sin(t - a)
                    rhs = math.sin(b) + math.sin(t - b)
                    assert lhs >= rhs - 1e-12
                    checked += 1
        assert checked >= 10_000


class TestArcOptimality:
    def test_half_octagon_passes_and_min_is_an_arc(self):
        report = verify_arc_optimality(8, 4)
        assert report.subsets_checked == 70
        assert report.arc_value == pytest.approx(report.min_value, abs=1e-9)
        members = set(report.min_subset)
        boundaries = sum(1 for i in members if (i % 8) + 1 not in members)
        assert boundaries == 1

    def test_full_size_trivially_passes(self):
        report = verify_arc_optimality(9, 9)
        assert report.subsets_checked == 1

    def test_singletons_all_free(self):
        report = verify_arc_optimality(7, 1)
        assert report.min_value == 0.0
        values = circle._subset_values(7)
        assert all(values[1 << i] == 0.0 for i in range(7))

    def test_every_minimum_is_an_arc(self):
        for n in range(2, 15):
            for m in range(1, n + 1):
                report = verify_arc_optimality(n, m)
                assert report.subsets_checked == math.comb(n, m), (n, m)
                members = set(report.min_subset)
                assert len(members) == m
                boundaries = sum(1 for i in members if (i % n) + 1 not in members)
                assert boundaries == (1 if m < n else 0), (n, m, report.min_subset)


    def test_ties_name_the_first_mask(self, monkeypatch):
        # with every subset tied, the first mask in ascending order is named
        monkeypatch.setattr(circle, "_subset_values", lambda n: [1.0] * (1 << n))
        report = verify_arc_optimality(6, 3)
        assert report.min_subset == (1, 2, 3) and report.subsets_checked == 20


class TestPerimeterTable:
    def test_matches_the_held_karp_table(self):
        # the perimeters rest on the convex-position argument; the tour DP
        # checks them on every subset
        for n in range(2, 17):
            perimeters = circle._subset_values(n)
            exact = tour_values_by_subset(circle_points(n))
            assert len(perimeters) == len(exact) == 1 << n
            for mask, (p, e) in enumerate(zip(perimeters, exact)):
                assert math.isclose(p, e, rel_tol=1e-12, abs_tol=0.0), (n, mask, p, e)


class TestGapFillStep:
    def test_exhaustive_monotonicity_small(self):
        assert verify_gap_fill_monotonicity(8) > 0

    def test_move_counts_match_an_independent_enumeration(self):
        for n in range(3, 9):
            assert verify_gap_fill_monotonicity(n) == gap_fill_move_count(n), n

    def test_one_costly_move_is_named(self, monkeypatch):
        # The only valid move into {1, 2, 4} fills the gap after p_1 in
        # {1, 3, 4}, moving p_3 to p_2; make that subset cost more.
        values = list(circle._subset_values(6))
        values[0b1011] = values[0b1101] + 1.0
        monkeypatch.setattr(circle, "_subset_values", lambda n: values)
        with pytest.raises(
            VerificationError,
            match=r"subset \(1, 3, 4\) of the 6-circle \(i=1, j=3\)",
        ):
            verify_gap_fill_monotonicity(6)


    def test_the_first_costly_move_is_named(self, monkeypatch):
        # with many costly moves, the check names the one a plain loop over
        # the subsets meets first: smallest mask, then smallest i
        rng = random.Random(21)
        for n in (5, 7, 9):
            values = list(circle._subset_values(n))
            for mask in rng.sample(range(1, 1 << n), n):
                values[mask] += rng.choice([1.0, 2.0 * circle.CHECK_TOL, 0.5 * circle.CHECK_TOL])
            expected = naive_gap_fill_failure(values, n, circle.CHECK_TOL)
            assert expected is not None
            with monkeypatch.context() as patch:
                patch.setattr(circle, "_subset_values", lambda n: values)
                with pytest.raises(VerificationError) as failure:
                    verify_gap_fill_monotonicity(n)
            assert str(failure.value) == expected


class TestCircleRatio:
    def test_octagon_matches_oracle(self):
        closed_form = circle_ratio(8, 2)
        oracle = speedup_ratio(circle_points(8), 2)
        assert closed_form == pytest.approx(oracle, abs=1e-9)
        assert closed_form == pytest.approx(0.6767766952966369, abs=1e-12)

    def test_twelve_points(self):
        assert circle_ratio(12, 2) == pytest.approx(0.7276709006307397, abs=1e-12)

    def test_k1_is_exactly_one(self):
        assert circle_ratio(8, 1) == 1.0

    def test_indivisible_uses_the_oracle(self, monkeypatch, compiled_core):
        # past the closed form, circle_ratio is speedup_ratio of the points
        for impl in (compiled_core, _core_py):
            use_lane(monkeypatch, impl)
            for n in range(2, 13):
                for k in range(2, n + 2):
                    if n % k:
                        oracle = speedup_ratio(circle_points(n), k)
                        assert circle_ratio(n, k).hex() == oracle.hex(), (kernels.BACKEND, n, k)
        # more salespeople than points: each point tours alone
        assert circle_ratio(2, 3) == 0.0

    def test_increasing_in_n_and_below_the_limit(self):
        for k in (2, 3, 4):
            limit = circle_limit_ratio(k)
            previous = 0.0
            for m in range(2, 60):
                value = circle_ratio(k * m, k)
                assert value > previous
                assert value <= limit + 1e-12
                previous = value

    def test_balanced_arcs_match_the_partition_oracle(self):
        cases = [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (4, 2), (5, 2)]
        for k, m in cases:
            n = k * m
            inst = circle_points(n)
            oracle = speedup_ratio(inst, k)
            assert circle_ratio(n, k) == pytest.approx(oracle, abs=1e-9), (k, m)


class TestVerificationFailureSignal:
    def test_cheaper_non_arc_subset_trips(self, monkeypatch):
        # a table in which the alternate half {1, 3, 5, 7} beats every arc
        values = list(circle._subset_values(8))
        values[0b01010101] = values[0b1111] - 1.0
        monkeypatch.setattr(circle, "_subset_values", lambda n: values)
        with pytest.raises(
            VerificationError, match=r"subset \(1, 3, 5, 7\) of the 8-circle beats the 4-arc"
        ):
            verify_arc_optimality(8, 4)

    def test_every_subset_is_read(self, monkeypatch):
        # lowering any one 3-subset of the 7-circle below the arc trips the check
        for mask in range(1 << 7):
            if mask.bit_count() != 3 or mask == 0b111:
                continue
            values = [1.0] * (1 << 7)
            values[mask] = 0.0
            monkeypatch.setattr(circle, "_subset_values", lambda n: values)
            members = tuple(i + 1 for i in range(7) if mask >> i & 1)
            with pytest.raises(VerificationError, match=re.escape(f"subset {members} ")):
                verify_arc_optimality(7, 3)

    def test_raised_arc_trips(self, monkeypatch):
        # the leading arc costs more than its rotations
        values = list(circle._subset_values(8))
        values[0b1111] += 1.0
        monkeypatch.setattr(circle, "_subset_values", lambda n: values)
        with pytest.raises(VerificationError, match=r"of the 8-circle beats the 4-arc"):
            verify_arc_optimality(8, 4)
