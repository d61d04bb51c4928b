"""Command-line front end: parsing, documents, exit codes, golden output."""

import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import toursplit.circle
from helpers import plan_depth, use_lane
from toursplit.cli import main, parse_instance_text, format_instance, InputError
from toursplit import MAX_SPLIT_K, ChordSearchError, Point, VerificationError, kernels, split_plan
from toursplit import _core_py, cli

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")

SQUARE_TEXT = "0 0\n1 0\n1 1\n0 1\n"

SIN_PI_8 = math.sin(math.pi / 8)
SIN_3PI_8 = math.sin(3 * math.pi / 8)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def circle_file(tmp_path, n):
    lines = "".join(
        f"{math.cos(2 * math.pi * i / n)!r} {math.sin(2 * math.pi * i / n)!r}\n"
        for i in range(1, n + 1)
    )
    return write(tmp_path, f"circle{n}.txt", lines)


def src_env() -> dict:
    """The environment of a subprocess that imports the package from src/."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestParsing:
    def test_comments_and_blanks_ignored(self):
        pts = parse_instance_text("# heading\n\n1 2\n 3 4 # trailing\n")
        assert pts == [Point(1, 2), Point(3, 4)]

    def test_error_carries_line_number(self):
        with pytest.raises(InputError, match="line 3"):
            parse_instance_text("1 2\n\n3\n")

    def test_non_finite_rejected_with_line_number(self):
        with pytest.raises(InputError, match="line 1"):
            parse_instance_text("nan 0\n")

    def test_format_round_trips_exactly(self):
        pts = [Point(0.1234567890123456, 1e-17), Point(3.0, 4.0)]
        assert parse_instance_text(format_instance(pts)) == pts


class TestTsp:
    def test_square(self, tmp_path, capsys):
        code, out = run(capsys, ["tsp", write(tmp_path, "sq.txt", SQUARE_TEXT)])
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "tsp"
        assert doc["instance"]["n"] == 4
        assert doc["value"] == pytest.approx(4.0)
        assert doc["ratio"] == pytest.approx(1.0)

    def test_single_point(self, tmp_path, capsys):
        code, out = run(capsys, ["tsp", write(tmp_path, "one.txt", "3 7\n")])
        assert code == 0
        assert json.loads(out)["value"] == 0.0

    def test_parse_error_exit_2(self, tmp_path, capsys):
        code = main(["tsp", write(tmp_path, "bad.txt", "1 2\nbroken\n")])
        err = capsys.readouterr().err
        assert code == 2
        assert "line 2" in err

    def test_capacity_exit_3(self, tmp_path, capsys):
        lines = "".join(f"{i} {i * i % 7}\n" for i in range(20))
        path = write(tmp_path, "big.txt", lines)
        code = main(["tsp", path])
        assert code == 3
        err = capsys.readouterr().err
        assert err == f"capacity: {path}: exact tours are limited to 18 points, got 20\n"

    def test_missing_file_exit_2(self, capsys):
        assert main(["tsp", "/nonexistent/file.txt"]) == 2

    def test_binary_file_exit_2_names_it(self, tmp_path, capsys):
        path = tmp_path / "binary.txt"
        path.write_bytes(b"\xff\xfe0 0\n")
        assert main(["tsp", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {path}: ")
        assert "can't decode byte 0xff" in err

    def test_lengths_recomputable_from_vertices(self, tmp_path, capsys):
        code, out = run(capsys, ["tsp", circle_file(tmp_path, 8)])
        doc = json.loads(out)
        for block in doc["blocks"]:
            verts = block["tour"]
            total = sum(
                math.dist(verts[i], verts[(i + 1) % len(verts)])
                for i in range(len(verts))
            )
            assert total == pytest.approx(block["length"], abs=1e-9)


class TestSplit:
    def test_square_guaranteed(self, tmp_path, capsys):
        code, out = run(
            capsys,
            ["split", write(tmp_path, "sq.txt", SQUARE_TEXT), "-k", "2"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["strategy"] == "guaranteed"
        assert doc["value"] == pytest.approx(3.0, abs=1e-9)
        assert doc["bound"] == pytest.approx((0.5 + 1 / math.pi) * 4.0, abs=1e-9)
        assert doc["guarantee"] == pytest.approx(0.5 + 1 / math.pi, abs=1e-12)
        assert doc["value"] <= doc["bound"] + 1e-9
        assert len(doc["blocks"]) == 2
        assert len(doc["diagonals"]) == 1

    def test_circle_exact(self, tmp_path, capsys):
        code, out = run(
            capsys,
            ["split", circle_file(tmp_path, 8), "-k", "2", "--strategy", "exact"],
        )
        assert code == 0
        doc = json.loads(out)
        expected = 6 * SIN_PI_8 + 2 * SIN_3PI_8
        assert doc["value"] == pytest.approx(expected, abs=1e-9)
        assert doc["ratio"] == pytest.approx(expected / (16 * SIN_PI_8), abs=1e-9)

    def test_k1_matches_tsp(self, tmp_path, capsys):
        path = write(tmp_path, "sq.txt", SQUARE_TEXT)
        _, split_out = run(capsys, ["split", path, "-k", "1"])
        _, tsp_out = run(capsys, ["tsp", path])
        split_doc = json.loads(split_out)
        tsp_doc = json.loads(tsp_out)
        assert split_doc["value"] == tsp_doc["value"]
        assert split_doc["blocks"] == tsp_doc["blocks"]

    def test_tsp_is_the_one_block_exact_split(self, tmp_path, capsys, monkeypatch,
                                              compiled_core):
        # every key but the ones split appends, on both lanes
        rng = random.Random(28)
        texts = {
            "one": "0.5 0.25\n",
            "two": "0 0\n3 4\n",
            "line": "".join(f"{x} 0\n" for x in range(12)),
        }
        for n in (10, 18):
            texts[f"u{n}"] = format_instance([Point(rng.random(), rng.random()) for _ in range(n)])
        for impl in (compiled_core, _core_py):
            use_lane(monkeypatch, impl)
            for name, text in texts.items():
                path = write(tmp_path, f"{name}.txt", text)
                tsp_code, tsp_out = run(capsys, ["tsp", path])
                argv = ["split", path, "-k", "1", "--strategy", "exact"]
                split_code, split_out = run(capsys, argv)
                assert tsp_code == split_code == 0
                tsp_doc, split_doc = json.loads(tsp_out), json.loads(split_out)
                assert tsp_doc.pop("command") == "tsp"
                split_keys = [split_doc.pop(key) for key in ("command", "k", "strategy", "bound")]
                assert split_keys == ["split", 1, "exact", None]
                assert list(tsp_doc.items()) == list(split_doc.items()), (kernels.BACKEND, name)

    def test_lengths_recomputable(self, tmp_path, capsys):
        _, out = run(capsys, ["split", circle_file(tmp_path, 10), "-k", "3"])
        doc = json.loads(out)
        for block in doc["blocks"]:
            verts = block["tour"]
            total = sum(
                math.dist(verts[i], verts[(i + 1) % len(verts)])
                for i in range(len(verts))
            )
            assert total == pytest.approx(block["length"], abs=1e-9)
        assert doc["value"] == pytest.approx(
            max(b["length"] for b in doc["blocks"]), abs=1e-12
        )

    def test_single_point_many_salespeople(self, tmp_path, capsys):
        code, out = run(capsys, ["split", write(tmp_path, "one.txt", "2 3\n"), "-k", "2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == 0
        assert len(doc["blocks"]) == 1
        assert doc["blocks"][0]["points"] == [[2.0, 3.0]]

    # the last case is 2.5 wide near x = 1e8, where the coordinates' rounding
    # exceeds 1e-9 of the tour, which the chord root's residual check once failed
    @pytest.mark.parametrize(
        "n, scale, offset",
        [(8, 1e-200, 0.0), (6, 1e300, 0.0), (9, 2.5, 1e8)],
        ids=["8-1e-200", "6-1e300", "9-2.5-1e8"],
    )
    def test_far_from_unit_size(self, tmp_path, capsys, n, scale, offset):
        gen = str(tmp_path / "gen.txt")
        assert main(["gen", "-n", str(n), "--seed", "3", "--out", gen]) == 0
        pts = parse_instance_text(open(gen).read())
        path = write(tmp_path, "far.txt", format_instance(
            [Point(offset + p.x * scale, p.y * scale) for p in pts]
        ))
        for k in (2, 3, 5, 8):
            code, out = run(capsys, ["split", path, "-k", str(k)])
            assert code == 0, k
            doc = json.loads(out)
            for block in doc["blocks"]:
                assert block["length"] <= doc["bound"] * (1 + 1e-9)
                assert all(pt in block["tour"] for pt in block["points"])
            for p, q in doc["diagonals"]:
                assert math.dist(p, q) <= doc["optimal_length"] / math.pi * (1 + 1e-9)

    def test_near_vertical_sliver_keeps_the_guarantee(self, tmp_path, capsys):
        # the hull of this sliver lost the ends of its unit-long side, so the
        # cut ran along that side: value 2.0 against a bound of 1.64
        path = write(tmp_path, "sliver.txt", "0 1\n0 0\n1e-17 0\n1e-18 1\n")
        code, out = run(capsys, ["split", path, "-k", "2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] <= doc["bound"] * (1 + 1e-9)
        for p, q in doc["diagonals"]:
            assert math.dist(p, q) <= doc["optimal_length"] / math.pi * (1 + 1e-9)
        for block in doc["blocks"]:
            assert all(pt in block["tour"] for pt in block["points"])

    def test_exact_over_the_partition_cap_names_the_file(self, tmp_path, capsys):
        path = write(tmp_path, "big.txt", "".join(f"{i} {i * i % 7}\n" for i in range(19)))
        code = main(["split", path, "-k", "2", "--strategy", "exact"])
        assert code == 3
        err = capsys.readouterr().err
        limit = "exact tours are limited to 18 points, got 19"
        assert err == f"capacity: {path}: {limit}\n"

    @pytest.mark.parametrize("k, reason", [
        ("2", "the longest piece, 1.1626406454245485e-15, exceeds g(2) times the tour's length"),
        ("3", "a sub-tour that holds points has length 0"),
        ("5", "a sub-tour that holds points has length 0"),
        ("8", "a sub-tour that holds points has length 0"),
    ])
    def test_tour_too_short_for_its_precision_exit_4(self, tmp_path, capsys, k, reason):
        # three points an ulp apart: rounding breaks the guarantee, which a
        # document must never claim
        text = "2 1\n2.0000000000000004 1\n2 1.0000000000000002\n"
        code = main(["split", write(tmp_path, "tiny.txt", text), "-k", k])
        assert code == 4
        assert capsys.readouterr().err.startswith(f"verification failed: {reason}")
        assert main(["split", write(tmp_path, "tiny.txt", text), "-k", "1"]) == 0

    def test_chord_search_failure_exit_4(self, tmp_path, capsys, monkeypatch):
        def explode(xs, ys, cum, x, u):
            raise ChordSearchError("forced failure")

        # the chord search every split runs, public or recursive
        monkeypatch.setattr("toursplit.splitting._chord_root", explode)
        code = main(["split", write(tmp_path, "sq.txt", SQUARE_TEXT), "-k", "2"])
        assert code == 4
        assert "verification failed: forced failure" in capsys.readouterr().err


class TestSplitCap:
    """k is capped, so a huge k exits 3 at once instead of building its plan."""

    def run_cli(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "toursplit.cli", *argv],
            capture_output=True, text=True, timeout=60, env=src_env(),
        )

    @pytest.mark.parametrize("k", ["99999999999999999999", str(MAX_SPLIT_K + 1)])
    def test_k_over_the_cap_exit_3(self, tmp_path, k):
        five = write(tmp_path, "five.txt", "0 0\n1 0\n1 1\n0 1\n0.5 2\n")
        for argv in (["split", five, "-k", k], ["bounds", k]):
            proc = self.run_cli(*argv)
            assert proc.returncode == 3, argv
            limit = f"split plans are limited to k = {MAX_SPLIT_K}, got {k}"
            assert proc.stderr == f"capacity: {limit}\n"

    def test_k_at_the_cap_splits(self, tmp_path):
        five = write(tmp_path, "five.txt", "0 0\n1 0\n1 1\n0 1\n0.5 2\n")
        proc = self.run_cli("split", five, "-k", str(MAX_SPLIT_K))
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert len(doc["blocks"]) == 5
        assert all(block["length"] <= doc["bound"] * (1 + 1e-9) for block in doc["blocks"])
        # only the cuts on the paths to the five kept pieces are made
        assert len(doc["diagonals"]) <= 5 * plan_depth(split_plan(MAX_SPLIT_K))

    def test_bounds_at_the_cap_prints_every_row(self):
        proc = self.run_cli("bounds", str(MAX_SPLIT_K))
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == MAX_SPLIT_K + 1
        assert lines[-1].startswith(f"{MAX_SPLIT_K},")


class TestOverflow:
    @pytest.mark.parametrize(
        "text",
        [
            "1.6e308 0\n0 1.6e308\n0 0\n",  # a distance overflows
            "1e308 0\n-1e308 0\n",  # on a line
            "1e308 0\n0 0\n",  # finite distances, every tour overflows
            "1e308 1e308\n-1e308 -1e308\n",  # the one distance overflows
        ],
    )
    @pytest.mark.parametrize(
        "args",
        [
            ["tsp"],
            ["split", "-k", "2"],
            ["split", "-k", "2", "--strategy", "exact"],
            ["split", "-k", "1", "--strategy", "exact"],
        ],
    )
    def test_overflowing_lengths_exit_2(self, tmp_path, capsys, text, args):
        path = write(tmp_path, "far.txt", text)
        code = main(args[:1] + [path] + args[1:])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {path}: ") and "overflow" in err


    @pytest.mark.parametrize("k", ["1", "2", "5"])
    def test_exact_split_names_the_whole_tour(self, tmp_path, capsys, k):
        # finite distances, but every tour through the three points overflows
        path = write(tmp_path, "far.txt", "1e308 0\n0 0\n0 1\n")
        code = main(["split", path, "-k", k, "--strategy", "exact"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {path}: the tour through all the points overflows the float range\n"
        )


class TestBounds:
    def test_k_max_2_golden(self, capsys):
        code, out = run(capsys, ["bounds", "2"])
        assert code == 0
        assert out.splitlines() == [
            "k,lower,upper,decomposition",
            "1,1.000000,1.000000,trivial",
            "2,0.818310,0.818310,1+1",
        ]

    def test_stable_across_runs(self, capsys):
        _, first = run(capsys, ["bounds", "10"])
        _, second = run(capsys, ["bounds", "10"])
        assert first == second

    def test_k1_single_row(self, capsys):
        _, out = run(capsys, ["bounds", "1"])
        assert len(out.splitlines()) == 2


class TestCircleCommand:
    def test_octagon_six_decimals(self, capsys):
        code, out = run(capsys, ["circle", "-n", "8", "-k", "2"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "circle n=8 k=2"
        assert lines[1] == "gamma_circle 0.676777"
        assert lines[2] == "lb_gamma 0.818310"

    def test_k1_is_one(self, capsys):
        _, out = run(capsys, ["circle", "-n", "8", "-k", "1"])
        assert "gamma_circle 1.000000" in out

    def test_verify_passes(self, capsys):
        code, out = run(capsys, ["circle", "-n", "12", "-k", "2", "--verify"])
        assert code == 0
        assert "arc_optimality n=12: pass" in out
        assert "gap_fill_monotonicity n=12: pass" in out

    def test_verification_failure_exit_4(self, capsys, monkeypatch):
        def explode(n, m):
            raise VerificationError("forced failure")

        monkeypatch.setattr("toursplit.cli.verify_arc_optimality", explode)
        code = main(["circle", "-n", "8", "-k", "2", "--verify"])
        assert code == 4

    def test_verify_counts_every_subset_and_move(self, capsys):
        code, out = run(capsys, ["circle", "-n", "13", "-k", "5", "--verify"])
        assert code == 0
        assert "arc_optimality n=13: pass (m=1..13, 8191 subsets)" in out
        assert "gap_fill_monotonicity n=13: pass (26611 moves)" in out

    @pytest.mark.parametrize("argv", [
        ["-n", "19", "-k", "1", "--verify"],  # the ratio is closed-form, the checks are not
        ["-n", "19", "-k", "5"],  # the ratio is the exact partition oracle's
    ])
    def test_over_the_subset_table_cap_exit_3(self, capsys, argv):
        # subset tables share the one cap of the exact oracles
        assert main(["circle", *argv]) == 3
        err = capsys.readouterr().err
        assert err == "capacity: exact tours are limited to 18 points, got 19\n"

    @pytest.mark.parametrize("argv", [["-k", "3"], ["-k", "1", "--verify"]])
    def test_over_the_cap_no_circle_point_is_built(self, capsys, monkeypatch, argv):
        # a billion points would take gigabytes before the cap check
        build = toursplit.circle.circle_points

        def capped_build(n):
            assert n <= 18, f"built the {n}-point circle"
            return build(n)

        monkeypatch.setattr(toursplit.circle, "circle_points", capped_build)
        assert main(["circle", "-n", "1000000000", *argv]) == 3
        err = capsys.readouterr().err
        assert err == "capacity: exact tours are limited to 18 points, got 1000000000\n"


class TestOneTablePerJob:
    """An oracle job runs one whole-set DP, the table or the tour, for its
    answer and reads OPT_1 from it; the circle checks read polygon
    perimeters and run no DP."""

    @staticmethod
    def kernel_calls(monkeypatch) -> list:
        calls = []
        for name in ("shortest_cycle", "cycle_lengths_by_subset"):
            def counted(dist, n, name=name, original=getattr(kernels, name)):
                calls.append((name, n))
                return original(dist, n)

            monkeypatch.setattr(kernels, name, counted)
        return calls

    @staticmethod
    def whole_set_dps(calls, n) -> tuple[list, list]:
        """The tables, and the tours over all ``n`` points, in ``calls``."""
        tables = [m for name, m in calls if name == "cycle_lengths_by_subset"]
        tours = [m for name, m in calls if name == "shortest_cycle" and m == n]
        return tables, tours

    def test_circle_verify(self, capsys, monkeypatch):
        calls = self.kernel_calls(monkeypatch)
        code, out = run(capsys, ["circle", "-n", "12", "-k", "5", "--verify"])
        assert code == 0 and "gap_fill_monotonicity n=12: pass" in out
        # the ratio is speedup_ratio's, and the checks add no DP to it
        if kernels.BACKEND == "compiled":
            assert self.whole_set_dps(calls, 12) == ([12], [])
        else:
            assert self.whole_set_dps(calls, 12) == ([], [12])

    def test_circle_builds_no_table_without_verify(self, capsys, monkeypatch):
        calls = self.kernel_calls(monkeypatch)
        code, out = run(capsys, ["circle", "-n", "12", "-k", "5"])
        assert code == 0 and "gamma_circle" in out
        if kernels.BACKEND == "compiled":
            assert self.whole_set_dps(calls, 12) == ([12], [])
        else:
            # the pure search computes only the subset values it reads
            assert self.whole_set_dps(calls, 12) == ([], [12])

    def test_exact_split(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "g.txt"
        assert main(["gen", "-n", "13", "--seed", "3", "--out", str(path)]) == 0
        calls = self.kernel_calls(monkeypatch)
        code, out = run(capsys, ["split", str(path), "-k", "3", "--strategy", "exact"])
        assert code == 0
        doc = json.loads(out)
        # the block re-solve still produces every tour
        resolved = [len(b["points"]) for b in doc["blocks"] if len(b["points"]) > 1]
        tours = [c[1] for c in calls if c[0] == "shortest_cycle"]
        tables = [c[1] for c in calls if c[0] == "cycle_lengths_by_subset"]
        if kernels.BACKEND == "compiled":
            # the compiled search copies the whole table into C
            assert (tables, tours) == ([13], resolved)
        else:
            # the pure search computes the subset values it reads, and OPT_1
            # comes from the tour DP
            assert (tables, tours) == ([], [13] + resolved)

    def test_trivial_exact_splits_match_across_lanes(self, tmp_path, capsys, monkeypatch,
                                                     compiled_core):
        # one block and singletons come from the tour DP on both lanes
        path = tmp_path / "g.txt"
        assert main(["gen", "-n", "16", "--seed", "5", "--out", str(path)]) == 0
        docs = {}
        for impl in (compiled_core, _core_py):
            use_lane(monkeypatch, impl)
            calls = self.kernel_calls(monkeypatch)
            for k in ("1", "20"):
                argv = ["split", str(path), "-k", k, "--strategy", "exact"]
                docs[kernels.BACKEND, k] = run(capsys, argv)
            assert [m for name, m in calls if name == "cycle_lengths_by_subset"] == []
        for k in ("1", "20"):
            assert docs["compiled", k][0] == 0
            assert docs["compiled", k] == docs["pure", k], k


class TestGen:
    def test_deterministic_bytes(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        assert main(["gen", "-n", "5", "--seed", "42", "--out", str(a)]) == 0
        assert main(["gen", "-n", "5", "--seed", "42", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip_re_emission(self, tmp_path):
        path = tmp_path / "inst.txt"
        assert main(["gen", "-n", "8", "--seed", "7", "--out", str(path)]) == 0
        text = path.read_text()
        points = parse_instance_text(text)
        assert len(points) == 8
        assert format_instance(points) == text

    def test_zero_points_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "-n", "0"])
        assert exc.value.code == 2

    def test_unwritable_output_exit_2(self, capsys):
        assert main(["gen", "-n", "3", "--out", "/nonexistent/dir/x.txt"]) == 2

    @pytest.mark.parametrize("n", [1, cli._GEN_CHUNK - 1, cli._GEN_CHUNK, 2 * cli._GEN_CHUNK + 1])
    def test_chunks_make_the_whole_text(self, capsys, n):
        # the bytes of all n points formatted at once
        for seed in (0, 42):
            rng = random.Random(seed)
            expected = format_instance([Point(rng.random(), rng.random()) for _ in range(n)])
            assert run(capsys, ["gen", "-n", str(n), "--seed", str(seed)]) == (0, expected)

    def test_peak_memory_is_flat_in_n(self):
        # each run reports its own peak RSS; a million points once took 281 MB
        report = (
            "import resource, sys; from toursplit.cli import main; main(sys.argv[1:]); "
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
        )

        def peak(n):
            proc = subprocess.run(
                [sys.executable, "-c", report, "gen", "-n", str(n), "--out", os.devnull],
                capture_output=True, text=True, timeout=120, env=src_env(),
            )
            assert proc.returncode == 0, proc.stderr
            return int(proc.stdout)

        assert peak(10**6) < 1.25 * peak(1000)

    def test_a_reader_that_stops_early_gets_no_traceback(self):
        # as `gen -n 1000000 | head -1` reads: one line, then the pipe closes
        proc = subprocess.Popen(
            [sys.executable, "-m", "toursplit.cli", "gen", "-n", "200000", "--seed", "3"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=src_env(),
        )
        assert len(proc.stdout.readline().split()) == 2
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        assert proc.stderr.read() == b""
        proc.stderr.close()


class TestPlot:
    def _split_doc(self, tmp_path, capsys, k):
        path = write(tmp_path, "sq.txt", SQUARE_TEXT)
        doc_path = tmp_path / "result.json"
        assert main(["split", path, "-k", str(k), "--out", str(doc_path)]) == 0
        return doc_path

    def test_two_blocks_two_polygons_one_dashed(self, tmp_path, capsys):
        doc_path = self._split_doc(tmp_path, capsys, 2)
        svg_path = tmp_path / "out.svg"
        assert main(["plot", str(doc_path), "--svg", str(svg_path)]) == 0
        root = ET.fromstring(svg_path.read_text())
        ns = "{http://www.w3.org/2000/svg}"
        polygons = root.findall(f"{ns}polygon")
        lines = root.findall(f"{ns}line")
        circles = root.findall(f"{ns}circle")
        assert len(polygons) == 2
        assert len(lines) == 1
        assert lines[0].get("stroke-dasharray")
        assert len(circles) == 4

    def test_one_block_no_diagonal(self, tmp_path, capsys):
        doc_path = self._split_doc(tmp_path, capsys, 1)
        svg_path = tmp_path / "out.svg"
        assert main(["plot", str(doc_path), "--svg", str(svg_path)]) == 0
        root = ET.fromstring(svg_path.read_text())
        ns = "{http://www.w3.org/2000/svg}"
        assert len(root.findall(f"{ns}polygon")) == 1
        assert len(root.findall(f"{ns}line")) == 0

    def test_malformed_document_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"blocks": "nope"}')
        assert main(["plot", str(bad), "--svg", str(tmp_path / "o.svg")]) == 2

    def test_invalid_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["plot", str(bad), "--svg", str(tmp_path / "o.svg")]) == 2

    def test_too_deeply_nested_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["plot", str(path), "--svg", str(tmp_path / "o.svg")]) == 2
        assert capsys.readouterr().err == f"error: {path}: JSON nested too deeply to read\n"

    def test_binary_file_exit_2_names_it(self, tmp_path, capsys):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe{}")
        assert main(["plot", str(path), "--svg", str(tmp_path / "o.svg")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {path}: ")
        assert "can't decode byte 0xff" in err

    @pytest.mark.parametrize(
        "tour",
        [
            "[[NaN, 0], [1, 1]]",
            "[[0, Infinity], [1, 1]]",
            "[[1e308, 0], [-1e308, 0]]",  # the span overflows
            pytest.param(f"[[{'9' * 400}, 0], [1, 1]]", id="int-past-the-float-range"),
            "[[true, 0], [1, 1], [0, 1]]",  # JSON booleans are not numbers
            "[[0, 0], [1, false], [0, 1]]",
        ],
    )
    def test_unplottable_coordinates_exit_2_name_the_file(self, tmp_path, capsys, tour):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"blocks": [{{"tour": {tour}}}]}}')
        svg = tmp_path / "o.svg"
        assert main(["plot", str(path), "--svg", str(svg)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")
        assert not svg.exists()

    @pytest.mark.parametrize(
        "tour",
        [
            pytest.param(f"[[{'9' * 400}, 0], [1, 1]]", id="400-digit-int"),
            pytest.param(f'"{"x" * 400}"', id="400-character-string"),
            pytest.param(f"[[{', '.join(['1'] * 400)}]]", id="400-number-vertex"),
        ],
    )
    def test_error_quotes_a_clipped_value(self, tmp_path, capsys, tour):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"blocks": [{{"tour": {tour}}}]}}')
        assert main(["plot", str(path), "--svg", str(tmp_path / "o.svg")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.endswith("...\n")
        assert len(err) < len(f"error: {path}: ") + 150

    @pytest.mark.parametrize(
        "document, what",
        [
            ('{"blocks": [{"tour": 5}]}', "a block's tour"),
            ('{"blocks": [{"tour": [[0,0]]}], "diagonals": [5]}', "a diagonal"),
            ('{"blocks": [{"tour": [[0,0]], "points": 3}]}', "a block's points"),
        ],
    )
    def test_a_number_for_a_vertex_list_exits_2_names_the_file(
        self, tmp_path, capsys, document, what
    ):
        path = tmp_path / "bad.json"
        path.write_text(document)
        svg = tmp_path / "o.svg"
        assert main(["plot", str(path), "--svg", str(svg)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: {what} must be a list")
        assert not svg.exists()

    @pytest.mark.parametrize("f", [2.0**-700, 2.0**900])
    def test_power_of_two_scaling_draws_the_same_svg(self, tmp_path, capsys, f):
        doc_path = self._split_doc(tmp_path, capsys, 3)
        doc = json.loads(doc_path.read_text())
        base = tmp_path / "base.svg"
        assert main(["plot", str(doc_path), "--svg", str(base)]) == 0

        def scaled(value):
            if isinstance(value, float):
                return value * f
            return [scaled(v) for v in value]

        for block in doc["blocks"]:
            block["points"], block["tour"] = scaled(block["points"]), scaled(block["tour"])
        doc["diagonals"] = scaled(doc["diagonals"])
        far = tmp_path / "far.json"
        far.write_text(json.dumps(doc))
        svg = tmp_path / "far.svg"
        assert main(["plot", str(far), "--svg", str(svg)]) == 0
        assert svg.read_text() == base.read_text()


def test_readme_cli_block_runs_as_documented(tmp_path, capsys, monkeypatch):
    readme = (ROOT / "README.md").read_text()
    match = re.search(r"## CLI\s.*?```sh\n(.*?)```", readme, re.S)
    assert match, "README has no CLI code block"
    monkeypatch.chdir(tmp_path)
    commands = [
        shlex.split(command)
        for line in match.group(1).splitlines()
        for command in line.split("#", 1)[0].split("&&")
        if command.strip()
    ]
    assert len(commands) == 8
    for argv in commands:
        assert argv[0] == "toursplit"
        assert main(argv[1:]) == 0, argv
    assert (tmp_path / "r.svg").read_text().startswith("<?xml")
