"""The library calls the benchmark makes, run as the benchmark runs them.

``perfbench/child.py given`` times ``guaranteed_partition(points, tour, k)``
and ``child.py cli`` runs the CLI; with ``--spans`` both first install
``perfbench/tracer.py``, which wraps library functions and methods by name.
A renamed function or method or a changed signature breaks those runs;
these tests find it before a benchmark run does.
"""

import importlib.util
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from helpers import ellipse_tour

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
K_GIVEN = 8


def load_checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", PERFBENCH / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_child(*args: str) -> subprocess.CompletedProcess:
    """``perfbench/child.py`` with this checkout's ``src/`` on the path."""
    path_entries = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    # no bytecode cache written into perfbench/ by a test run
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path_entries), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), *args],
        capture_output=True, text=True, timeout=120, env=env,
    )


def span_names(path: Path) -> set[str]:
    return {span[0] for span in json.loads(path.read_text())["spans"]}


def test_given_tour_child_passes_the_benchmark_checks(tmp_path):
    checks = load_checks()
    points = [(v.x, v.y) for v in ellipse_tour(random.Random(300), 300).vertices]
    path = tmp_path / "ellipse.txt"
    path.write_text("".join(f"{x!r} {y!r}\n" for x, y in points))
    spans = tmp_path / "spans.json"
    for extra in ([], ["--spans", str(spans)]):
        proc = run_child("given", str(path), str(K_GIVEN), "2", *extra)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert len(doc["elapsed_s"]) == 2
        failure = checks.check_guaranteed(doc, points, K_GIVEN, checks.closed_length(points))
        assert failure is None, (extra, failure)
    assert "splitting.guaranteed_partition" in span_names(spans)


def test_traced_cli_jobs_record_the_wrapped_layers(tmp_path):
    rng = random.Random(301)
    path = tmp_path / "eight.txt"
    path.write_text("".join(f"{rng.random()!r} {rng.random()!r}\n" for _ in range(8)))
    matrix = "exact.Instance.distance_matrix"  # a method the tracer wraps by name
    jobs = {
        "circle": (["circle", "-n", "8", "-k", "3", "--verify"],
                   {matrix, "circle.verify_arc_optimality"}),
        "split": (["split", str(path), "-k", "3", "--strategy", "exact"], {matrix}),
    }
    for job, (argv, wrapped) in jobs.items():
        spans = tmp_path / f"{job}.json"
        proc = run_child("cli", "--spans", str(spans), "--", *argv)
        assert proc.returncode == 0, (job, proc.stderr)
        assert wrapped <= span_names(spans), job
