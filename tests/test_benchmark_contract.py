"""The library calls the benchmark makes, run as the benchmark runs them.

``perfbench/child.py given`` times ``guaranteed_partition(points, tour, k)``
and, with ``--spans``, first installs ``perfbench/tracer.py``, which wraps
library functions by name.  A renamed function or a changed signature
breaks those runs; this test finds it before a benchmark run does.
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


def test_given_tour_child_passes_the_benchmark_checks(tmp_path):
    checks = load_checks()
    points = [(v.x, v.y) for v in ellipse_tour(random.Random(300), 300).vertices]
    path = tmp_path / "ellipse.txt"
    path.write_text("".join(f"{x!r} {y!r}\n" for x, y in points))
    path_entries = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    # no bytecode cache written into perfbench/ by a test run
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path_entries), PYTHONDONTWRITEBYTECODE="1")
    spans = tmp_path / "spans.json"
    for extra in ([], ["--spans", str(spans)]):
        proc = subprocess.run(
            [sys.executable, str(PERFBENCH / "child.py"), "given",
             str(path), str(K_GIVEN), "2", *extra],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert len(doc["elapsed_s"]) == 2
        failure = checks.check_guaranteed(doc, points, K_GIVEN, checks.closed_length(points))
        assert failure is None, (extra, failure)
    names = {span[0] for span in json.loads(spans.read_text())["spans"]}
    assert "splitting.guaranteed_partition" in names
