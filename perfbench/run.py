#!/usr/bin/env python3
"""The toursplit benchmark: CLI jobs on both kernel lanes and given-tour splits.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up stages a copy of ``src/toursplit`` under ``perfbench/.work``, compiles
the shipped ``_core.c`` into it, checks the two kernel lanes against each
other, generates the workload's inputs from the seed and warms up; it does
this several times and reports the median as ``setup_s``.  The load is a
closed loop with one client: each job starts after the previous one exits.
Every job runs in a fresh interpreter on the lane the workload pins, either
the ``toursplit`` CLI (``python -m toursplit.cli``) or, for tours the CLI
cannot accept, ``perfbench/child.py given`` calling the public
``guaranteed_partition``.  Every output is checked (``checks.py``).

With ``--trace 0`` the last stdout line holds the end-to-end metrics.  With
``--trace 1`` the run times half its jobs untraced and half under the span
tracer (``tracer.py``) and reports the per-layer metrics, which
``layer_map.json`` ties to the end-to-end metric each should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "toursplit"
WORK = HERE / ".work"
CHILD = str(HERE / "child.py")
PY = sys.executable

SETUP_REPS = 3
JOB_TIMEOUT_S = 120.0
STARTUP_PROBES = 5
K_GIVEN = 8

# Every workload runs every job kind, so every end-to-end metric is defined on
# each; the workloads differ in the lane and in which jobs carry the weight.
# ``repeat`` runs a job kind several times per mix and ``given_calls`` times
# that many guaranteed_partition calls per child, so that each run holds
# enough samples of every kind for a steady median.
WORKLOADS = {
    # Default install without Cython: the Python kernels do most of the work.
    "oracle-pure": dict(
        lane="pure", tsp_n=16, exact_n=13, exact_k=(2, 3, 4), guaranteed_n=16,
        guaranteed_k=(3, 8), circle=(12, 5), bounds=300, given_m=500, given_calls=3,
        repeat={"circle_verify": 2, "bounds": 2},
    ),
    # Compiled kernels at the n=18 tour cap: start-up, Python overhead and
    # the tour-DP memory become the visible costs.
    "oracle-compiled": dict(
        lane="compiled", tsp_n=18, exact_n=13, exact_k=(2, 3, 4), guaranteed_n=18,
        guaranteed_k=(3, 8), circle=(12, 5), bounds=300, given_m=500, given_calls=3,
        repeat={"tsp": 2, "circle_verify": 2, "bounds": 2},
    ),
    # Large given tours, where the kernels do no work; the CLI jobs ride along
    # at start-up-bound sizes.
    "split-given": dict(
        lane="pure", tsp_n=10, exact_n=10, exact_k=(3,), guaranteed_n=10,
        guaranteed_k=(3,), circle=(8, 3), bounds=20, given_m=1000, given_calls=2,
        repeat={"tsp": 3, "split_exact": 3, "split_guaranteed": 3, "circle_verify": 3, "bounds": 3},
    ),
}
KINDS = (
    "tsp", "split_exact", "split_guaranteed", "circle_verify", "bounds",
    "split_uniform", "split_convex",
)


@dataclass
class Job:
    kind: str
    args: list[str]
    spec: dict
    given: bool = False


@dataclass
class Sample:
    job: Job
    code: int
    rss_mb: float
    out: Path
    err: Path
    spans: Path | None = None
    times: list[float] = field(default_factory=list)
    failure: str | None = None
    doc: dict | None = field(default=None, repr=False)


# ---------------------------------------------------------------- processes


def child_env(lane: str, stage: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(stage)
    env["TOURSPLIT_BACKEND"] = lane
    env["TMPDIR"] = str(WORK / "tmp")
    return env


def spawn(argv: list[str], env: dict, out: Path, err: Path) -> tuple[int, float, float]:
    """Run one process to completion; return (exit code, wall seconds, max RSS MB)."""
    wr = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out), wr, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err), wr, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.setitimer(signal.ITIMER_REAL, JOB_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024.0


class Runner:
    """Spawns jobs for one workload and keeps their output files apart."""

    def __init__(self, lane: str, stage: Path) -> None:
        self.stage = stage
        self.env = child_env(lane, stage)
        self.count = 0
        (WORK / "out").mkdir(parents=True, exist_ok=True)

    def paths(self, tag: str) -> tuple[Path, Path]:
        self.count += 1
        base = WORK / "out" / f"{self.count:05d}-{tag}"
        return base.with_suffix(".out"), base.with_suffix(".err")

    def run(self, job: Job, traced: bool) -> Sample:
        out, err = self.paths(job.kind)
        spans = out.with_suffix(".spans") if traced else None
        if job.given:
            # Traced children make one call, so per-layer values are per call.
            calls = "1" if traced else job.spec["calls"]
            argv = [PY, CHILD, "given", *job.args, calls] + (["--spans", str(spans)] if traced else [])
        elif traced:
            argv = [PY, CHILD, "cli", "--spans", str(spans), "--", *job.args]
        else:
            argv = [PY, "-m", "toursplit.cli", *job.args]
        code, wall, rss = spawn(argv, self.env, out, err)
        return Sample(job, code, rss, out, err, spans, times=[wall])

    def child(self, *args: str, lane: str | None = None) -> tuple[int, str, str]:
        out, err = self.paths(args[0])
        env = self.env if lane is None else child_env(lane, self.stage)
        code, _, _ = spawn([PY, CHILD, *args], env, out, err)
        return code, out.read_text(), err.read_text()


# ---------------------------------------------------------------- inputs


def uniform_points(rng: random.Random, n: int) -> list[tuple[float, float]]:
    return [(rng.random(), rng.random()) for _ in range(n)]


def star_tour(rng: random.Random, m: int) -> list[tuple[float, float]]:
    """Uniform points visited in angular order around their centroid."""
    pts = uniform_points(rng, m)
    cx = sum(p[0] for p in pts) / m
    cy = sum(p[1] for p in pts) / m
    return sorted(pts, key=lambda p: math.atan2(p[1] - cy, p[0] - cx))


def ellipse_tour(rng: random.Random, m: int) -> list[tuple[float, float]]:
    """Points on a rotated ellipse, jittered at most half a step, all hull vertices."""
    b = 0.5 + 0.3 * rng.random()
    phi = 2.0 * math.pi * rng.random()
    c, s = math.cos(phi), math.sin(phi)
    out = []
    for i in range(m):
        t = 2.0 * math.pi * (i + 0.5 * rng.random()) / m
        x, y = math.cos(t), b * math.sin(t)
        out.append((x * c - y * s, x * s + y * c))
    return out


def make_jobs(cfg: dict, seed: int) -> tuple[list[Job], dict]:
    """The workload's fixed job mix, with its instance files written under WORK."""
    inputs = WORK / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    digests = {}

    def instance(name: str, points: list) -> tuple[str, tuple]:
        text = "".join(f"{x!r} {y!r}\n" for x, y in points)
        path = inputs / f"{name}.txt"
        path.write_text(text)
        digests[name] = hashlib.sha256(text.encode()).hexdigest()
        return str(path), tuple(points)

    def rng(tag: str) -> random.Random:
        return random.Random(f"{seed}:{tag}")

    tsp_path, tsp_pts = instance(f"tsp-n{cfg['tsp_n']}", uniform_points(rng("tsp"), cfg["tsp_n"]))
    ex_path, ex_pts = instance(f"exact-n{cfg['exact_n']}", uniform_points(rng("exact"), cfg["exact_n"]))
    gu_path, gu_pts = instance(
        f"guaranteed-n{cfg['guaranteed_n']}", uniform_points(rng("guaranteed"), cfg["guaranteed_n"])
    )
    m = cfg["given_m"]
    un_path, un_pts = instance(f"uniform-m{m}", star_tour(rng("uniform"), m))
    cv_path, cv_pts = instance(f"convex-m{m}", ellipse_tour(rng("convex"), m))
    n_circle, k_circle = cfg["circle"]

    jobs = [Job("tsp", ["tsp", tsp_path], {"points": tsp_pts})]
    for k in cfg["exact_k"]:
        jobs.append(Job("split_exact", ["split", ex_path, "-k", str(k), "--strategy", "exact"],
                        {"points": ex_pts, "k": k}))
    for k in cfg["guaranteed_k"]:
        jobs.append(Job("split_guaranteed", ["split", gu_path, "-k", str(k)], {"points": gu_pts, "k": k}))
    jobs.append(Job("circle_verify", ["circle", "-n", str(n_circle), "-k", str(k_circle), "--verify"],
                    {"n": n_circle, "k": k_circle}))
    jobs.append(Job("bounds", ["bounds", str(cfg["bounds"])], {"k_max": cfg["bounds"]}))
    calls = str(cfg["given_calls"])
    jobs.append(Job("split_uniform", [un_path, str(K_GIVEN)], {"points": un_pts, "k": K_GIVEN, "calls": calls}, True))
    jobs.append(Job("split_convex", [cv_path, str(K_GIVEN)], {"points": cv_pts, "k": K_GIVEN, "calls": calls}, True))
    return [job for job in jobs for _ in range(cfg["repeat"].get(job.kind, 1))], digests


# ---------------------------------------------------------------- set-up


def stage_package(dest: Path) -> None:
    if not (SRC / "__init__.py").is_file():
        raise SystemExit(f"error: package sources not found at {SRC}")
    if dest.exists():
        shutil.rmtree(dest)
    shutil.copytree(SRC, dest / "toursplit",
                    ignore=shutil.ignore_patterns("__pycache__", "*.so"))


@dataclass
class Setup:
    stage: Path
    jobs: list[Job]
    digests: dict
    times: list[float]
    built: bool
    lanes: dict
    failures: list[str]
    attempted: int


def set_up(cfg: dict, seed: int) -> Setup:
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    shutil.rmtree(WORK / "out", ignore_errors=True)
    times = []
    for rep in range(SETUP_REPS):
        start = time.perf_counter()
        stage = WORK / f"stage{rep}"
        stage_package(stage)
        runner = Runner(cfg["lane"], stage)
        built = runner.child("build", str(stage), lane="pure")[0] == 0
        jobs, digests = make_jobs(cfg, seed)
        # Warm-up: import every module once per lane so bytecode is cached.
        lanes = {}
        for lane in ("pure", "compiled"):
            code, out, _ = runner.child("backend", lane=lane)
            lanes[lane] = json.loads(out)["backend"] if code == 0 else None
        warm = runner.run(Job("bounds", ["bounds", "10"], {"k_max": 10}), traced=False)
        times.append(time.perf_counter() - start)
        if rep:
            shutil.rmtree(WORK / f"stage{rep - 1}")

    failures = []
    if warm.code != 0:
        failures.append(f"warm-up exited {warm.code}: {warm.err.read_text()[-300:]}")
    for lane, seen in lanes.items():
        if seen != lane:
            failures.append(f"SOLVER_BACKEND on the {lane} lane is {seen!r}")
    # Lane parity, once per run: both kernel lanes must agree exactly.
    code, out, err = runner.child("parity", str(seed), lane="pure")
    cases = json.loads(out)["cases"] if code == 0 else []
    for case in cases:
        if not case["ok"]:
            failures.append(f"lane parity {case['case']}: {case.get('error', 'mismatch')}")
    if code != 0:
        failures.append(f"lane parity exited {code}: {err[-300:]}")
    attempted = 2 + max(len(cases), 1)
    return Setup(stage, jobs, digests, times, built, lanes, failures, attempted)


# ---------------------------------------------------------------- measuring


def measure(runner: Runner, jobs: list[Job], seconds: float, traced: bool) -> tuple[list[Sample], float, int]:
    """Run whole mixes back to back while the next one is expected to fit in ``seconds``."""
    samples: list[Sample] = []
    cycle_times = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        samples.extend(runner.run(job, traced) for job in jobs)
        cycle_times.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(cycle_times) > seconds:
            break
    return samples, time.perf_counter() - start, len(cycle_times)


def verify(samples: list[Sample]) -> None:
    for s in samples:
        if s.code != 0:
            tail = s.err.read_text()[-300:].strip().replace("\n", " | ")
            s.failure = f"exit {s.code}: {tail}"
            continue
        text = s.out.read_text()
        s.failure = checks.check_output(s.job.kind, text, s.job.spec)
        if s.job.given or s.job.kind == "split_guaranteed":
            s.doc = json.loads(text) if s.failure is None else None
        if s.job.given and s.doc is not None:
            s.times = s.doc["elapsed_s"]


def by_kind(samples: list[Sample]) -> dict[str, list[float]]:
    times = {kind: [] for kind in KINDS}
    for s in samples:
        times[s.job.kind].extend(s.times)
    return times


def tail_percentile(values: list[float]) -> dict | None:
    """The highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    pct = math.floor(100 * (n - 10) / n)
    return {"p": pct, "value": ordered[max(0, math.ceil(pct / 100 * n) - 1)], "samples": n}


def piece_slack(samples: list[Sample]) -> float:
    """Longest piece over g(k)*L across every guaranteed split in the run."""
    worst = 0.0
    for s in samples:
        if s.doc is None:
            continue
        k = s.job.spec["k"]
        length = s.doc.get("optimal_length") or checks.closed_length(s.job.spec["points"])
        worst = max(worst, max(b["length"] for b in s.doc["blocks"]) / (checks.g(k) * length))
    return worst


# ---------------------------------------------------------------- per layer


def dp_cost(kernel: str, n: int, lane: str) -> tuple[int, int]:
    """Computed (relaxations, table bytes) of one kernel call from n and the lane's layout."""
    comb = math.comb
    if kernel == "kernels.shortest_cycle":
        if n < 2:
            return 0, 0
        relax = sum(comb(n - 1, s - 1) * (1 if s == 1 else s - 1) * (n - s) for s in range(1, n))
        finite = 1 + sum(comb(n - 1, s - 1) * (s - 1) for s in range(2, n + 1))
        # compiled: double dp[] + int parent[]; pure: two lists of pointers plus one float per reached state
        size = 12 * n << n if lane == "compiled" else (16 * n << n) + 24 * finite
        return relax, size
    if kernel == "kernels.cycle_lengths_by_subset":
        relax = sum(comb(n, s) * (s - 1) ** 2 for s in range(2, n + 1))
        finite = n + sum(comb(n, s) * (s - 1) for s in range(2, n + 1))
        slots = 8 * (n + 1) << n
        return relax, slots if lane == "compiled" else slots + 24 * finite
    return 0, 0


def layer_metrics(samples: list[Sample], cycles: int, lane: str) -> dict[str, float]:
    calls: Counter = Counter()
    self_s: Counter = Counter()
    errors: Counter = Counter()
    extra: Counter = Counter()
    hull: dict[str, int] = {}
    share: dict[str, list[float]] = {"uniform": [], "convex": []}
    table_bytes = 0
    diag_slack = 0.0
    for s in samples:
        if s.spans is None or not s.spans.exists():
            continue
        spans = json.loads(s.spans.read_text())["spans"]
        covered = [0.0] * len(spans)
        for name, start, end, parent, meta, err in spans:
            if parent >= 0:
                covered[parent] += end - start
        shape = s.job.kind[len("split_"):] if s.job.given else None
        job_self: Counter = Counter()
        for i, (name, start, end, parent, meta, err) in enumerate(spans):
            own = end - start - covered[i]
            calls[name] += 1
            self_s[name] += own
            job_self[name] += own
            layer = name.split(".")[0]
            if err and (parent < 0 or spans[parent][0].split(".")[0] != layer):
                errors[layer] += 1
            if name == "exact.optimal_tour" and parent >= 0 and spans[parent][0] == "exact.optimal_partition":
                extra["exact.block_resolve_s"] += end - start
            if meta is None:
                continue
            if "n" in meta:
                relax, size = dp_cost(name, meta["n"], lane)
                extra["kernels.hk_relaxations"] += relax
                table_bytes = max(table_bytes, size)
            elif "hull" in meta and shape is not None:
                hull.setdefault(shape, meta["hull"])
            elif "slack" in meta:
                diag_slack = max(diag_slack, meta["slack"])
            elif "subsets" in meta:
                extra["circle.subsets_checked"] += meta["subsets"]
            elif "moves" in meta:
                extra["circle.moves_checked"] += meta["moves"]
        if shape is not None:
            top = next((e - b for n, b, e, *_ in spans if n == "splitting.guaranteed_partition"), 0.0)
            if top > 0:
                share[shape].append(job_self["geometry.min_width"] / top)

    per = max(cycles, 1)
    out: dict[str, float] = {}
    for layer in ("cli", "kernels", "exact", "geometry", "splitting", "circle"):
        out[f"{layer}.errors"] = errors[layer]
    out["cli.main.self_s"] = self_s["cli.main"] / per
    for name in ("kernels.shortest_cycle", "kernels.cycle_lengths_by_subset",
                 "kernels.min_max_partition", "exact.optimal_tour",
                 "geometry.ClosedTour.arclength_of", "geometry.min_width",
                 "geometry.directional_width"):
        out[f"{name}.calls"] = calls[name] / per
        out[f"{name}.self_s"] = self_s[name] / per
    for name in ("exact.Instance.distance_matrix", "exact.optimal_partition",
                 "geometry.convex_hull", "geometry.ClosedTour.subcurve",
                 "splitting.assign_points", "splitting.chord_at_arclength",
                 "splitting.short_diagonal", "splitting.split_plan",
                 "circle.verify_arc_optimality", "circle.verify_gap_fill_monotonicity",
                 "circle.circle_ratio"):
        out[f"{name.replace('Instance.', '')}.self_s"] = self_s[name] / per
    out["kernels.hk_relaxations"] = extra["kernels.hk_relaxations"] / per
    out["kernels.dp_table_bytes"] = table_bytes
    out["exact.block_resolve_s"] = extra["exact.block_resolve_s"] / per
    out["circle.subsets_checked"] = extra["circle.subsets_checked"] / per
    out["circle.moves_checked"] = extra["circle.moves_checked"] / per
    out["splitting.splits"] = calls["splitting.short_diagonal"] / per
    out["splitting.diag_slack.max"] = diag_slack
    for shape in ("uniform", "convex"):
        out[f"geometry.hull_size.{shape}"] = hull.get(shape, 0)
        out[f"geometry.min_width.self_share.{shape}"] = statistics.fmean(share[shape]) if share[shape] else 0.0
    return out


# ---------------------------------------------------------------- report


def provenance(args, setup: Setup) -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref
    source = hashlib.sha256()
    for path in sorted((setup.stage / "toursplit").iterdir()):
        if path.suffix in (".py", ".c"):
            source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "lanes_present": sorted(lane for lane, seen in setup.lanes.items() if seen == lane),
        "compiled_built": setup.built,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "instance_sha256": setup.digests,
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if "share" in name or "slack" in name or name == "fail_rate":
        return "ratio"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    cfg = WORKLOADS[args.workload]

    setup = set_up(cfg, args.seed)
    runner = Runner(cfg["lane"], setup.stage)
    if args.trace:
        plain, _, _ = measure(runner, setup.jobs, args.seconds / 2, traced=False)
        startup = [spawn([PY, "-c", "import toursplit"], runner.env, *runner.paths("startup"))
                   for _ in range(STARTUP_PROBES)]
        traced, _, cycles = measure(runner, setup.jobs, args.seconds / 2, traced=True)
        samples = plain + traced
    else:
        samples, loop_s, cycles = measure(runner, setup.jobs, args.seconds, traced=False)
    verify(samples)

    failures = setup.failures + [f"{s.job.kind} {' '.join(s.job.args)}: {s.failure}"
                                 for s in samples if s.failure]
    attempted = setup.attempted + len(samples)
    for line in failures[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    report: dict = {"provenance": provenance(args, setup), "cycles": cycles,
                    "setup_times_s": setup.times, "failures": failures}

    if args.trace:
        mix = Counter(job.kind for job in setup.jobs)
        base = sum(mix[k] * statistics.median(v) for k, v in by_kind(plain).items())
        with_tracer = sum(mix[k] * statistics.median(v) for k, v in by_kind(traced).items())
        values = layer_metrics(traced, cycles, cfg["lane"])
        values["cli.startup_s"] = statistics.median(wall for code, wall, _ in startup)
        if any(code != 0 for code, _, _ in startup):
            values["cli.errors"] += 1
        values["splitting.piece_slack.max"] = piece_slack(traced)
        values["trace.overhead_s"] = with_tracer - base
        values["trace.overhead_share"] = with_tracer / base - 1.0
        values["fail_rate"] = len(failures) / attempted
        metrics = {name: (value, layer_unit(name)) for name, value in sorted(values.items())}
    else:
        times = by_kind(samples)
        metrics = {"setup_s": (statistics.median(setup.times), "s"),
                   "jobs_per_s": (len(samples) / loop_s, "1/s")}
        for kind in KINDS:
            metrics[f"{kind}_s"] = (statistics.median(times[kind]), "s")
        metrics["peak_rss_mb"] = (max(s.rss_mb for s in samples), "MB")
        report["tails"] = {f"{kind}_s": tail_percentile(times[kind]) for kind in KINDS}
        report["samples"] = {f"{kind}_s": len(times[kind]) for kind in KINDS}

    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>14.6g} {unit}")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
