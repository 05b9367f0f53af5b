"""End-to-end benchmark of the ``sumdist`` command line.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload table2 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

``--workload`` is ``table2``, ``refined_fine``, ``mc_sample`` or ``all``.
With ``--trace 0`` the benchmark runs the workload's CLI invocations as
child processes, one at a time (a closed loop with one client), for about
``--seconds`` seconds, checks every artifact, and reports the end-to-end
metrics.  With ``--trace 1`` it runs one untraced iteration, then replays
the workload in a traced child (``tracer.py``) and reports the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report.

The program is run from the checkout's own ``src`` directory, which goes
first on ``PYTHONPATH``; ``SUMDIST_THREADS`` is removed from the child
environment so the default sweep worker count is what gets measured.  The
benchmark and its children run on one CPU (see ``pin_to_one_cpu``), and the
end-to-end times are scaled for the host's speed (see ``PROBE_REF_S``).
Workloads, metrics and the layer map are described in ``README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import workloads as wl
from tracer import LAYER_METRICS, SPECFUN_METRICS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

# fresh-import samples behind setup_s: this many before the first iteration,
# then about one per SETUP_EVERY_S seconds of iteration time, at most SETUP_MAX
SETUP_FIRST = 3
SETUP_EVERY_S = 4.0
SETUP_MAX = 15
# every child is killed after this long, and no child starts later than
# this after the benchmark began, so a run always ends within 180 s
CHILD_TIMEOUT_S = 150.0
RUN_DEADLINE_S = 165.0
MIN_ITERATIONS = 2  # mc_sample compares the bytes of two iterations

# The host is shared, and its speed drifts by a third within minutes.  Every
# timed child therefore runs between two probe children: fresh interpreters
# that import only numpy and click, the program's dependencies and none of
# its own code.  Each time is scaled by PROBE_REF_S / (the mean wall time of
# its probes), so the end-to-end times are those of a host on which the
# probe takes PROBE_REF_S.  A change to the program moves them as it moves the raw
# times, which the report prints beside them.
PROBE_ARGV = ["-c", "import numpy, click"]
PROBE_REF_S = 0.2

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def _unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    return "bytes" if metric.endswith("_bytes") else "count"


PER_LAYER = ("cli.import_s", *LAYER_METRICS, *SPECFUN_METRICS, "trace.wall_s", "trace.overhead_s")


class BenchError(Exception):
    """The benchmark cannot run here (no program to measure, wrong import)."""


@dataclass
class ChildResult:
    wall_s: float
    cpu_s: float
    max_rss_mb: float
    returncode: int
    stdout: str


class Runner:
    """Starts children one at a time and reaps each with ``os.wait4``."""

    def __init__(self, workdir: str, started: float):
        self.workdir = workdir
        self.started = started
        env = dict(os.environ)
        env.pop("SUMDIST_THREADS", None)
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env

    def run(self, argv: list[str]) -> ChildResult:
        remaining = RUN_DEADLINE_S - (time.perf_counter() - self.started)
        if remaining <= 0:
            return ChildResult(0.0, 0.0, 0.0, -1, "not started: run deadline reached")
        out_path = os.path.join(self.workdir, "child.out")
        with open(out_path, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=self.workdir, env=self.env, stdout=out, stderr=subprocess.STDOUT
            )
            killer = threading.Timer(min(CHILD_TIMEOUT_S, remaining), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8", errors="replace") as handle:
            text = handle.read()
        return ChildResult(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode, text)

    def probed(self, argv: list[str]) -> tuple[ChildResult, float]:
        """Run ``argv`` between two speed probes: (result, mean probe wall time).

        If a probe fails, the result is that failure, scaled as if the host
        ran at the reference speed.
        """
        before = self.run(PROBE_ARGV)
        res = self.run(argv) if before.returncode == 0 else before
        after = self.run(PROBE_ARGV) if before.returncode == 0 else before
        for probe in (before, after):
            if probe.returncode != 0:
                return ChildResult(0.0, 0.0, 0.0, probe.returncode, f"speed probe failed: {probe.stdout}"), PROBE_REF_S
        return res, (before.wall_s + after.wall_s) / 2.0


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """The highest of p50/p90/p99 with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99.0, 90.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            return p, ordered[min(n - 1, int(p / 100.0 * n))]
    return None


def pin_to_one_cpu() -> int | None:
    """Keep this process and every child on one CPU; return it, or None.

    Sweeps run the default two pool workers either way.  Left free, their
    interpreter-lock hand-offs cross between CPUs, and on a shared virtual
    machine each hand-off waits on the other guests' use of the second CPU:
    that made ``wall_s`` of one sweep swing by a quarter between runs.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def host_steal_s() -> float | None:
    """CPU seconds the hypervisor has given to other guests, summed over
    this machine's CPUs (Linux ``/proc/stat``); None where unavailable."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------


# the sweep worker count is read from the program while it has one
_PROBE = (
    "import json, os, sumdist, sumdist.cli as cli, importlib.metadata as md;"
    "count = getattr(cli, '_worker_count', None);"
    "print(json.dumps({'sumdist_file': os.path.realpath(sumdist.__file__), 'workers': count and count(),"
    "'numpy': md.version('numpy'), 'click': md.version('click')}))"
)


def probe(runner: Runner) -> dict:
    """Where ``sumdist`` imports from, its worker count and library versions."""
    res = runner.run(["-c", _PROBE])
    if res.returncode != 0:
        raise BenchError(f"cannot import sumdist.cli from {SRC}:\n{res.stdout}")
    info = json.loads(res.stdout.strip().splitlines()[-1])
    if os.path.commonpath([info["sumdist_file"], os.path.realpath(SRC)]) != os.path.realpath(SRC):
        raise BenchError(f"sumdist imports from {info['sumdist_file']}, not from {SRC}")
    return info


def measure_setup(runner: Runner, repeats: int) -> list[tuple[float, float]]:
    """(wall time, probe wall time) of fresh interpreters that import
    ``sumdist.cli`` and exit."""
    times = []
    for _ in range(repeats):
        res, probe_wall = runner.probed(["-c", "import sumdist.cli"])
        if res.returncode != 0:
            raise BenchError(f"importing sumdist.cli failed:\n{res.stdout}")
        times.append((res.wall_s, probe_wall))
    return times


@dataclass
class Iteration:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    problems: dict[str, list[str]]
    # the mean probe wall time around each of the iteration's children, summed
    probe_s: float
    children: int

    def scaled(self, seconds: float) -> float:
        """``seconds`` of this iteration on the reference-speed host."""
        return seconds * PROBE_REF_S * self.children / self.probe_s


def run_iteration(runner: Runner, workload: wl.Workload, checker: wl.Checker) -> Iteration:
    walls, cpu, rss, probes = [], 0.0, 0.0, 0.0
    outputs: dict[str, bytes] = {}
    problems: dict[str, list[str]] = {}
    for inv in workload.invocations:
        path = inv.path(runner.workdir)
        if os.path.exists(path):
            os.unlink(path)
        res, probe_wall = runner.probed(["-m", "sumdist.cli", *inv.command(runner.workdir)])
        probes += probe_wall
        walls.append(res.wall_s)
        cpu += res.cpu_s
        rss = max(rss, res.max_rss_mb)
        if res.returncode != 0:
            problems[inv.name] = [f"exit status {res.returncode}: {res.stdout.strip()[-500:]}"]
            continue
        with open(path, "rb") as handle:
            outputs[inv.name] = handle.read()
        digest = hashlib.sha256(outputs[inv.name]).hexdigest()[:16]
        if f"sha256={digest} " not in res.stdout:
            problems[inv.name] = [f"printed checksum does not match the artifact ({digest}): {res.stdout.strip()}"]
    for name, found in checker.check(outputs).items():
        problems.setdefault(name, []).extend(found)
    return Iteration(sum(walls), cpu, rss, problems, probes, len(walls))


def measure(runner: Runner, workload: wl.Workload, checker: wl.Checker, seconds: float):
    """Closed loop: iterations back to back until the next would overrun.

    Set-up samples are spread over the run (a few first, then about one per
    ``SETUP_EVERY_S`` of iteration time), so their median does not hang on
    the machine's speed in one moment.
    """
    setup = measure_setup(runner, SETUP_FIRST)
    iterations: list[Iteration] = []
    start = time.perf_counter()
    while True:
        iterations.append(run_iteration(runner, workload, checker))
        elapsed = time.perf_counter() - start
        typical = statistics.median(it.wall_s + 2.0 * it.probe_s for it in iterations)
        if len(iterations) >= MIN_ITERATIONS and elapsed + typical > seconds:
            return iterations, setup
        if time.perf_counter() - runner.started + typical > RUN_DEADLINE_S:
            return iterations, setup
        more = min(max(1, round(iterations[-1].wall_s / SETUP_EVERY_S)), SETUP_MAX - len(setup))
        setup += measure_setup(runner, max(0, more))


def trace(runner: Runner, workload: wl.Workload, checker: wl.Checker, mc_seed: int, seconds: float, setup_s: float):
    """One untraced iteration, then a traced in-process replay in a child."""
    untraced = run_iteration(runner, workload, checker)
    for inv in workload.invocations:
        if os.path.exists(inv.path(runner.workdir)):
            os.unlink(inv.path(runner.workdir))
    out = os.path.join(WORK_ROOT, f"trace_{workload.name}.json")
    budget = max(0.0, seconds - untraced.wall_s)
    res = runner.run(
        [
            os.path.join(os.path.dirname(os.path.abspath(__file__)), "tracer.py"),
            "--workload", workload.name, "--mc-seed", str(mc_seed), "--workdir", runner.workdir,
            "--seconds", repr(budget), "--out", out,
        ]
    )
    problems = dict(untraced.problems)
    if res.returncode != 0:
        problems["tracer"] = [f"tracer exit status {res.returncode}: {res.stdout.strip()[-2000:]}"]
        return untraced, None, problems
    with open(out) as handle:
        record = json.load(handle)
    replays = record["replays"]
    if record["unmeasured"]:
        print(f"  [{workload.name}] not traced, their metrics read 0: {', '.join(record['unmeasured'])}")
    for replay in replays:
        for name, failure in replay["failures"].items():
            problems.setdefault(f"traced {name}", []).append(failure)
    # the traced replay must write the same artifacts as the untraced run
    outputs = {}
    for inv in workload.invocations:
        if os.path.exists(inv.path(runner.workdir)):
            with open(inv.path(runner.workdir), "rb") as handle:
                outputs[inv.name] = handle.read()
    for name, found in checker.check(outputs).items():
        problems.setdefault(f"traced {name}", []).extend(found)
    counts = [{k: v for k, v in r["metrics"].items() if _unit(k) != "s"} for r in replays]
    if any(c != counts[0] for c in counts):
        problems.setdefault("tracer", []).append("work counts differ between traced replays")

    # times are medians over the replays; counts are equal in every replay
    metrics = {
        name: statistics.median(r["metrics"][name] for r in replays) if _unit(name) == "s" else value
        for name, value in replays[0]["metrics"].items()
    }
    traced_wall = statistics.median(r["wall_s"] for r in replays)
    # the untraced children also start an interpreter and import the package
    untraced_work = untraced.wall_s - len(workload.invocations) * setup_s
    metrics["cli.import_s"] = record["import_s"]
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_work
    return untraced, {"replays": len(replays), "metrics": metrics}, problems


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def machine(info: dict, mc_seed: int, seed: int, cpu: int | None) -> dict:
    commit, dirty = "unknown", None
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        git = ["git", "-C", ROOT]
        head = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True)
        if head.returncode == 0:
            commit = head.stdout.strip()
            status = subprocess.run([*git, "status", "--porcelain", "--untracked-files=no"], capture_output=True, text=True)
            dirty = bool(status.stdout.strip())
    return {
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": info["numpy"],
        "click": info["click"],
        "sweep_workers": info["workers"],
        "pinned_cpu": cpu,
        "commit": commit,
        "dirty": dirty,
        "seed": seed,
        "mc_seed": mc_seed,
    }


def _fmt(value: float) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def report_e2e(name: str, invocations: int, iterations: list[Iteration], setup: list[tuple[float, float]],
               checker: wl.Checker) -> dict:
    walls = [it.scaled(it.wall_s) for it in iterations]
    metrics = {
        "setup_s": statistics.median(wall * PROBE_REF_S / probe_wall for wall, probe_wall in setup),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(it.scaled(it.cpu_s) for it in iterations),
        "peak_rss_mb": statistics.median(it.peak_rss_mb for it in iterations),
    }
    raw = {
        "setup_s": statistics.median(wall for wall, _ in setup),
        "wall_s": statistics.median(it.wall_s for it in iterations),
        "cpu_s": statistics.median(it.cpu_s for it in iterations),
    }
    probes = [probe_wall for _, probe_wall in setup] + [it.probe_s / it.children for it in iterations]
    q1, med, q3 = quartiles(walls)
    tail = tail_percentile(walls)
    tail_text = f"p{tail[0]:g} {_fmt(tail[1])} s" if tail else "no percentile has 10 samples beyond it"
    print(f"[{name}] {len(iterations)} iterations; times scaled to a probe of {PROBE_REF_S:g} s, raw medians in brackets")
    print(f"  probe        {_fmt(statistics.median(probes))} s   (median over {len(probes)} timed children of the mean of their two probes)")
    print(f"  setup_s      {_fmt(metrics['setup_s'])} s [{_fmt(raw['setup_s'])}]   (median of {len(setup)} fresh imports of sumdist.cli)")
    print(f"  wall_s       {_fmt(med)} s [{_fmt(raw['wall_s'])}]   (q1 {_fmt(q1)}, q3 {_fmt(q3)}, {tail_text}, n={len(walls)})")
    print(f"  cpu_s        {_fmt(metrics['cpu_s'])} s [{_fmt(raw['cpu_s'])}]   (child user+sys per iteration, median)")
    print(f"  peak_rss_mb  {_fmt(metrics['peak_rss_mb'])} MB  (largest child max-RSS per iteration, median)")
    attempted = invocations * len(iterations)
    failed = sum(len(it.problems) for it in iterations)
    print(f"  error_rate   {_fmt(failed / attempted)}      ({failed} of {attempted} invocations failed or failed a check)")
    for key, value in checker.figures.items():
        print(f"  {key:<12} {_fmt(value)}" + ("   (max |q - exact Gauss quantile|, deterministic)" if key == "gauss_q_err" else ""))
    return metrics


def report_trace(name: str, untraced: Iteration, traced: dict | None) -> dict:
    print(f"[{name}] traced: 1 untraced iteration ({_fmt(untraced.wall_s)} s), "
          f"{traced['replays'] if traced else 0} traced replays (medians below)")
    if traced is None:
        return {}
    for metric in PER_LAYER:
        print(f"  {metric:<36} {_fmt(traced['metrics'][metric])} {_unit(metric)}")
    return traced["metrics"]


def print_problems(name: str, problems: dict[str, list[str]]) -> None:
    for key, found in problems.items():
        for text in found:
            print(f"  FAILED [{name}] {key}: {text}")


def run_workload(runner: Runner, workload: wl.Workload, mc_seed: int, seconds: float, traced: bool):
    """Measure one workload and print its report: (metrics, units, attempted, failed)."""
    checker = workload.checker(mc_seed)
    steal_start = host_steal_s()
    if traced:
        setup = measure_setup(runner, SETUP_FIRST)
        untraced, result, problems = trace(runner, workload, checker, mc_seed, seconds, statistics.median(s for s, _ in setup))
        values = report_trace(workload.name, untraced, result)
        replays = result["replays"] if result else 0
        attempted = len(workload.invocations) * (1 + replays)
        failed = min(len(problems), attempted)
        units = {m: _unit(m) for m in PER_LAYER}
    else:
        iterations, setup = measure(runner, workload, checker, seconds)
        values = report_e2e(workload.name, len(workload.invocations), iterations, setup, checker)
        problems = {f"iteration {i} {k}": v for i, it in enumerate(iterations) for k, v in it.problems.items()}
        attempted = len(workload.invocations) * len(iterations)
        failed = len(problems)
        units = E2E_UNITS
    steal_end = host_steal_s()
    if steal_start is not None and steal_end is not None:
        # stolen time inflates wall_s, most of all for the two-thread sweeps
        print(f"  host steal   {_fmt(steal_end - steal_start)} s of CPU taken by other guests during this workload")
    print_problems(workload.name, problems)
    return values, units, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end and per-layer benchmark of the sumdist CLI.")
    parser.add_argument("--workload", required=True, choices=["table2", "refined_fine", "mc_sample", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    # on SIGTERM, unwind so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    cpu = pin_to_one_cpu()

    if not os.path.isfile(os.path.join(SRC, "sumdist", "cli.py")):
        print(f"error: no sumdist package to measure under {SRC}", file=sys.stderr)
        return 2
    workdir = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        runner = Runner(workdir, started)
        try:
            info = probe(runner)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        mc_seed = wl.mc_seed_from(args.seed)
        print("machine: " + json.dumps(machine(info, mc_seed, args.seed, cpu), sort_keys=True))
        runner.run(["-c", "import sumdist.cli"])  # warm the bytecode and file caches
        by_name = wl.workloads(mc_seed)
        # 'all' runs each workload for the full --seconds
        names = list(by_name) if args.workload == "all" else [args.workload]
        attempted = failed = 0
        metrics: dict[str, dict] = {}
        for name in names:
            values, units, tried, bad = run_workload(runner, by_name[name], mc_seed, args.seconds, bool(args.trace))
            attempted += tried
            failed += bad
            prefix = "" if len(names) == 1 else f"{name}/"
            for metric, value in values.items():
                metrics[prefix + metric] = {"value": value, "unit": units[metric]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
