"""Traced in-process replay of one workload, for the per-layer metrics.

Run by ``run.py --trace 1`` as a child process with the checkout's ``src``
first on ``PYTHONPATH``::

    python3 bench/tracer.py --workload table2 --mc-seed 7 --workdir DIR \
        --seconds 20 --out DIR/trace.json

It imports ``sumdist.cli`` (timing the import), then wraps, from outside the
library, the names one module looks up in another: ``sumcdf.cdf_refined``,
``jointdensity._axis_coordinate``, ``cli.sample_sum``, the ``specfun``
module attributes and so on (see ``_SPANS`` and ``SPECFUN_COUNTED``).  A
wrapped name records a span or bumps a call counter.  It then replays the
workload's CLI invocations through
``sumdist.cli.main(..., standalone_mode=False)`` until ``--seconds`` have
passed (at least once), reduces each replay's spans to per-layer metrics
and writes them, with the first replay's spans, as JSON.

A span records its name, wall start and end, its thread's CPU time in
between (busy time), its parent span, its thread and its request (the
invocation).  A layer's self time is the busy time of its spans minus that
of their child spans.  Spans keep to the thread they started in, so a sweep
cell run on a pool thread is a root span of that thread.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import os
import sys
import threading
import time
import traceback
from collections import defaultdict

import workloads as wl

SPECFUN_COUNTED = (
    "std_normal_cdf",
    "std_normal_inv_cdf",
    "std_normal_pdf",
    "student_t_cdf",
    "student_t_inv_cdf",
    "reg_incomplete_beta",
    "ln_gamma",
    "debye1",
)


def _points(args, kwargs):
    model, xs, ys = args
    return len(xs) * len(ys)


# (module, owner attribute or None, name, span name, work measure)
_SPANS = (
    ("cli", None, "_emit", "cli.emit", None),
    ("cli", None, "_write_artifact", "cli.write", lambda a, k: len(a[0])),
    ("cli", None, "spec_from_rho", "copula.spec_from_rho", None),
    ("cli", None, "quantile_sweep", "sumcdf.sweep", None),
    ("cli", None, "cdf_paper_exact", "sumcdf.integrate", None),
    ("cli", None, "cdf_refined", "sumcdf.integrate", None),
    ("cli", None, "sample_sum", "sampler.sample_sum", lambda a, k: a[1]),
    ("sumcdf", None, "spec_from_rho", "copula.spec_from_rho", None),
    ("sumcdf", None, "_sweep_cell", "sumcdf.cell", None),
    ("sumcdf", None, "cdf_paper_exact", "sumcdf.integrate", None),
    ("sumcdf", None, "cdf_refined", "sumcdf.integrate", None),
    ("sumcdf", None, "quantile", "sumcdf.quantile", None),
    ("sumcdf", None, "_grid_on_axes", "jointdensity.grid", _points),
    ("sumcdf", None, "kahan_cumsum_rows", "gridquad.reduce", None),
    ("sumcdf", None, "antidiagonal_sums", "gridquad.reduce", None),
    ("gridquad", "KahanAccumulator", "add", "gridquad.reduce", None),
    ("jointdensity", None, "_grid_on_axes", "jointdensity.grid", _points),
    ("jointdensity", None, "_axis_coordinate", "copula.axis", None),
    ("jointdensity", None, "_density_from_coords", "copula.kernel", None),
    ("sampler", None, "sample_copula", "sampler.copula_draw", None),
    ("sampler", "RandomSource", "uniform_block", "sampler.rng", None),
    ("sampler", "RandomSource", "normal_block", "sampler.rng", None),
    ("sampler", "RandomSource", "gamma_block", "sampler.rng", None),
    ("sampler", "RandomSource", "chi_square_block", "sampler.rng", None),
)

# per-layer metric -> (kind, span names).  Kinds: self, the span's busy time
# (CPU time of its thread) minus that of its child spans, so time spent
# waiting for the interpreter lock on a sweep pool thread is not counted;
# total, the wall time from span start to end, children included; count,
# the number of spans; work, the summed work measure.
LAYER_METRICS = {
    "cli.emit_s": ("self", ("cli.emit", "cli.write")),
    "cli.artifact_bytes": ("work", ("cli.write",)),
    "copula.spec_from_rho_s": ("self", ("copula.spec_from_rho",)),
    "copula.spec_from_rho_calls": ("count", ("copula.spec_from_rho",)),
    "copula.axis_s": ("self", ("copula.axis",)),
    "copula.axis_calls": ("count", ("copula.axis",)),
    "copula.kernel_s": ("self", ("copula.kernel",)),
    "jointdensity.grid_s": ("self", ("jointdensity.grid",)),
    "jointdensity.grid_points": ("work", ("jointdensity.grid",)),
    "gridquad.reduce_s": ("self", ("gridquad.reduce",)),
    "sumcdf.integrate_self_s": ("self", ("sumcdf.integrate",)),
    "sumcdf.quantile_s": ("self", ("sumcdf.quantile",)),
    "sumcdf.sweep_s": ("total", ("sumcdf.sweep",)),
    "sumcdf.cell_busy_s": ("total", ("sumcdf.cell",)),
    "sumcdf.cells": ("count", ("sumcdf.cell",)),
    "sampler.rng_s": ("self", ("sampler.rng",)),
    "sampler.copula_draw_s": ("self", ("sampler.copula_draw",)),
    "sampler.margin_s": ("self", ("sampler.sample_sum",)),
    "sampler.pairs": ("work", ("sampler.sample_sum",)),
}
SPECFUN_METRICS = tuple(f"specfun.{name}.calls" for name in SPECFUN_COUNTED)


class _CallCounter:
    """Call count safe across threads: ``next`` on an ``itertools.count`` is
    atomic under the interpreter lock, where ``n += 1`` can lose updates."""

    def __init__(self):
        self._it = itertools.count()
        self.bump = self._it.__next__
        self._reads = 0
        self._last = 0

    def take(self) -> int:
        total = next(self._it) - self._reads
        self._reads += 1
        delta, self._last = total - self._last, total
        return delta


class Tracer:
    """Spans and call counters recorded in memory by wrapped names."""

    def __init__(self):
        # (id, parent, name, start, end, busy, thread, request, work)
        self.spans: list[tuple] = []
        self.request = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._counters: dict[str, _CallCounter] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.unmeasured: set[str] = set()

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def wrap_span(self, owner, attr, name, work=None):
        fn = owner.__dict__[attr]
        spans, ids, local, unmeasured = self.spans, self._ids, self._local, self.unmeasured

        def spanned(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start, cpu_start = time.perf_counter(), time.thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                end, cpu_end = time.perf_counter(), time.thread_time()
                stack.pop()
                amount = 0
                if work is not None:
                    try:
                        amount = work(args, kwargs)
                    except Exception:  # a changed signature must not break the traced program
                        unmeasured.add(f"work of {name}")
                spans.append(
                    (sid, parent, name, start, end, cpu_end - cpu_start, threading.get_ident(), self.request, amount)
                )

        self._patch(owner, attr, spanned)

    def wrap_count(self, owner, attr, name):
        fn = owner.__dict__[attr]
        bump = self._counters.setdefault(name, _CallCounter()).bump

        def counted(*args, **kwargs):
            bump()
            return fn(*args, **kwargs)

        self._patch(owner, attr, counted)

    def take_counts(self) -> dict[str, int]:
        """Calls per counter since the previous take."""
        return {name: counter.take() for name, counter in self._counters.items()}

    def install(self) -> None:
        """Wrap every name in ``_SPANS`` and ``SPECFUN_COUNTED``.

        A name the library no longer has is listed in ``unmeasured`` and its
        metrics read 0, so internal refactors do not break the benchmark.
        """
        for module, owner, attr, name, work in _SPANS:
            target = _lookup(module, owner, attr)
            if target is None:
                self.unmeasured.add(f"sumdist.{module}.{owner + '.' if owner else ''}{attr}")
            else:
                self.wrap_span(target, attr, name, work)
        for fn_name in SPECFUN_COUNTED:
            target = _lookup("specfun", None, fn_name)
            if target is None:
                self.unmeasured.add(f"sumdist.specfun.{fn_name}")
                self._counters.setdefault(f"specfun.{fn_name}.calls", _CallCounter())
            else:
                self.wrap_count(target, fn_name, f"specfun.{fn_name}.calls")


def _lookup(module: str, owner: str | None, attr: str):
    """The module or class that holds ``attr``, or None."""
    try:
        target = importlib.import_module(f"sumdist.{module}")
    except ImportError:
        return None
    if owner is not None:
        target = getattr(target, owner, None)
    return target if target is not None and callable(getattr(target, "__dict__", {}).get(attr)) else None


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    child_busy: dict[int, float] = defaultdict(float)
    for sid, parent, name, start, end, busy, thread, request, work in spans:
        if parent is not None:
            child_busy[parent] += busy
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    work_sum: dict[str, int] = defaultdict(int)
    for sid, parent, name, start, end, busy, thread, request, work in spans:
        self_s[name] += busy - child_busy[sid]
        total_s[name] += end - start
        count[name] += 1
        work_sum[name] += work
    table = {"self": self_s, "total": total_s, "count": count, "work": work_sum}
    return {
        metric: sum(table[kind][name] for name in names) for metric, (kind, names) in LAYER_METRICS.items()
    }


def _replay(cli_main, workload: wl.Workload, workdir: str, tracer: Tracer) -> tuple[float, dict[str, str]]:
    """One traced pass over the workload's invocations: wall time and failures."""
    failures = {}
    start = time.perf_counter()
    for request, inv in enumerate(workload.invocations):
        tracer.request = request
        try:
            cli_main(args=inv.command(workdir), prog_name="sumdist", standalone_mode=False)
        except Exception:  # a failed invocation is counted, and the replay goes on
            failures[inv.name] = traceback.format_exc(limit=3)
    return time.perf_counter() - start, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mc-seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    workload = wl.workloads(args.mc_seed)[args.workload]

    start = time.perf_counter()
    import sumdist.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    replays = []
    first_spans: list[tuple] = []
    deadline = time.perf_counter() + args.seconds
    try:
        while not replays or time.perf_counter() < deadline:
            wall, failures = _replay(sumdist.cli.main, workload, args.workdir, tracer)
            metrics = layer_metrics(tracer.spans)
            metrics.update(tracer.take_counts())
            replays.append({"wall_s": wall, "failures": failures, "metrics": metrics})
            if not first_spans:
                first_spans = list(tracer.spans)
            tracer.spans.clear()
            if failures:
                break
    finally:
        tracer.restore()
    record = {
        "sumdist_file": sumdist.__file__,
        "import_s": import_s,
        "unmeasured": sorted(tracer.unmeasured),
        "replays": replays,
        "span_fields": ["id", "parent", "name", "start", "end", "busy", "thread", "request", "work"],
        "spans": first_spans,
    }
    with open(args.out, "w") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
