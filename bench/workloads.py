"""The benchmark's workloads: which CLI invocations make one iteration, and
how their outputs are checked.

Every workload drives the real ``sumdist`` command line.  One iteration is a
fixed list of invocations; each invocation writes one artifact, and each
artifact is checked here with the standard library only (never with the
library under test).  Why each workload exists, and which layer it loads,
is documented in ``README.md`` next to this file.

A check never raises: it returns the problems it found, keyed by the
artifact they belong to, and the caller counts them as failed invocations.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
from dataclasses import dataclass, field
from statistics import NormalDist

FAMILIES = ("gauss", "t", "clayton", "gumbel", "frank")
QS = (0.95, 0.99)

# byte-for-byte output of `reproduce-table2` on the reference code
TABLE2_SHA256_PREFIX = "f0605be0c42e626b"

REFINED_RHOS = (0.9, 0.5, 0.1)
REFINED_STEP = "0.025"
# refined mode at step 0.025 matches the closed-form Gauss answer to a few
# parts in 1e5 (6.3e-5 on the quantiles); losing that accuracy is a failure
REFINED_GAUSS_Q_TOL = 1e-4

MC_RHO = 0.9
MC_N = 50_000
# Kolmogorov-Smirnov level for the Gauss sums; the critical value is
# sqrt(-ln(alpha / 2) / 2) / sqrt(n).  The level is small because a given
# seed always gives the same sample, so a false alarm would repeat.
KS_ALPHA = 1e-6

_STD = NormalDist()


@dataclass(frozen=True)
class Invocation:
    """One CLI call: arguments after ``sumdist`` and the artifact it writes."""

    name: str
    argv: tuple[str, ...]

    def path(self, workdir: str) -> str:
        return os.path.join(workdir, f"{self.name}.csv")

    def command(self, workdir: str) -> list[str]:
        return [*self.argv, "--output", self.path(workdir)]


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[Invocation, ...]

    def checker(self, mc_seed: int) -> "Checker":
        return _CHECKERS[self.name](mc_seed)


def mc_seed_from(seed: int) -> int:
    """The 64-bit sampler seed a benchmark seed stands for."""
    return random.Random(seed).getrandbits(64)


def workloads(mc_seed: int) -> dict[str, Workload]:
    refined = ("sweep", "--mode", "refined", "--step", REFINED_STEP, "--z-step", REFINED_STEP,
               "--rhos", ",".join(str(r) for r in REFINED_RHOS))
    sample = tuple(
        Invocation(f"sample_{fam}", ("sample", "--copula", fam, "--rho", str(MC_RHO), "--n", str(MC_N),
                                     "--seed", str(mc_seed)))
        for fam in FAMILIES
    )
    return {
        "table2": Workload("table2", (Invocation("table2", ("reproduce-table2",)),)),
        "refined_fine": Workload("refined_fine", (Invocation("refined", refined),)),
        "mc_sample": Workload("mc_sample", sample),
    }


# ---------------------------------------------------------------------------
# artifact parsing (CSV written by the CLI: '# meta:' line, header, rows)
# ---------------------------------------------------------------------------


def _csv_rows(data: bytes) -> tuple[list[str], list[list[str]]]:
    lines = data.decode().splitlines()
    if len(lines) < 2 or not lines[0].startswith("# meta: "):
        raise ValueError("artifact lacks the '# meta:' line and header")
    return lines[1].split(","), [line.split(",") for line in lines[2:]]


def _quantile_rows(data: bytes) -> list[tuple[float, str, dict[float, float]]]:
    header, rows = _csv_rows(data)
    expected = ["rho", "family"] + [f"q{int(round(q * 100)):02d}" for q in QS]
    if header != expected:
        raise ValueError(f"header {header} is not {expected}")
    return [(float(r[0]), r[1], {q: float(v) for q, v in zip(QS, r[2:])}) for r in rows]


def gauss_q_err(data: bytes) -> float:
    """Largest |Gauss q95/q99 - sqrt(2 + 2 rho) Phi^-1(q)| of a sweep CSV."""
    worst = 0.0
    for rho, fam, values in _quantile_rows(data):
        if fam == "gauss":
            scale = math.sqrt(2.0 + 2.0 * rho)
            for q, v in values.items():
                worst = max(worst, abs(v - scale * _STD.inv_cdf(q)))
    return worst


def makarov_violations(data: bytes) -> list[str]:
    """Quantiles outside 2 Phi^-1(q/2) <= z_q <= 2 Phi^-1((1+q)/2)."""
    out = []
    for rho, fam, values in _quantile_rows(data):
        for q, v in values.items():
            lo, hi = 2.0 * _STD.inv_cdf(q / 2.0), 2.0 * _STD.inv_cdf((1.0 + q) / 2.0)
            if not (lo <= v <= hi):
                out.append(f"{fam} rho={rho} q={q}: {v!r} outside the Makarov band [{lo:.6f}, {hi:.6f}]")
    return out


def ks_statistic_normal(sums: list[float], sigma: float) -> float:
    dist = NormalDist(0.0, sigma)
    n = len(sums)
    d = 0.0
    for i, s in enumerate(sorted(sums)):
        f = dist.cdf(s)
        d = max(d, (i + 1) / n - f, f - i / n)
    return d


def ks_critical(n: int, alpha: float = KS_ALPHA) -> float:
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) / math.sqrt(n)


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------


@dataclass
class Checker:
    """Checks the artifacts of one iteration; remembers what repeats must match."""

    mc_seed: int
    # deterministic accuracy figures of the last checked iteration
    figures: dict[str, float] = field(default_factory=dict)

    def check(self, outputs: dict[str, bytes]) -> dict[str, list[str]]:
        problems: dict[str, list[str]] = {}
        for name, data in outputs.items():
            try:
                found = self.check_one(name, data)
            except (ValueError, IndexError, KeyError) as exc:
                found = [f"unparseable artifact: {exc}"]
            if found:
                problems[name] = found
        return problems

    def check_one(self, name: str, data: bytes) -> list[str]:
        raise NotImplementedError


class Table2Checker(Checker):
    def check_one(self, name, data):
        self.figures["gauss_q_err"] = gauss_q_err(data)
        digest = hashlib.sha256(data).hexdigest()
        if not digest.startswith(TABLE2_SHA256_PREFIX):
            return [f"sha256 {digest[:16]} is not the reference {TABLE2_SHA256_PREFIX}"]
        return []


class RefinedChecker(Checker):
    def check_one(self, name, data):
        err = self.figures["gauss_q_err"] = gauss_q_err(data)
        problems = makarov_violations(data)
        if not err <= REFINED_GAUSS_Q_TOL:
            problems.append(f"Gauss quantile error {err:.3e} exceeds {REFINED_GAUSS_Q_TOL:.0e}")
        cells = {(rho, fam) for rho, fam, _ in _quantile_rows(data)}
        if cells != {(r, f) for r in REFINED_RHOS for f in FAMILIES}:
            problems.append(f"expected the {len(FAMILIES) * len(REFINED_RHOS)} (rho, family) cells, got {sorted(cells)}")
        return problems


class SampleChecker(Checker):
    def __init__(self, mc_seed: int):
        super().__init__(mc_seed)
        self._first_digest: dict[str, str] = {}

    def check_one(self, name, data):
        problems = []
        digest = hashlib.sha256(data).hexdigest()
        first = self._first_digest.setdefault(name, digest)
        if digest != first:
            problems.append(f"bytes differ from the first iteration with seed {self.mc_seed} ({digest[:16]} != {first[:16]})")
        header, rows = _csv_rows(data)
        if header != ["x", "y"] or len(rows) != MC_N:
            problems.append(f"expected header x,y and {MC_N} rows, got {header} and {len(rows)} rows")
        elif name == "sample_gauss":
            sums = [float(x) + float(y) for x, y in rows]
            d = ks_statistic_normal(sums, math.sqrt(2.0 + 2.0 * MC_RHO))
            self.figures["gauss_ks_d"] = d
            if d > ks_critical(len(sums)):
                problems.append(f"Gauss sums fail KS against N(0, sqrt(2+2rho)): D={d:.5f} > {ks_critical(len(sums)):.5f}")
        return problems


_CHECKERS = {"table2": Table2Checker, "refined_fine": RefinedChecker, "mc_sample": SampleChecker}
