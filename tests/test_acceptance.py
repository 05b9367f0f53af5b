"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to watch the lines live.
Criterion 5 does not assert the literal "joint density < 1e-6 on the frame
of [-5, 5]^2" figure: it is false for the true density (the Gauss frame
maximum at rho = 0.9 is phi(5) phi(0) / sqrt(1 - rho^2) = 1.3607e-6).  It
checks the frame values against independent scipy oracles, and checks that
widening the square to [-6, 6]^2 moves F_Z by at most 4 (1 - Phi(5)) and
leaves the two-decimal quantiles intact.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from sumdist.copula import (
    CopulaFamily,
    CopulaSpec,
    spec_from_rho,
    tau_from_pearson_rho,
    theta_from_tau,
)
from sumdist.grid import GridSpec
from sumdist.jointdensity import _grid_on_axes, joint_pdf, joint_pdf_grid
from sumdist.sampler import RandomSource, empirical_cdf, estimate_tau, sample_copula, sample_sum
from sumdist.specfun import (
    std_normal_cdf,
    std_normal_inv_cdf,
    student_t_cdf,
    student_t_inv_cdf,
)
from sumdist.sumcdf import (
    TABLE2_RHOS,
    TableMode,
    cdf_paper_exact,
    cdf_refined,
    quantile,
    quantile_sweep,
)

SEED = 20240817
ALL_FAMILIES = list(CopulaFamily)

# reference quantile table: rho -> family tag -> (q95, q99)
TABLE2 = {
    0.9: {"gauss": (3.21, 4.53), "t": (3.20, 4.55), "clayton": (3.00, 4.00), "gumbel": (3.20, 4.60), "frank": (3.15, 4.20)},
    0.8: {"gauss": (3.12, 4.41), "t": (3.10, 4.50), "clayton": (2.85, 3.85), "gumbel": (3.15, 4.55), "frank": (3.05, 4.05)},
    0.7: {"gauss": (3.03, 4.29), "t": (3.00, 4.40), "clayton": (2.75, 3.70), "gumbel": (3.10, 4.50), "frank": (2.95, 3.95)},
    0.6: {"gauss": (2.94, 4.16), "t": (2.90, 4.30), "clayton": (2.70, 3.65), "gumbel": (3.00, 4.40), "frank": (2.85, 3.85)},
    0.5: {"gauss": (2.85, 4.03), "t": (2.80, 4.25), "clayton": (2.60, 3.55), "gumbel": (2.95, 4.30), "frank": (2.75, 3.75)},
    0.4: {"gauss": (2.75, 3.89), "t": (2.75, 4.15), "clayton": (2.55, 3.50), "gumbel": (2.80, 4.20), "frank": (2.70, 3.65)},
    0.3: {"gauss": (2.65, 3.75), "t": (2.65, 4.05), "clayton": (2.50, 3.45), "gumbel": (2.70, 4.05), "frank": (2.60, 3.55)},
    0.2: {"gauss": (2.55, 3.60), "t": (2.50, 3.95), "clayton": (2.40, 3.40), "gumbel": (2.55, 3.85), "frank": (2.50, 3.50)},
    0.1: {"gauss": (2.44, 3.45), "t": (2.40, 3.85), "clayton": (2.35, 3.30), "gumbel": (2.45, 3.60), "frank": (2.40, 3.35)},
}

_EPS = 1e-9  # float slack on tolerance boundaries


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def refined_tables_rho09():
    return {fam: cdf_refined(spec_from_rho(fam, 0.9, 4.0)) for fam in ALL_FAMILIES}


@pytest.fixture(scope="module")
def million_samples_rho09():
    out = {}
    for fam in ALL_FAMILIES:
        start = time.monotonic()
        out[fam] = (sample_sum(spec_from_rho(fam, 0.9, 4.0), 10**6, RandomSource(SEED)), time.monotonic() - start)
    return out


def test_criterion_1_gauss_analytic_anchor():
    worst = 0.0
    slowest = 0.0
    for rho in TABLE2_RHOS:
        grid = GridSpec(step=0.025, z_min=-5.0, z_max=5.0, z_step=0.025)
        start = time.monotonic()
        table = cdf_refined(CopulaSpec.gauss(rho), grid)
        elapsed = time.monotonic() - start
        slowest = max(slowest, elapsed)
        sigma = math.sqrt(2.0 + 2.0 * rho)
        for level in (0.95, 0.99):
            analytic = sigma * std_normal_inv_cdf(level)
            worst = max(worst, abs(quantile(table, level) - analytic))
    table_09 = cdf_refined(CopulaSpec.gauss(0.9), GridSpec(step=0.025, z_min=-5.0, z_max=5.0, z_step=0.025))
    q95_09 = quantile(table_09, 0.95)
    q99_09 = quantile(table_09, 0.99)
    ok = (
        worst <= 0.01 + _EPS
        and abs(q95_09 - 3.206) <= 0.01 + _EPS
        and abs(q99_09 - 4.535) <= 0.01 + _EPS
        and slowest <= 60.0
    )
    report(
        "criterion-1 gauss-analytic-anchor",
        ok,
        f"max quantile error {worst:.2e} (tol 0.01), rho=0.9 q95={q95_09:.4f} q99={q99_09:.4f}, "
        f"slowest rho {slowest:.1f}s (limit 60s)",
    )


@pytest.fixture(scope="module")
def table2_results():
    start = time.monotonic()
    non_t = quantile_sweep(
        [CopulaFamily.GAUSS, CopulaFamily.CLAYTON, CopulaFamily.GUMBEL, CopulaFamily.FRANK],
        TABLE2_RHOS,
    )
    t_by_nu = {
        nu: quantile_sweep([CopulaFamily.STUDENT_T], TABLE2_RHOS, nu=nu) for nu in (3.0, 4.0, 5.0, 8.0)
    }
    elapsed = time.monotonic() - start
    return non_t, t_by_nu, elapsed


def test_criterion_2_table2_regression(table2_results):
    non_t, t_by_nu, elapsed = table2_results
    worst_non_t = 0.0
    for row in non_t:
        for fam, (q95, q99) in row.values.items():
            ref95, ref99 = TABLE2[round(row.rho, 1)][fam]
            worst_non_t = max(worst_non_t, abs(q95 - ref95), abs(q99 - ref99))
    t_errors = {}
    for nu, rows in t_by_nu.items():
        worst = 0.0
        for row in rows:
            q95, q99 = row.values["t"]
            ref95, ref99 = TABLE2[round(row.rho, 1)]["t"]
            worst = max(worst, abs(q95 - ref95), abs(q99 - ref99))
        t_errors[nu] = worst
    best_nu = min(t_errors, key=t_errors.get)
    ok = worst_non_t <= 0.05 + _EPS and t_errors[best_nu] <= 0.10 + _EPS and elapsed <= 600.0
    report(
        "criterion-2 table2-regression",
        ok,
        f"non-t max error {worst_non_t:.3f} (tol 0.05); t best nu={best_nu:g} with max error "
        f"{t_errors[best_nu]:.3f} (tol 0.10; all {dict((k, round(v, 3)) for k, v in t_errors.items())}); "
        f"sweep {elapsed:.0f}s (limit 600s)",
    )


def test_criterion_3_headline_discrepancies(table2_results):
    non_t, _, _ = table2_results
    by_rho = {round(r.rho, 1): r for r in non_t}
    gu_09 = by_rho[0.9].values["gumbel"][1]
    cl_09 = by_rho[0.9].values["clayton"][1]
    cl_05 = by_rho[0.5].values["clayton"][1]
    gu_05 = by_rho[0.5].values["gumbel"][1]
    ga_05 = by_rho[0.5].values["gauss"][1]
    ok = (
        abs(gu_09 - 4.60) <= 0.05 + _EPS
        and abs(cl_09 - 4.00) <= 0.05 + _EPS
        and abs((gu_05 - cl_05) - 0.75) <= 0.1 + _EPS
        and abs((ga_05 - cl_05) - 0.48) <= 0.1 + _EPS
    )
    report(
        "criterion-3 headline-discrepancies",
        ok,
        f"rho=0.9 gumbel/clayton q99 = {gu_09:.2f}/{cl_09:.2f} (4.60/4.00); "
        f"rho=0.5 gumbel-clayton gap {gu_05 - cl_05:.2f} (0.75), gauss-clayton gap {ga_05 - cl_05:.2f} (0.48)",
    )


def test_criterion_4_dependence_parameter_pipeline():
    tau = tau_from_pearson_rho(0.9)
    th_cl = theta_from_tau(CopulaFamily.CLAYTON, tau)
    th_gu = theta_from_tau(CopulaFamily.GUMBEL, tau)
    th_fr = theta_from_tau(CopulaFamily.FRANK, tau)
    ok = (
        abs(tau - 0.7129) <= 1e-4
        and abs(th_cl - 4.97) <= 0.05
        and abs(th_gu - 3.48) <= 0.05
        and abs(th_fr - 12.0) <= 0.3
    )
    report(
        "criterion-4 parameter-pipeline",
        ok,
        f"tau={tau:.5f} (0.7129 +- 1e-4), theta_cl={th_cl:.3f} (4.97), "
        f"theta_gu={th_gu:.3f} (3.48), theta_fr={th_fr:.3f} (12.0)",
    )


def _frame_oracle(spec: CopulaSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Joint density with N(0,1) margins from scipy alone (no sumdist code).

    Margin probabilities come from ``norm.logcdf`` or ``norm.sf``, and the t
    quantiles from ``t.ppf`` below the median and ``t.isf`` above it, so the
    tails keep full relative accuracy out at |x| = 5.
    """
    fam = spec.family
    if fam is CopulaFamily.GAUSS:
        cov = [[1.0, spec.rho], [spec.rho, 1.0]]
        return stats.multivariate_normal([0.0, 0.0], cov).pdf(np.column_stack([x, y]))
    phi = stats.norm.pdf(x) * stats.norm.pdf(y)
    if fam is CopulaFamily.STUDENT_T:
        nu = spec.nu

        def t_coord(v):
            return np.where(v < 0.0, stats.t.ppf(stats.norm.cdf(v), nu), stats.t.isf(stats.norm.sf(v), nu))

        q1, q2 = t_coord(x), t_coord(y)
        shape = [[1.0, spec.rho], [spec.rho, 1.0]]
        joint_t = stats.multivariate_t([0.0, 0.0], shape, df=nu).pdf(np.column_stack([q1, q2]))
        return joint_t / (stats.t.pdf(q1, nu) * stats.t.pdf(q2, nu)) * phi
    th = spec.theta
    lu, lv = stats.norm.logcdf(x), stats.norm.logcdf(y)
    if fam is CopulaFamily.CLAYTON:
        # c = (1 + th) (uv)^(-1-th) (u^-th + v^-th - 1)^(-2-1/th)
        s = np.expm1(-th * lu) + np.expm1(-th * lv) + 1.0
        return np.exp(math.log1p(th) - (1.0 + th) * (lu + lv) - (2.0 + 1.0 / th) * np.log(s)) * phi
    if fam is CopulaFamily.GUMBEL:
        # c = C(u, v) / (uv) (ab)^(th-1) A^(1/th - 2) (A^(1/th) + th - 1),
        # a = -ln u, b = -ln v, A = a^th + b^th, C = exp(-A^(1/th))
        a, b = -lu, -lv
        big_a = a**th + b**th
        r = big_a ** (1.0 / th)
        ln_c = (
            -r - lu - lv
            + (th - 1.0) * np.log(a * b)
            + (1.0 / th - 2.0) * np.log(big_a)
            + np.log(r + th - 1.0)
        )
        return np.exp(ln_c) * phi
    # Frank: c = th g e^(-th(u+v)) / (g - (1 - e^(-th u))(1 - e^(-th v)))^2,
    # g = 1 - e^(-th); radially symmetric, so the upper half uses the
    # survival probabilities and never forms 1 - u by subtraction
    upper = x + y > 0.0
    u = np.where(upper, stats.norm.sf(x), stats.norm.cdf(x))
    v = np.where(upper, stats.norm.sf(y), stats.norm.cdf(y))
    g = -math.expm1(-th)
    den = g - np.expm1(-th * u) * np.expm1(-th * v)
    return th * g * np.exp(-th * (u + v)) / (den * den) * phi


def test_criterion_5_truncation_frame_bound(refined_tables_rho09):
    # (1) the density on the frame of [-5, 5]^2 agrees with independent
    # oracles; (2) widening the square to [-6, 6]^2 on a nested lattice moves
    # F_Z by no more than the mass the normal margins put outside [-5, 5]^2
    # and leaves the quantiles intact (see the module docstring for why the
    # literal 1e-6 frame figure is not asserted)
    edge = np.arange(-5.0, 5.0 + 1e-12, 0.005)
    side = np.full(edge.size, 5.0)
    xs = np.concatenate([-side, side, edge, edge])
    ys = np.concatenate([edge, edge, -side, side])
    ends = np.array([-5.0, 5.0])
    # union bound, whatever the copula: P(|X| > 5) + P(|Y| > 5)
    mass_bound = 4.0 * stats.norm.sf(5.0)
    wide = GridSpec(half_width=6.0)
    lines = []
    ok = True
    for fam in ALL_FAMILIES:
        spec = spec_from_rho(fam, 0.9, 4.0)
        # the frame's four sides as one-row and one-column grids, in the order of (xs, ys)
        rows, cols = _grid_on_axes(spec, ends, edge), _grid_on_axes(spec, edge, ends)
        dens = np.concatenate([rows[0], rows[1], cols[:, 0], cols[:, 1]])
        oracle = _frame_oracle(spec, xs, ys)
        if fam is CopulaFamily.GAUSS:
            # f(5, y) peaks at y = 5 rho = 4.5, a point of the scan
            oracle_max = stats.norm.pdf(5.0) * stats.norm.pdf(0.0) / math.sqrt(1.0 - spec.rho**2)
        else:
            oracle_max = float(oracle.max())
        peak = float(dens.max())
        frame_ok = abs(peak - oracle_max) <= 1e-6 * oracle_max and bool(
            np.all(np.abs(dens - oracle) <= 1e-6 * oracle_max)
        )

        narrow_pe = cdf_paper_exact(spec)
        wide_pe = cdf_paper_exact(spec, wide)
        narrow_rf = refined_tables_rho09[fam]
        wide_rf = cdf_refined(spec, wide)
        d_f = max(
            float(np.max(np.abs(wide_pe.raw_F_values - narrow_pe.raw_F_values))),
            float(np.max(np.abs(wide_rf.raw_F_values - narrow_rf.raw_F_values))),
        )
        levels = (0.95, 0.99)
        pe_same = all(quantile(wide_pe, q) == quantile(narrow_pe, q) for q in levels)
        d_q = max(abs(quantile(wide_rf, q) - quantile(narrow_rf, q)) for q in levels)
        ok = ok and frame_ok and d_f <= mass_bound and pe_same and d_q < 0.005
        lines.append(
            f"{fam.value} max {peak:.6e} (oracle {oracle_max:.6e}) dF {d_f:.1e} dq {d_q:.1e}"
            + ("" if pe_same else " paper-exact q moved")
        )
    report(
        "criterion-5 truncation-frame-bound",
        ok,
        "; ".join(lines)
        + f" (frame within 1e-6 of oracle max; dF <= 4(1-Phi(5)) = {mass_bound:.3e}; "
        "paper-exact q95/q99 unchanged; refined dq < 0.005)",
    )


def test_criterion_6_cross_oracle_closure(refined_tables_rho09, million_samples_rho09):
    sups = {}
    slowest = 0.0
    for fam in ALL_FAMILIES:
        table = refined_tables_rho09[fam]
        samples, elapsed = million_samples_rho09[fam]
        slowest = max(slowest, elapsed)
        emp = empirical_cdf(samples, table.z_values)
        sups[fam.value] = float(np.max(np.abs(table.F_values - emp.F_values)))
    ok = all(v <= 4e-3 for v in sups.values()) and slowest <= 120.0
    report(
        "criterion-6 cross-oracle-closure",
        ok,
        "sup distance " + ", ".join(f"{k}={v:.4f}" for k, v in sups.items())
        + f" (tol 0.004); slowest sampling {slowest:.0f}s (limit 120s)",
    )


def test_criterion_7_normalization(refined_tables_rho09):
    from sumdist.copula import _axis_coordinate, _density_from_coords

    joint_mass = {}
    for fam in ALL_FAMILIES:
        grid_sum = float(joint_pdf_grid(spec_from_rho(fam, 0.9, 4.0), GridSpec()).sum())
        joint_mass[fam.value] = grid_sum * 0.05 * 0.05
    copula_mass = {}
    n = 4000
    eps = 1e-6
    step = (1.0 - 2.0 * eps) / n
    mids = eps + step * (np.arange(n) + 0.5)
    for fam in ALL_FAMILIES:
        spec = spec_from_rho(fam, 0.9, 4.0)
        coords = _axis_coordinate(spec, mids)
        total = 0.0
        for lo in range(0, n, 250):
            block = coords[lo : lo + 250][:, None]
            total += float(np.sum(_density_from_coords(spec, block, coords[None, :])))
        copula_mass[fam.value] = total * step * step
    ok = all(abs(v - 1.0) <= 1e-3 for v in joint_mass.values()) and all(
        abs(v - 1.0) <= 1e-3 for v in copula_mass.values()
    )
    report(
        "criterion-7 normalization",
        ok,
        "joint " + ", ".join(f"{k}={v:.5f}" for k, v in joint_mass.items()) + "; copula "
        + ", ".join(f"{k}={v:.5f}" for k, v in copula_mass.items()) + " (tol 1e-3)",
    )


def test_criterion_8_property_suites(refined_tables_rho09):
    # compact cross-section of the per-module property suites (the full
    # versions live in the module test files and run in the same session)
    checks = []

    # normal and t inverse round-trips
    worst = max(abs(std_normal_inv_cdf(std_normal_cdf(x)) - x) for x in np.arange(-5.5, 5.51, 0.25))
    checks.append(("normal-round-trip", worst <= 1e-9))
    worst = max(
        abs(student_t_inv_cdf(student_t_cdf(x, nu), nu) - x)
        for nu in (1.0, 2.0, 4.0, 10.0)
        for x in np.arange(-10.0, 10.1, 1.0)
    )
    checks.append(("t-round-trip", worst <= 1e-8))

    # density vs finite-difference mixed partial (Clayton at rho=0.9)
    from sumdist.copula import copula_cdf, copula_density

    spec = spec_from_rho(CopulaFamily.CLAYTON, 0.9)
    h = 1e-4
    ok_fd = True
    for u1 in (0.3, 0.5, 0.8):
        for u2 in (0.2, 0.5, 0.7):
            fd = (
                copula_cdf(spec, u1 + h, u2 + h)
                - copula_cdf(spec, u1 + h, u2 - h)
                - copula_cdf(spec, u1 - h, u2 + h)
                + copula_cdf(spec, u1 - h, u2 - h)
            ) / (4.0 * h * h)
            dens = copula_density(spec, u1, u2)
            ok_fd = ok_fd and abs(fd - dens) <= 1e-3 * abs(dens)
    checks.append(("density-vs-cdf-mixed-partial", ok_fd))

    # exchangeability across families
    ok_sym = all(
        joint_pdf(spec_from_rho(fam, 0.9, 4.0), 1.3, -0.4)
        == joint_pdf(spec_from_rho(fam, 0.9, 4.0), -0.4, 1.3)
        for fam in ALL_FAMILIES
    )
    checks.append(("exchangeability", ok_sym))

    # monotone F_Z for every family at rho = 0.9 (raw, pre-clamp)
    ok_mono = all(
        float(np.min(np.diff(refined_tables_rho09[fam].raw_F_values))) > -1e-9 for fam in ALL_FAMILIES
    )
    checks.append(("monotone-F", ok_mono))

    # grid-refinement convergence order (paper-exact first order, refined
    # at least second order), Gauss rho = 0.9 at z in {-2, 0, 2}
    def tables(fn, steps):
        return {
            s: fn(CopulaSpec.gauss(0.9), GridSpec(step=s, z_min=-2.0, z_max=2.0, z_step=2.0)).raw_F_values
            for s in steps
        }

    pe = tables(cdf_paper_exact, (0.1, 0.05, 0.025))
    rf = tables(cdf_refined, (0.05, 0.025, 0.0125))
    ok_conv = np.all(
        np.abs(pe[0.1] - pe[0.05]) <= 4.0 * np.abs(pe[0.05] - pe[0.025]) + 1e-6
    ) and np.all(np.abs(rf[0.05] - rf[0.025]) <= 4.0 * np.abs(rf[0.025] - rf[0.0125]) + 1e-6)
    checks.append(("refinement-convergence", bool(ok_conv)))

    # sampler determinism and margin KS at 1e5 (two families; the rest are
    # covered by the sampler test module)
    uv_a = sample_copula(spec_from_rho(CopulaFamily.GUMBEL, 0.9), 50000, RandomSource(SEED))
    uv_b = sample_copula(spec_from_rho(CopulaFamily.GUMBEL, 0.9), 50000, RandomSource(SEED))
    checks.append(("sampler-determinism", bool(np.array_equal(uv_a, uv_b))))
    bound = 1.95 / math.sqrt(10**5)
    ok_ks = True
    for fam in (CopulaFamily.GAUSS, CopulaFamily.CLAYTON):
        ss = sample_sum(spec_from_rho(fam, 0.9, 4.0), 10**5, RandomSource(SEED))
        for col in (0, 1):
            xs = np.sort(ss.pairs[:, col])
            cdf_vals = np.array([std_normal_cdf(float(v)) for v in xs])
            grid_hi = np.arange(1, xs.size + 1) / xs.size
            grid_lo = np.arange(0, xs.size) / xs.size
            ks = max(float(np.max(np.abs(cdf_vals - grid_hi))), float(np.max(np.abs(cdf_vals - grid_lo))))
            ok_ks = ok_ks and ks <= bound
    checks.append(("margin-ks", ok_ks))

    # tau estimates hit the rank-correlation targets
    tau_target = tau_from_pearson_rho(0.9)
    ok_tau = all(
        abs(estimate_tau(sample_copula(spec_from_rho(fam, 0.9, 4.0), 10**5, RandomSource(SEED))) - tau_target)
        <= 0.02
        for fam in ALL_FAMILIES
    )
    checks.append(("tau-targets", ok_tau))

    failed = [name for name, ok in checks if not ok]
    report(
        "criterion-8 property-suites",
        not failed,
        ("all sub-checks green: " if not failed else f"failed: {failed}; ")
        + ", ".join(name for name, _ in checks),
    )
