"""Distribution of Z = X + Y for dependent standard normal X, Y.

Dependence is modeled by one of five copulas (Gauss, Student-t, Clayton,
Gumbel, Frank).  The package computes the joint density induced by a copula
with N(0,1) margins, integrates it to the distribution function of the sum,
extracts quantiles, and cross-checks everything against its own Monte Carlo
sampler.

The public names below are importable from the package, but each module is
loaded only when one of its names is first used.
"""

import importlib

__version__ = "0.1.0"

# the public names of each module.  A module is imported the first time one
# of its names is read (PEP 562), and the CLI imports each module in the
# command that runs it, so a command loads only the modules it runs:
# `reproduce-table2` never loads the sampler, and `sample` loads no grid,
# joint density or F_Z code
_MODULE_NAMES = {
    "copula": (
        "CopulaFamily CopulaSpec DependenceSummary copula_cdf copula_density spec_from_rho "
        "summarize_dependence tau_from_pearson_rho tau_from_theta theta_from_tau"
    ),
    "errors": "DomainError QuantileOutOfRange",
    "grid": "PAPER_GRID GridSpec",
    "jointdensity": "joint_pdf joint_pdf_grid",
    "sampler": "RandomSource SampleSet empirical_cdf estimate_spearman_rho estimate_tau sample_copula sample_sum",
    "sumcdf": (
        "TABLE2_RHOS DistributionTable QuantileReport TableMode cdf_paper_exact cdf_refined quantile quantile_sweep"
    ),
}
_EXPORTS = {name: module for module, names in _MODULE_NAMES.items() for name in names.split()}

__all__ = sorted(["__version__", *_EXPORTS])


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
