"""Percentile bootstrap intervals for every component and aggregate.

Case resampling: each replicate draws n rows with replacement, refits, and
decomposes. Replicate b's indices come from a generator seeded with
(seed, b), so results are reproducible and independent of execution order.
Rank-deficient (or empty-cell) resamples are excluded and counted; a run
with more than 5% exclusions is invalid.

The closed-form estimator refits a chunk of replicates at once: each
replicate's indices become a row of counts, and CountWeightedFit solves the
count-weighted least-squares problems against one QR of the full data. A
replicate whose resampled design is not clearly full rank is refit from its
copied rows instead, so failures are decided exactly as a plain per-replicate
refit decides them.

The empirical-categorical estimator codes each row's table cell once
(CellCoder); a replicate's tables then come from bincounts over its indices'
codes, without copying rows. They are exactly the tables of the copied rows,
so estimates, bounds and failures are those of a per-replicate refit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closed_form import decompose_closed_form
from .core import (
    AGGREGATE_NAMES,
    ComponentSet,
    ConfigError,
    EstimationError,
    InferenceError,
    ReferenceConfig,
    component_names,
)
from .empirical import CellCoder, decompose_empirical_sequential, estimate_tables
from .regression import CountWeightedFit, Dataset, fit_all

ESTIMATORS = ("closed-form", "empirical-categorical")

# A replicate takes the count-weighted route only while this bounds the
# condition number of its resampled designs. numpy's lstsq calls a design rank
# deficient near cond = 1 / (eps * n), about 2e12 at n = 2,000 and still above
# 1e8 up to n = 4e7, so every replicate below the bound is one the reference
# refit would accept.
_COND_LIMIT = 1e8

# Bytes of float64 counts per chunk of replicates. The chunk size depends on n
# alone, so a run's arithmetic, and hence its output, is the same every time.
_CHUNK_BYTES = 128 * 1024


@dataclass(frozen=True)
class BootstrapResult:
    """Point estimate with percentile bounds.

    lower/upper cover components and aggregates alike. A percentile interval
    may exclude the point estimate in skewed cases; lower <= upper always
    holds.
    """

    point: ComponentSet
    lower: dict
    upper: dict
    level: float
    replicates: int
    failed_replicates: int
    seed: int


def _resample_indices(seed: int, b: int, n: int) -> np.ndarray:
    """Replicate b's row indices: the seeding contract."""
    return np.random.default_rng([seed, b]).integers(0, n, size=n)


def _estimate_once(d: Dataset, cfg: ReferenceConfig, estimator: str) -> ComponentSet:
    if estimator == "closed-form":
        fitted = fit_all(d, cfg.topology)
        return decompose_closed_form(fitted.coefficients, cfg)
    tables = estimate_tables(d, cfg)
    return decompose_empirical_sequential(tables, cfg)


def bootstrap_decomposition(
    d: Dataset,
    cfg: ReferenceConfig,
    B: int = 1000,
    level: float = 0.95,
    seed: int = 0,
    estimator: str = "closed-form",
) -> BootstrapResult:
    """Point decomposition plus percentile confidence bounds.

    Quantiles are numpy's default linear interpolation between order
    statistics at probabilities (1 - level)/2 and (1 + level)/2.
    """
    if B < 100:
        raise ConfigError(f"bootstrap needs B >= 100 replicates, got {B}")
    if not (0.0 < level < 1.0):
        raise ConfigError(f"confidence level must be in (0, 1), got {level}")
    if seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed}")
    if estimator not in ESTIMATORS:
        raise ConfigError(
            f"unknown estimator {estimator!r}; choose one of {ESTIMATORS}"
        )

    point = _estimate_once(d, cfg, estimator)
    names = list(component_names(cfg.topology)) + list(AGGREGATE_NAMES)
    draws = {k: [] for k in names}
    n = d.n
    failed = 0
    coder = CellCoder(d) if estimator == "empirical-categorical" else None
    fitter = CountWeightedFit(d, cfg.topology) if coder is None else None
    chunk = max(1, _CHUNK_BYTES // (8 * n))
    for start in range(0, B, chunk):
        stop = min(start + chunk, B)
        if fitter is None:
            fast = [None] * (stop - start)
        else:
            counts = np.empty((stop - start, n))
            for row, b in zip(counts, range(start, stop)):
                row[:] = np.bincount(_resample_indices(seed, b, n), minlength=n)
            fast = fitter.fit(counts, _COND_LIMIT)
        for b, coefficients in zip(range(start, stop), fast):
            try:
                if coder is not None:
                    tables = coder.tables(cfg, _resample_indices(seed, b, n))
                    cs = decompose_empirical_sequential(tables, cfg)
                elif coefficients is None:
                    rows = d.take(_resample_indices(seed, b, n))
                    cs = _estimate_once(rows, cfg, estimator)
                else:
                    cs = decompose_closed_form(coefficients, cfg)
            except (EstimationError, ConfigError):
                # the full-data estimate already passed the configuration
                # checks, so a ConfigError here means the resample lost a
                # reference level or stratum: a failed replicate
                failed += 1
                continue
            for k in component_names(cfg.topology):
                draws[k].append(cs.component(k))
            for k in AGGREGATE_NAMES:
                draws[k].append(cs.aggregates[k])

    if failed > 0.05 * B:
        raise InferenceError(
            f"{failed} of {B} bootstrap replicates failed (> 5%); "
            "intervals would be unreliable"
        )
    lo_q = (1.0 - level) / 2.0
    hi_q = (1.0 + level) / 2.0
    lower = {}
    upper = {}
    for k in names:
        vals = np.asarray(draws[k])
        lower[k] = float(np.quantile(vals, lo_q))
        upper[k] = float(np.quantile(vals, hi_q))
    return BootstrapResult(
        point=point,
        lower=lower,
        upper=upper,
        level=level,
        replicates=B,
        failed_replicates=failed,
        seed=seed,
    )
