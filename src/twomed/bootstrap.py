"""Percentile bootstrap intervals for every component and aggregate.

Case resampling: each replicate draws n rows with replacement, refits, and
decomposes. Replicate b's indices come from a generator seeded with
(seed, b), so results are reproducible and independent of execution order.
Rank-deficient (or empty-cell) resamples are excluded and counted; a run
with more than 5% exclusions is invalid.

The closed-form estimator handles a chunk of replicates at once: each
replicate's indices become a row of counts, CountWeightedFit solves the
count-weighted least-squares problems of the whole chunk against one QR of the
full data, and decompose_closed_form_batch evaluates the closed forms and
checks the component-set identities on the chunk's coefficient arrays. A
replicate whose resampled design is not clearly full rank is refit from its
copied rows and decomposed on its own instead, so failures are decided
exactly as a plain per-replicate refit decides them.

The empirical-categorical estimator codes each row's table cell once
(CellCoder). A replicate's cell counts and outcome sums then come from two
bincounts over its indices' codes, without copying rows, and fill one row of
a chunk array. CellCoder.decompose_counts decomposes the whole chunk with one
call of the table engine, and masks the replicates whose own tables would be
rejected or whose component set would break an identity. Estimates, bounds
and failures are those of decomposing each replicate's tables on its own,
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closed_form import decompose_closed_form, decompose_closed_form_batch
from .core import (
    AGGREGATE_NAMES,
    ComponentSet,
    ConfigError,
    EstimationError,
    InferenceError,
    ReferenceConfig,
    component_names,
)
from .empirical import CellCoder, ProbTables, decompose_empirical_sequential
from .regression import CountWeightedFit, Dataset, fit_all

ESTIMATORS = ("closed-form", "empirical-categorical")

# A replicate takes the count-weighted route only while this bounds the
# condition number of its resampled designs. numpy's lstsq calls a design rank
# deficient near cond = 1 / (eps * n), about 2e12 at n = 2,000 and still above
# 1e8 up to n = 4e7, so every replicate below the bound is one the reference
# refit would accept.
_COND_LIMIT = 1e8

# Replicates per chunk, and the most bytes of float64 counts a chunk may hold
# (_chunk_size). 32 replicates keep the count-weighted sums matrix-matrix
# products; at n = 2,000 doubling that added 2.4 MB of peak memory for no
# measurable gain. The byte bound caps the chunk from n = 65,536 rows on.
_CHUNK_REPLICATES = 32
_CHUNK_BYTES = 16 * 1024 * 1024


@dataclass(frozen=True)
class BootstrapResult:
    """Point estimate with percentile bounds.

    lower/upper cover components and aggregates alike. A percentile interval
    may exclude the point estimate in skewed cases; lower <= upper always
    holds. tables are the full data's, which the empirical-categorical
    estimator decomposed; None for the closed form.
    """

    point: ComponentSet
    lower: dict
    upper: dict
    level: float
    replicates: int
    failed_replicates: int
    seed: int
    tables: ProbTables | None = None


def _resample_indices(seed: int, b: int, n: int) -> np.ndarray:
    """Replicate b's row indices: the seeding contract."""
    return np.random.default_rng([seed, b]).integers(0, n, size=n)


def _closed_form_estimate(d: Dataset, cfg: ReferenceConfig) -> ComponentSet:
    """The closed-form estimate: fit, then decompose."""
    return decompose_closed_form(fit_all(d, cfg.topology).coefficients, cfg)


def _chunk_size(n: int) -> int:
    """Replicates per count-weighted batch: enough to make the batch's sums a
    matrix-matrix product, with the (chunk, n) count block held under
    _CHUNK_BYTES at very large n. It depends on n alone, so a run's
    arithmetic, and hence its output, is the same every time."""
    return max(1, min(_CHUNK_REPLICATES, _CHUNK_BYTES // (8 * n)))


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

    names = list(component_names(cfg.topology)) + list(AGGREGATE_NAMES)
    # blocks of kept replicates' values, one row per replicate in names order
    draws = []
    n = d.n
    chunk = _chunk_size(n)
    tables = None
    if estimator == "closed-form":
        point = _closed_form_estimate(d, cfg)
        fitter = CountWeightedFit(d, cfg.topology)
        for start in range(0, B, chunk):
            reps = range(start, min(start + chunk, B))
            counts = np.empty((len(reps), n))
            for row, b in zip(counts, reps):
                row[:] = np.bincount(_resample_indices(seed, b, n), minlength=n)
            coefficients, ok = fitter.fit(counts, _COND_LIMIT)
            values, violated = decompose_closed_form_batch(coefficients, cfg)
            draws.append(np.column_stack([values[k][ok & ~violated] for k in names]))
            # resampled designs not clearly full rank: the reference refit
            for b in [b for b, good in zip(reps, ok) if not good]:
                try:
                    cs = _closed_form_estimate(d.take(_resample_indices(seed, b, n)), cfg)
                except (EstimationError, ConfigError):
                    continue  # a failed replicate
                draws.append([[*cs.components.values(), *cs.aggregates.values()]])
    else:
        # the cells are coded once, for the point estimate and every replicate
        coder = CellCoder(d)
        tables = coder.tables(cfg)
        point = decompose_empirical_sequential(tables, cfg)
        for start in range(0, B, chunk):
            reps = range(start, min(start + chunk, B))
            counts = np.empty((len(reps), len(coder.cells)))
            sums = np.empty_like(counts)
            for row, b in enumerate(reps):
                counts[row], sums[row] = coder.counts(_resample_indices(seed, b, n))
            values, bad = coder.decompose_counts(cfg, counts, sums)
            draws.append(np.column_stack([values[k][~bad] for k in names]))
    vals = np.concatenate([np.reshape(block, (-1, len(names))) for block in draws])
    failed = B - len(vals)

    if failed > 0.05 * B:
        raise InferenceError(
            f"{failed} of {B} bootstrap replicates failed (> 5%); "
            "intervals would be unreliable"
        )
    lower, upper = np.quantile(vals, [(1.0 - level) / 2.0, (1.0 + level) / 2.0], axis=0)
    return BootstrapResult(
        point=point,
        lower=dict(zip(names, lower.tolist())),
        upper=dict(zip(names, upper.tolist())),
        level=level,
        replicates=B,
        failed_replicates=failed,
        seed=seed,
        tables=tables,
    )
