"""Percentile bootstrap intervals for every component and aggregate.

Case resampling: each replicate draws n rows with replacement, refits, and
decomposes. Replicate b's indices come from a generator seeded with
(seed, b), so results are reproducible and independent of execution order.
Rank-deficient (or empty-cell) resamples are excluded and counted; a run
with more than 5% exclusions is invalid.

The closed-form estimator handles a chunk of replicates at once: each
replicate's indices become a row of counts, CountWeightedFit solves the
count-weighted least-squares problems of the whole chunk against the one QR of
the full data that also gives the point fit, and decompose_closed_form_batch
evaluates the closed forms and checks the component-set identities on the
chunk's coefficient arrays. A replicate the fitter's condition gate does not
pass, or one that draws a row more than 255 times, more than a count's one
byte holds, is refit from its copied rows and decomposed on its own instead,
so failures are decided exactly as a plain per-replicate refit decides them.
The gate and the rank decision read one SVD of each R_p block at unit-norm
columns (regression._COND_LIMIT), so the units of a covariate decide neither.

The empirical-categorical estimator codes each row's table cell once
(CellCoder). A replicate's cell counts and outcome sums then come from two
bincounts over its indices' codes, without copying rows, and fill one row of
a chunk array. CellCoder.decompose_counts lays the whole chunk on the grid
every empirical decomposition works on (the tables of cfg's stratum, a row
per replicate, nan where a cell has no data) and decomposes it with one call
of the table engine. A replicate fails when the coverage mask, the same one
that checks the point estimate's tables, finds a weighted cell without data;
when a cell mean overflowed; or when its component set breaks an identity.
Estimates, bounds and failures are those of decomposing each replicate's
tables on its own, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closed_form import decompose_closed_form, decompose_closed_form_batch
from .core import (
    ComponentSet,
    ConfigError,
    EstimationError,
    InferenceError,
    ReferenceConfig,
    value_names,
)
from .empirical import CellCoder, ProbTables, decompose_empirical_sequential
from .regression import CountWeightedFit, Dataset, fit_all

ESTIMATORS = ("closed-form", "empirical-categorical")

# Replicates per chunk, and the most bytes a chunk's counts may take as
# float64 (_chunk_size); the count block itself holds them one byte each
# (_fill_counts), an eighth of that. 32 replicates keep the count-weighted
# sums matrix-matrix products; at n = 2,000 doubling that added 2.4 MB of
# peak memory for no measurable gain. The byte bound caps the chunk from
# n = 65,536 rows on.
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


def _fill_counts(row: np.ndarray, seed: int, b: int) -> bool:
    """Write replicate b's count of each data row into the uint8 row: true
    when it holds every count exactly, false when one is above 255, and the
    caller refits that replicate the reference way. The n-length tally is
    freed on return, before the chunk is fit."""
    tally = np.bincount(_resample_indices(seed, b, len(row)), minlength=len(row))
    row[:] = tally
    return tally.max() <= 255


def _percentile_bounds(vals: np.ndarray, probs) -> list[np.ndarray]:
    """np.quantile(vals, probs, axis=0), numpy's default linear method, bit for
    bit, one array per probability. np.quantile is not called: on float input
    it calls np.unique, whose masked-array check imports numpy.ma, about 14 ms
    and 1 MB per run. vals is partitioned at the order statistics that
    method reads, as numpy partitions it, and each bound is interpolated as
    numpy's _lerp does; a column holding a NaN gives NaN."""
    last = len(vals) - 1
    spots = []
    for q in probs:
        at = last * q
        # from the last index on, numpy reads the largest value at both ends
        spots.append((at, *((int(at), int(at) + 1) if at < last else (-1, -1))))
    kth = sorted({0, -1, *(i for _, lo, hi in spots for i in (lo, hi))})
    ordered = np.partition(vals, kth, axis=0)
    top = ordered[-1]
    bounds = []
    for at, lo, hi in spots:
        t, a, b = at - lo, ordered[lo], ordered[hi]
        diff = b - a
        bound = a + diff * t if t < 0.5 else b - diff * (1 - t)
        np.copyto(bound, top, where=np.isnan(top))
        bounds.append(bound)
    return bounds


def _closed_form_estimate(d: Dataset, cfg: ReferenceConfig) -> ComponentSet:
    """The closed-form estimate of a resample: fit, then decompose."""
    return decompose_closed_form(fit_all(d, cfg.topology).coefficients, cfg)


def _chunk_size(n: int) -> int:
    """Replicates per count-weighted batch: enough to make the batch's sums a
    matrix-matrix product, with the chunk's counts, as float64, held under
    _CHUNK_BYTES at very large n. It depends on n alone, so a run's
    arithmetic, and hence its output, is the same every time."""
    return max(1, min(_CHUNK_REPLICATES, _CHUNK_BYTES // (8 * n)))


def check_settings(B: int, level: float, seed: int, estimator: str) -> None:
    """Raise ConfigError unless the bootstrap can run with these settings:
    the one rule for every command's config and for bootstrap_decomposition."""
    if B < 100:
        raise ConfigError(f"bootstrap needs B >= 100 replicates, got {B}")
    if B > 1_000_000:  # kept values, 112 MB at most, and their copies
        raise ConfigError(f"bootstrap needs B <= 1000000 replicates, got {B}")
    if not (0.0 < level < 1.0):
        raise ConfigError(f"confidence level must be in (0, 1), got {level}")
    if seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed}")
    if estimator not in ESTIMATORS:
        raise ConfigError(
            f"unknown estimator {estimator!r}; choose one of {ESTIMATORS}"
        )


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
    check_settings(B, level, seed, estimator)
    names = value_names(cfg.topology)
    # blocks of kept replicates' values, one row per replicate in names order
    draws = []
    n = d.n
    chunk = _chunk_size(n)
    tables = None
    if estimator == "closed-form":
        fitter = CountWeightedFit(d, cfg.topology)
        point = decompose_closed_form(fitter.full_fit.coefficients, cfg)
        # one count block for every chunk: a fresh one per chunk would be
        # allocated while the last is still held
        block = np.empty((min(chunk, B), n), dtype=np.uint8)
        for start in range(0, B, chunk):
            reps = range(start, min(start + chunk, B))
            counts = block[: len(reps)]
            exact = [_fill_counts(row, seed, b) for row, b in zip(counts, reps)]
            coefficients, ok = fitter.fit(counts)
            ok &= exact
            values, violated = decompose_closed_form_batch(coefficients, cfg)
            draws.append(np.column_stack([values[k][ok & ~violated] for k in names]))
            # resampled designs not clearly full rank, and counts above a byte:
            # the reference refit
            for b in [b for b, good in zip(reps, ok) if not good]:
                try:
                    cs = _closed_form_estimate(d.take(_resample_indices(seed, b, n)), cfg)
                except (EstimationError, ConfigError):
                    continue  # a failed replicate
                draws.append([[cs.value(k) for k in names]])
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
    lower, upper = _percentile_bounds(vals, [(1.0 - level) / 2.0, (1.0 + level) / 2.0])
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
