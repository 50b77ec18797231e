"""Shared factories for randomized model instances, and loop versions of
vectorized routines that the package's versions must match."""

import csv
import math
import os

import numpy as np

from twomed import (
    BinaryScm,
    DataError,
    Dataset,
    LinearScm,
    ProbTables,
    ReferenceConfig,
    Topology,
)
from twomed.empirical import _check_coverage, _level
from twomed.oracle import _dot, _linear_contrasts


def random_linear_scm(rng, k=2, sequential=True, scale=1.0):
    beta = rng.normal(0.0, scale, 4)
    if not sequential:
        beta[2] = beta[3] = 0.0
    return LinearScm(
        theta=rng.normal(0.0, scale, 8),
        beta=beta,
        gamma=rng.normal(0.0, scale, 2),
        theta_c=rng.normal(0.0, scale, k),
        beta_c=rng.normal(0.0, scale, k),
        gamma_c=rng.normal(0.0, scale, k),
        sigma_y=float(rng.uniform(0.5, 1.5)),
        sigma_m1=float(rng.uniform(0.5, 1.5)),
        sigma_m2=float(rng.uniform(0.5, 1.5)),
    )


def random_binary_scm(rng, topology=Topology.SEQUENTIAL):
    p2 = {(x, m1): float(rng.uniform()) for x in (0, 1) for m1 in (0, 1)}
    if topology is Topology.NONSEQUENTIAL:
        p2[(0, 1)] = p2[(0, 0)]
        p2[(1, 1)] = p2[(1, 0)]
    return BinaryScm(
        p_m1_given_a={0: float(rng.uniform()), 1: float(rng.uniform())},
        p_m2_given_a_m1=p2,
        e_y_given_a_m1_m2={
            (x, m1, m2): float(rng.normal(0.0, 2.0))
            for x in (0, 1)
            for m1 in (0, 1)
            for m2 in (0, 1)
        },
        topology=topology,
    )


def random_reference(rng, topology=Topology.SEQUENTIAL, k=2, binary=False):
    if binary:
        return ReferenceConfig(
            a=1.0,
            a_star=0.0,
            m1_star=float(rng.integers(0, 2)),
            m2_star=float(rng.integers(0, 2)),
            covariates=(),
            topology=topology,
        )
    return ReferenceConfig(
        a=float(rng.normal(1.0, 0.5)),
        a_star=float(rng.normal(0.0, 0.5)),
        m1_star=float(rng.normal()),
        m2_star=float(rng.normal()),
        covariates=tuple(float(v) for v in rng.normal(0.0, 1.0, k)),
        topology=topology,
    )


def make_linear_dataset(scm, n, seed, exposure_p=0.5):
    """Noisy draws from a linear model, as a plain dict of arrays."""
    rng = np.random.default_rng(seed)
    a = rng.binomial(1, exposure_p, n).astype(float)
    k = scm.covariate_dim
    c = rng.standard_normal((n, k))
    m1 = (
        scm.gamma[0] + scm.gamma[1] * a + c @ np.asarray(scm.gamma_c)
        + rng.normal(0.0, scm.sigma_m1, n)
    )
    m2 = (
        scm.beta[0] + scm.beta[1] * a + scm.beta[2] * m1 + scm.beta[3] * a * m1
        + c @ np.asarray(scm.beta_c) + rng.normal(0.0, scm.sigma_m2, n)
    )
    t = scm.theta
    y = (
        t[0] + t[1] * a + t[2] * m1 + t[3] * m2 + t[4] * a * m1 + t[5] * a * m2
        + t[6] * m1 * m2 + t[7] * a * m1 * m2 + c @ np.asarray(scm.theta_c)
        + rng.normal(0.0, scm.sigma_y, n)
    )
    return {"a": a, "m1": m1, "m2": m2, "y": y, "covariates": c}


def loop_estimate_tables(d, cfg):
    """The table estimator as a row-by-row dict tally: the reference that
    the package's cell-coded estimate_tables must match exactly."""
    a_col = [_level(v) for v in d.a]
    m1_col = [_level(v) for v in d.m1]
    m2_col = [_level(v) for v in d.m2]
    y_col = [float(v) for v in d.y]
    strata_col = [tuple(_level(v) for v in row) for row in d.covariates]

    support_a = tuple(sorted(set(a_col)))
    support_m1 = tuple(sorted(set(m1_col)))
    support_m2 = tuple(sorted(set(m2_col)))
    strata = tuple(sorted(set(strata_col)))

    n_ac: dict = {}
    n_am1: dict = {}
    n_am1m2: dict = {}
    y_sum: dict = {}
    for a, m1, m2, y, c in zip(a_col, m1_col, m2_col, y_col, strata_col):
        n_ac[(a, c)] = n_ac.get((a, c), 0) + 1
        n_am1[(a, m1, c)] = n_am1.get((a, m1, c), 0) + 1
        k = (a, m1, m2, c)
        n_am1m2[k] = n_am1m2.get(k, 0) + 1
        y_sum[k] = y_sum.get(k, 0.0) + y

    pr1 = {}
    for (a, m1, c), cnt in n_am1.items():
        pr1[(a, m1, c)] = cnt / n_ac[(a, c)]
    pr2 = {}
    py = {}
    for k, cnt in n_am1m2.items():
        a, m1, m2, c = k
        pr2[k] = cnt / n_am1[(a, m1, c)]
        py[k] = y_sum[k] / cnt
    # unobserved levels within an observed group are structural zeros
    for (a, c) in n_ac:
        for m1 in support_m1:
            pr1.setdefault((a, m1, c), 0.0)
    for (a, m1, c) in n_am1:
        for m2 in support_m2:
            pr2.setdefault((a, m1, m2, c), 0.0)

    t = ProbTables(
        pr_m1=pr1,
        pr_m2=pr2,
        p_y=py,
        support_a=support_a,
        support_m1=support_m1,
        support_m2=support_m2,
        strata=strata,
    )
    _check_coverage(t, cfg)
    return t


def loop_simulate_linear_components(scm, cfg, n, seed, shards=1):
    """The Monte Carlo oracle evaluated on whole shards at once: the reference
    whose means and standard errors, returned as two dicts by name, the
    package's block-by-block simulate_linear_components must match to
    rounding."""
    t8c = _dot(scm.theta_c, cfg.covariates, "outcome")
    b4c = _dot(scm.beta_c, cfg.covariates, "m2")
    g2c = _dot(scm.gamma_c, cfg.covariates, "m1")
    sums, sumsqs = {}, {}
    base = n // shards
    for shard_idx in range(shards):
        m = base + (1 if shard_idx < n % shards else 0)
        rng = np.random.default_rng([seed, shard_idx])
        e1 = rng.normal(0.0, scm.sigma_m1, size=m)
        e2 = rng.normal(0.0, scm.sigma_m2, size=m)
        ey = rng.normal(0.0, scm.sigma_y, size=m)
        values = _linear_contrasts(scm, cfg, t8c, b4c, g2c, e1, e2, ey)
        for k, arr in values.items():
            sums.setdefault(k, []).append(float(np.sum(arr)))
            sumsqs.setdefault(k, []).append(float(np.sum(arr * arr)))
    means = {k: math.fsum(v) / n for k, v in sums.items()}
    ses = {}
    for k, mean in means.items():
        var = max(math.fsum(sumsqs[k]) - n * mean ** 2, 0.0) / (n - 1) if n > 1 else 0.0
        ses[k] = math.sqrt(var / n)
    return means, ses


def loop_write_dataset_csv(d, path):
    """The CSV writer as a csv.writer row loop: the reference whose bytes the
    package's block writer must reproduce."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["a", "m1", "m2", "y", *d.covariate_names])
        for i in range(d.n):
            row = [d.a[i], d.m1[i], d.m2[i], d.y[i], *d.covariates[i]]
            writer.writerow([repr(float(v)) for v in row])


def loop_load_dataset(path, rc):
    """The CSV loader as a csv.DictReader row loop: the reference whose
    columns, drop count and errors the package's bulk parse must match."""
    if not os.path.exists(path):
        raise DataError(f"data file not found: {path}")
    needed = [rc.exposure, rc.m1, rc.m2, rc.outcome, *rc.covariates]
    rows_a: list[float] = []
    rows_m1: list[float] = []
    rows_m2: list[float] = []
    rows_y: list[float] = []
    rows_c: list[list[float]] = []
    dropped = 0
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for col in needed:
            if col not in header:
                raise DataError(f"data file {path} has no column {col!r}")
        for row in reader:
            try:
                vals = [float(row[col]) for col in needed]
            except (TypeError, ValueError):
                dropped += 1
                continue
            if not all(math.isfinite(v) for v in vals):
                dropped += 1
                continue
            a_v, m1_v, m2_v, y_v, *c_v = vals
            if rc.log_m2:
                if m2_v <= 0.0:
                    dropped += 1
                    continue
                m2_v = math.log(m2_v)
            rows_a.append(a_v)
            rows_m1.append(m1_v)
            rows_m2.append(m2_v)
            rows_y.append(y_v)
            rows_c.append(c_v)
    if not rows_a:
        raise DataError(f"data file {path} has no usable rows")
    cov = np.asarray(rows_c, dtype=float)
    if cov.size == 0:
        cov = np.empty((len(rows_a), 0))
    d = Dataset(
        a=np.asarray(rows_a),
        m1=np.asarray(rows_m1),
        m2=np.asarray(rows_m2),
        y=np.asarray(rows_y),
        covariates=cov,
        covariate_names=rc.covariates,
    )
    return d, dropped
