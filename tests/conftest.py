"""Shared factories for randomized model instances, loop versions of
vectorized routines that the package's versions must match, and helpers to
compare the two."""

import csv
import math
import os

import numpy as np

import twomed.regression
from twomed import (
    BinaryScm,
    ComponentSet,
    ConfigError,
    DataError,
    Dataset,
    EstimationError,
    LinearScm,
    ProbTables,
    ReferenceConfig,
    Topology,
    simulate_dataset,
)
from twomed.core import (
    CDE,
    INT_REF_AM1,
    INT_REF_AM1M2,
    INT_REF_AM2,
    INT_REF_AM2_PLUS_AM1M2,
    NATINT_AM1,
    NATINT_AM1M2,
    NATINT_AM2,
    NATINT_M1M2,
    PDE,
    PIE_M1,
    PIE_M2,
    SIE_M1,
    TDE,
    TE,
)
from twomed import oracle
from twomed.empirical import _cfg_levels, _level_str, _stratum_str
from twomed.linear import contractions
from twomed.oracle import _BIN, _check_binary_cfg, _linear_contrasts
from twomed.regression import (
    _LABELS,
    FittedModels,
    _coefficients,
    _dependent_columns,
    _design_names,
)


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


def expanded_outcome_terms(model, x, m1, m2, cov, e):
    """The ten terms of the linear outcome equation written out, the eight
    theta terms then cov and e: the reference that linear.y's factored form
    u + v*m2 must sum to within rounding."""
    t = model.theta
    return (t[0], t[1] * x, t[2] * m1, t[3] * m2, t[4] * x * m1, t[5] * x * m2,
            t[6] * m1 * m2, t[7] * x * m1 * m2, cov, e)


def expanded_outcome(model, x, m1, m2, cov, e):
    """The linear outcome equation as its expanded polynomial, added left to
    right."""
    total = 0.0
    for term in expanded_outcome_terms(model, x, m1, m2, cov, e):
        total = total + term
    return total


def make_linear_dataset(scm, n, seed, exposure_p=0.5):
    """Noisy draws from a linear model, as a plain dict of arrays."""
    d = simulate_dataset(scm, n, seed, exposure_p)
    return {"a": d.a, "m1": d.m1, "m2": d.m2, "y": d.y, "covariates": d.covariates}


def outcome(decompose):
    """A decomposition's values by name, or its error's class and message."""
    try:
        cs = decompose()
    except (ConfigError, EstimationError) as exc:
        return type(exc), str(exc)
    return cs.components | cs.aggregates


def assert_same_outcome(got, want, scale):
    """Equal errors, or values within 1e-12 of scale apart."""
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, dict), got
    assert got.keys() == want.keys()
    for name, value in want.items():
        assert abs(got[name] - value) <= 1e-12 * scale, name


def scaled_covariate_dataset(scale, n=2_000):
    """Data whose one covariate is standard normal times scale."""
    rng = np.random.default_rng(32)
    a = rng.integers(0, 2, n).astype(float)
    m1, m2, y, c = rng.standard_normal((4, n))
    m1 += a
    m2 += a + 0.5 * m1
    y += a + m1 + m2
    return Dataset(a=a, m1=m1, m2=m2, y=y, covariates=(scale * c)[:, None])


def count_linalg_calls(monkeypatch, n=None):
    """Count the calls of numpy.linalg's factorizations and solvers, by name,
    into the returned dict; with n, only the calls on an array of n rows."""
    calls = {}
    for name in ("qr", "lstsq", "svd", "solve", "inv", "eigvalsh", "cond", "pinv"):
        def counted(x, *args, _name=name, _f=getattr(np.linalg, name), **kwargs):
            if n is None or np.ndim(x) >= 2 and np.shape(x)[-2] == n:
                calls[_name] = calls.get(_name, 0) + 1
            return _f(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def count_factorizations(monkeypatch):
    """Record the (p, n) shape of every design regression._qr_in_place
    factors, into the returned list."""
    shapes = []
    factor = twomed.regression._qr_in_place
    monkeypatch.setattr(twomed.regression, "_qr_in_place",
                        lambda xt: shapes.append(xt.shape) or factor(xt))
    return shapes


def _level(v) -> float:
    x = float(v)
    if not math.isfinite(x):
        raise ConfigError(f"level must be finite, got {v!r}")
    return x


def loop_tally_tables(d):
    """The tables of a dataset as a row-by-row dict tally, unchecked."""
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

    return ProbTables(
        pr_m1=pr1,
        pr_m2=pr2,
        p_y=py,
        support_a=support_a,
        support_m1=support_m1,
        support_m2=support_m2,
        strata=strata,
    )


def loop_estimate_tables(d, cfg):
    """The table estimator as a row-by-row dict tally checked by a dict walk:
    the reference that the package's cell-coded estimate_tables must match
    exactly, and whose errors it must match in class."""
    t = loop_tally_tables(d)
    _check_coverage(t, cfg)
    return t


def _pr1(t, a, m1, c):
    try:
        return t.pr_m1[(a, m1, c)]
    except KeyError:
        raise EstimationError(
            f"no data for Pr(M1={_level_str(m1)} | A={_level_str(a)}, "
            f"{_stratum_str(c)})"
        ) from None


def _pr2(t, a, m1, m2, c):
    try:
        return t.pr_m2[(a, m1, m2, c)]
    except KeyError:
        raise EstimationError(
            f"no data for Pr(M2={_level_str(m2)} | A={_level_str(a)}, "
            f"M1={_level_str(m1)}, {_stratum_str(c)})"
        ) from None


def _py(t, a, m1, m2, c):
    try:
        return t.p_y[(a, m1, m2, c)]
    except KeyError:
        raise EstimationError(
            f"no data for E[Y | A={_level_str(a)}, M1={_level_str(m1)}, "
            f"M2={_level_str(m2)}, {_stratum_str(c)}]"
        ) from None


def _check_coverage(t: ProbTables, cfg: ReferenceConfig) -> None:
    """Touch every cell any sum can reach with positive weight: the dict walk
    whose pass or fail the package's grid mask must match on tallied tables."""
    a, s, m1r, m2r, c = _cfg_levels(
        cfg, t.support_a, t.support_m1, t.support_m2, t.strata
    )
    for x in (a, s):
        _py(t, x, m1r, m2r, c)
    for y in (a, s):
        for m1 in t.support_m1:
            if _pr1(t, y, m1, c) == 0.0:
                continue
            for x in (a, s):
                _py(t, x, m1, m2r, c)
            for z in (a, s):
                for m2 in t.support_m2:
                    if _pr2(t, z, m1, m2, c) == 0.0:
                        continue
                    for x in (a, s):
                        _py(t, x, m1, m2, c)


def _nested_design(d: Dataset, topology: Topology):
    """The outcome design in nested column order [1, a, C | m1, a*m1 | m2,
    a*m2, m1*m2, a*m1*m2], and each model's design columns as columns of it,
    in _design_names order. The first mediator's model, and the second's when
    non-sequential, take its first 2 + k columns; the sequential second
    mediator's model its first 4 + k."""
    a, m1, m2, k = d.a, d.m1, d.m2, d.k
    am1 = a * m1
    x = np.column_stack(
        [np.ones(d.n), a, d.covariates, m1, am1, m2, a * m2, m1 * m2, am1 * m2]
    )
    c = list(range(2, 2 + k))
    m2_columns = [0, 1, 2 + k, 3 + k] if topology is Topology.SEQUENTIAL else [0, 1]
    y_columns = [0, 1, 2 + k, 4 + k, 3 + k, 5 + k, 6 + k, 7 + k]
    return x, {"y": y_columns + c, "m2": m2_columns + c, "m1": [0, 1] + c}


def _design_matrices(d: Dataset, topology: Topology) -> dict[str, np.ndarray]:
    """The three design matrices, keyed and ordered like _design_names."""
    x, columns = _nested_design(d, topology)
    # take() gives row-major copies; lstsq's rounding depends on the layout
    return {key: x.take(cols, axis=1) for key, cols in columns.items()}


def _fit_one(x: np.ndarray, y: np.ndarray, names, label: str):
    n, p = x.shape
    coefs, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
    if rank < p:
        bad = _dependent_columns(x, names)
        raise EstimationError(
            f"{label} design is rank-deficient; collinear columns: "
            + ", ".join(bad or ["(numerically degenerate)"])
        )
    resid = y - x @ coefs
    rss = float(resid @ resid)
    dof = n - p
    s2 = rss / dof if dof > 0 else 0.0
    r = np.linalg.qr(x, mode="r")
    rinv = np.linalg.solve(r, np.eye(p))
    xtx_inv = rinv @ rinv.T
    vcov = s2 * xtx_inv
    stderr = {nm: float(v) for nm, v in zip(names, np.sqrt(np.diag(vcov)))}
    tss = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - rss / tss if tss > 0.0 else 1.0
    return coefs, stderr, r2, vcov, rss


def _check_rows(d: Dataset) -> None:
    if d.n <= 8 + d.k:
        raise DataError(
            f"need more than {8 + d.k} rows to fit the outcome design, got {d.n}"
        )


def loop_fit_all(d: Dataset, topology: Topology) -> FittedModels:
    """The three working models fit one design at a time through numpy's lstsq
    (an SVD) plus a QR of each design for its covariance: the reference whose
    coefficients, covariances, R^2, standard errors and errors the package's
    one nested QR must match.

    The residual variance of the first mediator's model (unbiased, denominator
    n - (2 + k)) supplies the sigma_m1 the closed forms need.
    """
    if not isinstance(topology, Topology):
        raise ConfigError(f"unknown topology {topology!r}")
    _check_rows(d)
    names = _design_names(topology, d.covariate_names)
    fits, stderr, r2, vcov, rss = {}, {}, {}, {}, {}
    for key, x in _design_matrices(d, topology).items():
        fits[key], stderr[key], r2[key], vcov[key], rss[key] = _fit_one(
            x, getattr(d, key), names[key], _LABELS[key]
        )
    coefficients = _coefficients(fits, rss, d.n, topology)
    return FittedModels(
        coefficients=coefficients,
        stderr_diagnostics=stderr,
        r_squared=r2,
        residual_sigma_m1=coefficients.sigma_m1,
        vcov=vcov,
        design_names=names,
        n=d.n,
    )


def _whole_shard_errors(scm, seed, shard_idx, m):
    """A shard's e1, e2 and ey, each drawn whole from its own child of
    SeedSequence([seed, shard_idx])."""
    children = np.random.SeedSequence([seed, shard_idx]).spawn(3)
    sigmas = (scm.sigma_m1, scm.sigma_m2, scm.sigma_y)
    return [np.random.default_rng(c).normal(0.0, s, size=m)
            for c, s in zip(children, sigmas)]


def loop_simulate_linear_components(scm, cfg, n, seed, shards=1):
    """The Monte Carlo oracle evaluated on whole shards at once: the reference
    whose means and standard errors, returned as two dicts by name, the
    package's block-by-block simulate_linear_components must match to
    rounding."""
    t8c, b4c, g2c = contractions(scm, cfg.covariates)
    sums, sumsqs = {}, {}
    base = n // shards
    for shard_idx in range(shards):
        m = base + (1 if shard_idx < n % shards else 0)
        e1, e2, ey = _whole_shard_errors(scm, seed, shard_idx, m)
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


def loop_simulate_with_whole_shard_draws(scm, cfg, n, seed, shards=1):
    """The Monte Carlo oracle drawing each shard's errors whole, then
    evaluating them in blocks of oracle._MC_BLOCK individuals: the reference
    whose means and standard errors, returned as two dicts by name, the
    package's block-drawn simulate_linear_components must match bit for
    bit."""
    t8c, b4c, g2c = contractions(scm, cfg.covariates)
    sums, sumsqs = {}, {}
    base = n // shards
    for shard_idx in range(shards):
        m = base + (1 if shard_idx < n % shards else 0)
        e1, e2, ey = _whole_shard_errors(scm, seed, shard_idx, m)
        for lo in range(0, m, oracle._MC_BLOCK):
            block = slice(lo, lo + oracle._MC_BLOCK)
            values = _linear_contrasts(
                scm, cfg, t8c, b4c, g2c, e1[block], e2[block], ey[block]
            )
            for k, arr in values.items():
                sums.setdefault(k, []).append(float(np.sum(arr)))
                sumsqs.setdefault(k, []).append(float(np.einsum("i,i->", arr, arr)))
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
    with open(path, newline="", encoding="utf-8-sig") as fh:
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


def _loop_w_sum(t, c, support_m1, support_m2, x, y, z):
    """E[Y(x, M1(y), M2(z, M1(y)))] from the tables."""
    terms = []
    for m1 in support_m1:
        w1 = _pr1(t, y, m1, c)
        if w1 == 0.0:
            continue
        for m2 in support_m2:
            w2 = _pr2(t, z, m1, m2, c)
            if w2 == 0.0:
                continue
            terms.append(_py(t, x, m1, m2, c) * w1 * w2)
    return math.fsum(terms)


def loop_decompose_empirical_sequential(
    t: ProbTables, cfg: ReferenceConfig
) -> ComponentSet:
    """All nine sequential components as iterated-expectation double sums,
    written out with dict lookups and math.fsum: the reference whose values
    and errors the package's table engine must match."""
    if cfg.topology is not Topology.SEQUENTIAL:
        raise ConfigError(
            "decompose_empirical_sequential needs Sequential topology"
        )
    a, s, m1r, m2r, c = _cfg_levels(
        cfg, t.support_a, t.support_m1, t.support_m2, t.strata
    )
    sup1 = t.support_m1
    sup2 = t.support_m2

    cde = _py(t, a, m1r, m2r, c) - _py(t, s, m1r, m2r, c)

    ref_am1_terms = []
    for m1 in sup1:
        w = _pr1(t, s, m1, c)
        if w == 0.0:
            continue
        ref_am1_terms.append(
            (
                _py(t, a, m1, m2r, c)
                - _py(t, a, m1r, m2r, c)
                - _py(t, s, m1, m2r, c)
                + _py(t, s, m1r, m2r, c)
            )
            * w
        )
    ref_am1 = math.fsum(ref_am1_terms)

    ref_rest_terms = []
    nat_am1_terms = []
    nat_am2_terms = []
    nat_am1m2_terms = []
    nat_m1m2_terms = []
    pie1_terms = []
    pie2_terms = []
    for m1 in sup1:
        p1a = _pr1(t, a, m1, c)
        p1s = _pr1(t, s, m1, c)
        d1 = p1a - p1s
        if p1a == 0.0 and p1s == 0.0:
            continue
        for m2 in sup2:
            p2a = _pr2(t, a, m1, m2, c)
            p2s = _pr2(t, s, m1, m2, c)
            d2 = p2a - p2s
            if p2a == 0.0 and p2s == 0.0:
                continue
            dy = _py(t, a, m1, m2, c) - _py(t, s, m1, m2, c)
            ys = _py(t, s, m1, m2, c)
            if p1s != 0.0 and p2s != 0.0:
                ref_rest_terms.append(
                    (
                        _py(t, a, m1, m2, c)
                        - _py(t, a, m1, m2r, c)
                        - _py(t, s, m1, m2, c)
                        + _py(t, s, m1, m2r, c)
                    )
                    * p1s
                    * p2s
                )
            if d1 != 0.0 and p2s != 0.0:
                nat_am1_terms.append(dy * p2s * d1)
            if p1s != 0.0 and d2 != 0.0:
                nat_am2_terms.append(dy * p1s * d2)
            if d1 != 0.0 and d2 != 0.0:
                nat_am1m2_terms.append(dy * d1 * d2)
                nat_m1m2_terms.append(ys * d1 * d2)
            if d1 != 0.0 and p2s != 0.0:
                pie1_terms.append(ys * p2s * d1)
            if p1s != 0.0 and d2 != 0.0:
                pie2_terms.append(ys * p1s * d2)

    ref_rest = math.fsum(ref_rest_terms)
    if a == s:
        # the four-term differences cancel only up to rounding, and every
        # component of a null contrast is exactly zero
        ref_am1 = ref_rest = 0.0

    comps = {
        CDE: cde,
        INT_REF_AM1: ref_am1,
        INT_REF_AM2_PLUS_AM1M2: ref_rest,
        NATINT_AM1: math.fsum(nat_am1_terms),
        NATINT_AM2: math.fsum(nat_am2_terms),
        NATINT_AM1M2: math.fsum(nat_am1m2_terms),
        NATINT_M1M2: math.fsum(nat_m1m2_terms),
        PIE_M1: math.fsum(pie1_terms),
        PIE_M2: math.fsum(pie2_terms),
    }

    def w(x, y, z):
        return _loop_w_sum(t, c, sup1, sup2, x, y, z)

    aggs = {
        PDE: w(a, s, s) - w(s, s, s),
        TDE: w(a, a, a) - w(s, a, a),
        SIE_M1: w(s, a, a) - w(s, s, a),
        TE: w(a, a, a) - w(s, s, s),
    }
    return ComponentSet(Topology.SEQUENTIAL, comps, aggs)


def loop_enumerate_binary_components(
    scm: BinaryScm, cfg: ReferenceConfig
) -> ComponentSet:
    """Exact expected components of a binary model, by probability-weighted
    sums written out one topology at a time: the reference whose values and
    errors the package's table engine must match."""
    a, s, m1r, m2r = _check_binary_cfg(scm, cfg)
    ey = scm.e_y_given_a_m1_m2

    def pr1(m1: int, x: int) -> float:
        p = scm.p_m1_given_a[x]
        return p if m1 == 1 else 1.0 - p

    def pr2(m2: int, x: int, m1: int) -> float:
        p = scm.p_m2_given_a_m1[(x, m1)]
        return p if m2 == 1 else 1.0 - p

    def w(x: int, y: int, z: int) -> float:
        return math.fsum(
            ey[(x, m1, m2)] * pr1(m1, y) * pr2(m2, z, m1)
            for m1 in _BIN
            for m2 in _BIN
        )

    aggs = {
        PDE: w(a, s, s) - w(s, s, s),
        TDE: w(a, a, a) - w(s, a, a),
        SIE_M1: w(s, a, a) - w(s, s, a),
        TE: w(a, a, a) - w(s, s, s),
    }

    if scm.topology is Topology.SEQUENTIAL:
        comps = {
            CDE: ey[(a, m1r, m2r)] - ey[(s, m1r, m2r)],
            INT_REF_AM1: math.fsum(
                (
                    ey[(a, m1, m2r)] - ey[(a, m1r, m2r)]
                    - ey[(s, m1, m2r)] + ey[(s, m1r, m2r)]
                )
                * pr1(m1, s)
                for m1 in _BIN
            ),
            INT_REF_AM2_PLUS_AM1M2: math.fsum(
                (
                    ey[(a, m1, m2)] - ey[(a, m1, m2r)]
                    - ey[(s, m1, m2)] + ey[(s, m1, m2r)]
                )
                * pr1(m1, s) * pr2(m2, s, m1)
                for m1 in _BIN
                for m2 in _BIN
            ),
            NATINT_AM1: math.fsum(
                (ey[(a, m1, m2)] - ey[(s, m1, m2)])
                * pr2(m2, s, m1) * (pr1(m1, a) - pr1(m1, s))
                for m1 in _BIN
                for m2 in _BIN
            ),
            NATINT_AM2: math.fsum(
                (ey[(a, m1, m2)] - ey[(s, m1, m2)])
                * pr1(m1, s) * (pr2(m2, a, m1) - pr2(m2, s, m1))
                for m1 in _BIN
                for m2 in _BIN
            ),
            NATINT_AM1M2: math.fsum(
                (ey[(a, m1, m2)] - ey[(s, m1, m2)])
                * (pr1(m1, a) - pr1(m1, s)) * (pr2(m2, a, m1) - pr2(m2, s, m1))
                for m1 in _BIN
                for m2 in _BIN
            ),
            NATINT_M1M2: math.fsum(
                ey[(s, m1, m2)]
                * (pr1(m1, a) - pr1(m1, s)) * (pr2(m2, a, m1) - pr2(m2, s, m1))
                for m1 in _BIN
                for m2 in _BIN
            ),
            PIE_M1: math.fsum(
                ey[(s, m1, m2)] * pr2(m2, s, m1) * (pr1(m1, a) - pr1(m1, s))
                for m1 in _BIN
                for m2 in _BIN
            ),
            PIE_M2: math.fsum(
                ey[(s, m1, m2)] * pr1(m1, s) * (pr2(m2, a, m1) - pr2(m2, s, m1))
                for m1 in _BIN
                for m2 in _BIN
            ),
        }
        return ComponentSet(Topology.SEQUENTIAL, comps, aggs)

    # non-sequential: the same iterated expectations with M2 independent of M1
    def pr2x(m2: int, x: int) -> float:
        return pr2(m2, x, 0)

    comps = {
        CDE: ey[(a, m1r, m2r)] - ey[(s, m1r, m2r)],
        INT_REF_AM1: math.fsum(
            (
                ey[(a, m1, m2r)] - ey[(s, m1, m2r)]
                - ey[(a, m1r, m2r)] + ey[(s, m1r, m2r)]
            )
            * pr1(m1, s)
            for m1 in _BIN
        ),
        INT_REF_AM2: math.fsum(
            (
                ey[(a, m1r, m2)] - ey[(s, m1r, m2)]
                - ey[(a, m1r, m2r)] + ey[(s, m1r, m2r)]
            )
            * pr2x(m2, s)
            for m2 in _BIN
        ),
        INT_REF_AM1M2: math.fsum(
            (
                ey[(a, m1, m2)] - ey[(s, m1, m2)]
                - ey[(a, m1r, m2)] + ey[(s, m1r, m2)]
                - ey[(a, m1, m2r)] + ey[(s, m1, m2r)]
                + ey[(a, m1r, m2r)] - ey[(s, m1r, m2r)]
            )
            * pr1(m1, s) * pr2x(m2, s)
            for m1 in _BIN
            for m2 in _BIN
        ),
        NATINT_AM1: math.fsum(
            (ey[(a, m1, m2)] - ey[(s, m1, m2)])
            * pr2x(m2, s) * (pr1(m1, a) - pr1(m1, s))
            for m1 in _BIN
            for m2 in _BIN
        ),
        NATINT_AM2: math.fsum(
            (ey[(a, m1, m2)] - ey[(s, m1, m2)])
            * pr1(m1, s) * (pr2x(m2, a) - pr2x(m2, s))
            for m1 in _BIN
            for m2 in _BIN
        ),
        NATINT_AM1M2: math.fsum(
            (ey[(a, m1, m2)] - ey[(s, m1, m2)])
            * (pr1(m1, a) - pr1(m1, s)) * (pr2x(m2, a) - pr2x(m2, s))
            for m1 in _BIN
            for m2 in _BIN
        ),
        NATINT_M1M2: math.fsum(
            ey[(s, m1, m2)]
            * (pr1(m1, a) - pr1(m1, s)) * (pr2x(m2, a) - pr2x(m2, s))
            for m1 in _BIN
            for m2 in _BIN
        ),
        PIE_M1: math.fsum(
            ey[(s, m1, m2)] * pr2x(m2, s) * (pr1(m1, a) - pr1(m1, s))
            for m1 in _BIN
            for m2 in _BIN
        ),
        PIE_M2: math.fsum(
            ey[(s, m1, m2)] * pr1(m1, s) * (pr2x(m2, a) - pr2x(m2, s))
            for m1 in _BIN
            for m2 in _BIN
        ),
    }
    return ComponentSet(Topology.NONSEQUENTIAL, comps, aggs)
