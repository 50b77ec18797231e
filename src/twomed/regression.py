"""Ordinary least squares for the three working models.

The outcome model regresses Y on exposure, both mediators, all their
products, and covariates; the second mediator's model depends on the
topology; the first mediator's model is exposure plus covariates. Solves
use an orthogonal decomposition of the design (never normal equations)
because the triple-product column can be badly scaled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .closed_form import CoefficientBatch, ModelCoefficients
from .core import ConfigError, DataError, EstimationError, Topology


@dataclass(frozen=True)
class Dataset:
    """Immutable numeric columns for one analysis.

    covariates is an (n, k) array, k possibly zero. Non-finite entries are
    rejected here; missing-value handling happens upstream at load time.
    """

    a: np.ndarray
    m1: np.ndarray
    m2: np.ndarray
    y: np.ndarray
    covariates: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    covariate_names: tuple[str, ...] = ()

    def __post_init__(self):
        for name in ("a", "m1", "m2", "y"):
            col = np.asarray(getattr(self, name), dtype=float)
            if col.ndim != 1:
                raise DataError(f"column {name!r} must be one-dimensional")
            object.__setattr__(self, name, col)
        n = self.a.shape[0]
        if n == 0:
            raise DataError("dataset has no rows")
        for name in ("m1", "m2", "y"):
            if getattr(self, name).shape[0] != n:
                raise DataError(f"column {name!r} length differs from exposure")
        cov = np.asarray(self.covariates, dtype=float)
        if cov.size == 0:
            cov = np.empty((n, 0))
        if cov.ndim != 2 or cov.shape[0] != n:
            raise DataError("covariates must be an (n, k) matrix")
        object.__setattr__(self, "covariates", cov)
        names = tuple(self.covariate_names)
        if not names:
            names = tuple(f"c{i + 1}" for i in range(cov.shape[1]))
        if len(names) != cov.shape[1]:
            raise DataError("covariate_names length must match covariate columns")
        object.__setattr__(self, "covariate_names", names)
        for name in ("a", "m1", "m2", "y"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise DataError(f"column {name!r} contains non-finite values")
        if not np.all(np.isfinite(cov)):
            raise DataError("covariates contain non-finite values")

    @property
    def n(self) -> int:
        return int(self.a.shape[0])

    @property
    def k(self) -> int:
        return int(self.covariates.shape[1])

    def take(self, idx: np.ndarray) -> "Dataset":
        """Row subset (with repetition allowed), for resampling."""
        return Dataset(
            a=self.a[idx],
            m1=self.m1[idx],
            m2=self.m2[idx],
            y=self.y[idx],
            covariates=self.covariates[idx],
            covariate_names=self.covariate_names,
        )


@dataclass(frozen=True)
class FittedModels:
    """OLS output for all three models.

    coefficients feeds the closed forms; everything else is reporting. Keys of
    the per-model maps are "y", "m2", "m1". vcov entries are the usual
    s^2 (X'X)^{-1} matrices in the order given by design_names.
    """

    coefficients: ModelCoefficients
    stderr_diagnostics: dict
    r_squared: dict
    residual_sigma_m1: float
    vcov: dict
    design_names: dict
    n: int


def _design_names(topology: Topology, cov_names: tuple[str, ...]):
    cov = list(cov_names)
    y_names = ["intercept", "a", "m1", "m2", "a:m1", "a:m2", "m1:m2", "a:m1:m2"] + cov
    if topology is Topology.SEQUENTIAL:
        m2_names = ["intercept", "a", "m1", "a:m1"] + cov
    else:
        m2_names = ["intercept", "a"] + cov
    m1_names = ["intercept", "a"] + cov
    return {"y": y_names, "m2": m2_names, "m1": m1_names}


def _dependent_columns(x: np.ndarray, names) -> list[str]:
    """Columns linearly dependent on their predecessors, by a Gram-Schmidt sweep."""
    bad = []
    basis = []
    for j in range(x.shape[1]):
        v = x[:, j].copy()
        scale = np.linalg.norm(v)
        if scale == 0.0:
            bad.append(names[j])
            continue
        for q in basis:
            v = v - (q @ v) * q
        for q in basis:  # second pass tightens near-dependence detection
            v = v - (q @ v) * q
        r = np.linalg.norm(v)
        if r <= 1e-10 * scale:
            bad.append(names[j])
        else:
            basis.append(v / r)
    return bad


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


def _coefficients(
    fits: dict, rss: dict, n: int, topology: Topology, cls=ModelCoefficients
):
    """Plug-in coefficients from the three fitted vectors and residual sums of squares.

    Each residual sigma is unbiased, with denominator n minus the model's column
    count; for the first mediator that is n - (2 + k), the sigma_m1 the closed
    forms need. The non-sequential second-mediator model has no m1 terms, so
    beta[2] = beta[3] = 0 exactly. A (p, replicates) array per model, with an
    RSS array per model, gives one value per replicate in each field, which
    cls=CoefficientBatch holds.
    """
    theta, b_fit, g_fit = fits["y"], fits["m2"], fits["m1"]
    sigma = {key: np.sqrt(rss[key] / (n - len(fits[key]))) for key in fits}
    if topology is Topology.SEQUENTIAL:
        beta, beta_c = tuple(b_fit[:4]), tuple(b_fit[4:])
    else:
        beta, beta_c = (b_fit[0], b_fit[1], 0.0, 0.0), tuple(b_fit[2:])
    return cls(
        theta=tuple(theta[:8]),
        beta=beta,
        gamma=tuple(g_fit[:2]),
        theta_c=tuple(theta[8:]),
        beta_c=beta_c,
        gamma_c=tuple(g_fit[2:]),
        sigma_m1=sigma["m1"],
        sigma_y=sigma["y"],
        sigma_m2=sigma["m2"],
    )


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


_LABELS = {"y": "outcome", "m2": "m2", "m1": "m1"}


def _check_rows(d: Dataset) -> None:
    if d.n <= 8 + d.k:
        raise DataError(
            f"need more than {8 + d.k} rows to fit the outcome design, got {d.n}"
        )


def fit_all(d: Dataset, topology: Topology) -> FittedModels:
    """Fit the outcome and both mediator models, returning plug-in coefficients.

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


class CountWeightedFit:
    """Refits of all three models under row-count weights, against one QR.

    A bootstrap resample that takes row i w_i times has the same least-squares
    fit as the weighted problem min sum_i w_i (y_i - x_i b)^2. The nested
    design (_nested_design) is factored once as X = Q R. The QR of its leading
    p columns is Q_p R_p, the leading blocks of Q and R, so this covers every
    model. With z0 = Q_p' y and the full-data residual r0 = y - Q_p z0, a
    replicate's fit is z = z0 + dz, where G dz = h for G = Q_p' W Q_p and
    h = Q_p' W r0, and b = R_p^{-1} z (least squares through QR, never X'WX
    itself). Its residual sum of squares is sum w r0^2 - h'dz: the subtracted
    term is O(p sigma^2) against O(n sigma^2), so nothing cancels. G is close
    to n times the identity for a typical resample, so these small solves are
    well conditioned.

    Every count-weighted sum a chunk of replicates needs comes from one
    product counts @ columns.T. Each row of columns is one column of
    [q_i * q_j for i <= j | r0 * Q_p, r0^2 per model]; a model's G is the
    leading p x p block of the outcome model's.
    """

    def __init__(self, d: Dataset, topology: Topology):
        _check_rows(d)
        self._n = d.n
        self._topology = topology
        x, design_columns = _nested_design(d, topology)
        q, self._r = np.linalg.qr(x)
        del x
        qt = np.ascontiguousarray(q.T)  # rows, to write each product in one pass
        del q
        p = qt.shape[0]
        self._pairs = np.triu_indices(p)
        n_rows = len(self._pairs[0]) + sum(len(c) + 1 for c in design_columns.values())
        self._columns = np.empty((n_rows, d.n))
        for row, (i, j) in enumerate(zip(*self._pairs)):
            np.multiply(qt[i], qt[j], out=self._columns[row])
        row = len(self._pairs[0])
        self._models = {}
        for key, cols in design_columns.items():
            p = len(cols)
            z0 = qt[:p] @ getattr(d, key)
            r0 = getattr(d, key) - z0 @ qt[:p]
            np.multiply(qt[:p], r0, out=self._columns[row : row + p])
            np.multiply(r0, r0, out=self._columns[row + p])
            self._models[key] = (cols, np.linalg.cond(self._r[:p, :p]), z0, row)
            row += p + 1

    def fit(self, counts: np.ndarray, cond_limit: float):
        """Coefficients for every row of a (replicates, n) count matrix.

        Returns a CoefficientBatch and a boolean array, true for a replicate
        whose cond(R_p) * sqrt(cond(Q_p' W Q_p)), an upper bound on the
        condition number of its resampled design, is below cond_limit for every
        model. The caller refits the others the reference way, so rank
        decisions stay with the per-replicate fit; their batch values are
        meaningless.
        """
        reps = counts.shape[0]
        sums = counts @ self._columns.T
        gram = np.empty((reps,) + self._r.shape)
        iu, il = self._pairs, self._pairs[::-1]
        gram[:, iu[0], iu[1]] = gram[:, il[0], il[1]] = sums[:, : len(iu[0])]
        ok = np.ones(reps, dtype=bool)
        fits, rss = {}, {}
        for key, (cols, cond_r, z0, row) in self._models.items():
            p = len(cols)
            eig = np.linalg.eigvalsh(gram[:, :p, :p])
            # cond_r * sqrt(max eig / min eig) < cond_limit, squared and
            # cleared of the division; false whenever min eig <= 0
            ok &= cond_r**2 * eig[:, -1] < cond_limit**2 * eig[:, 0]
            # skipped replicates must not make solve raise
            gram[~ok] = np.eye(len(self._r))
            h = sums[:, row : row + p]
            dz = np.linalg.solve(gram[:, :p, :p], h[:, :, None])[:, :, 0]
            # an exact fit leaves rounding in both terms, a skipped replicate
            # anything: neither may make a sigma NaN
            rss[key] = np.maximum(sums[:, row + p] - np.einsum("bi,bi->b", h, dz), 0.0)
            fits[key] = np.linalg.solve(self._r[:p, :p], (z0 + dz).T)[cols]
        return _coefficients(fits, rss, self._n, self._topology, CoefficientBatch), ok
