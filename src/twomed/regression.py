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


def _design_matrices(d: Dataset, topology: Topology) -> dict[str, np.ndarray]:
    """The three design matrices, keyed and ordered like _design_names."""
    a, m1, m2, c = d.a, d.m1, d.m2, d.covariates
    one = np.ones(d.n)
    x_y = np.column_stack([one, a, m1, m2, a * m1, a * m2, m1 * m2, a * m1 * m2, c])
    if topology is Topology.SEQUENTIAL:
        x_m2 = np.column_stack([one, a, m1, a * m1, c])
    else:
        x_m2 = np.column_stack([one, a, c])
    x_m1 = np.column_stack([one, a, c])
    return {"y": x_y, "m2": x_m2, "m1": x_m1}


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
    fit as the weighted problem min sum_i w_i (y_i - x_i b)^2. Each design is
    factored once as X = Q0 R0; a replicate then solves the p x p system
    (Q0' W Q0) z = Q0' W y and maps back with b = R0^{-1} z (least squares
    through QR, never X'WX itself). Q0' W Q0 is close to n times the identity
    for a typical resample, so these small solves are well conditioned.

    Every count-weighted sum a chunk of replicates needs, for all three
    models, comes from one product counts @ columns, where columns holds
    [q_i * q_j for i <= j, per model | y * Q0, per model].
    """

    def __init__(self, d: Dataset, topology: Topology):
        _check_rows(d)
        self._n = d.n
        self._topology = topology
        factors = {
            key: np.linalg.qr(x) for key, x in _design_matrices(d, topology).items()
        }
        widths = {key: r.shape[0] for key, (_, r) in factors.items()}
        n_pairs = sum(p * (p + 1) // 2 for p in widths.values())
        # written in place to keep the set-up's peak memory down
        self._columns = np.empty((d.n, n_pairs + sum(widths.values())))
        self._models = {}
        start, rhs = 0, n_pairs
        for key, (q, r) in factors.items():
            p = widths[key]
            pairs = slice(start, start + p * (p + 1) // 2)
            for i in range(p):  # column products in np.triu_indices order
                out = self._columns[:, start : start + p - i]
                np.multiply(q[:, i : i + 1], q[:, i:], out=out)
                start += p - i
            y = getattr(d, key)
            np.multiply(y[:, None], q, out=self._columns[:, rhs : rhs + p])
            weighted_y = slice(rhs, rhs + p)
            rhs += p
            self._models[key] = (
                y, q, r, np.linalg.cond(r), np.triu_indices(p), pairs, weighted_y
            )

    def fit(self, counts: np.ndarray, cond_limit: float):
        """Coefficients for every row of a (replicates, n) count matrix.

        Returns a CoefficientBatch and a boolean array, true for a replicate
        whose cond(R0) * sqrt(cond(Q0' W Q0)), an upper bound on the condition
        number of its resampled design, is below cond_limit for every model.
        The caller refits the others the reference way, so rank decisions stay
        with the per-replicate fit; their batch values are meaningless.
        Residual sums of squares come from explicit residuals, not from
        y'Wy - h'z, which cancels.
        """
        reps = counts.shape[0]
        sums = counts @ self._columns
        ok = np.ones(reps, dtype=bool)
        fits, rss = {}, {}
        for key, (y, q, r, cond_r, iu, pairs, weighted_y) in self._models.items():
            p = r.shape[0]
            gram = np.empty((reps, p, p))
            gram[:, iu[0], iu[1]] = sums[:, pairs]
            gram[:, iu[1], iu[0]] = sums[:, pairs]
            eig = np.linalg.eigvalsh(gram)
            # cond_r * sqrt(max eig / min eig) < cond_limit, squared and
            # cleared of the division; false whenever min eig <= 0
            ok &= cond_r**2 * eig[:, -1] < cond_limit**2 * eig[:, 0]
            gram[~ok] = np.eye(p)  # skipped replicates must not make solve raise
            z = np.linalg.solve(gram, sums[:, weighted_y, None])[:, :, 0]
            fits[key] = np.linalg.solve(r, z.T)
            resid = z @ q.T
            np.subtract(y, resid, out=resid)
            resid *= resid
            rss[key] = np.einsum("bi,bi->b", counts, resid)
        return _coefficients(fits, rss, self._n, self._topology, CoefficientBatch), ok
