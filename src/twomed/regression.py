"""Ordinary least squares for the three working models.

The outcome model regresses Y on exposure, both mediators, all their
products, and covariates; the second mediator's model depends on the
topology; the first mediator's model is exposure plus covariates. One
Householder QR of the outcome design in nested column order, factored in
place (_qr_in_place), serves every fit; solves use it, never normal
equations, as the triple-product column can be badly scaled.
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
    a*m2, m1*m2, a*m1*m2], transposed: one C-order (p_y, n) array with a row
    per column, each product written into its row in place. Also each model's
    design columns as rows of it, in _design_names order: its first 2 + k, or
    4 + k for the sequential m2."""
    cov = [f"#{i}" for i in range(d.k)]  # by position: no name can clash with a term
    terms = {"intercept": 1.0, "a": d.a, "m1": d.m1, "m2": d.m2}
    terms |= dict(zip(cov, d.covariates.T))
    sequential = _design_names(Topology.SEQUENTIAL, cov)
    nested = list(dict.fromkeys(sequential["m1"] + sequential["m2"] + sequential["y"]))
    xt = np.empty((len(nested), d.n))
    for row, name in zip(xt, nested):
        first, *rest = name.split(":")
        row[...] = terms[first]
        for term in rest:
            np.multiply(row, terms[term], out=row)
    return xt, {
        key: [nested.index(name) for name in names]
        for key, names in _design_names(topology, cov).items()
    }


def _qr_in_place(xt: np.ndarray) -> np.ndarray:
    """R of X = QR for a C-order (p, n) array xt = X', n > p, by Householder
    reflections, overwriting xt with Q' (p x n).

    The conventions are LAPACK dgeqr2's: reflector j maps x = X_j[j:] to
    beta e_1 with beta = -sign(alpha) ||x||, alpha = x[0], the norm scaled by
    max |x| so that no square overflows, and tau = (beta - alpha) / beta;
    tau = 0 (no reflection) when x[1:] is all zero. Each reflector
    v = [1, x[1:] / (alpha - beta)] is stored below the diagonal, and is then
    overwritten by Q' = (H_0 ... H_{p-1})' accumulated backward, as dorg2r
    does. So R's diagonal has the signs np.linalg.qr gives it. Every row
    update is written in place through one n-float work row.
    """
    p, n = xt.shape
    tau = np.zeros(p)
    work = np.empty(n)
    for j in range(p):
        x, below = xt[j, j:], xt[j, j + 1 :]
        alpha = x[0]
        scaled = np.abs(x, out=work[: n - j])
        if not scaled[1:].any():
            continue
        scale = scaled.max()
        np.divide(x, scale, out=scaled)
        beta = -np.copysign(scale * np.sqrt(scaled @ scaled), alpha)
        tau[j] = (beta - alpha) / beta
        np.multiply(below, 1.0 / (alpha - beta), out=below)
        x[0] = beta
        # H_j = I - tau v v' on the later columns: c -= tau (v'c) v
        w = tau[j] * (xt[j + 1 :, j] + xt[j + 1 :, j + 1 :] @ below)
        for row, wk in zip(xt[j + 1 :], w):
            row[j] -= wk
            row[j + 1 :] -= np.multiply(below, wk, out=work[: n - j - 1])
    r = np.triu(xt[:, :p].T)
    for j in range(p - 1, -1, -1):
        below = xt[j, j + 1 :]
        # later rows already hold Q' rows, zero in column j: only v[1:] acts
        w = tau[j] * (xt[j + 1 :, j + 1 :] @ below)
        for row, wk in zip(xt[j + 1 :], w):
            row[j] = -wk
            row[j + 1 :] -= np.multiply(below, wk, out=work[: n - j - 1])
        below *= -tau[j]
        xt[j, j] = 1.0 - tau[j]
        xt[j, :j] = 0.0
    return r


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


_LABELS = {"y": "outcome", "m2": "m2", "m1": "m1"}


def _nested_qr(d: Dataset, topology: Topology):
    """Q' and R of the nested design X = QR (_nested_design), factored in place
    (_qr_in_place), and each model's full-data fit read off them. The QR of
    X's leading p columns is Q_p R_p, the leading blocks of Q and R, so each
    model, by its design columns, has z0 = Q_p'y and the residual sum of
    squares r0'r0, r0 = y - Q_p z0; r0 itself is not kept. Each model also
    has s, the singular values of X_p with unit-norm columns, from one SVD
    per distinct R_p block: the one conditioning measure of the rank
    decision (_read_fits) and the bootstrap gate (CountWeightedFit.fit)."""
    if not isinstance(topology, Topology):
        raise ConfigError(f"unknown topology {topology!r}")
    if d.n <= 8 + d.k:
        raise DataError(
            f"need more than {8 + d.k} rows to fit the outcome design, got {d.n}"
        )
    with np.errstate(all="ignore"):  # an overflowing product is rejected below
        qt, columns = _nested_design(d, topology)  # X', until factored into Q'
    finite = [np.isfinite(row).all() for row in qt]
    if not all(finite):
        names = _design_names(topology, d.covariate_names)["y"]
        raise EstimationError(
            "outcome design is not finite; overflowing columns: "
            + ", ".join(nm for nm, j in zip(names, columns["y"]) if not finite[j])
        )
    r = _qr_in_place(qt)
    models, scaled = {}, {}
    for key, cols in columns.items():
        p, y = len(cols), getattr(d, key)
        if p not in scaled:  # non-sequential m1 and m2 share their block
            # R_p shares X_p's column norms (by hypot, which cannot
            # overflow), and a zero column stays zero
            norms = np.hypot.reduce(r[:p, :p], axis=0)
            scaled[p] = np.linalg.svd(r[:p, :p] / np.where(norms > 0.0, norms, 1.0),
                                      compute_uv=False)
        z0 = qt[:p] @ y
        r0 = z0 @ qt[:p]
        np.subtract(y, r0, out=r0)
        models[key] = (cols, z0, float(r0 @ r0), scaled[p])
    return qt, r, models


# The bootstrap's gate, beside the rank cutoff of _read_fits: both read s of
# _nested_qr, the singular values of R_p D^-1, D being X_p's column norms. A
# replicate with counts W takes the count-weighted route (CountWeightedFit.fit)
# only while cond(R_p D^-1) * sqrt(cond(G_b)) < _COND_LIMIT for every model,
# G_b = Q_p' W Q_p. Any other is refit the reference way, fit_all on its
# copied rows X_b. Every replicate the gate passes is one that refit accepts:
# - X_b D^-1 has the singular values of W^1/2 X_p D^-1 = W^1/2 Q_p (R_p D^-1),
#   so cond(X_b D^-1) <= cond(R_p D^-1) * sqrt(cond(G_b)), which the gate
#   bounds.
# - The refit scales by the resample's own column norms D_b. Unit-norm
#   scaling is within sqrt(p) of the best diagonal scaling (van der Sluis
#   1969; Higham, ASNA, Thm 7.5), so cond(X_b D_b^-1) <= sqrt(p) * _COND_LIMIT.
# - That stays below the rank cutoff, 1 / (eps * max(n, p)), while
#   sqrt(p) * max(n, p) < 4.5e7: at p = 10, n up to 1.4e7.
_COND_LIMIT = 1e8


def _read_fits(d: Dataset, topology: Topology, r: np.ndarray, models) -> FittedModels:
    """Every model's fit, read off R and the models of _nested_qr: the rank
    decision, coefficients, covariances, standard errors and R^2."""
    names = _design_names(topology, d.covariate_names)
    fits, stderr, r2, vcov, rss = {}, {}, {}, {}, {}
    for key, (cols, z0, model_rss, s) in models.items():
        p, y = len(cols), getattr(d, key)
        # an SVD solver's rank cutoff, rcond = eps * max(n, p), on the singular
        # values of X_p with unit-norm columns, so that units do not decide rank
        if s[-1] <= s[0] * np.finfo(float).eps * max(d.n, p):
            bad = _dependent_columns(r[:, cols], names[key])  # X's columns, rotated
            raise EstimationError(
                f"{_LABELS[key]} design is rank-deficient; collinear columns: "
                + ", ".join(bad or ["(numerically degenerate)"])
            )
        rinv = np.linalg.inv(r[:p, :p])
        rss[key] = model_rss
        fits[key] = (rinv @ z0)[cols]
        # s^2 (X'X)^{-1} = s^2 R_p^{-1} R_p^{-T}, at the design's columns
        vcov[key] = (rss[key] / (d.n - p) * (rinv @ rinv.T))[np.ix_(cols, cols)]
        stderr[key] = dict(zip(names[key], np.sqrt(np.diag(vcov[key])).tolist()))
        tss = float(np.sum((y - y.mean()) ** 2))
        r2[key] = 1.0 - rss[key] / tss if tss > 0.0 else 1.0
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


def fit_all(d: Dataset, topology: Topology) -> FittedModels:
    """Fit the outcome and both mediator models, returning plug-in coefficients."""
    return _read_fits(d, topology, *_nested_qr(d, topology)[1:])


# Data rows per slice of the count-weighted sums (CountWeightedFit.fit). The
# column buffer holds one slice, 1.25 MB for the 76 rows of a non-sequential
# fit with k = 2, and the float64 window of a chunk's counts 0.5 MB; both are
# bounded whatever n is. With n <= _SLICE_ROWS, as at n = 2,000, the buffer
# is built once per fitter.
_SLICE_ROWS = 2048


class CountWeightedFit:
    """Refits of all three models under row-count weights, against one QR.

    A bootstrap resample that takes row i w_i times has the same least-squares
    fit as the weighted problem min sum_i w_i (y_i - x_i b)^2. The set-up
    factors the full data once (_nested_qr), in place, so the design and Q'
    are one n x p_y array, and first reads its fit, full_fit, off that QR as
    fit_all does, so a design fit_all rejects fails here alike.
    From the full-data z0 and r0, a replicate's fit is z = z0 + dz, where
    G dz = h for G = Q_p' W Q_p and h = Q_p' W r0, and b = R_p^{-1} z (least
    squares through QR, never X'WX itself). Its residual sum of squares is
    sum w r0^2 - h'dz: the subtracted term is O(p sigma^2) against
    O(n sigma^2), so nothing cancels. G is close to n times the identity for
    a typical resample, so these small solves are well conditioned.

    Every count-weighted sum a chunk of replicates needs is a product
    counts @ columns.T, where each row of columns is one column of
    [q_i * q_j for i <= j | r0 * Q_p, r0^2 per model]; a model's G is the
    leading p x p block of the outcome model's. The fitter keeps only that
    Q', each model's z0 and the data's own outcome columns, and fit builds
    the columns for _SLICE_ROWS data rows at a time into one buffer,
    allocated at set-up, so its memory beyond Q' and the counts does not
    grow with n. Each slice's r0 = y - Q_p z0 is formed there, so no
    n-length residual is kept. The buffer is refilled only for a slice it
    does not hold: with n <= _SLICE_ROWS, once per fitter.
    The counts may be of any numeric dtype, narrow integers included: fit
    copies each slice of them into one float64 window for its product, so
    the sums are those of float64 counts bit for bit.
    """

    def __init__(self, d: Dataset, topology: Topology):
        self._n = d.n
        self._topology = topology
        # Q' in rows, to write each product in one pass
        self._qt, self._r, models = _nested_qr(d, topology)
        self.full_fit = _read_fits(d, topology, self._r, models)
        self._pairs = np.triu_indices(len(self._r))
        # cond(R_p D^-1) per distinct block, from the singular values the
        # rank decision read: it passed, so s[-1] > 0
        self._models, self._cond_r = {}, {}
        row = len(self._pairs[0])
        for key, (cols, z0, _, s) in models.items():
            self._models[key] = (cols, z0, getattr(d, key), row)
            self._cond_r[len(cols)] = s[0] / s[-1]
            row += len(cols) + 1
        # the slice buffer, and the first data row of the slice it holds
        self._buffer = np.empty((row, min(self._n, _SLICE_ROWS)))
        self._held = None

    def _columns(self, lo: int, hi: int) -> np.ndarray:
        """Data rows lo:hi of columns, held in the slice buffer."""
        qt, out = self._qt[:, lo:hi], self._buffer[:, : hi - lo]
        if self._held == lo:
            return out
        at = 0
        for i in range(len(qt)):  # the pairs (i, j >= i), in triu_indices order
            np.multiply(qt[i], qt[i:], out=out[at : at + len(qt) - i])
            at += len(qt) - i
        for cols, z0, y, row in self._models.values():
            p = len(cols)
            r0 = np.subtract(y[lo:hi], z0 @ qt[:p], out=out[row + p])
            np.multiply(qt[:p], r0, out=out[row : row + p])
            np.multiply(r0, r0, out=r0)
        self._held = lo
        return out

    def fit(self, counts: np.ndarray):
        """Coefficients for every row of a (replicates, n) count matrix of any
        numeric dtype.

        Returns a CoefficientBatch and a boolean array, true for a replicate
        whose cond(R_p D^-1) * sqrt(cond(Q_p' W Q_p)), an upper bound on the
        condition number of its resampled design at the full data's unit-norm
        columns, is below _COND_LIMIT for every model. The caller refits the
        others the reference way, so rank decisions stay with the
        per-replicate fit; their batch values are meaningless.
        """
        reps = counts.shape[0]
        sums = np.zeros((reps, len(self._buffer)))
        window = np.empty((reps, min(self._n, _SLICE_ROWS)))
        for lo in range(0, self._n, _SLICE_ROWS):
            hi = min(lo + _SLICE_ROWS, self._n)
            slice_counts = window[:, : hi - lo]
            slice_counts[...] = counts[:, lo:hi]
            sums += slice_counts @ self._columns(lo, hi).T
        gram = np.empty((reps,) + self._r.shape)
        iu, il = self._pairs, self._pairs[::-1]
        gram[:, iu[0], iu[1]] = gram[:, il[0], il[1]] = sums[:, : len(iu[0])]
        ok = np.ones(reps, dtype=bool)
        for p, cond_r in self._cond_r.items():
            eig = np.linalg.eigvalsh(gram[:, :p, :p])
            # cond_r * sqrt(max eig / min eig) < _COND_LIMIT, squared and
            # cleared of the division; false whenever min eig <= 0
            ok &= cond_r**2 * eig[:, -1] < _COND_LIMIT**2 * eig[:, 0]
        # skipped replicates must not make solve raise
        gram[~ok] = np.eye(len(self._r))
        fits, rss = {}, {}
        for key, (cols, z0, _, row) in self._models.items():
            p = len(cols)
            h = sums[:, row : row + p]
            dz = np.linalg.solve(gram[:, :p, :p], h[:, :, None])[:, :, 0]
            # an exact fit leaves rounding in both terms, a skipped replicate
            # anything: neither may make a sigma NaN
            rss[key] = np.maximum(sums[:, row + p] - np.einsum("bi,bi->b", h, dz), 0.0)
            fits[key] = np.linalg.solve(self._r[:p, :p], (z0 + dz).T)[cols]
        return _coefficients(fits, rss, self._n, self._topology, CoefficientBatch), ok
