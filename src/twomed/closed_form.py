"""Closed-form expected components under the linear-Gaussian system.

Everything here is a polynomial in the exposure levels, the model
coefficients, the conditioning covariate values, and the first mediator's
error variance (which enters through E[M1^2]). The eight expected nested
counterfactuals W1..W8 are exposed individually: every component equals a
signed combination of them, which localizes transcription errors, and the
total effect is computed BOTH from its own long polynomial and as W1 - W8
with the two paths required to agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    AGGREGATE_NAMES,
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
    ComponentSet,
    ConfigError,
    EstimationError,
    ReferenceConfig,
    Topology,
    component_names,
    identity_violations,
)
from .oracle import LinearScm

_W_SLOTS = {
    "W1": ("a", "a", "a"),
    "W2": ("a", "a", "s"),
    "W3": ("a", "s", "a"),
    "W4": ("s", "a", "a"),
    "W5": ("s", "s", "a"),
    "W6": ("s", "a", "s"),
    "W7": ("a", "s", "s"),
    "W8": ("s", "s", "s"),
}

W_NAMES = tuple(_W_SLOTS)


@dataclass(frozen=True)
class ModelCoefficients:
    """Coefficients feeding the closed forms (estimated or supplied).

    Same shape as LinearScm but without the ground-truth reading: sigma_m1 is
    required because the first mediator's error variance appears in the
    formulas (zero is allowed for deterministic what-if analyses); sigma_y and
    sigma_m2 are optional metadata.
    """

    theta: tuple[float, ...]
    beta: tuple[float, ...]
    gamma: tuple[float, ...]
    theta_c: tuple[float, ...] = ()
    beta_c: tuple[float, ...] = ()
    gamma_c: tuple[float, ...] = ()
    sigma_m1: float = 0.0
    sigma_y: float | None = None
    sigma_m2: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "theta", tuple(float(v) for v in self.theta))
        object.__setattr__(self, "beta", tuple(float(v) for v in self.beta))
        object.__setattr__(self, "gamma", tuple(float(v) for v in self.gamma))
        object.__setattr__(self, "theta_c", tuple(float(v) for v in self.theta_c))
        object.__setattr__(self, "beta_c", tuple(float(v) for v in self.beta_c))
        object.__setattr__(self, "gamma_c", tuple(float(v) for v in self.gamma_c))
        if len(self.theta) != 8 or len(self.beta) != 4 or len(self.gamma) != 2:
            raise ConfigError(
                "coefficient shapes must be theta[8], beta[4], gamma[2]"
            )
        if not (len(self.theta_c) == len(self.beta_c) == len(self.gamma_c)):
            raise ConfigError("covariate coefficient vectors must share one length")
        s1 = float(self.sigma_m1)
        if not math.isfinite(s1) or s1 < 0.0:
            raise ConfigError(f"sigma_m1 must be a nonnegative real, got {s1}")
        object.__setattr__(self, "sigma_m1", s1)
        for name in ("sigma_y", "sigma_m2"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, float(getattr(self, name)))

    @property
    def covariate_dim(self) -> int:
        return len(self.theta_c)

    @classmethod
    def from_scm(cls, scm: LinearScm) -> "ModelCoefficients":
        return cls(
            theta=scm.theta,
            beta=scm.beta,
            gamma=scm.gamma,
            theta_c=scm.theta_c,
            beta_c=scm.beta_c,
            gamma_c=scm.gamma_c,
            sigma_m1=scm.sigma_m1,
            sigma_y=scm.sigma_y,
            sigma_m2=scm.sigma_m2,
        )


class CoefficientBatch(NamedTuple):
    """ModelCoefficients for many bootstrap replicates at once.

    Each entry of theta, beta, gamma and the covariate vectors, and sigma_m1,
    is an array with one value per replicate (a float stands for the same
    value in all of them). The closed forms evaluate every replicate with the
    arithmetic decompose_closed_form runs on one. Nothing is validated here:
    the producer guarantees the shapes.
    """

    theta: tuple
    beta: tuple
    gamma: tuple
    theta_c: tuple = ()
    beta_c: tuple = ()
    gamma_c: tuple = ()
    sigma_m1: np.ndarray | float = 0.0
    sigma_y: np.ndarray | None = None
    sigma_m2: np.ndarray | None = None

    @classmethod
    def stack(cls, models) -> "CoefficientBatch":
        """One batch from ModelCoefficients that share a covariate dimension."""

        def column(field):
            return tuple(np.array([getattr(m, field) for m in models], float).T)

        fields = ("theta", "beta", "gamma", "theta_c", "beta_c", "gamma_c")
        return cls(
            *(column(f) for f in fields),
            sigma_m1=np.array([m.sigma_m1 for m in models], float),
        )


def _fsum(terms):
    """math.fsum, replicate by replicate when the terms are arrays."""
    if terms and isinstance(terms[0], np.ndarray):
        return np.array([math.fsum(row) for row in np.column_stack(terms).tolist()])
    return math.fsum(terms)


def _contractions(m, cfg: ReferenceConfig):
    """The three covariate dot products, computed once per call."""
    c = cfg.covariates
    if len(c) != len(m.theta_c):
        raise ConfigError(
            f"covariate dimension mismatch: model expects {len(m.theta_c)}, "
            f"config supplies {len(c)}"
        )
    return tuple(
        _fsum([ci * vi for ci, vi in zip(c, coefs)])
        for coefs in (m.theta_c, m.beta_c, m.gamma_c)
    )


def expected_counterfactual(
    which: str, m: ModelCoefficients, cfg: ReferenceConfig
) -> float:
    """One of the eight expected nested counterfactuals W1..W8.

    Wk = E[Y(x, M1(y), M2(z, M1(y))) | c] where each of the three exposure
    slots (outcome's, first mediator's, second mediator's) is set to a or
    a_star according to the slot table:
    W1=(a,a,a) W2=(a,a,a*) W3=(a,a*,a) W4=(a*,a,a)
    W5=(a*,a*,a) W6=(a*,a,a*) W7=(a,a*,a*) W8=(a*,a*,a*).
    """
    if which not in _W_SLOTS:
        raise ConfigError(f"unknown counterfactual {which!r}; expected W1..W8")
    t8c, b4c, g2c = _contractions(m, cfg)
    lv = {"a": cfg.a, "s": cfg.a_star}
    x, y, z = (lv[k] for k in _W_SLOTS[which])
    return _w_value(m.theta, m.beta, m.gamma, _var1(m), x, y, z, t8c, b4c, g2c)


# Squares are written as products throughout: numpy squares an array by
# multiplication, while a Python float's ** 2 goes through pow(), which is
# not always correctly rounded. Products keep one float and the same float in
# an array bit-identical.
def _var1(m):
    """The first mediator's error variance, E[M1^2] - E[M1]^2."""
    return m.sigma_m1 * m.sigma_m1


def _w_value(t, b, g, var1, x, y, z, t8c, b4c, g2c):
    gy = g[0] + g[1] * y + g2c        # E[M1(y) | c]
    bz = b[0] + b[1] * z + b4c        # M2 model baseline at exposure z
    kz = b[2] + b[3] * z              # M2 model slope in m1 at exposure z
    return (
        t[0] + t[1] * x + t8c
        + (t[3] + t[5] * x) * bz
        + (t[2] + t[4] * x) * gy
        + (t[6] + t[7] * x) * bz * gy
        + (t[3] + t[5] * x) * kz * gy
        + (t[6] + t[7] * x) * kz * (var1 + gy * gy)
    )


def _te_polynomial(m, cfg, t8c, b4c, g2c):
    """The total effect as an explicit quartic in the exposure levels."""
    t = m.theta
    b = m.beta
    g = m.gamma
    a, s = cfg.a, cfg.a_star
    var1 = _var1(m)
    g1sq = g[1] * g[1]
    b0c = b[0] + b4c
    g0c = g[0] + g2c
    c1 = (
        t[1]
        + t[5] * b0c
        + b[1] * t[3]
        + t[4] * g0c
        + g[1] * t[2]
        + t[7] * b0c * g0c
        + b[1] * t[6] * g0c
        + g[1] * t[6] * b0c
        + t[5] * b[2] * g0c
        + t[3] * b[3] * g0c
        + t[3] * b[2] * g[1]
        + t[7] * b[2] * var1
        + t[6] * b[3] * var1
        + t[7] * b[2] * g0c * g0c
        + t[6] * b[3] * g0c * g0c
        + 2.0 * g[1] * t[6] * b[2] * g0c
    )
    c2 = (
        b[1] * t[5]
        + g[1] * t[4]
        + b[1] * t[7] * g0c
        + g[1] * t[7] * b0c
        + g[1] * b[1] * t[6]
        + t[5] * b[3] * g0c
        + t[5] * b[2] * g[1]
        + t[3] * b[3] * g[1]
        + t[7] * b[3] * var1
        + t[7] * b[3] * g0c * g0c
        + 2.0 * g[1] * t[7] * b[2] * g0c
        + 2.0 * g[1] * t[6] * b[3] * g0c
        + t[6] * b[2] * g1sq
    )
    c3 = (
        g[1] * b[1] * t[7]
        + t[5] * b[3] * g[1]
        + 2.0 * g[1] * t[7] * b[3] * g0c
        + t[7] * b[2] * g1sq
        + t[6] * b[3] * g1sq
    )
    c4 = t[7] * b[3] * g1sq
    return (
        c1 * (a - s)
        + c2 * (a * a - s * s)
        + c3 * (a ** 3 - s ** 3)
        + c4 * (a ** 4 - s ** 4)
    )


def _sequential_components(m, cfg, b4c, g2c):
    """The nine sequential summary polynomials."""
    t = m.theta
    b = m.beta
    g = m.gamma
    a, s = cfg.a, cfg.a_star
    m1r, m2r = cfg.m1_star, cfg.m2_star
    var1 = _var1(m)
    g1sq = g[1] * g[1]
    d = a - s
    gs = g[0] + g[1] * s + g2c        # E[M1(a*) | c]
    bs = b[0] + b[1] * s + b4c
    ks = b[2] + b[3] * s
    g0c = g[0] + g2c
    return {
        CDE: (t[1] + t[4] * m1r + t[5] * m2r + t[7] * m1r * m2r) * d,
        INT_REF_AM1: (gs - m1r) * (t[4] + t[7] * m2r) * d,
        INT_REF_AM2_PLUS_AM1M2: (
            t[1]
            + t[5] * bs
            + t[7] * bs * gs
            + t[5] * ks * gs
            + t[7] * ks * (var1 + gs * gs)
            - (t[1] + t[5] * m2r)
            - t[7] * m2r * gs
        ) * d,
        NATINT_AM1: (
            t[4] * g[1]
            + t[7] * g[1] * bs
            + t[5] * g[1] * ks
            + 2.0 * t[7] * g[1] * ks * g0c
            + t[7] * g1sq * ks * (a + s)
        ) * d * d,
        NATINT_AM2: (
            t[5] * b[1]
            + t[7] * b[1] * gs
            + t[5] * b[3] * gs
            + t[7] * b[3] * (var1 + gs * gs)
        ) * d * d,
        NATINT_AM1M2: (
            t[7] * b[1] * g[1]
            + t[5] * b[3] * g[1]
            + 2.0 * t[7] * b[3] * g[1] * g0c
            + t[7] * b[3] * g1sq * (a + s)
        ) * d ** 3,
        NATINT_M1M2: (
            b[1] * g[1] * (t[6] + t[7] * s)
            + b[3] * g[1] * (t[3] + t[5] * s)
            + 2.0 * b[3] * g[1] * (t[6] + t[7] * s) * g0c
            + b[3] * g1sq * (t[6] + t[7] * s) * (a + s)
        ) * d * d,
        PIE_M1: (
            g[1] * (t[2] + t[4] * s)
            + g[1] * (t[6] + t[7] * s) * bs
            + g[1] * (t[3] + t[5] * s) * ks
            + 2.0 * g[1] * (t[6] + t[7] * s) * ks * g0c
            + g1sq * (t[6] + t[7] * s) * ks * (a + s)
        ) * d,
        PIE_M2: (
            b[1] * (t[3] + t[5] * s)
            + b[1] * (t[6] + t[7] * s) * gs
            + b[3] * (t[3] + t[5] * s) * gs
            + b[3] * (t[6] + t[7] * s) * (var1 + gs * gs)
        ) * d,
    }


def _nonsequential_components(m, cfg, b4c, g2c):
    """The ten non-sequential polynomials, for beta[2] = beta[3] = 0."""
    t = m.theta
    b = m.beta
    g = m.gamma
    a, s = cfg.a, cfg.a_star
    m1r, m2r = cfg.m1_star, cfg.m2_star
    d = a - s
    gs = g[0] + g[1] * s + g2c
    bs = b[0] + b[1] * s + b4c
    return {
        CDE: (t[1] + t[4] * m1r + t[5] * m2r + t[7] * m1r * m2r) * d,
        INT_REF_AM1: (gs - m1r) * (t[4] + t[7] * m2r) * d,
        INT_REF_AM2: (t[5] + t[7] * m1r) * (bs - m2r) * d,
        INT_REF_AM1M2: t[7] * (gs - m1r) * (bs - m2r) * d,
        NATINT_AM1: (t[4] * g[1] + t[7] * g[1] * bs) * d * d,
        NATINT_AM2: (t[5] * b[1] + t[7] * b[1] * gs) * d * d,
        NATINT_AM1M2: t[7] * b[1] * g[1] * d ** 3,
        NATINT_M1M2: b[1] * g[1] * (t[6] + t[7] * s) * d * d,
        PIE_M1: (g[1] * (t[2] + t[4] * s) + g[1] * (t[6] + t[7] * s) * bs) * d,
        PIE_M2: (b[1] * (t[3] + t[5] * s) + b[1] * (t[6] + t[7] * s) * gs) * d,
    }


def _decomposition(m, cfg):
    """Components, aggregates and rounding scale, from floats or arrays alike."""
    t8c, b4c, g2c = _contractions(m, cfg)
    if cfg.topology is Topology.SEQUENTIAL:
        comps = _sequential_components(m, cfg, b4c, g2c)
    else:
        comps = _nonsequential_components(m, cfg, b4c, g2c)
    return (
        comps,
        _aggregates_from_w(m, cfg, t8c, b4c, g2c),
        _rounding_scale(m, cfg, t8c, b4c, g2c),
    )


def _finite_decomposition(m, cfg):
    """_decomposition of one coefficient set, refusing a result that is not
    finite: huge exposure levels overflow the quartic total effect (a float's
    ** raises on overflow, where products give inf)."""
    try:
        comps, aggs, scale = _decomposition(m, cfg)
        finite = all(map(math.isfinite, (*comps.values(), *aggs.values())))
    except OverflowError:
        finite = False
    if not finite:
        raise EstimationError(
            "the closed-form decomposition is not finite at exposure levels "
            f"a={cfg.a!r}, a_star={cfg.a_star!r}"
        )
    return comps, aggs, scale


def decompose_sequential_closed_form(
    m: ModelCoefficients, cfg: ReferenceConfig
) -> ComponentSet:
    """All nine sequential components from their summary polynomials.

    Aggregates come from W-differences and the total effect from its own long
    polynomial, so constructing the result cross-checks the summary formulas
    against the W route on every call.
    """
    if cfg.topology is not Topology.SEQUENTIAL:
        raise ConfigError("decompose_sequential_closed_form needs Sequential topology")
    return ComponentSet(Topology.SEQUENTIAL, *_finite_decomposition(m, cfg))


def _rounding_scale(m, cfg, t8c, b4c, g2c):
    """A bound on the absolute monomials any W or component polynomial sums.

    It is the W polynomial with every coefficient and level replaced by its
    absolute value, the mediator reference levels added to the mediator
    intercepts. The aggregates are differences of W values and the components
    are signed sums of the same monomials, so their rounding error is a
    multiple of this however far the results cancel.
    """
    level = max(abs(cfg.a), abs(cfg.a_star))
    b = [abs(v) for v in m.beta]
    b[0] += abs(cfg.m2_star)
    return _w_value(
        [abs(v) for v in m.theta],
        b,
        [abs(m.gamma[0]) + abs(cfg.m1_star), abs(m.gamma[1])],
        _var1(m),
        level, level, level,
        abs(t8c), abs(b4c), abs(g2c),
    )


def _aggregates_from_w(m, cfg, t8c, b4c, g2c):
    a, s = cfg.a, cfg.a_star
    var1 = _var1(m)

    def w(x, y, z):
        return _w_value(m.theta, m.beta, m.gamma, var1, x, y, z, t8c, b4c, g2c)

    return {
        PDE: w(a, s, s) - w(s, s, s),
        TDE: w(a, a, a) - w(s, a, a),
        SIE_M1: w(s, a, a) - w(s, s, a),
        TE: _te_polynomial(m, cfg, t8c, b4c, g2c),
    }


def _check_nonsequential_beta(m) -> None:
    if np.any(np.not_equal(m.beta[2], 0.0)) or np.any(np.not_equal(m.beta[3], 0.0)):
        raise ConfigError(
            "non-sequential topology requires beta[2] = beta[3] = 0; "
            f"got beta[2]={m.beta[2]}, beta[3]={m.beta[3]}"
        )


def decompose_nonsequential_closed_form(
    m: ModelCoefficients, cfg: ReferenceConfig
) -> ComponentSet:
    """All ten non-sequential components in closed form.

    Requires beta[2] = beta[3] = 0: with an M1 -> M2 edge the model is not
    non-sequential. The combined reference-interaction term of the sequential
    case splits here into its AM2 and AM1M2 parts, evaluated from their
    defining contrasts under the linear model with the two mediators
    conditionally independent given exposure and covariates.
    """
    if cfg.topology is not Topology.NONSEQUENTIAL:
        raise ConfigError(
            "decompose_nonsequential_closed_form needs NonSequential topology"
        )
    _check_nonsequential_beta(m)
    return ComponentSet(Topology.NONSEQUENTIAL, *_finite_decomposition(m, cfg))


def decompose_closed_form(m: ModelCoefficients, cfg: ReferenceConfig) -> ComponentSet:
    """Dispatch on the config's topology."""
    if cfg.topology is Topology.SEQUENTIAL:
        return decompose_sequential_closed_form(m, cfg)
    return decompose_nonsequential_closed_form(m, cfg)


def decompose_closed_form_batch(
    m: CoefficientBatch, cfg: ReferenceConfig
) -> tuple[dict, np.ndarray]:
    """decompose_closed_form for every replicate of a batch at once.

    Returns the component and aggregate values, one array per name, and a
    boolean array that is true for each replicate violating an identity that
    ComponentSet enforces; such a replicate's values are not a decomposition.
    """
    if cfg.topology is Topology.NONSEQUENTIAL:
        _check_nonsequential_beta(m)
    # a replicate whose values overflow fails its identities; numpy's
    # warnings about it carry nothing more
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            comps, aggs, scale = _decomposition(m, cfg)
        except OverflowError:
            # a power of a huge exposure level, which every replicate shares
            # (see _finite_decomposition): none of them is a decomposition
            size = np.broadcast(*m.theta, *m.beta, *m.gamma, m.sigma_m1).size
            names = (*component_names(cfg.topology), *AGGREGATE_NAMES)
            return {k: np.full(size, np.nan) for k in names}, np.ones(size, bool)
        violated = identity_violations(cfg.topology, comps, aggs, scale)
    return comps | aggs, violated
