"""Closed-form expected components under the linear-Gaussian system.

The model is a linear.ModelCoefficients, estimated or ground truth (a
LinearScm is one). Everything here is a polynomial in the exposure levels,
the model coefficients, the conditioning covariate values, and the first
mediator's error variance (which enters through E[M1^2]). One evaluator gives
the expected outcome of every world of core.CONTRASTS, reference slots
included, and expected_counterfactual exposes it: the aggregates PDE, TDE,
SIE_M1 and TE are their table rows over it, and every component polynomial
equals its row, which localizes transcription errors. The component
polynomials are written once, for the sequential topology; the non-sequential
ones are the same at beta[2] = beta[3] = 0. Their sum is a second route to the
total effect, and the component-set identities require it to agree with TE.
"""

from __future__ import annotations

import math
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
    PIE_M1,
    PIE_M2,
    ComponentSet,
    ConfigError,
    EstimationError,
    ReferenceConfig,
    Topology,
    contrasts,
    identity_violations,
)
from .linear import (
    VECTORS,
    ModelCoefficients,
    check_nonsequential_beta,
    contractions,
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

        return cls(
            *(column(f) for f in VECTORS),
            sigma_m1=np.array([m.sigma_m1 for m in models], float),
        )


# W1..W8, the eight natural worlds Wk = E[Y(x, M1(y), M2(z, M1(y)))], by
# their world keys "xyz"
_W_KEYS = dict(zip(("W1", "W2", "W3", "W4", "W5", "W6", "W7", "W8"),
                   ("aaa", "aas", "asa", "saa", "ssa", "sas", "ass", "sss")))


def expected_counterfactual(
    which: str, m: ModelCoefficients, cfg: ReferenceConfig
) -> float:
    """The expected outcome in world which: a key "xij" of core.CONTRASTS,
    reference slots included, or one of the eight natural worlds W1..W8."""
    key = _W_KEYS.get(which, which)
    if not (len(key) == 3 and key[0] in "as" and key[1] in "asr" and key[2] in "asr"):
        raise ConfigError(
            f"unknown counterfactual {which!r}; expected a world key such as "
            "'asr', or W1..W8"
        )
    if cfg.topology is Topology.NONSEQUENTIAL:
        check_nonsequential_beta(m)
    return _worlds(m, cfg, *contractions(m, cfg.covariates))(key)


# Squares and higher powers are written as products throughout: numpy squares
# an array by multiplication, while a Python float's ** goes through pow(),
# which is not always correctly rounded and raises on overflow. Products keep
# one float and the same float in an array bit-identical, and overflow to inf.
def _var1(m):
    """The first mediator's error variance, E[M1^2] - E[M1]^2."""
    return m.sigma_m1 * m.sigma_m1


def _worlds(m, cfg, t8c, b4c, g2c):
    """world(key), the expected outcome in world key "xij" of core.CONTRASTS.

    M1 in a natural slot y has mean E[M1(y) | c] and variance sigma_m1^2; at
    its reference, mean m1_star and variance 0. M2 in a natural slot z has
    baseline E[M2(z) | M1 = 0, c] and slope beta[2] + beta[3] z in M1; at its
    reference, baseline m2_star and slope 0.
    """
    t, b, g = m.theta, m.beta, m.gamma
    level = {"a": cfg.a, "s": cfg.a_star}
    var1 = _var1(m)

    def world(key):
        x = level[key[0]]
        if key[1] == "r":
            gy, v1 = cfg.m1_star, 0.0
        else:
            gy, v1 = g[0] + g[1] * level[key[1]] + g2c, var1
        if key[2] == "r":
            bz, kz = cfg.m2_star, 0.0
        else:
            z = level[key[2]]
            bz = b[0] + b[1] * z + b4c
            kz = b[2] + b[3] * z
        return (
            t[0] + t[1] * x + t8c
            + (t[3] + t[5] * x) * bz
            + (t[2] + t[4] * x) * gy
            + (t[6] + t[7] * x) * bz * gy
            + (t[3] + t[5] * x) * kz * gy
            + (t[6] + t[7] * x) * kz * (v1 + gy * gy)
        )

    return world


def _components(m, cfg, b4c, g2c):
    """The component polynomials of cfg's topology. The non-sequential ones
    are the sequential ones at beta[2] = beta[3] = 0, where every ks and
    beta[3] term is an exact zero, with the combined reference interaction
    split into its AM2 and AM1M2 parts. Those terms multiply from their ks or
    beta[3] factor, so the zero stays zero where the product of the other
    factors would overflow to inf and give inf * 0 = NaN."""
    t = m.theta
    b = m.beta
    g = m.gamma
    a, s = cfg.a, cfg.a_star
    m1r, m2r = cfg.m1_star, cfg.m2_star
    d = a - s
    gs = g[0] + g[1] * s + g2c        # E[M1(a*) | c]
    bs = b[0] + b[1] * s + b4c
    var1 = _var1(m)
    g1sq = g[1] * g[1]
    ks = b[2] + b[3] * s
    g0c = g[0] + g2c
    comps = {
        CDE: (t[1] + t[4] * m1r + t[5] * m2r + t[7] * m1r * m2r) * d,
        INT_REF_AM1: (gs - m1r) * (t[4] + t[7] * m2r) * d,
    }
    if cfg.topology is Topology.NONSEQUENTIAL:
        comps[INT_REF_AM2] = (t[5] + t[7] * m1r) * (bs - m2r) * d
        comps[INT_REF_AM1M2] = t[7] * (gs - m1r) * (bs - m2r) * d
    else:
        comps[INT_REF_AM2_PLUS_AM1M2] = (
            t[1]
            + t[5] * bs
            + t[7] * bs * gs
            + t[5] * ks * gs
            + t[7] * ks * (var1 + gs * gs)
            - (t[1] + t[5] * m2r)
            - t[7] * m2r * gs
        ) * d
    return comps | {
        NATINT_AM1: (
            t[4] * g[1]
            + t[7] * g[1] * bs
            + ks * t[5] * g[1]
            + ks * 2.0 * t[7] * g[1] * g0c
            + ks * t[7] * g1sq * (a + s)
        ) * d * d,
        NATINT_AM2: (
            t[5] * b[1]
            + t[7] * b[1] * gs
            + b[3] * t[5] * gs
            + b[3] * t[7] * (var1 + gs * gs)
        ) * d * d,
        NATINT_AM1M2: (
            t[7] * b[1] * g[1]
            + b[3] * t[5] * g[1]
            + b[3] * 2.0 * t[7] * g[1] * g0c
            + b[3] * t[7] * g1sq * (a + s)
        ) * d * d * d,
        NATINT_M1M2: (
            b[1] * g[1] * (t[6] + t[7] * s)
            + b[3] * g[1] * (t[3] + t[5] * s)
            + 2.0 * b[3] * g[1] * (t[6] + t[7] * s) * g0c
            + b[3] * g1sq * (t[6] + t[7] * s) * (a + s)
        ) * d * d,
        PIE_M1: (
            g[1] * (t[2] + t[4] * s)
            + g[1] * (t[6] + t[7] * s) * bs
            + ks * g[1] * (t[3] + t[5] * s)
            + ks * 2.0 * g[1] * (t[6] + t[7] * s) * g0c
            + ks * g1sq * (t[6] + t[7] * s) * (a + s)
        ) * d,
        PIE_M2: (
            b[1] * (t[3] + t[5] * s)
            + b[1] * (t[6] + t[7] * s) * gs
            + b[3] * (t[3] + t[5] * s) * gs
            + b[3] * (t[6] + t[7] * s) * (var1 + gs * gs)
        ) * d,
    }


def _decomposition(m, cfg):
    """Every value of cfg's topology, by name in value_names order, and the
    rounding scale, from floats or arrays alike."""
    if cfg.topology is Topology.NONSEQUENTIAL:
        check_nonsequential_beta(m)
    t8c, b4c, g2c = contractions(m, cfg.covariates)
    # the aggregates off the contrast table, which the component-set
    # identities check the component polynomials against
    values = _components(m, cfg, b4c, g2c) | contrasts(
        AGGREGATE_NAMES, _worlds(m, cfg, t8c, b4c, g2c))
    return values, _rounding_scale(m, cfg, t8c, b4c, g2c)


def decompose_sequential_closed_form(
    m: ModelCoefficients, cfg: ReferenceConfig
) -> ComponentSet:
    """All nine sequential components from their summary polynomials.

    The aggregates, the total effect included, come from W-differences, so
    constructing the result cross-checks the summary formulas against the W
    route on every call.
    """
    if cfg.topology is not Topology.SEQUENTIAL:
        raise ConfigError("decompose_sequential_closed_form needs Sequential topology")
    return decompose_closed_form(m, cfg)


def _rounding_scale(m, cfg, t8c, b4c, g2c):
    """A bound on the absolute monomials any world or component polynomial
    sums.

    It is world "aaa" with every coefficient and level replaced by its
    absolute value, the mediator reference levels added to the mediator
    intercepts, so it bounds the reference worlds too. The aggregates are
    differences of world values and the components are signed sums of the
    same monomials, so their rounding error is a multiple of this however far
    the results cancel.
    """
    level = max(abs(cfg.a), abs(cfg.a_star))
    b = [abs(v) for v in m.beta]
    b[0] += abs(cfg.m2_star)
    absolute = CoefficientBatch(
        [abs(v) for v in m.theta],
        b,
        [abs(m.gamma[0]) + abs(cfg.m1_star), abs(m.gamma[1])],
        sigma_m1=m.sigma_m1,
    )
    at_level = ReferenceConfig(level, level, 0.0, 0.0)
    return _worlds(absolute, at_level, abs(t8c), abs(b4c), abs(g2c))("aaa")


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
    return decompose_closed_form(m, cfg)


def decompose_closed_form(m: ModelCoefficients, cfg: ReferenceConfig) -> ComponentSet:
    """All components of the config's topology in closed form. A result that
    is not finite, as huge exposure levels or coefficients give, raises
    EstimationError."""
    values, scale = _decomposition(m, cfg)
    if not all(map(math.isfinite, values.values())):
        raise EstimationError(
            "the closed-form decomposition is not finite at exposure levels "
            f"a={cfg.a!r}, a_star={cfg.a_star!r}"
        )
    return ComponentSet.from_values(cfg.topology, values, scale)


def decompose_closed_form_batch(
    m: CoefficientBatch, cfg: ReferenceConfig
) -> tuple[dict, np.ndarray]:
    """decompose_closed_form for every replicate of a batch at once.

    Returns the values, one array per name in value_names order, and a
    boolean array that is true for each replicate violating an identity that
    ComponentSet enforces; such a replicate's values are not a decomposition.
    """
    # a replicate whose values overflow fails its identities; numpy's
    # warnings about it carry nothing more
    with np.errstate(over="ignore", invalid="ignore"):
        values, scale = _decomposition(m, cfg)
        violated = identity_violations(cfg.topology, values, scale)
    return values, violated
