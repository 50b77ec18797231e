"""The linear structural model of the two-mediator system.

M1 = gamma0 + gamma1 A + gamma_c'C + e1
M2 = beta0 + beta1 A + beta2 M1 + beta3 A M1 + beta_c'C + e2
Y  = theta0 + theta1 A + theta2 M1 + theta3 M2 + theta4 A M1 + theta5 A M2
     + theta6 M1 M2 + theta7 A M1 M2 + theta_c'C + eY

One coefficient type holds the model, whether estimated (ModelCoefficients)
or ground truth (LinearScm), and the three equations are written once here,
with their covariate terms theta_c'c, beta_c'c and gamma_c'c (contractions).
The outcome is written in its factored form Y = u + v M2, with
u = theta0 + theta1 A + theta_c'C + (theta2 + theta4 A) M1 + eY and
v = theta3 + theta5 A + (theta6 + theta7 A) M1 (outcome_parts), so a caller
that evaluates several M2 values at one exposure and M1 forms (u, v) once.
The closed forms, the Monte Carlo oracle and the simulator all read them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .core import ConfigError

_SHAPES = (("theta", 8), ("beta", 4), ("gamma", 2))
VECTORS = ("theta", "beta", "gamma", "theta_c", "beta_c", "gamma_c")


@dataclass(frozen=True)
class ModelCoefficients:
    """Coefficients of the linear structural model.

    theta: outcome-model coefficients (intercept, exposure, m1, m2,
    exposure*m1, exposure*m2, m1*m2, exposure*m1*m2); theta_c the outcome's
    covariate coefficients. beta: second-mediator model (intercept, exposure,
    m1, exposure*m1) with covariate coefficients beta_c. gamma: first-mediator
    model (intercept, exposure) with covariate coefficients gamma_c.

    Read as estimates, or supplied what-if values, they feed the closed forms:
    sigma_m1 is required because the first mediator's error variance appears
    in the formulas (zero is allowed for deterministic what-if analyses);
    sigma_y and sigma_m2 are optional metadata. LinearScm is the ground-truth
    reading of the same coefficients.
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
        for name in VECTORS:
            object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))
        for name, size in _SHAPES:
            if len(getattr(self, name)) != size:
                raise ConfigError(f"{name} must have {size} entries")
        if not (len(self.theta_c) == len(self.beta_c) == len(self.gamma_c)):
            raise ConfigError("covariate coefficient vectors must share one length")
        self._check_sigmas()

    def _check_sigmas(self) -> None:
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
    def from_scm(cls, scm: "ModelCoefficients") -> "ModelCoefficients":
        """A copy of scm's coefficients as this class."""
        return cls(**{f.name: getattr(scm, f.name) for f in fields(cls)})


@dataclass(frozen=True)
class LinearScm(ModelCoefficients):
    """Linear-Gaussian ground truth for the two-mediator system.

    The errors are independent centered Gaussians with the given standard
    deviations, each positive and finite.
    """

    sigma_m1: float = 1.0
    sigma_y: float = 1.0
    sigma_m2: float = 1.0

    def _check_sigmas(self) -> None:
        for tag in ("sigma_y", "sigma_m1", "sigma_m2"):
            v = float(getattr(self, tag))
            if not (v > 0.0) or not math.isfinite(v):
                raise ConfigError(f"{tag} must be a positive real, got {v}")
            object.__setattr__(self, tag, v)


# The structural equations, elementwise over scalars and arrays alike. cov is
# the equation's covariate term (gamma_c'c, beta_c'c or theta_c'c) and e its
# error; the operation order fixes every result's bits.
def m1(model, x, cov, e):
    """The first mediator at exposure x."""
    g = model.gamma
    return g[0] + g[1] * x + cov + e


def m2(model, z, m1_value, cov, e):
    """The second mediator at exposure z and first mediator m1_value."""
    b = model.beta
    return b[0] + b[1] * z + b[2] * m1_value + b[3] * z * m1_value + cov + e


def outcome_parts(model, x, m1_value, cov, e):
    """The outcome at exposure x and first mediator m1_value as u + v*m2:
    the pair (u, v). At fixed exposure the outcome is bilinear in the two
    mediators, so the pair serves every value of the second mediator."""
    t = model.theta
    u = t[0] + t[1] * x + cov + (t[2] + t[4] * x) * m1_value + e
    v = t[3] + t[5] * x + (t[6] + t[7] * x) * m1_value
    return u, v


def y(model, x, m1_value, m2_value, cov, e):
    """The outcome at exposure x and mediators m1_value, m2_value."""
    u, v = outcome_parts(model, x, m1_value, cov, e)
    return u + v * m2_value


def _fsum(terms):
    """math.fsum, replicate by replicate when the terms are arrays."""
    if terms and isinstance(terms[0], np.ndarray):
        return np.array([math.fsum(row) for row in np.column_stack(terms).tolist()])
    return math.fsum(terms)


def contractions(model, c) -> tuple:
    """The covariate terms theta_c'c, beta_c'c and gamma_c'c of the three
    equations at conditioning values c, each an exactly rounded math.fsum;
    model's coefficients may be floats or per-replicate arrays."""
    if len(c) != len(model.theta_c):
        raise ConfigError(
            f"covariate dimension mismatch: model expects {len(model.theta_c)}, "
            f"config supplies {len(c)}"
        )
    return tuple(
        _fsum([ci * vi for ci, vi in zip(c, coefs)])
        for coefs in (model.theta_c, model.beta_c, model.gamma_c)
    )


def check_nonsequential_beta(model) -> None:
    """Refuse a second-mediator model that depends on the first mediator;
    model's beta entries may be floats or per-replicate arrays."""
    b = model.beta
    if np.any(np.not_equal(b[2], 0.0)) or np.any(np.not_equal(b[3], 0.0)):
        raise ConfigError(
            "non-sequential topology requires beta[2] = beta[3] = 0; "
            f"got beta[2]={b[2]}, beta[3]={b[3]}"
        )
