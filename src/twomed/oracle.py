"""Ground-truth engines for the decomposition.

Three layers, from micro to macro:

- individual-level evaluators that apply the defining counterfactual contrasts
  to one individual's potential-value functions;
- exact expectation of the components for binary structural models, computed
  two independent ways (probability-weighted sums, and exhaustive enumeration
  of latent-threshold individuals);
- Monte Carlo averaging of the individual-level contrasts for linear-Gaussian
  structural models (linear.LinearScm, whose structural equations the
  individuals follow), with one error draw per individual shared across all
  of that individual's counterfactual worlds.

The individual-level evaluators and the Monte Carlo route share one
nested-world evaluator for both topologies, on scalars or on arrays of
individuals; it reads every contrast off core.CONTRASTS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Mapping

import numpy as np

from .core import (
    ComponentSet,
    ConfigError,
    EstimationError,
    ReferenceConfig,
    SingleMediatorComponents,
    Topology,
    contrasts,
    value_names,
)
from . import linear
from .linear import LinearScm, check_nonsequential_beta
from .table_engine import table_component_set


@dataclass(frozen=True)
class IndividualPotentials:
    """One individual's potential-value functions.

    m1_of(a) is the first mediator's potential value under exposure a;
    m2_of(a, m1) the second mediator's under exposure a with the first
    mediator at m1; y_of(a, m1, m2) the outcome's. All deterministic given the
    individual's latent draws, so the observed value equals the potential
    value at the observed inputs.
    """

    m1_of: Callable[[float], float]
    m2_of: Callable[[float, float], float]
    y_of: Callable[[float, float, float], float]


@dataclass(frozen=True)
class SingleMediatorPotentials:
    """Single-mediator reduction: m_of(a) and y_of(a, m)."""

    m_of: Callable[[float], float]
    y_of: Callable[[float, float], float]


def _worlds(cfg, y_at, m1, m2):
    """Every value of cfg's topology, by name in value_names order, from
    potential values.

    m1(x) and m2(z, m1) give the mediators' potential values, and y_at(x, m1)
    the outcome's at exposure x and first mediator m1, as a function of the
    second mediator. World "xij" of core.CONTRASTS is y_at at exposure x and
    M1 slot i, taken at M2 slot j, and the M2 of slot (j, i) is m2(j, M1(i)).
    Each is formed once: y_at per (x, i), and M2 per (j, i), or per j in the
    non-sequential topology, whose m2 ignores its M1 argument. Works
    elementwise on scalars and arrays alike.
    """
    level = {"a": cfg.a, "s": cfg.a_star}
    m1_slot = {"a": m1(cfg.a), "s": m1(cfg.a_star), "r": cfg.m1_star}
    sequential = cfg.topology is Topology.SEQUENTIAL
    y_slot, m2_slot = {}, {"r": cfg.m2_star}

    def world(key):
        x, i, j = key
        if (x, i) not in y_slot:
            y_slot[x, i] = y_at(level[x], m1_slot[i])
        slot = (j, i) if sequential and j != "r" else j
        if slot not in m2_slot:
            m2_slot[slot] = m2(level[j], m1_slot[i])
        return y_slot[x, i](m2_slot[slot])

    return contrasts(value_names(cfg.topology), world)


def _y_at(p: IndividualPotentials):
    """p's outcome at exposure x and first mediator m1, as a function of the
    second mediator: _worlds' y_at."""
    return lambda x, m1: partial(p.y_of, x, m1)


def individual_components_sequential(
    p: IndividualPotentials, cfg: ReferenceConfig
) -> ComponentSet:
    """Nine-component decomposition of one individual, sequential topology."""
    if cfg.topology is not Topology.SEQUENTIAL:
        raise ConfigError("individual_components_sequential needs Sequential topology")
    return ComponentSet.from_values(cfg.topology,
                                    _worlds(cfg, _y_at(p), p.m1_of, p.m2_of))


def individual_components_nonsequential(
    p: IndividualPotentials, cfg: ReferenceConfig
) -> ComponentSet:
    """Ten-component decomposition of one individual, non-sequential topology.

    Rejects potentials whose m2_of actually varies with its first-mediator
    argument: without the M1 -> M2 edge the second mediator's potential value
    may depend on exposure only.
    """
    if cfg.topology is not Topology.NONSEQUENTIAL:
        raise ConfigError(
            "individual_components_nonsequential needs NonSequential topology"
        )
    m1_a, m1_s = p.m1_of(cfg.a), p.m1_of(cfg.a_star)
    for z in (cfg.a, cfg.a_star):
        vals = [p.m2_of(z, m1v) for m1v in (m1_a, m1_s, cfg.m1_star)]
        if any(v != vals[0] for v in vals[1:]):
            raise EstimationError(
                "m2_of varies with its m1 argument; not a non-sequential individual"
            )
    values = _worlds(cfg, _y_at(p), p.m1_of, lambda z, _m1: p.m2_of(z, m1_a))
    return ComponentSet.from_values(cfg.topology, values)


def single_mediator_four_way(
    p: SingleMediatorPotentials, cfg: ReferenceConfig
) -> SingleMediatorComponents:
    """Four-way decomposition for a single mediator.

    cfg.m1_star serves as the mediator reference level m*; cfg.m2_star and the
    topology flag are ignored.
    """
    a, s, mr = cfg.a, cfg.a_star, cfg.m1_star
    m_a, m_s = p.m_of(a), p.m_of(s)
    cde = p.y_of(a, mr) - p.y_of(s, mr)
    int_ref = p.y_of(a, m_s) - p.y_of(s, m_s) - p.y_of(a, mr) + p.y_of(s, mr)
    int_med = p.y_of(a, m_a) - p.y_of(s, m_a) - p.y_of(a, m_s) + p.y_of(s, m_s)
    pie = p.y_of(s, m_a) - p.y_of(s, m_s)
    nde = p.y_of(a, m_s) - p.y_of(s, m_s)
    nie = p.y_of(a, m_a) - p.y_of(a, m_s)
    te = p.y_of(a, m_a) - p.y_of(s, m_s)
    return SingleMediatorComponents(cde, int_ref, int_med, pie, nde, nie, te)


# ---------------------------------------------------------------------------
# binary structural models
# ---------------------------------------------------------------------------

_BIN = (0, 1)


@dataclass(frozen=True)
class BinaryScm:
    """Bernoulli structural model over binary exposure and mediators.

    p_m1_given_a[a] = Pr(M1=1 | A=a); p_m2_given_a_m1[(a, m1)] = Pr(M2=1 | .);
    e_y_given_a_m1_m2[(a, m1, m2)] = mean outcome in that cell (any real).
    For the non-sequential topology the m1 index must not matter.
    """

    p_m1_given_a: Mapping[int, float]
    p_m2_given_a_m1: Mapping[tuple[int, int], float]
    e_y_given_a_m1_m2: Mapping[tuple[int, int, int], float]
    topology: Topology = Topology.SEQUENTIAL

    def __post_init__(self):
        p1 = {int(k): float(v) for k, v in self.p_m1_given_a.items()}
        p2 = {
            (int(k[0]), int(k[1])): float(v)
            for k, v in self.p_m2_given_a_m1.items()
        }
        ey = {
            (int(k[0]), int(k[1]), int(k[2])): float(v)
            for k, v in self.e_y_given_a_m1_m2.items()
        }
        if set(p1) != set(_BIN):
            raise ConfigError("p_m1_given_a must have exactly the keys 0 and 1")
        if set(p2) != {(x, m) for x in _BIN for m in _BIN}:
            raise ConfigError("p_m2_given_a_m1 must cover (a, m1) in {0,1}^2")
        if set(ey) != {(x, m, m2) for x in _BIN for m in _BIN for m2 in _BIN}:
            raise ConfigError("e_y_given_a_m1_m2 must cover (a, m1, m2) in {0,1}^3")
        for tag, table in (("p_m1_given_a", p1), ("p_m2_given_a_m1", p2)):
            for k, v in table.items():
                if not (0.0 <= v <= 1.0):
                    raise ConfigError(f"{tag}[{k}] = {v} outside [0, 1]")
        for v in ey.values():
            if not math.isfinite(v):
                raise ConfigError("e_y_given_a_m1_m2 values must be finite")
        if self.topology is Topology.NONSEQUENTIAL:
            for x in _BIN:
                if p2[(x, 0)] != p2[(x, 1)]:
                    raise ConfigError(
                        "non-sequential model requires p_m2_given_a_m1 constant "
                        f"in m1; differs at a={x}"
                    )
        object.__setattr__(self, "p_m1_given_a", p1)
        object.__setattr__(self, "p_m2_given_a_m1", p2)
        object.__setattr__(self, "e_y_given_a_m1_m2", ey)


def _check_binary_cfg(scm: BinaryScm, cfg: ReferenceConfig) -> tuple[int, int, int, int]:
    if cfg.topology is not scm.topology:
        raise ConfigError(
            f"config topology {cfg.topology.value} does not match model "
            f"topology {scm.topology.value}"
        )
    if cfg.covariates:
        raise ConfigError("binary structural models carry no covariates")
    levels = (cfg.a, cfg.a_star, cfg.m1_star, cfg.m2_star)
    out = []
    for name, v in zip(("a", "a_star", "m1_star", "m2_star"), levels):
        if v not in (0.0, 1.0):
            raise ConfigError(f"{name} must be 0 or 1 for a binary model, got {v}")
        out.append(int(v))
    return tuple(out)


def enumerate_binary_components(
    scm: BinaryScm, cfg: ReferenceConfig
) -> ComponentSet:
    """Exact expected components of a binary model, by probability-weighted sums.

    Plugs the true conditional tables into the table engine's
    iterated-conditional-expectation sums; no sampling error. Independent of
    the latent-threshold enumeration route
    (enumerate_binary_components_by_individuals), which must agree.
    """
    a, s, m1r, m2r = _check_binary_cfg(scm, cfg)

    def law(p: float) -> list[float]:
        return [1.0 - p, p]

    p1 = [law(scm.p_m1_given_a[x]) for x in (a, s)]
    p2 = [[law(scm.p_m2_given_a_m1[(x, m1)]) for m1 in _BIN] for x in (a, s)]
    y = [[[scm.e_y_given_a_m1_m2[(x, m1, m2)] for m2 in _BIN] for m1 in _BIN]
         for x in (a, s)]
    return table_component_set(scm.topology, p1, p2, y, m1r, m2r)


def _interval_cells(probs) -> list[tuple[float, float]]:
    cuts = sorted({0.0, 1.0, *probs})
    return [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if hi > lo]


def enumerate_binary_individuals(scm: BinaryScm):
    """Yield (weight, IndividualPotentials) covering all response types.

    Individuals are realized by independent latent uniforms with threshold
    response: M1(a) = 1 iff U1 < Pr(M1=1|a), likewise M2 against its table.
    Within a rectangle of the (U1, U2) unit square the whole response pattern
    is constant, so enumerating rectangles is exact. Components are linear in
    the outcome's potential values, so the outcome latent integrates out to
    the cell-mean outcome.
    """
    p1 = scm.p_m1_given_a
    p2 = scm.p_m2_given_a_m1
    ey = scm.e_y_given_a_m1_m2
    for lo1, hi1 in _interval_cells(p1.values()):
        u1 = 0.5 * (lo1 + hi1)
        for lo2, hi2 in _interval_cells(p2.values()):
            u2 = 0.5 * (lo2 + hi2)

            def m1_of(a, _u1=u1):
                return 1.0 if _u1 < p1[int(a)] else 0.0

            def m2_of(a, m1, _u2=u2):
                return 1.0 if _u2 < p2[(int(a), int(m1))] else 0.0

            def y_of(a, m1, m2):
                return ey[(int(a), int(m1), int(m2))]

            yield (hi1 - lo1) * (hi2 - lo2), IndividualPotentials(m1_of, m2_of, y_of)


def enumerate_binary_components_by_individuals(
    scm: BinaryScm, cfg: ReferenceConfig
) -> ComponentSet:
    """Exact expected components by exhaustive latent-threshold enumeration.

    Averages the individual-level contrasts over every latent rectangle; a
    fully independent route from enumerate_binary_components.
    """
    _check_binary_cfg(scm, cfg)
    evaluate = (
        individual_components_sequential
        if cfg.topology is Topology.SEQUENTIAL
        else individual_components_nonsequential
    )
    terms = {k: [] for k in value_names(cfg.topology)}
    for weight, pot in enumerate_binary_individuals(scm):
        cs = evaluate(pot, cfg)
        for k, v in terms.items():
            v.append(weight * cs.value(k))
    return ComponentSet.from_values(
        cfg.topology, {k: math.fsum(v) for k, v in terms.items()})


# ---------------------------------------------------------------------------
# linear-Gaussian structural models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonteCarloResult:
    """Monte Carlo estimate of a decomposition with per-name standard errors.

    standard_errors covers every component and aggregate; each is the standard
    deviation of the per-individual values divided by sqrt(n), and finite.
    """

    components: ComponentSet
    standard_errors: Mapping[str, float]
    n: int
    seed: int


# Individuals per block of the Monte Carlo oracle: the errors are drawn, and
# every counterfactual world and contrast is evaluated, one block at a time,
# so its arrays stay cache-sized (128 KiB each) whatever n is.
_MC_BLOCK = 16_384


def _linear_contrasts(scm, cfg, t8c, b4c, g2c, e1, e2, ey):
    """Every component and aggregate of the individuals with errors e1, e2, ey.

    One array per name, elementwise over the individuals. Each world is the
    outcome u + v*M2 of linear.outcome_parts, from the (u, v) of its exposure
    and M1 slot: one product and one in-place sum.
    """

    def y_at(x, m1):
        u, v = linear.outcome_parts(scm, x, m1, t8c, ey)

        def at(m2):
            y = v * m2
            y += u
            return y

        return at

    m1_of = partial(linear.m1, scm, cov=g2c, e=e1)
    m2_of = partial(linear.m2, scm, cov=b4c, e=e2)
    if cfg.topology is Topology.SEQUENTIAL:
        return _worlds(cfg, y_at, m1_of, m2_of)
    # beta2 = beta3 = 0: the second mediator ignores the first
    return _worlds(cfg, y_at, m1_of, lambda z, _m1: m2_of(z, 0.0))


def simulate_linear_components(
    scm: LinearScm,
    cfg: ReferenceConfig,
    n: int,
    seed: int,
    shards: int = 1,
) -> MonteCarloResult:
    """Monte Carlo average of the individual-level contrasts.

    Each simulated individual gets ONE error triple, reused across every
    counterfactual world, so the per-individual sum identity holds exactly and
    the averages estimate the population components. Each shard draws e1, e2
    and ey from three independent streams, the children of
    SeedSequence([seed, shard index]) in that order. Each shard's errors are
    drawn, and its counterfactual worlds evaluated, in blocks of _MC_BLOCK
    individuals, so memory is one block of errors and temporaries whatever n
    is. The per-block sums are merged with exact compensated summation, so the
    result is deterministic given (seed, shards) and the fixed block size, and
    does not depend on merge order. The block size does not change the draws:
    a stream drawn block by block gives the values of one whole-shard draw.
    """
    if n < 1:
        raise ConfigError(f"n must be at least 1, got {n}")
    if shards < 1 or shards > n:
        raise ConfigError("shards must be in [1, n]")
    if cfg.topology is Topology.NONSEQUENTIAL:
        check_nonsequential_beta(scm)

    t8c, b4c, g2c = linear.contractions(scm, cfg.covariates)

    names = value_names(cfg.topology)
    sums = {k: [] for k in names}
    sumsqs = {k: [] for k in names}

    base = n // shards
    counts = [base + (1 if i < n % shards else 0) for i in range(shards)]

    sigmas = (scm.sigma_m1, scm.sigma_m2, scm.sigma_y)
    # an overflow shows in the merged sums below, which name its terms
    with np.errstate(over="ignore", invalid="ignore"):
        for shard_idx, m in enumerate(counts):
            children = np.random.SeedSequence([seed, shard_idx]).spawn(3)
            streams = [np.random.default_rng(c) for c in children]
            for lo in range(0, m, _MC_BLOCK):
                size = min(_MC_BLOCK, m - lo)
                e1, e2, ey = (
                    g.normal(0.0, s, size=size) for g, s in zip(streams, sigmas)
                )
                values = _linear_contrasts(scm, cfg, t8c, b4c, g2c, e1, e2, ey)
                for k, arr in values.items():
                    sums[k].append(float(np.sum(arr)))
                    # not np.dot: BLAS threads would spin for every short product
                    sumsqs[k].append(float(np.einsum("i,i->", arr, arr)))

    means, ses = {}, {}
    for k in names:
        try:
            mean = math.fsum(sums[k]) / n
            total_sq = math.fsum(sumsqs[k])
            var = max(total_sq - n * mean ** 2, 0.0) / (n - 1) if n > 1 else 0.0
        except (OverflowError, ValueError):
            # a partial sum or the squared mean overflows; or inf meets -inf
            mean = var = math.nan
        means[k], ses[k] = mean, math.sqrt(var / n)
    overflowing = [
        k for k in names if not (math.isfinite(means[k]) and math.isfinite(ses[k]))
    ]
    if overflowing:
        raise EstimationError(
            "Monte Carlo spread overflows for " + ", ".join(overflowing)
            + ": the per-individual contrasts are too large to square and sum"
        )

    return MonteCarloResult(
        components=ComponentSet.from_values(cfg.topology, means),
        standard_errors=ses, n=n, seed=seed,
    )
