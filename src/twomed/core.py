"""Shared domain types: topologies, component naming, reference configuration.

Component names form a closed set per topology. In the sequential case the
reference interactions involving the second mediator are only defined as a
combined term (the separate pieces would require a counterfactual that sets
one mediator to two exposure levels at once, which no experiment can realize),
so the sequential name set simply has no entry for them individually and a
ComponentSet carrying one is unconstructible.

CONTRASTS writes every component and aggregate of both topologies once, as a
signed sum of nested worlds; contrasts() evaluates rows of it. The oracle's
worlds, the table engine's components and aggregates, and the closed form's
W aggregates all read their values off it.

A decomposition is one mapping from name to value, in the order of
value_names: the components, then the aggregates. Every route returns that
mapping, and ComponentSet.from_values is the one place it splits in two.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from enum import Enum
from typing import Mapping

import numpy as np


class ConfigError(ValueError):
    """Invalid run configuration (CLI exit code 2)."""


class DataError(ValueError):
    """Unusable input data (CLI exit code 3)."""


class EstimationError(ValueError):
    """Estimation could not be carried out (CLI exit code 4)."""


class InferenceError(ValueError):
    """Bootstrap inference invalid, e.g. too many failed replicates."""


class Topology(Enum):
    SEQUENTIAL = "sequential"
    NONSEQUENTIAL = "nonsequential"


# Canonical component names, in fixed report order.
CDE = "CDE"
INT_REF_AM1 = "INT_ref_AM1"
INT_REF_AM2 = "INT_ref_AM2"
INT_REF_AM1M2 = "INT_ref_AM1M2"
INT_REF_AM2_PLUS_AM1M2 = "INT_ref_AM2+AM1M2"
NATINT_AM1 = "NatINT_AM1"
NATINT_AM2 = "NatINT_AM2"
NATINT_AM1M2 = "NatINT_AM1M2"
NATINT_M1M2 = "NatINT_M1M2"
PIE_M1 = "PIE_M1"
PIE_M2 = "PIE_M2"

PDE = "PDE"
TDE = "TDE"
SIE_M1 = "SIE_M1"
TE = "TE"

SEQUENTIAL_COMPONENT_NAMES: tuple[str, ...] = (
    CDE,
    INT_REF_AM1,
    INT_REF_AM2_PLUS_AM1M2,
    NATINT_AM1,
    NATINT_AM2,
    NATINT_AM1M2,
    NATINT_M1M2,
    PIE_M1,
    PIE_M2,
)

NONSEQUENTIAL_COMPONENT_NAMES: tuple[str, ...] = (
    CDE,
    INT_REF_AM1,
    INT_REF_AM2,
    INT_REF_AM1M2,
    NATINT_AM1,
    NATINT_AM2,
    NATINT_AM1M2,
    NATINT_M1M2,
    PIE_M1,
    PIE_M2,
)

AGGREGATE_NAMES: tuple[str, ...] = (PDE, TDE, SIE_M1, TE)

# Every component and aggregate as a signed sum of nested worlds. World "xij"
# is Y(x, M1 slot i, M2 slot j): x is the exposure, "a" for a and "s" for
# a_star; a mediator slot is "a" or "s" for the natural value under that
# exposure, M2's taken given the world's M1, or "r" for the reference level.
# contrasts() adds each row's terms left to right, in the order written.
CONTRASTS: dict[str, str] = {
    CDE: "+arr -srr",
    INT_REF_AM1: "+asr -ssr -arr +srr",
    INT_REF_AM2: "+ars -srs -arr +srr",
    INT_REF_AM1M2: "+ass -sss -ars +srs -asr +ssr +arr -srr",
    INT_REF_AM2_PLUS_AM1M2: "+ass -sss -asr +ssr",
    NATINT_AM1: "+aas -sas -ass +sss",
    NATINT_AM2: "+asa -ssa -ass +sss",
    NATINT_AM1M2: "+aaa -saa -asa +ssa -aas +sas +ass -sss",
    NATINT_M1M2: "+saa -ssa -sas +sss",
    PIE_M1: "+sas -sss",
    PIE_M2: "+ssa -sss",
    PDE: "+ass -sss",
    TDE: "+aaa -saa",
    SIE_M1: "+saa -ssa",
    TE: "+aaa -sss",
}

INT_REF_NAMES = {
    Topology.SEQUENTIAL: (INT_REF_AM1, INT_REF_AM2_PLUS_AM1M2),
    Topology.NONSEQUENTIAL: (INT_REF_AM1, INT_REF_AM2, INT_REF_AM1M2),
}

# Relative tolerance for the internal consistency identities.
_IDENTITY_RTOL = 1e-10


def component_names(topology: Topology) -> tuple[str, ...]:
    """Canonical component-name order for a topology."""
    if topology is Topology.SEQUENTIAL:
        return SEQUENTIAL_COMPONENT_NAMES
    return NONSEQUENTIAL_COMPONENT_NAMES


def value_names(topology: Topology) -> tuple[str, ...]:
    """A decomposition's report order: the components, then the aggregates.
    Every producer returns its values as one mapping in this order."""
    return (*component_names(topology), *AGGREGATE_NAMES)


def contrasts(names, world) -> dict:
    """The CONTRASTS rows of names, from world(key), the value of world key.

    Each distinct world is evaluated once. A row starts from its first term
    and adds the others left to right, so its bits are those of the row
    written out by hand. Values may be floats or arrays alike: the first two
    terms give a fresh value, which the later ones update in place, so no
    world's value is written to.
    """
    worlds = {}

    def value(term):
        key = term[1:]
        if key not in worlds:
            worlds[key] = world(key)
        return worlds[key]

    out = {}
    for name in names:
        first, second, *rest = CONTRASTS[name].split()
        if second[0] == "+":
            total = value(first) + value(second)
        else:
            total = value(first) - value(second)
        for term in rest:
            if term[0] == "+":
                total += value(term)
            else:
                total -= value(term)
        out[name] = total
    return out


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class ReferenceConfig:
    """Contrast settings: exposure levels, mediator references, covariates.

    a and a_star may be equal; every component of the degenerate contrast is
    zero. covariates holds the conditioning values c and its length must match
    the covariate dimension of whatever model it is paired with.
    """

    a: float
    a_star: float
    m1_star: float
    m2_star: float
    covariates: tuple[float, ...] = ()
    topology: Topology = Topology.SEQUENTIAL

    def __post_init__(self):
        object.__setattr__(self, "a", _require_finite("a", self.a))
        object.__setattr__(self, "a_star", _require_finite("a_star", self.a_star))
        object.__setattr__(self, "m1_star", _require_finite("m1_star", self.m1_star))
        object.__setattr__(self, "m2_star", _require_finite("m2_star", self.m2_star))
        cov = tuple(_require_finite("covariate", v) for v in self.covariates)
        object.__setattr__(self, "covariates", cov)
        if not isinstance(self.topology, Topology):
            raise ConfigError(f"topology must be a Topology, got {self.topology!r}")


def identity_checks(topology: Topology, values: Mapping, rounding_scale=0.0) -> list:
    """The five defining identities of a decomposition's values, a mapping
    of every name of value_names(topology), as (label, lhs, rhs, tolerance,
    violated) tuples.

    Values may be floats or equal-length arrays over replicates; violated is
    then a boolean array, true where the identity fails or a value is not
    finite. Every identity is a partial sum of the components, and the
    rounding error of a computed sum is bounded by a multiple of the sum of
    its terms' absolute values (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 4). |TE| is no such bound: it can cancel to near zero. So
    the tolerance is 1e-10 of max(1, sum |components|, rounding_scale).
    """
    v = values
    comps = [v[k] for k in component_names(topology)]
    scale = np.maximum(sum(abs(c) for c in comps), rounding_scale)
    tol = _IDENTITY_RTOL * np.maximum(1.0, scale)
    pde_sum = v[CDE] + sum(v[n] for n in INT_REF_NAMES[topology])
    tde_sum = v[PDE] + v[NATINT_AM1] + v[NATINT_AM2] + v[NATINT_AM1M2]
    identities = (
        ("sum(components) = TE", sum(comps), v[TE]),
        ("PDE = CDE + INT_ref terms", v[PDE], pde_sum),
        ("TDE = PDE + NatINT_A*", v[TDE], tde_sum),
        ("SIE_M1 = PIE_M1 + NatINT_M1M2", v[SIE_M1], v[PIE_M1] + v[NATINT_M1M2]),
        ("TE = TDE + SIE_M1 + PIE_M2", v[TE], v[TDE] + v[SIE_M1] + v[PIE_M2]),
    )
    return [
        (label, lhs, rhs, tol, ~np.less_equal(abs(lhs - rhs), tol))
        for label, lhs, rhs in identities
    ]


def identity_violations(topology: Topology, values: Mapping,
                        rounding_scale=0.0) -> np.ndarray:
    """True for each replicate that breaks any of the identity_checks."""
    checks = identity_checks(topology, values, rounding_scale)
    return np.logical_or.reduce([violated for *_, violated in checks])


@dataclass(frozen=True)
class ComponentSet:
    """A full decomposition: named components plus derived aggregates.

    components is an ordered map in canonical (report) order; the constructor
    accepts any mapping with exactly the right keys for the topology and
    re-orders it. aggregates holds PDE, TDE, SIE_M1, TE. from_values builds
    one from a producer's single mapping, and value() looks up a component or
    an aggregate alike. The defining identities (components sum to TE; TDE =
    PDE + exposure-mediator interactions; SIE_M1 = PIE_M1 + NatINT_M1M2) are
    enforced at construction to 1e-10 of the summed absolute components. A
    producer whose values are differences of larger intermediates passes the
    intermediates' magnitude as rounding_scale, which then sets the tolerance
    when it is the larger.
    """

    topology: Topology
    components: Mapping[str, float]
    aggregates: Mapping[str, float]
    rounding_scale: InitVar[float] = 0.0

    def __post_init__(self, rounding_scale):
        names = component_names(self.topology)
        got = set(self.components)
        want = set(names)
        if got != want:
            missing = sorted(want - got)
            extra = sorted(got - want)
            detail = []
            if missing:
                detail.append(f"missing {missing}")
            if extra:
                detail.append(f"unexpected {extra}")
            raise EstimationError(
                f"{self.topology.value} component set malformed: " + ", ".join(detail)
            )
        ordered = {k: float(self.components[k]) for k in names}
        object.__setattr__(self, "components", ordered)

        if set(self.aggregates) != set(AGGREGATE_NAMES):
            raise EstimationError(
                f"aggregates must be exactly {AGGREGATE_NAMES}, "
                f"got {sorted(self.aggregates)}"
            )
        aggs = {k: float(self.aggregates[k]) for k in AGGREGATE_NAMES}
        object.__setattr__(self, "aggregates", aggs)

        for label, lhs, rhs, tol, violated in identity_checks(
            self.topology, ordered | aggs, rounding_scale
        ):
            if violated:
                raise EstimationError(
                    f"component-set identity violated: {label}: "
                    f"{lhs!r} != {rhs!r} (tolerance {tol:g})"
                )

    @classmethod
    def from_values(cls, topology: Topology, values: Mapping,
                    rounding_scale=0.0) -> "ComponentSet":
        """The component set of a decomposition's values, one mapping by
        name: the one place they split into components and aggregates. A
        missing or unexpected name fails as the constructor fails it."""
        comps = {k: v for k, v in values.items() if k not in AGGREGATE_NAMES}
        aggs = {k: v for k, v in values.items() if k in AGGREGATE_NAMES}
        return cls(topology, comps, aggs, rounding_scale)

    def component(self, name: str) -> float:
        if name not in self.components:
            raise EstimationError(
                f"component {name!r} not defined for {self.topology.value} topology"
            )
        return self.components[name]

    def value(self, name: str) -> float:
        """The component or aggregate called name."""
        return self.aggregates[name] if name in self.aggregates else self.component(name)


def total_from_components(cs: ComponentSet) -> float:
    """Arithmetic sum of all components; callers compare against aggregates[TE]."""
    total = 0.0
    for name in component_names(cs.topology):
        if name not in cs.components:
            raise EstimationError(f"component set is missing {name!r}")
        total += cs.components[name]
    return total


@dataclass(frozen=True)
class SingleMediatorComponents:
    """Four-way single-mediator decomposition plus the two-way split."""

    cde: float
    int_ref: float
    int_med: float
    pie: float
    nde: float
    nie: float
    te: float

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise EstimationError(f"single-mediator {name} is not finite: {value!r}")
        # identity_checks' rule: 1e-10 of max(1, the sum of |terms|)
        for split, terms in (
            ("four-way", (self.cde, self.int_ref, self.int_med, self.pie)),
            ("two-way", (self.nde, self.nie)),
        ):
            total = sum(terms)
            if abs(total - self.te) > _IDENTITY_RTOL * max(1.0, sum(map(abs, terms))):
                raise EstimationError(
                    f"{split} identity violated: {total!r} != TE {self.te!r}"
                )
