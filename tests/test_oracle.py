"""Individual-level decompositions and exact binary-model enumeration.

The frozen numbers in this file were computed by hand from the potential-value
definitions before the library existed; they are independent of the code under
test. The exhaustive loops compare the library against direct transcriptions
of the individual-level contrast formulas over every deterministic binary
response pattern.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twomed.oracle
from conftest import (
    expanded_outcome,
    expanded_outcome_terms,
    random_binary_scm,
    random_linear_scm,
)
from twomed import (
    BinaryScm,
    ConfigError,
    EstimationError,
    IndividualPotentials,
    LinearScm,
    ReferenceConfig,
    SingleMediatorPotentials,
    Topology,
    enumerate_binary_components,
    enumerate_binary_components_by_individuals,
    enumerate_binary_individuals,
    individual_components_nonsequential,
    individual_components_sequential,
    linear,
    simulate_linear_components,
    single_mediator_four_way,
)
from twomed.table_engine import decompose_tables

SEQ_CFG = ReferenceConfig(
    a=1.0, a_star=0.0, m1_star=0.0, m2_star=0.0,
    covariates=(), topology=Topology.SEQUENTIAL,
)
NONSEQ_CFG = ReferenceConfig(
    a=1.0, a_star=0.0, m1_star=0.0, m2_star=0.0,
    covariates=(), topology=Topology.NONSEQUENTIAL,
)


# ---------------------------------------------------------------------------
# frozen individuals
# ---------------------------------------------------------------------------


def test_frozen_sequential_individual():
    # M1(a) = a, M2(a, m1) = a*m1, Y(a, m1, m2) = a + m1 + m2 + a*m1*m2.
    # Worked out on paper: the eight nested outcome values are
    # (4, 2, 1, 2, 0, 1, 1, 0), so only the direct effect, the two
    # mediator-involving natural interactions, and the M1 pathway remain.
    pot = IndividualPotentials(
        m1_of=lambda a: a,
        m2_of=lambda a, m1: a * m1,
        y_of=lambda a, m1, m2: a + m1 + m2 + a * m1 * m2,
    )
    cs = individual_components_sequential(pot, SEQ_CFG)
    expected = {
        "CDE": 1.0,
        "INT_ref_AM1": 0.0,
        "INT_ref_AM2+AM1M2": 0.0,
        "NatINT_AM1": 0.0,
        "NatINT_AM2": 0.0,
        "NatINT_AM1M2": 1.0,
        "NatINT_M1M2": 1.0,
        "PIE_M1": 1.0,
        "PIE_M2": 0.0,
    }
    for name, value in expected.items():
        assert cs.component(name) == value, name
    assert cs.aggregates["PDE"] == 1.0
    assert cs.aggregates["TDE"] == 2.0
    assert cs.aggregates["SIE_M1"] == 2.0
    assert cs.aggregates["TE"] == 4.0


def test_frozen_nonsequential_individual():
    # M1(a) = a, M2(a) = 1 - a, Y(a, m1, m2) = 2a + m1 + 3*m2 + a*m1*m2.
    pot = IndividualPotentials(
        m1_of=lambda a: a,
        m2_of=lambda a, m1: 1.0 - a,
        y_of=lambda a, m1, m2: 2 * a + m1 + 3 * m2 + a * m1 * m2,
    )
    cs = individual_components_nonsequential(pot, NONSEQ_CFG)
    expected = {
        "CDE": 2.0,
        "INT_ref_AM1": 0.0,
        "INT_ref_AM2": 0.0,
        "INT_ref_AM1M2": 0.0,
        "NatINT_AM1": 1.0,
        "NatINT_AM2": 0.0,
        "NatINT_AM1M2": -1.0,
        "NatINT_M1M2": 0.0,
        "PIE_M1": 1.0,
        "PIE_M2": -3.0,
    }
    for name, value in expected.items():
        assert cs.component(name) == value, name
    assert cs.aggregates["PDE"] == 2.0
    assert cs.aggregates["TDE"] == 2.0
    assert cs.aggregates["SIE_M1"] == 1.0
    assert cs.aggregates["TE"] == 0.0


def test_nonsequential_rejects_m1_dependent_m2():
    pot = IndividualPotentials(
        m1_of=lambda a: a,
        m2_of=lambda a, m1: m1,
        y_of=lambda a, m1, m2: a + m1 + m2,
    )
    with pytest.raises(EstimationError):
        individual_components_nonsequential(pot, NONSEQ_CFG)


def test_topology_mismatch_rejected():
    pot = IndividualPotentials(
        m1_of=lambda a: a,
        m2_of=lambda a, m1: 0.0,
        y_of=lambda a, m1, m2: a,
    )
    with pytest.raises(ConfigError):
        individual_components_sequential(pot, NONSEQ_CFG)
    with pytest.raises(ConfigError):
        individual_components_nonsequential(pot, SEQ_CFG)


def test_frozen_single_mediator():
    # M(a) = a, Y(a, m) = a + m + a*m.
    pot = SingleMediatorPotentials(m_of=lambda a: a, y_of=lambda a, m: a + m + a * m)
    r = single_mediator_four_way(pot, SEQ_CFG)
    assert r.cde == 1.0
    assert r.int_ref == 0.0
    assert r.int_med == 1.0
    assert r.pie == 1.0
    assert r.nde == 1.0
    assert r.nie == 2.0
    assert r.te == 3.0


# ---------------------------------------------------------------------------
# exhaustive transcription checks over deterministic binary individuals
# ---------------------------------------------------------------------------

_BITS = (0, 1)
_M1_FUNCS = tuple(itertools.product(_BITS, repeat=2))          # value at a=0, a=1
_M2_SEQ_FUNCS = tuple(itertools.product(_BITS, repeat=4))      # (a, m1) grid
_M2_NONSEQ_FUNCS = tuple(itertools.product(_BITS, repeat=2))   # value at a=0, a=1
_Y_FUNCS = tuple(itertools.product(_BITS, repeat=8))           # (a, m1, m2) grid


def _mk_seq_potentials(m1_bits, m2_bits, y_bits):
    def m1_of(a):
        return float(m1_bits[int(a)])

    def m2_of(a, m1):
        return float(m2_bits[2 * int(a) + int(m1)])

    def y_of(a, m1, m2):
        return float(y_bits[4 * int(a) + 2 * int(m1) + int(m2)])

    return IndividualPotentials(m1_of, m2_of, y_of)


def _transcribed_sequential(m1, m2, y):
    """Contrast formulas for one deterministic individual, written directly.

    m1[a], m2[(a, m1)], y[(a, m1, m2)] hold potential values; the contrast is
    a = 1 versus a = 0 with both mediator references at 0.
    """
    dm1 = m1[1] - m1[0]
    out = {
        "CDE": y[1, 0, 0] - y[0, 0, 0],
        "INT_ref_AM1": (y[1, 1, 0] - y[0, 1, 0] - y[1, 0, 0] + y[0, 0, 0]) * m1[0],
        "INT_ref_AM2+AM1M2": (
            (y[1, 0, 1] - y[0, 0, 1] - y[1, 0, 0] + y[0, 0, 0])
            * (1 - m1[0]) * m2[0, 0]
            + (y[1, 1, 1] - y[0, 1, 1] - y[1, 1, 0] + y[0, 1, 0])
            * m1[0] * m2[0, 1]
        ),
        "NatINT_AM1": (
            y[1, 1, m2[0, 1]] - y[0, 1, m2[0, 1]]
            - y[1, 0, m2[0, 0]] + y[0, 0, m2[0, 0]]
        ) * dm1,
        "NatINT_AM2": (
            y[1, m1[0], 1] - y[0, m1[0], 1] - y[1, m1[0], 0] + y[0, m1[0], 0]
        ) * (m2[1, m1[0]] - m2[0, m1[0]]),
        "NatINT_AM1M2": (
            (y[1, 1, 1] - y[0, 1, 1] - y[1, 1, 0] + y[0, 1, 0])
            * dm1 * (m2[1, 1] - m2[0, 1])
            + (-y[1, 0, 1] + y[0, 0, 1] + y[1, 0, 0] - y[0, 0, 0])
            * dm1 * (m2[1, 0] - m2[0, 0])
        ),
        "NatINT_M1M2": (
            (y[0, 1, 1] - y[0, 1, 0]) * dm1 * (m2[1, 1] - m2[0, 1])
            + (-y[0, 0, 1] + y[0, 0, 0]) * dm1 * (m2[1, 0] - m2[0, 0])
        ),
        "PIE_M1": (y[0, 1, m2[0, 1]] - y[0, 0, m2[0, 0]]) * dm1,
        "PIE_M2": (y[0, m1[0], 1] - y[0, m1[0], 0])
        * (m2[1, m1[0]] - m2[0, m1[0]]),
    }
    te = y[1, m1[1], m2[1, m1[1]]] - y[0, m1[0], m2[0, m1[0]]]
    return out, te


def test_sequential_transcription_exhaustive():
    """Every deterministic binary individual, both routes, exact equality."""
    checked = 0
    for m1_bits in _M1_FUNCS:
        m1 = {0: m1_bits[0], 1: m1_bits[1]}
        for m2_bits in _M2_SEQ_FUNCS:
            m2 = {(a, v): m2_bits[2 * a + v] for a in _BITS for v in _BITS}
            for y_bits in _Y_FUNCS:
                y = {
                    (a, v, u): y_bits[4 * a + 2 * v + u]
                    for a in _BITS for v in _BITS for u in _BITS
                }
                pot = _mk_seq_potentials(m1_bits, m2_bits, y_bits)
                cs = individual_components_sequential(pot, SEQ_CFG)
                want, te = _transcribed_sequential(m1, m2, y)
                for name, value in want.items():
                    assert cs.component(name) == float(value), (
                        name, m1_bits, m2_bits, y_bits,
                    )
                assert cs.aggregates["TE"] == float(te)
                checked += 1
    assert checked == 4 * 16 * 256


def _transcribed_nonsequential(m1, m2, y):
    """Same idea for the topology without the M1 -> M2 edge; m2[a] only."""
    dm1 = m1[1] - m1[0]
    dm2 = m2[1] - m2[0]
    eight = (
        y[1, 1, 1] - y[0, 1, 1] - y[1, 0, 1] + y[0, 0, 1]
        - y[1, 1, 0] + y[0, 1, 0] + y[1, 0, 0] - y[0, 0, 0]
    )
    out = {
        "CDE": y[1, 0, 0] - y[0, 0, 0],
        "INT_ref_AM1": (y[1, 1, 0] - y[0, 1, 0] - y[1, 0, 0] + y[0, 0, 0]) * m1[0],
        "INT_ref_AM2": (y[1, 0, 1] - y[0, 0, 1] - y[1, 0, 0] + y[0, 0, 0]) * m2[0],
        "INT_ref_AM1M2": eight * m1[0] * m2[0],
        "NatINT_AM1": (
            y[1, 1, m2[0]] - y[0, 1, m2[0]] - y[1, 0, m2[0]] + y[0, 0, m2[0]]
        ) * dm1,
        "NatINT_AM2": (
            y[1, m1[0], 1] - y[0, m1[0], 1] - y[1, m1[0], 0] + y[0, m1[0], 0]
        ) * dm2,
        "NatINT_AM1M2": eight * dm1 * dm2,
        "NatINT_M1M2": (y[0, 1, 1] - y[0, 0, 1] - y[0, 1, 0] + y[0, 0, 0])
        * dm1 * dm2,
        "PIE_M1": (y[0, 1, m2[0]] - y[0, 0, m2[0]]) * dm1,
        "PIE_M2": (y[0, m1[0], 1] - y[0, m1[0], 0]) * dm2,
    }
    te = y[1, m1[1], m2[1]] - y[0, m1[0], m2[0]]
    return out, te


def test_nonsequential_transcription_exhaustive():
    checked = 0
    for m1_bits in _M1_FUNCS:
        m1 = {0: m1_bits[0], 1: m1_bits[1]}
        for m2_bits in _M2_NONSEQ_FUNCS:
            m2 = {0: m2_bits[0], 1: m2_bits[1]}
            for y_bits in _Y_FUNCS:
                y = {
                    (a, v, u): y_bits[4 * a + 2 * v + u]
                    for a in _BITS for v in _BITS for u in _BITS
                }
                pot = IndividualPotentials(
                    m1_of=lambda a, _b=m1_bits: float(_b[int(a)]),
                    m2_of=lambda a, m1v, _b=m2_bits: float(_b[int(a)]),
                    y_of=lambda a, v, u, _b=y_bits: float(
                        _b[4 * int(a) + 2 * int(v) + int(u)]
                    ),
                )
                cs = individual_components_nonsequential(pot, NONSEQ_CFG)
                want, te = _transcribed_nonsequential(m1, m2, y)
                for name, value in want.items():
                    assert cs.component(name) == float(value), (
                        name, m1_bits, m2_bits, y_bits,
                    )
                assert cs.aggregates["TE"] == float(te)
                checked += 1
    assert checked == 4 * 4 * 256


# ---------------------------------------------------------------------------
# binary structural models
# ---------------------------------------------------------------------------


def _seq_scm(p1_0, p1_1, p2, ey):
    return BinaryScm(
        p_m1_given_a={0: p1_0, 1: p1_1},
        p_m2_given_a_m1=p2,
        e_y_given_a_m1_m2=ey,
        topology=Topology.SEQUENTIAL,
    )


def test_binary_scm_validation():
    p2 = {(a, m): 0.5 for a in _BITS for m in _BITS}
    ey = {(a, m, v): 0.0 for a in _BITS for m in _BITS for v in _BITS}
    with pytest.raises(ConfigError):
        BinaryScm({0: 0.5}, p2, ey)
    with pytest.raises(ConfigError):
        BinaryScm({0: 0.5, 1: 1.5}, p2, ey)
    bad_ey = dict(ey)
    bad_ey[(1, 1, 1)] = math.inf
    with pytest.raises(ConfigError):
        BinaryScm({0: 0.5, 1: 0.5}, p2, bad_ey)
    varying = dict(p2)
    varying[(0, 1)] = 0.25
    with pytest.raises(ConfigError):
        BinaryScm({0: 0.5, 1: 0.5}, varying, ey, topology=Topology.NONSEQUENTIAL)
    # same table is fine for the sequential topology
    BinaryScm({0: 0.5, 1: 0.5}, varying, ey, topology=Topology.SEQUENTIAL)


def test_binary_reference_gate():
    scm = _seq_scm(
        0.2, 0.7,
        {(a, m): 0.3 for a in _BITS for m in _BITS},
        {(a, m, v): float(a + m + v) for a in _BITS for m in _BITS for v in _BITS},
    )
    with pytest.raises(ConfigError):
        enumerate_binary_components(scm, NONSEQ_CFG)
    bad_level = ReferenceConfig(
        a=2.0, a_star=0.0, m1_star=0.0, m2_star=0.0,
        covariates=(), topology=Topology.SEQUENTIAL,
    )
    with pytest.raises(ConfigError):
        enumerate_binary_components(scm, bad_level)
    with_cov = ReferenceConfig(
        a=1.0, a_star=0.0, m1_star=0.0, m2_star=0.0,
        covariates=(1.0,), topology=Topology.SEQUENTIAL,
    )
    with pytest.raises(ConfigError):
        enumerate_binary_components(scm, with_cov)


def test_deterministic_binary_model_matches_frozen_individual():
    # Degenerate probabilities make every latent rectangle the same
    # individual as in test_frozen_sequential_individual.
    scm = _seq_scm(
        0.0, 1.0,
        {(a, m): float(a * m) for a in _BITS for m in _BITS},
        {
            (a, m, v): float(a + m + v + a * m * v)
            for a in _BITS for m in _BITS for v in _BITS
        },
    )
    cs = enumerate_binary_components(scm, SEQ_CFG)
    assert cs.component("CDE") == 1.0
    assert cs.component("NatINT_AM1M2") == 1.0
    assert cs.component("NatINT_M1M2") == 1.0
    assert cs.component("PIE_M1") == 1.0
    assert cs.aggregates["TE"] == 4.0
    for name in ("INT_ref_AM1", "INT_ref_AM2+AM1M2", "NatINT_AM1",
                 "NatINT_AM2", "PIE_M2"):
        assert cs.component(name) == 0.0


def test_latent_rectangles_partition_the_square():
    scm = _seq_scm(
        0.25, 0.8,
        {(0, 0): 0.1, (0, 1): 0.6, (1, 0): 0.3, (1, 1): 0.9},
        {(a, m, v): float(a - m + 2 * v) for a in _BITS for m in _BITS for v in _BITS},
    )
    weights = [w for w, _ in enumerate_binary_individuals(scm)]
    assert all(w > 0 for w in weights)
    assert math.fsum(weights) == pytest.approx(1.0, abs=1e-15)


_probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
_means = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(
    p1=st.tuples(_probs, _probs),
    p2=st.tuples(_probs, _probs, _probs, _probs),
    ey=st.tuples(*([_means] * 8)),
)
def test_enumeration_routes_agree_sequential(p1, p2, ey):
    scm = _seq_scm(
        p1[0], p1[1],
        {(a, m): p2[2 * a + m] for a in _BITS for m in _BITS},
        {
            (a, m, v): ey[4 * a + 2 * m + v]
            for a in _BITS for m in _BITS for v in _BITS
        },
    )
    by_sums = enumerate_binary_components(scm, SEQ_CFG)
    by_individuals = enumerate_binary_components_by_individuals(scm, SEQ_CFG)
    for name, value in by_sums.components.items():
        assert by_individuals.component(name) == pytest.approx(value, abs=1e-12)
    for name, value in by_sums.aggregates.items():
        assert by_individuals.aggregates[name] == pytest.approx(value, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    p1=st.tuples(_probs, _probs),
    p2=st.tuples(_probs, _probs),
    ey=st.tuples(*([_means] * 8)),
)
def test_enumeration_routes_agree_nonsequential(p1, p2, ey):
    scm = BinaryScm(
        p_m1_given_a={0: p1[0], 1: p1[1]},
        p_m2_given_a_m1={(a, m): p2[a] for a in _BITS for m in _BITS},
        e_y_given_a_m1_m2={
            (a, m, v): ey[4 * a + 2 * m + v]
            for a in _BITS for m in _BITS for v in _BITS
        },
        topology=Topology.NONSEQUENTIAL,
    )
    by_sums = enumerate_binary_components(scm, NONSEQ_CFG)
    by_individuals = enumerate_binary_components_by_individuals(scm, NONSEQ_CFG)
    for name, value in by_sums.components.items():
        assert by_individuals.component(name) == pytest.approx(value, abs=1e-12)
    for name, value in by_sums.aggregates.items():
        assert by_individuals.aggregates[name] == pytest.approx(value, abs=1e-12)


def test_reference_levels_other_than_zero():
    # swap the roles: a = 0 versus a* = 1 with references at 1
    cfg = ReferenceConfig(
        a=0.0, a_star=1.0, m1_star=1.0, m2_star=1.0,
        covariates=(), topology=Topology.SEQUENTIAL,
    )
    scm = _seq_scm(
        0.3, 0.6,
        {(0, 0): 0.2, (0, 1): 0.5, (1, 0): 0.4, (1, 1): 0.7},
        {
            (a, m, v): float(1 + a - 2 * m + v + a * v)
            for a in _BITS for m in _BITS for v in _BITS
        },
    )
    by_sums = enumerate_binary_components(scm, cfg)
    by_individuals = enumerate_binary_components_by_individuals(scm, cfg)
    for name, value in by_sums.components.items():
        assert by_individuals.component(name) == pytest.approx(value, abs=1e-12)
    # reversing the contrast flips the total effect's sign
    flipped = enumerate_binary_components(
        scm,
        ReferenceConfig(
            a=1.0, a_star=0.0, m1_star=1.0, m2_star=1.0,
            covariates=(), topology=Topology.SEQUENTIAL,
        ),
    )
    assert by_sums.aggregates["TE"] == pytest.approx(
        -flipped.aggregates["TE"], abs=1e-14
    )


# ---------------------------------------------------------------------------
# linear ground truth
# ---------------------------------------------------------------------------

_LINEAR = {"theta": (0.5,) * 8, "beta": (0.3, 0.6, 0.0, 0.0), "gamma": (0.2, 0.4)}


def test_linear_scm_sigmas_default_to_one():
    scm = LinearScm(**_LINEAR)
    assert (scm.sigma_y, scm.sigma_m1, scm.sigma_m2) == (1.0, 1.0, 1.0)


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("sigma", ["sigma_y", "sigma_m1", "sigma_m2"])
def test_linear_scm_rejects_a_sigma_that_is_not_positive_and_finite(sigma, value):
    with pytest.raises(ConfigError, match=f"{sigma} must be a positive real"):
        LinearScm(**_LINEAR, **{sigma: value})


@pytest.mark.parametrize(
    "beta, cfg, message",
    [
        ((0.3, 0.6, 0.1, 0.0), NONSEQ_CFG, r"beta\[2\] = beta\[3\] = 0"),
        ((0.3, 0.6, 0.0, -0.1), NONSEQ_CFG, r"beta\[2\] = beta\[3\] = 0"),
        (
            _LINEAR["beta"],
            ReferenceConfig(a=1.0, a_star=0.0, m1_star=0.0, m2_star=0.0,
                            covariates=(0.5,), topology=Topology.SEQUENTIAL),
            "covariate dimension mismatch",
        ),
    ],
    ids=["nonsequential-beta2", "nonsequential-beta3", "covariate-dimension"],
)
def test_monte_carlo_rejects_a_model_the_config_does_not_fit(beta, cfg, message):
    scm = LinearScm(**dict(_LINEAR, beta=beta))
    with pytest.raises(ConfigError, match=message):
        simulate_linear_components(scm, cfg, n=100, seed=0)


_finite = st.floats(-1e6, 1e6)
_scalar_or_array = st.one_of(
    _finite, st.lists(_finite, min_size=3, max_size=3).map(np.array)
)


@settings(max_examples=300, deadline=None)
@given(
    theta=st.lists(_finite, min_size=8, max_size=8),
    x=_scalar_or_array,
    m1=_scalar_or_array,
    m2=_scalar_or_array,
    cov=_finite,
    e=_scalar_or_array,
)
def test_the_factored_outcome_is_the_expanded_polynomial(theta, x, m1, m2, cov, e):
    """linear.y, formed as u + v*m2 from linear.outcome_parts, is the
    outcome's eight-term polynomial plus covariate term and error, within a
    small multiple of eps times the sum of the terms' magnitudes, on scalars
    and arrays alike."""
    scm = LinearScm(**dict(_LINEAR, theta=theta))
    got = linear.y(scm, x, m1, m2, cov, e)
    want = expanded_outcome(scm, x, m1, m2, cov, e)
    scale = sum(np.abs(t) for t in expanded_outcome_terms(scm, x, m1, m2, cov, e))
    tol = 32 * np.finfo(float).eps * scale + np.finfo(float).tiny
    assert np.shape(got) == np.shape(want)
    assert np.all(np.abs(got - want) <= tol)


@pytest.mark.parametrize("topology", list(Topology))
def test_each_block_forms_six_outcome_parts(monkeypatch, topology):
    """Per block the oracle forms (u, v) once per exposure and M1 slot, six
    in both topologies, and M2 once per distinct value: four sequential, and
    two non-sequential, where M2 ignores the first mediator."""
    calls = {"outcome_parts": 0, "m2": 0}
    for name in calls:
        def counted(*args, _name=name, _f=getattr(linear, name), **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)

        monkeypatch.setattr(linear, name, counted)
    monkeypatch.setattr(twomed.oracle, "_MC_BLOCK", 100)
    scm = random_linear_scm(np.random.default_rng(4), k=0,
                            sequential=topology is Topology.SEQUENTIAL)
    cfg = ReferenceConfig(1.0, 0.0, 0.5, 0.5, topology=topology)
    simulate_linear_components(scm, cfg, n=350, seed=2, shards=2)
    blocks = 4  # two shards of 175 individuals, each two blocks
    m2_calls = 4 if topology is Topology.SEQUENTIAL else 2
    assert calls == {"outcome_parts": 6 * blocks, "m2": m2_calls * blocks}


# ---------------------------------------------------------------------------
# the null contrast
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    topology=st.sampled_from(list(Topology)),
    seed=st.integers(0, 2**32 - 1),
    level=st.sampled_from([0.0, 1.0]),
    offset=st.sampled_from([0.0, 1e3, 1e6, 1e12]),
)
def test_every_route_gives_exact_zeros_when_a_equals_a_star(topology, seed, level,
                                                            offset):
    """At a == a* each a-world has the bits of its a* twin, and every row of
    the contrast table subtracts the one right after the other, so every
    component and aggregate is exactly 0.0 on every route, however far the
    outcome means sit from zero."""
    rng = np.random.default_rng(seed)
    sequential = topology is Topology.SEQUENTIAL
    refs = [float(rng.integers(2)), float(rng.integers(2))]
    cfg = ReferenceConfig(level, level, *refs, topology=topology)
    binary = random_binary_scm(rng, topology)
    binary = dataclasses.replace(binary, e_y_given_a_m1_m2={
        k: v + offset for k, v in binary.e_y_given_a_m1_m2.items()})
    sets = [enumerate_binary_components(binary, cfg),
            enumerate_binary_components_by_individuals(binary, cfg)]

    scm = random_linear_scm(rng, sequential=sequential)
    scm = dataclasses.replace(scm, theta=(scm.theta[0] + offset, *scm.theta[1:]))
    lin_cfg = dataclasses.replace(cfg, covariates=tuple(rng.normal(size=2)))
    t8c, b4c, g2c = linear.contractions(scm, lin_cfg.covariates)
    e1, e2, ey = rng.normal(size=3)
    individual = IndividualPotentials(
        m1_of=lambda x: linear.m1(scm, x, g2c, e1),
        m2_of=lambda z, m1: linear.m2(scm, z, m1, b4c, e2),
        y_of=lambda x, m1, m2: linear.y(scm, x, m1, m2, t8c, ey),
    )
    evaluate = (individual_components_sequential if sequential
                else individual_components_nonsequential)
    sets += [evaluate(individual, lin_cfg),
             simulate_linear_components(scm, lin_cfg, n=500, seed=seed).components]
    for cs in sets:
        values = cs.components | cs.aggregates
        assert all(v == 0.0 for v in values.values()), values

    n1, n2 = (int(k) for k in rng.integers(1, 5, size=2))
    p1 = rng.dirichlet(np.ones(n1), size=(8, 1))
    p2 = rng.dirichlet(np.ones(n2), size=(8, 1, 1 if not sequential else n1))
    y = rng.normal(offset, 10.0, size=(8, 1, n1, n2))
    tables = [np.repeat(t, 2, axis=1) for t in (p1, p2, y)]
    tables[1] = np.broadcast_to(tables[1], (8, 2, n1, n2))
    values = decompose_tables(topology, *tables, int(rng.integers(n1)),
                              int(rng.integers(n2)))
    for name, value in values.items():
        assert np.all(value == 0.0), name
