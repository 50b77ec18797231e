"""Closed-form decompositions under the linear-Gaussian outcome system."""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

import twomed.oracle
from conftest import (
    loop_simulate_linear_components,
    loop_simulate_with_whole_shard_draws,
    random_linear_scm,
    random_reference,
)
from twomed import (
    ComponentSet,
    ConfigError,
    EstimationError,
    ModelCoefficients,
    ReferenceConfig,
    Topology,
    decompose_closed_form,
    decompose_nonsequential_closed_form,
    decompose_sequential_closed_form,
    expected_counterfactual,
    simulate_linear_components,
)
from twomed.closed_form import (
    CoefficientBatch,
    _decomposition,
    decompose_closed_form_batch,
)
from twomed.core import (
    AGGREGATE_NAMES,
    CONTRASTS,
    component_names,
    contrasts,
    identity_checks,
    identity_violations,
)

# how each component reads as a signed combination of the eight expected
# nested counterfactuals
_W_CONTRASTS = {
    "NatINT_AM1": {"W2": 1, "W6": -1, "W7": -1, "W8": 1},
    "NatINT_AM2": {"W3": 1, "W5": -1, "W7": -1, "W8": 1},
    "NatINT_AM1M2": {
        "W1": 1, "W4": -1, "W3": -1, "W5": 1, "W2": -1, "W6": 1, "W7": 1, "W8": -1,
    },
    "NatINT_M1M2": {"W4": 1, "W5": -1, "W6": -1, "W8": 1},
    "PIE_M1": {"W6": 1, "W8": -1},
    "PIE_M2": {"W5": 1, "W8": -1},
}


def _mc(scm):
    return ModelCoefficients.from_scm(scm)


def test_frozen_cde():
    # CDE = (theta1 + theta4*m1* + theta5*m2* + theta7*m1*m2*) (a - a*)
    #     = 0.5 + 0.2*1 + 0.3*2 + 0.1*1*2 = 1.5
    m = ModelCoefficients(
        theta=(0.0, 0.5, 0.0, 0.0, 0.2, 0.3, 0.0, 0.1),
        beta=(0.0, 0.0, 0.0, 0.0),
        gamma=(0.0, 0.0),
        sigma_m1=1.0,
    )
    cfg = ReferenceConfig(
        a=1.0, a_star=0.0, m1_star=1.0, m2_star=2.0,
        covariates=(), topology=Topology.SEQUENTIAL,
    )
    cs = decompose_sequential_closed_form(m, cfg)
    assert cs.component("CDE") == pytest.approx(1.5, abs=1e-15)


def test_components_match_w_contrasts():
    rng = np.random.default_rng(20240817)
    for _ in range(50):
        scm = random_linear_scm(rng)
        cfg = random_reference(rng, Topology.SEQUENTIAL)
        m = _mc(scm)
        cs = decompose_sequential_closed_form(m, cfg)
        wv = {name: expected_counterfactual(name, m, cfg) for name in
              ("W1", "W2", "W3", "W4", "W5", "W6", "W7", "W8")}
        scale = max(1.0, abs(cs.aggregates["TE"]))
        for comp, combo in _W_CONTRASTS.items():
            target = sum(sign * wv[w] for w, sign in combo.items())
            assert cs.component(comp) == pytest.approx(
                target, abs=1e-11 * scale
            ), comp
        # the three reference-anchored terms add up to the W7 - W8 contrast
        pde = (
            cs.component("CDE")
            + cs.component("INT_ref_AM1")
            + cs.component("INT_ref_AM2+AM1M2")
        )
        assert pde == pytest.approx(wv["W7"] - wv["W8"], abs=1e-11 * scale)
        assert cs.aggregates["TE"] == pytest.approx(
            wv["W1"] - wv["W8"], abs=1e-11 * scale
        )


def _without_interactions(scm, keep_m2_product=False):
    """Copy of scm with the outcome model's product coefficients zeroed.

    Unless keep_m2_product is set, the second mediator model's exposure-by-m1
    coefficient beta[3] is zeroed as well: that term is itself an interaction,
    and it feeds NatINT_M1M2 even when the outcome model is purely additive.
    """
    t = list(scm.theta)
    t[4] = t[5] = t[6] = t[7] = 0.0
    b = list(scm.beta)
    if not keep_m2_product:
        b[3] = 0.0
    return type(scm)(
        theta=tuple(t), beta=tuple(b), gamma=scm.gamma,
        theta_c=scm.theta_c, beta_c=scm.beta_c, gamma_c=scm.gamma_c,
        sigma_y=scm.sigma_y, sigma_m1=scm.sigma_m1, sigma_m2=scm.sigma_m2,
    )


def test_interaction_terms_vanish_without_product_coefficients():
    rng = np.random.default_rng(5)
    for _ in range(10):
        scm = _without_interactions(random_linear_scm(rng))
        cfg = random_reference(rng, Topology.SEQUENTIAL)
        cs = decompose_sequential_closed_form(_mc(scm), cfg)
        for name in ("INT_ref_AM1", "INT_ref_AM2+AM1M2", "NatINT_AM1",
                     "NatINT_AM2", "NatINT_AM1M2", "NatINT_M1M2"):
            assert cs.component(name) == 0.0, name
        # mediation itself must survive: this is a vanishing test for the
        # interaction terms, not a degenerate all-zero model
        assert cs.component("PIE_M1") != 0.0
        assert cs.component("PIE_M2") != 0.0


def test_additive_outcome_still_leaves_mediator_mediator_interaction():
    """The exact boundary of the vanishing condition.

    With a purely additive outcome model, an exposure-by-m1 product in the
    SECOND MEDIATOR's model still produces a mediator-mediator natural
    interaction: the strength of the M1 -> M2 pathway then differs between
    the two exposure worlds. Its value is theta3 * beta3 * gamma1 * (a-a*)^2.
    """
    rng = np.random.default_rng(55)
    for _ in range(10):
        scm = _without_interactions(random_linear_scm(rng), keep_m2_product=True)
        cfg = random_reference(rng, Topology.SEQUENTIAL)
        cs = decompose_sequential_closed_form(_mc(scm), cfg)
        d = cfg.a - cfg.a_star
        want = scm.theta[3] * scm.beta[3] * scm.gamma[1] * d * d
        assert cs.component("NatINT_M1M2") == pytest.approx(
            want, rel=1e-12, abs=1e-15
        )
        for name in ("INT_ref_AM1", "INT_ref_AM2+AM1M2", "NatINT_AM1",
                     "NatINT_AM2", "NatINT_AM1M2"):
            assert cs.component(name) == 0.0, name


def test_m1_pathway_terms_vanish_without_exposure_to_m1_effect():
    rng = np.random.default_rng(6)
    for _ in range(10):
        scm = random_linear_scm(rng)
        g = list(scm.gamma)
        g[1] = 0.0
        scm = type(scm)(
            theta=scm.theta, beta=scm.beta, gamma=tuple(g),
            theta_c=scm.theta_c, beta_c=scm.beta_c, gamma_c=scm.gamma_c,
            sigma_y=scm.sigma_y, sigma_m1=scm.sigma_m1, sigma_m2=scm.sigma_m2,
        )
        cfg = random_reference(rng, Topology.SEQUENTIAL)
        cs = decompose_sequential_closed_form(_mc(scm), cfg)
        for name in ("NatINT_AM1", "NatINT_AM1M2", "NatINT_M1M2", "PIE_M1"):
            assert cs.component(name) == 0.0, name


def test_m2_pathway_terms_vanish_without_exposure_to_m2_effect():
    rng = np.random.default_rng(7)
    for _ in range(10):
        scm = random_linear_scm(rng)
        b = list(scm.beta)
        b[1] = b[3] = 0.0
        scm = type(scm)(
            theta=scm.theta, beta=tuple(b), gamma=scm.gamma,
            theta_c=scm.theta_c, beta_c=scm.beta_c, gamma_c=scm.gamma_c,
            sigma_y=scm.sigma_y, sigma_m1=scm.sigma_m1, sigma_m2=scm.sigma_m2,
        )
        cfg = random_reference(rng, Topology.SEQUENTIAL)
        cs = decompose_sequential_closed_form(_mc(scm), cfg)
        for name in ("NatINT_AM2", "PIE_M2"):
            assert cs.component(name) == 0.0, name


def test_natural_reference_levels_kill_reference_interactions():
    rng = np.random.default_rng(8)
    scm = random_linear_scm(rng, sequential=False)
    m = _mc(scm)
    cov = (0.4, -1.2)
    a_star = 0.0
    g_star = scm.gamma[0] + scm.gamma[1] * a_star + float(
        np.dot(scm.gamma_c, cov)
    )
    b_star = scm.beta[0] + scm.beta[1] * a_star + float(np.dot(scm.beta_c, cov))
    cfg = ReferenceConfig(
        a=1.0, a_star=a_star, m1_star=g_star, m2_star=b_star,
        covariates=cov, topology=Topology.NONSEQUENTIAL,
    )
    cs = decompose_nonsequential_closed_form(m, cfg)
    assert cs.component("INT_ref_AM1") == pytest.approx(0.0, abs=1e-12)
    assert cs.component("INT_ref_AM2") == pytest.approx(0.0, abs=1e-12)
    assert cs.component("INT_ref_AM1M2") == pytest.approx(0.0, abs=1e-12)


def test_contrast_reversal_flips_total_and_direct():
    rng = np.random.default_rng(9)
    scm = random_linear_scm(rng)
    m = _mc(scm)
    cfg = random_reference(rng, Topology.SEQUENTIAL)
    back = ReferenceConfig(
        a=cfg.a_star, a_star=cfg.a, m1_star=cfg.m1_star, m2_star=cfg.m2_star,
        covariates=cfg.covariates, topology=cfg.topology,
    )
    fwd = decompose_sequential_closed_form(m, cfg)
    rev = decompose_sequential_closed_form(m, back)
    assert rev.aggregates["TE"] == pytest.approx(
        -fwd.aggregates["TE"], rel=1e-12, abs=1e-12
    )
    assert rev.component("CDE") == pytest.approx(
        -fwd.component("CDE"), rel=1e-12, abs=1e-12
    )


def test_equal_exposures_give_all_zero():
    rng = np.random.default_rng(10)
    scm = random_linear_scm(rng)
    cfg = ReferenceConfig(
        a=1.0, a_star=1.0, m1_star=0.3, m2_star=-0.2,
        covariates=(0.0, 0.0), topology=Topology.SEQUENTIAL,
    )
    cs = decompose_sequential_closed_form(_mc(scm), cfg)
    for name, value in cs.components.items():
        assert value == 0.0, name
    assert cs.aggregates["TE"] == 0.0


def test_nonsequential_rejects_m1_to_m2_coefficients():
    m = ModelCoefficients(
        theta=(0.0,) * 8, beta=(0.0, 1.0, 0.5, 0.0), gamma=(0.0, 1.0),
        sigma_m1=1.0,
    )
    cfg = ReferenceConfig(
        a=1.0, a_star=0.0, m1_star=0.0, m2_star=0.0,
        covariates=(), topology=Topology.NONSEQUENTIAL,
    )
    with pytest.raises(ConfigError):
        decompose_nonsequential_closed_form(m, cfg)


def test_topologies_agree_when_m2_ignores_m1():
    rng = np.random.default_rng(11)
    for _ in range(20):
        scm = random_linear_scm(rng, sequential=False)
        m = _mc(scm)
        base = random_reference(rng, Topology.SEQUENTIAL)
        seq = decompose_sequential_closed_form(m, base)
        ns_cfg = ReferenceConfig(
            a=base.a, a_star=base.a_star, m1_star=base.m1_star,
            m2_star=base.m2_star, covariates=base.covariates,
            topology=Topology.NONSEQUENTIAL,
        )
        ns = decompose_nonsequential_closed_form(m, ns_cfg)
        scale = max(1.0, abs(seq.aggregates["TE"]))
        combined = ns.component("INT_ref_AM2") + ns.component("INT_ref_AM1M2")
        assert seq.component("INT_ref_AM2+AM1M2") == pytest.approx(
            combined, abs=1e-10 * scale
        )
        for name in ("CDE", "INT_ref_AM1", "NatINT_AM1", "NatINT_AM2",
                     "NatINT_AM1M2", "NatINT_M1M2", "PIE_M1", "PIE_M2"):
            assert seq.component(name) == pytest.approx(
                ns.component(name), abs=1e-10 * scale
            ), name
        for name, value in seq.aggregates.items():
            assert ns.aggregates[name] == pytest.approx(
                value, abs=1e-10 * scale
            ), name


def test_dispatcher_routes_on_topology():
    rng = np.random.default_rng(12)
    scm = random_linear_scm(rng, sequential=False)
    m = _mc(scm)
    seq_cfg = random_reference(rng, Topology.SEQUENTIAL)
    ns_cfg = ReferenceConfig(
        a=seq_cfg.a, a_star=seq_cfg.a_star, m1_star=seq_cfg.m1_star,
        m2_star=seq_cfg.m2_star, covariates=seq_cfg.covariates,
        topology=Topology.NONSEQUENTIAL,
    )
    assert tuple(decompose_closed_form(m, seq_cfg).components) == tuple(
        decompose_sequential_closed_form(m, seq_cfg).components
    )
    assert "INT_ref_AM2" in decompose_closed_form(m, ns_cfg).components


def _power_model(a, theta7, topology):
    m = ModelCoefficients(
        theta=(1.0,) * 7 + (theta7,), beta=(0.5, 1.0, 0.0, 0.0),
        gamma=(0.3, 1.0), sigma_m1=1.0,
    )
    cfg = ReferenceConfig(a=a, a_star=0.0, m1_star=0.0, m2_star=0.0,
                          covariates=(), topology=topology)
    return m, cfg


@pytest.mark.parametrize("topology", list(Topology))
def test_a_closed_form_whose_worlds_are_finite_is_finite(topology):
    """At a = 1e100 the largest world is 1e300: every value is finite, though
    a**4 is not, and TE is W1 - W8."""
    m, cfg = _power_model(1e100, 1.0, topology)
    cs = decompose_closed_form(m, cfg)
    assert all(map(math.isfinite, (cs.components | cs.aggregates).values()))
    w1_w8 = (expected_counterfactual("W1", m, cfg)
             - expected_counterfactual("W8", m, cfg))
    assert cs.aggregates["TE"] == w1_w8 == 1e300
    _, violated = decompose_closed_form_batch(CoefficientBatch.stack([m, m]), cfg)
    assert violated.tolist() == [False, False]


def test_a_zero_term_stays_zero_where_its_other_factors_overflow():
    """Non-sequential, theta5 * gamma1 overflows, but every ks and beta[3]
    term it enters is an exact zero: each route gives finite values, equal to
    their contrast rows."""
    m = ModelCoefficients(
        theta=(0.3, 1.0, 0.5, 0.7, 0.2, 1e300, 0.4, 0.1),
        beta=(0.0, 0.8, 0.0, 0.0), gamma=(0.2, 1e10), sigma_m1=1.0,
    )
    cfg = ReferenceConfig(a=1.0, a_star=0.0, m1_star=0.0, m2_star=0.0,
                          topology=Topology.NONSEQUENTIAL)
    cs = decompose_closed_form(m, cfg)
    values = cs.components | cs.aggregates
    rows = contrasts(values, lambda key: expected_counterfactual(key, m, cfg))
    tol = 64 * np.finfo(float).eps * _decomposition(m, cfg)[1]
    for name, row in rows.items():
        assert math.isfinite(values[name]) and abs(values[name] - row) <= tol, name
    batch, violated = decompose_closed_form_batch(CoefficientBatch.stack([m, m]), cfg)
    assert violated.tolist() == [False, False]
    for name, want in values.items():
        assert batch[name].tolist() == [want, want], name


@pytest.mark.parametrize("topology", list(Topology))
@pytest.mark.parametrize("a, theta7", [(1e103, 1.0), (1e10, 1e300)],
                         ids=["power-overflows", "product-is-infinite"])
def test_a_closed_form_that_is_not_finite_is_an_estimation_error(
    topology, a, theta7
):
    m, cfg = _power_model(a, theta7, topology)
    with pytest.raises(EstimationError, match=re.escape(f"a={a!r}, a_star=0.0")):
        decompose_closed_form(m, cfg)
    values, violated = decompose_closed_form_batch(CoefficientBatch.stack([m, m]), cfg)
    assert violated.tolist() == [True, True]
    assert values.keys() == set(component_names(topology)) | set(AGGREGATE_NAMES)


def test_covariate_dimension_mismatch_rejected():
    rng = np.random.default_rng(13)
    scm = random_linear_scm(rng, k=3)
    cfg = random_reference(rng, Topology.SEQUENTIAL, k=2)
    with pytest.raises(ConfigError):
        decompose_sequential_closed_form(_mc(scm), cfg)


def test_unknown_counterfactual_name_rejected():
    m = ModelCoefficients(
        theta=(0.0,) * 8, beta=(0.0,) * 4, gamma=(0.0, 0.0), sigma_m1=1.0
    )
    cfg = ReferenceConfig(
        a=1.0, a_star=0.0, m1_star=0.0, m2_star=0.0,
        covariates=(), topology=Topology.SEQUENTIAL,
    )
    with pytest.raises(ConfigError):
        expected_counterfactual("W9", m, cfg)


@pytest.mark.parametrize("which", ["W0", "rss", "aaaa", "as", "", "aax"])
def test_malformed_world_keys_rejected(which):
    m = ModelCoefficients(
        theta=(0.0,) * 8, beta=(0.0,) * 4, gamma=(0.0, 0.0), sigma_m1=1.0
    )
    cfg = ReferenceConfig(a=1.0, a_star=0.0, m1_star=0.0, m2_star=0.0)
    with pytest.raises(ConfigError, match="unknown counterfactual"):
        expected_counterfactual(which, m, cfg)


def test_expected_counterfactual_refuses_what_the_decomposition_refuses():
    """Under the non-sequential topology an M1 -> M2 edge is a configuration
    error for every world, as it is for the decomposition."""
    m = ModelCoefficients(
        theta=(1.0,) * 8, beta=(0.5, 1.0, 0.7, 0.2), gamma=(0.3, 1.0),
        sigma_m1=1.0,
    )
    cfg = ReferenceConfig(a=1.0, a_star=0.0, m1_star=0.0, m2_star=0.0,
                          topology=Topology.NONSEQUENTIAL)
    with pytest.raises(ConfigError, match=re.escape("beta[2] = beta[3] = 0")):
        decompose_closed_form(m, cfg)
    for which in ("W1", "aaa", "srr"):
        with pytest.raises(ConfigError, match=re.escape("beta[2] = beta[3] = 0")):
            expected_counterfactual(which, m, cfg)


def test_model_coefficient_shape_validation():
    with pytest.raises(ConfigError):
        ModelCoefficients(theta=(0.0,) * 7, beta=(0.0,) * 4, gamma=(0.0, 0.0))
    with pytest.raises(ConfigError):
        ModelCoefficients(
            theta=(0.0,) * 8, beta=(0.0,) * 4, gamma=(0.0, 0.0),
            theta_c=(1.0,), beta_c=(), gamma_c=(),
        )
    with pytest.raises(ConfigError):
        ModelCoefficients(
            theta=(0.0,) * 8, beta=(0.0,) * 4, gamma=(0.0, 0.0), sigma_m1=-1.0
        )


@pytest.mark.parametrize(
    "sigma, value", [("sigma_m1", 0.0), ("sigma_y", None), ("sigma_m2", None)]
)
def test_model_coefficients_take_the_sigmas_of_an_estimate(sigma, value):
    m = ModelCoefficients(
        theta=(0.0,) * 8, beta=(0.0,) * 4, gamma=(0.0, 0.0), **{sigma: value}
    )
    assert getattr(m, sigma) == value


@pytest.mark.parametrize("k", [0, 2])
def test_from_scm_returns_plain_model_coefficients(k):
    scm = random_linear_scm(np.random.default_rng(k), k=k)
    m = ModelCoefficients.from_scm(scm)
    assert type(m) is ModelCoefficients
    for name in ("theta", "beta", "gamma", "theta_c", "beta_c", "gamma_c",
                 "sigma_m1", "sigma_y", "sigma_m2"):
        assert getattr(m, name) == getattr(scm, name)


def test_monte_carlo_agrees_with_closed_form():
    rng = np.random.default_rng(14)
    scm = random_linear_scm(rng)
    cfg = random_reference(rng, Topology.SEQUENTIAL)
    exact = decompose_sequential_closed_form(_mc(scm), cfg)
    mc = simulate_linear_components(scm, cfg, n=400_000, seed=77)
    for name, value in exact.components.items():
        se = mc.standard_errors[name]
        if se == 0.0:
            assert mc.components.component(name) == pytest.approx(
                value, abs=1e-12
            )
        else:
            z = abs(mc.components.component(name) - value) / se
            assert z < 4.5, (name, z)


def test_monte_carlo_sharding_is_reproducible():
    rng = np.random.default_rng(15)
    scm = random_linear_scm(rng)
    cfg = random_reference(rng, Topology.SEQUENTIAL)
    one = simulate_linear_components(scm, cfg, n=10_000, seed=3, shards=4)
    two = simulate_linear_components(scm, cfg, n=10_000, seed=3, shards=4)
    for name, value in one.components.components.items():
        assert two.components.component(name) == value, name


@pytest.mark.parametrize("topology", list(Topology))
@pytest.mark.parametrize("shards", [1, 3])
@pytest.mark.parametrize("block", [7, None], ids=["block-7", "default-block"])
def test_blocked_monte_carlo_matches_whole_shard_evaluation(
    monkeypatch, topology, shards, block
):
    if block is None:
        n = 3 * twomed.oracle._MC_BLOCK + 5
    else:
        monkeypatch.setattr(twomed.oracle, "_MC_BLOCK", block)
        n = 1_000
    rng = np.random.default_rng(16)
    scm = random_linear_scm(rng, sequential=topology is Topology.SEQUENTIAL)
    cfg = random_reference(rng, topology)
    got = simulate_linear_components(scm, cfg, n=n, seed=5, shards=shards)
    got_means = got.components.components | got.components.aggregates
    want_means, want_ses = loop_simulate_linear_components(
        scm, cfg, n=n, seed=5, shards=shards
    )
    assert set(want_means) == set(got_means) == set(got.standard_errors)
    for name, mean in want_means.items():
        scale = max(1.0, abs(mean))
        assert got_means[name] == pytest.approx(
            mean, rel=1e-12, abs=1e-12 * scale
        ), name
        se, want_se = got.standard_errors[name], want_ses[name]
        floor = 1e-8 * scale
        if want_se > floor:
            assert se == pytest.approx(want_se, rel=1e-9), name
        else:
            # a component constant per individual: both SEs are rounding noise
            assert se <= floor and want_se <= floor, name


def test_blocked_monte_carlo_memory_does_not_grow_with_the_temporaries():
    rng = np.random.default_rng(17)
    scm = random_linear_scm(rng, sequential=False)
    cfg = random_reference(rng, Topology.NONSEQUENTIAL)
    tracemalloc.start()
    try:
        simulate_linear_components(scm, cfg, n=200_000, seed=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # three error draws of 4.8 MB each plus one block of temporaries
    assert peak <= 16 * 2**20, peak / 2**20


@pytest.mark.parametrize("topology", list(Topology))
@pytest.mark.parametrize("shards", [1, 3])
@pytest.mark.parametrize("block", [7, None], ids=["block-7", "default-block"])
def test_block_drawn_errors_are_the_whole_shard_draws(
    monkeypatch, topology, shards, block
):
    """Each error drawn a block at a time from its own generator gives the
    values of the whole-shard draws, so every mean and SE is bit for bit the
    same, partial last blocks included."""
    if block is None:
        n = 3 * twomed.oracle._MC_BLOCK + 5
    else:
        monkeypatch.setattr(twomed.oracle, "_MC_BLOCK", block)
        n = 1_000
    rng = np.random.default_rng(18)
    scm = random_linear_scm(rng, sequential=topology is Topology.SEQUENTIAL)
    cfg = random_reference(rng, topology)
    got = simulate_linear_components(scm, cfg, n=n, seed=6, shards=shards)
    want_means, want_ses = loop_simulate_with_whole_shard_draws(
        scm, cfg, n=n, seed=6, shards=shards
    )
    assert got.components.components | got.components.aggregates == want_means
    assert dict(got.standard_errors) == want_ses


def test_monte_carlo_memory_does_not_grow_with_n():
    """Errors drawn a block at a time: the oracle's peak at n = 2,000,000 is
    under the 48 MB that the whole error triple would take alone."""
    rng = np.random.default_rng(19)
    scm = random_linear_scm(rng, sequential=False)
    cfg = random_reference(rng, Topology.NONSEQUENTIAL)
    tracemalloc.start()
    try:
        simulate_linear_components(scm, cfg, n=2_000_000, seed=9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20, peak / 2**20


def _signed_power(exponent, negative):
    return (-1.0 if negative else 1.0) * 10.0 ** exponent


# coefficient magnitudes from 1e-3 to 1e6, either sign
_wide = st.builds(_signed_power, st.floats(-3.0, 6.0), st.booleans())


@st.composite
def _wide_coefficients(draw, topology, sigma_m1=_wide.map(abs)):
    beta = draw(st.lists(_wide, min_size=4, max_size=4))
    if topology is Topology.NONSEQUENTIAL:
        beta[2] = beta[3] = 0.0
    return ModelCoefficients(
        theta=draw(st.lists(_wide, min_size=8, max_size=8)),
        beta=beta,
        gamma=draw(st.lists(_wide, min_size=2, max_size=2)),
        theta_c=draw(st.lists(_wide, min_size=2, max_size=2)),
        beta_c=draw(st.lists(_wide, min_size=2, max_size=2)),
        gamma_c=draw(st.lists(_wide, min_size=2, max_size=2)),
        sigma_m1=draw(sigma_m1),
    )


@st.composite
def _wide_reference(draw, topology, equal_exposures=st.just(False)):
    level = st.floats(-2.0, 2.0)
    a = draw(level)
    return ReferenceConfig(
        a=a, a_star=a if draw(equal_exposures) else draw(level),
        m1_star=draw(level), m2_star=draw(level),
        covariates=(draw(level), draw(level)), topology=topology,
    )


@st.composite
def _wide_model(draw):
    topology = draw(st.sampled_from(list(Topology)))
    return draw(_wide_coefficients(topology)), draw(_wide_reference(topology))


@st.composite
def _wide_batch(draw, min_size=1):
    """Wide-scale coefficient sets for one batch; sigma_m1 = 0 and a == a*
    each come up in about half the draws."""
    topology = draw(st.sampled_from(list(Topology)))
    sigma_m1 = st.one_of(st.just(0.0), _wide.map(abs))
    models = draw(
        st.lists(_wide_coefficients(topology, sigma_m1), min_size=min_size, max_size=6)
    )
    return models, draw(_wide_reference(topology, st.booleans()))


# found by random search: TE and the component sum differ by 12 in 2.2e9,
# which is rounding in terms far larger than TE, yet more than the old
# 1e-10 * |TE| tolerance allowed
_CANCELLING = (
    ModelCoefficients(
        theta=(1e3, -1e5, 10.0, 1e6, -10.0, -10.0, 1e3, -1e6),
        beta=(0.01, -100.0, 1.0, -1e3),
        gamma=(10.0, 1e4),
        theta_c=(-100.0, -1e4),
        beta_c=(-1e4, -1e3),
        gamma_c=(0.01, 1e4),
        sigma_m1=1.0,
    ),
    ReferenceConfig(
        a=1.0, a_star=0.0, m1_star=0.0, m2_star=0.0,
        covariates=(1.0, -1.0), topology=Topology.SEQUENTIAL,
    ),
)


@settings(max_examples=300, deadline=None)
@given(_wide_model())
@example(_CANCELLING)
def test_identity_checks_pass_wide_scale_coefficients(model):
    """Rounding alone never trips the component-set identities."""
    m, cfg = model
    decompose_closed_form(m, cfg)


@settings(max_examples=300, deadline=None)
@given(_wide_model())
@example(_CANCELLING)
def test_identity_checks_catch_a_planted_relative_error(model):
    """A 1e-8 relative error in the largest component breaks an identity."""
    m, cfg = model
    cs = decompose_closed_form(m, cfg)
    name = max(cs.components, key=lambda k: abs(cs.components[k]))
    assume(abs(cs.components[name]) > 1.0)
    planted = dict(cs.components)
    planted[name] *= 1.0 + 1e-8
    with pytest.raises(EstimationError, match="identity violated"):
        ComponentSet(cfg.topology, planted, cs.aggregates)


@settings(max_examples=150, deadline=None)
@given(_wide_batch())
def test_batched_closed_form_equals_the_scalar_route(batch):
    """The array route runs the scalar route's arithmetic on each replicate
    and flags exactly the replicates ComponentSet would reject."""
    models, cfg = batch
    values, violated = decompose_closed_form_batch(CoefficientBatch.stack(models), cfg)
    assert values.keys() == set(component_names(cfg.topology)) | set(AGGREGATE_NAMES)
    for i, m in enumerate(models):
        try:
            cs = decompose_closed_form(m, cfg)
        except EstimationError:
            assert violated[i]
            continue
        assert not violated[i]
        for name, want in {**cs.components, **cs.aggregates}.items():
            assert math.isclose(values[name][i], want, rel_tol=1e-12), name


@settings(max_examples=150, deadline=None)
@given(_wide_batch(min_size=2), st.data())
def test_batched_identity_check_flags_only_the_planted_replicate(batch, data):
    """A 1e-8 relative error in one replicate's largest component flags that
    replicate whenever it exceeds the tolerance tenfold, and never another."""
    models, cfg = batch
    values, scale = _decomposition(CoefficientBatch.stack(models), cfg)
    comps = {k: values[k] for k in component_names(cfg.topology)}
    i = data.draw(st.integers(0, len(models) - 1))
    name = max(comps, key=lambda k: abs(comps[k][i]))
    planted = dict(values)
    planted[name] = comps[name].copy()
    planted[name][i] *= 1.0 + 1e-8
    flagged = identity_violations(cfg.topology, planted, scale)
    assert not np.delete(flagged, i).any()
    tol = identity_checks(cfg.topology, values, scale)[0][3][i]
    if 1e-8 * abs(comps[name][i]) > 10.0 * tol:
        assert flagged[i]


@st.composite
def _gapped_model(draw):
    """A wide-scale model of either topology, with a - a* of either sign and
    a magnitude from 1e-8 to 10."""
    topology = draw(st.sampled_from(list(Topology)))
    sigma_m1 = st.one_of(st.just(0.0), _wide.map(abs))
    m = draw(_wide_coefficients(topology, sigma_m1))
    level = st.floats(-2.0, 2.0)
    a_star = draw(level)
    gap = draw(st.builds(_signed_power, st.floats(-8.0, 1.0), st.booleans()))
    cfg = ReferenceConfig(
        a=a_star + gap, a_star=a_star, m1_star=draw(level), m2_star=draw(level),
        covariates=(draw(level), draw(level)), topology=topology,
    )
    return m, cfg


# a failing example is reported as drawn: shrinking one past a tolerance took
# minutes and hundreds of MB
@settings(max_examples=300, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(_gapped_model())
def test_every_polynomial_matches_its_contrast_row(model):
    """Each component polynomial equals its core.CONTRASTS row over the
    worlds expected_counterfactual evaluates, reference slots included, to a
    few roundings of the largest world monomial. The aggregates are those
    rows, bit for bit."""
    m, cfg = model
    cs = decompose_closed_form(m, cfg)
    values = cs.components | cs.aggregates
    rows = contrasts(values, lambda key: expected_counterfactual(key, m, cfg))
    tol = 64 * np.finfo(float).eps * max(1.0, _decomposition(m, cfg)[1])
    for name, row in rows.items():
        if name in AGGREGATE_NAMES:
            assert values[name].hex() == row.hex(), name
        else:
            assert abs(values[name] - row) <= tol, name


@st.composite
def _wide_model_and_references(draw):
    """A wide-scale model with mediator reference levels as wide."""
    m, cfg = draw(_wide_model())
    return m, dataclasses.replace(cfg, m1_star=draw(_wide), m2_star=draw(_wide))


_WORLD_KEYS = {term[1:] for row in CONTRASTS.values() for term in row.split()}


@settings(max_examples=300, deadline=None)
@given(_wide_model_and_references())
def test_the_rounding_scale_bounds_every_world(model):
    """No world of core.CONTRASTS, reference slots included, exceeds
    _rounding_scale in magnitude, so the identity tolerance covers the
    rounding of every aggregate's terms."""
    m, cfg = model
    scale = _decomposition(m, cfg)[1]
    assert len(_WORLD_KEYS) == 14
    for key in sorted(_WORLD_KEYS):
        assert abs(expected_counterfactual(key, m, cfg)) <= scale, key
