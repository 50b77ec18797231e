import itertools
import math

import numpy as np
import pytest

from conftest import random_binary_scm, random_linear_scm
from twomed import (
    AGGREGATE_NAMES,
    NONSEQUENTIAL_COMPONENT_NAMES,
    SEQUENTIAL_COMPONENT_NAMES,
    ComponentSet,
    ConfigError,
    EstimationError,
    ReferenceConfig,
    SingleMediatorComponents,
    Topology,
    simulate_dataset,
    simulate_linear_components,
    total_from_components,
)
from twomed.closed_form import CoefficientBatch, decompose_closed_form_batch
from twomed.core import (
    CONTRASTS,
    INT_REF_AM1M2,
    INT_REF_AM2,
    INT_REF_AM2_PLUS_AM1M2,
    NATINT_AM1,
    PDE,
    component_names,
    contrasts,
    identity_checks,
    value_names,
)
from twomed.empirical import CellCoder
from twomed.table_engine import decompose_tables


def test_canonical_component_names():
    assert SEQUENTIAL_COMPONENT_NAMES == (
        "CDE",
        "INT_ref_AM1",
        "INT_ref_AM2+AM1M2",
        "NatINT_AM1",
        "NatINT_AM2",
        "NatINT_AM1M2",
        "NatINT_M1M2",
        "PIE_M1",
        "PIE_M2",
    )
    assert NONSEQUENTIAL_COMPONENT_NAMES == (
        "CDE",
        "INT_ref_AM1",
        "INT_ref_AM2",
        "INT_ref_AM1M2",
        "NatINT_AM1",
        "NatINT_AM2",
        "NatINT_AM1M2",
        "NatINT_M1M2",
        "PIE_M1",
        "PIE_M2",
    )
    assert AGGREGATE_NAMES == ("PDE", "TDE", "SIE_M1", "TE")
    assert component_names(Topology.SEQUENTIAL) == SEQUENTIAL_COMPONENT_NAMES
    assert component_names(Topology.NONSEQUENTIAL) == NONSEQUENTIAL_COMPONENT_NAMES


def _consistent_sequential_set():
    """Small hand-built set satisfying every aggregate identity."""
    comps = {
        "CDE": 1.0,
        "INT_ref_AM1": 0.5,
        "INT_ref_AM2+AM1M2": -0.25,
        "NatINT_AM1": 0.125,
        "NatINT_AM2": 0.0625,
        "NatINT_AM1M2": -0.5,
        "NatINT_M1M2": 0.25,
        "PIE_M1": 2.0,
        "PIE_M2": -1.0,
    }
    pde = comps["CDE"] + comps["INT_ref_AM1"] + comps["INT_ref_AM2+AM1M2"]
    tde = pde + comps["NatINT_AM1"] + comps["NatINT_AM2"] + comps["NatINT_AM1M2"]
    sie = comps["NatINT_M1M2"] + comps["PIE_M1"]
    te = tde + sie + comps["PIE_M2"]
    aggs = {"PDE": pde, "TDE": tde, "SIE_M1": sie, "TE": te}
    return comps, aggs


def test_component_set_reorders_and_accessor():
    comps, aggs = _consistent_sequential_set()
    scrambled = dict(reversed(list(comps.items())))
    cs = ComponentSet(Topology.SEQUENTIAL, scrambled, aggs)
    assert tuple(cs.components) == SEQUENTIAL_COMPONENT_NAMES
    assert cs.component("PIE_M2") == -1.0
    assert total_from_components(cs) == pytest.approx(aggs["TE"], abs=1e-12)


def test_component_set_rejects_missing_and_extra_keys():
    comps, aggs = _consistent_sequential_set()
    short = dict(comps)
    del short["PIE_M2"]
    with pytest.raises(EstimationError):
        ComponentSet(Topology.SEQUENTIAL, short, aggs)
    extra = dict(comps)
    extra["NDE"] = 0.0
    with pytest.raises(EstimationError):
        ComponentSet(Topology.SEQUENTIAL, extra, aggs)
    # the sequential set never carries the split reference-interaction names
    renamed = dict(comps)
    renamed["INT_ref_AM2"] = renamed.pop("INT_ref_AM2+AM1M2")
    with pytest.raises(EstimationError):
        ComponentSet(Topology.SEQUENTIAL, renamed, aggs)


def test_from_values_splits_one_mapping_and_value_reads_both_halves():
    comps, aggs = _consistent_sequential_set()
    cs = ComponentSet.from_values(Topology.SEQUENTIAL, {**aggs, **comps})
    assert cs == ComponentSet(Topology.SEQUENTIAL, comps, aggs)
    assert [cs.value(k) for k in value_names(Topology.SEQUENTIAL)] == [
        *comps.values(), *aggs.values()]
    for name in ("NDE", "INT_ref_AM2"):
        with pytest.raises(EstimationError, match=name):
            cs.value(name)


@pytest.mark.parametrize("change", ["missing component", "missing aggregate",
                                    "extra name"])
def test_from_values_refuses_what_the_constructor_refuses(change):
    comps, aggs = _consistent_sequential_set()
    values = {**comps, **aggs}
    if change == "extra name":
        values["NDE"] = 0.0
    else:
        del values["PIE_M2" if change == "missing component" else "TDE"]
    with pytest.raises(EstimationError, match="malformed|aggregates must be"):
        ComponentSet.from_values(Topology.SEQUENTIAL, values)


@pytest.mark.parametrize("topology", list(Topology))
def test_every_producer_returns_one_mapping_in_value_names_order(topology):
    """The table engine, the batched closed form, the batched empirical
    decomposition and the Monte Carlo standard errors each return one
    mapping, keyed by value_names(topology) in that order."""
    names = list(value_names(topology))
    sequential = topology is Topology.SEQUENTIAL
    rng = np.random.default_rng(5)
    p1 = rng.dirichlet(np.ones(3), size=(4, 2))
    p2 = rng.dirichlet(np.ones(2), size=(4, 2, 1 if not sequential else 3))
    y = rng.normal(size=(4, 2, 3, 2))
    p2 = np.broadcast_to(p2, (4, 2, 3, 2))
    assert list(decompose_tables(topology, p1, p2, y, 1, 0)) == names

    scm = random_linear_scm(rng, k=1, sequential=sequential)
    cfg = ReferenceConfig(1.0, 0.0, 0.5, -0.5, covariates=(0.3,), topology=topology)
    values, _ = decompose_closed_form_batch(CoefficientBatch.stack([scm, scm]), cfg)
    assert list(values) == names
    assert list(simulate_linear_components(scm, cfg, n=50, seed=1).standard_errors) \
        == names

    if sequential:
        binary_cfg = ReferenceConfig(1.0, 0.0, 0.0, 0.0)
        coder = CellCoder(simulate_dataset(random_binary_scm(rng), n=400, seed=2))
        n, y_sum = coder.counts()
        values, _ = coder.decompose_counts(binary_cfg, n[None], y_sum[None])
        assert list(values) == names


def test_component_set_enforces_sum_identity():
    comps, aggs = _consistent_sequential_set()
    broken = dict(comps)
    broken["CDE"] += 1e-6
    with pytest.raises(EstimationError):
        ComponentSet(Topology.SEQUENTIAL, broken, aggs)


def test_component_set_tolerance_scales_with_total():
    comps, aggs = _consistent_sequential_set()
    # relative wiggle far below 1e-10 * max(1, |TE|) must be accepted
    wig = dict(comps)
    wig["CDE"] += 1e-13
    cs = ComponentSet(Topology.SEQUENTIAL, wig, aggs)
    assert cs.component("CDE") == wig["CDE"]


def test_component_accessor_rejects_unknown_name():
    comps, aggs = _consistent_sequential_set()
    cs = ComponentSet(Topology.SEQUENTIAL, comps, aggs)
    with pytest.raises(EstimationError):
        cs.component("INT_ref_AM2")


def test_reference_config_validation():
    with pytest.raises(ConfigError):
        ReferenceConfig(
            a=math.nan, a_star=0.0, m1_star=0.0, m2_star=0.0,
            covariates=(), topology=Topology.SEQUENTIAL,
        )
    with pytest.raises(ConfigError):
        ReferenceConfig(
            a=1.0, a_star=0.0, m1_star=math.inf, m2_star=0.0,
            covariates=(), topology=Topology.SEQUENTIAL,
        )
    cfg = ReferenceConfig(
        a=2.0, a_star=2.0, m1_star=0.5, m2_star=0.5,
        covariates=(1.0, -1.0), topology=Topology.NONSEQUENTIAL,
    )
    assert cfg.a == cfg.a_star  # a null contrast is allowed
    assert cfg.covariates == (1.0, -1.0)


def test_single_mediator_identities_enforced():
    ok = SingleMediatorComponents(
        cde=1.0, int_ref=0.0, int_med=1.0, pie=1.0, nde=1.0, nie=2.0, te=3.0
    )
    assert ok.te == 3.0
    with pytest.raises(EstimationError):
        SingleMediatorComponents(
            cde=1.0, int_ref=0.0, int_med=1.0, pie=1.0, nde=1.0, nie=2.0, te=3.5
        )


@pytest.mark.parametrize("bad", [
    {"te": math.nan}, {"cde": math.nan}, {"cde": math.inf, "te": math.inf},
    {"nie": -math.inf},
])
def test_single_mediator_values_must_be_finite(bad):
    # NaN compares False with any tolerance, and inf - inf is NaN
    values = dict(cde=1.0, int_ref=0.0, int_med=1.0, pie=1.0, nde=1.0, nie=2.0,
                  te=3.0)
    with pytest.raises(EstimationError, match="not finite"):
        SingleMediatorComponents(**(values | bad))


def test_single_mediator_tolerance_scales_with_the_terms():
    # terms near 1e12 that cancel to TE = 0.1: their sum is off by about 1e-4
    # from rounding, within 1e-10 of the summed |terms| though not of |TE|
    cde, int_ref = 1e12 + 0.1, -1e12
    SingleMediatorComponents(cde, int_ref, 0.0, 0.0, nde=cde, nie=int_ref, te=0.1)
    with pytest.raises(EstimationError, match="four-way identity violated"):
        SingleMediatorComponents(cde, int_ref, 0.0, 0.0, nde=cde, nie=int_ref, te=1e3)


def test_component_values_must_be_finite():
    comps, aggs = _consistent_sequential_set()
    bad = dict(comps)
    bad["CDE"] = float("nan")
    with pytest.raises(EstimationError):
        ComponentSet(Topology.SEQUENTIAL, bad, aggs)


def test_nonsequential_set_shape():
    rng = np.random.default_rng(0)
    comps = {name: float(rng.normal()) for name in NONSEQUENTIAL_COMPONENT_NAMES}
    pde = sum(comps[k] for k in ("CDE", "INT_ref_AM1", "INT_ref_AM2", "INT_ref_AM1M2"))
    tde = pde + comps["NatINT_AM1"] + comps["NatINT_AM2"] + comps["NatINT_AM1M2"]
    sie = comps["NatINT_M1M2"] + comps["PIE_M1"]
    aggs = {"PDE": pde, "TDE": tde, "SIE_M1": sie, "TE": tde + sie + comps["PIE_M2"]}
    cs = ComponentSet(Topology.NONSEQUENTIAL, comps, aggs)
    assert tuple(cs.components) == NONSEQUENTIAL_COMPONENT_NAMES


_WORLDS = [x + i + j for x in "as" for i in "asr" for j in "asr"]


def _coefficients(row: str) -> np.ndarray:
    """A CONTRASTS row as integer coefficients over the 18 world keys."""
    vec = np.zeros(len(_WORLDS), dtype=np.int64)
    for term in row.split():
        assert term[0] in "+-" and term[1:] in _WORLDS, term
        vec[_WORLDS.index(term[1:])] += 1 if term[0] == "+" else -1
    return vec


def test_the_contrast_table_satisfies_every_identity_exactly():
    """Each row of the table, read as integer coefficients over the nested
    worlds, so no value is rounded: the identities hold term by term, the
    sequential combined reference interaction is the sum of the two
    non-sequential ones, and no sequential row names a world whose first
    mediator sits at its reference while the second is natural."""
    assert set(CONTRASTS) == {
        *SEQUENTIAL_COMPONENT_NAMES, *NONSEQUENTIAL_COMPONENT_NAMES, *AGGREGATE_NAMES
    }
    assert all(row.startswith("+") for row in CONTRASTS.values())
    rows = {name: _coefficients(row) for name, row in CONTRASTS.items()}
    for topology in Topology:
        values = {k: rows[k] for k in value_names(topology)}
        for label, lhs, rhs, *_ in identity_checks(topology, values):
            assert np.array_equal(lhs, rhs), (topology, label)
    assert np.array_equal(
        rows[INT_REF_AM2_PLUS_AM1M2], rows[INT_REF_AM2] + rows[INT_REF_AM1M2]
    )
    for name in (*SEQUENTIAL_COMPONENT_NAMES, *AGGREGATE_NAMES):
        for term in CONTRASTS[name].split():
            assert term[2] != "r" or term[3] == "r", (name, term)


def test_contrasts_evaluates_each_world_once_in_the_written_order():
    calls = []

    def world(key):
        calls.append(key)
        return float(len(calls))

    values = contrasts((NATINT_AM1, PDE), world)
    assert calls == ["aas", "sas", "ass", "sss"]
    assert values == {NATINT_AM1: 1.0 - 2.0 - 3.0 + 4.0, PDE: 3.0 - 4.0}


# every world key "xij": exposure x, M1 slot i, M2 slot j
_WORLD_KEYS = ["".join(k) for k in itertools.product("as", "asr", "asr")]


@pytest.mark.parametrize("floats", [
    set(),
    set(_WORLD_KEYS),
    # the first two terms of INT_ref_AM1M2 and NatINT_AM1M2, and of the rows
    # that share them, are floats and the later terms arrays
    {"ass", "sss", "aaa", "saa"},
])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_contrasts_sums_in_place_with_the_out_of_place_bits(floats, seed):
    """contrasts() updates a fresh value in place: worlds given as views of
    one array stay as they were, and every row has the bits, and the type, of
    its out-of-place left-to-right sum, whether its terms are floats, arrays
    or floats first and arrays later."""
    rng = np.random.default_rng(seed)
    block = rng.normal(size=(len(_WORLD_KEYS), 5)) * 10.0 ** rng.integers(
        -3, 4, size=(len(_WORLD_KEYS), 1))
    frozen = block.copy()
    value = {key: float(row[0]) if key in floats else row
             for key, row in zip(_WORLD_KEYS, block)}
    got = contrasts(tuple(CONTRASTS), value.__getitem__)
    assert np.array_equal(block, frozen)
    for name, row in CONTRASTS.items():
        first, *rest = row.split()
        want = value[first[1:]]
        for term in rest:
            want = want + value[term[1:]] if term[0] == "+" else want - value[term[1:]]
        assert type(got[name]) is type(want), name
        assert np.asarray(got[name]).tobytes() == np.asarray(want).tobytes(), name
