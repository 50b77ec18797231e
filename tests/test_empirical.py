"""Table-based plug-in estimator for categorical mediators."""

import dataclasses
import itertools
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    _check_coverage,
    assert_same_outcome,
    loop_decompose_empirical_sequential,
    loop_estimate_tables,
    loop_tally_tables,
    outcome,
    random_binary_scm,
)
from twomed import (
    BinaryScm,
    ConfigError,
    Dataset,
    EstimationError,
    ProbTables,
    ReferenceConfig,
    Topology,
    decompose_empirical_sequential,
    enumerate_binary_components,
    estimate_tables,
)
import twomed.empirical
from twomed.empirical import CellCoder

CFG = ReferenceConfig(
    a=1.0, a_star=0.0, m1_star=0.0, m2_star=0.0,
    covariates=(), topology=Topology.SEQUENTIAL,
)


def test_true_tables_reproduce_enumeration():
    rng = np.random.default_rng(100)
    for _ in range(50):
        scm = random_binary_scm(rng)
        t = ProbTables.from_binary_scm(scm)
        got = decompose_empirical_sequential(t, CFG)
        want = enumerate_binary_components(scm, CFG)
        for name, value in want.components.items():
            assert got.component(name) == pytest.approx(value, abs=1e-12), name
        for name, value in want.aggregates.items():
            assert got.aggregates[name] == pytest.approx(value, abs=1e-12), name


def test_exposure_additive_outcome_leaves_only_cde():
    # dyadic probabilities and integer cell means keep everything exact:
    # mediator laws ignore exposure and the outcome mean is f(m1, m2) + 2a,
    # so every sum but the direct contrast cancels term by term
    t = ProbTables(
        pr_m1={
            (a, m1, ()): (0.25 if m1 == 1.0 else 0.75)
            for a in (0.0, 1.0) for m1 in (0.0, 1.0)
        },
        pr_m2={
            (a, m1, m2, ()): (0.5 if m2 == 1.0 else 0.5)
            for a in (0.0, 1.0) for m1 in (0.0, 1.0) for m2 in (0.0, 1.0)
        },
        p_y={
            (a, m1, m2, ()): 2.0 * a + 3.0 * m1 * m2 - m1 + 4.0 * m2
            for a in (0.0, 1.0) for m1 in (0.0, 1.0) for m2 in (0.0, 1.0)
        },
        support_a=(0.0, 1.0),
        support_m1=(0.0, 1.0),
        support_m2=(0.0, 1.0),
    )
    cs = decompose_empirical_sequential(t, CFG)
    assert cs.component("CDE") == 2.0
    for name, value in cs.components.items():
        if name != "CDE":
            assert value == 0.0, name
    assert cs.aggregates["TE"] == 2.0


def test_eight_row_dataset_runs_and_decomposes():
    # one row per (a, m1, m2) cell with Y = A: the tables are exact, the
    # mediator laws come out exposure-free, and only the direct effect remains
    rows = [(a, m1, m2) for a in (0, 1) for m1 in (0, 1) for m2 in (0, 1)]
    d = Dataset(
        a=np.array([r[0] for r in rows], dtype=float),
        m1=np.array([r[1] for r in rows], dtype=float),
        m2=np.array([r[2] for r in rows], dtype=float),
        y=np.array([r[0] for r in rows], dtype=float),
    )
    t = estimate_tables(d, CFG)
    cs = decompose_empirical_sequential(t, CFG)
    assert cs.component("CDE") == 1.0
    assert cs.aggregates["TE"] == 1.0
    for name, value in cs.components.items():
        if name != "CDE":
            assert value == 0.0, name


def test_estimated_tables_converge_to_truth():
    rng = np.random.default_rng(321)
    scm = random_binary_scm(rng)
    n = 1_000_000
    a = rng.integers(0, 2, n)
    p1 = np.where(a == 1, scm.p_m1_given_a[1], scm.p_m1_given_a[0])
    m1 = (rng.random(n) < p1).astype(int)
    p2 = np.empty(n)
    for (x, v), p in scm.p_m2_given_a_m1.items():
        p2[(a == x) & (m1 == v)] = p
    m2 = (rng.random(n) < p2).astype(int)
    ey = np.empty(n)
    for (x, v, u), val in scm.e_y_given_a_m1_m2.items():
        ey[(a == x) & (m1 == v) & (m2 == u)] = val
    y = ey + rng.normal(0.0, 0.5, n)
    d = Dataset(a=a.astype(float), m1=m1.astype(float),
                m2=m2.astype(float), y=y)
    got = decompose_empirical_sequential(estimate_tables(d, CFG), CFG)
    want = enumerate_binary_components(scm, CFG)
    for name, value in want.components.items():
        assert got.component(name) == pytest.approx(value, abs=0.01), name


def _three_level_tables(seed, order1, order2):
    rng = np.random.default_rng(seed)
    levels = (0.0, 1.0, 2.0)
    pr1 = {}
    for a in (0.0, 1.0):
        p = rng.dirichlet(np.ones(3))
        for m1, v in zip(levels, p):
            pr1[(a, m1, ())] = float(v)
    pr2 = {}
    py = {}
    for a in (0.0, 1.0):
        for m1 in levels:
            p = rng.dirichlet(np.ones(3))
            for m2, v in zip(levels, p):
                pr2[(a, m1, m2, ())] = float(v)
                py[(a, m1, m2, ())] = float(rng.normal(0.0, 2.0))
    return ProbTables(
        pr_m1=pr1, pr_m2=pr2, p_y=py,
        support_a=(0.0, 1.0),
        support_m1=tuple(order1),
        support_m2=tuple(order2),
    )


def test_summation_order_robustness():
    base = _three_level_tables(9, (0.0, 1.0, 2.0), (0.0, 1.0, 2.0))
    shuffled = ProbTables(
        pr_m1=base.pr_m1, pr_m2=base.pr_m2, p_y=base.p_y,
        support_a=base.support_a,
        support_m1=(2.0, 0.0, 1.0),
        support_m2=(1.0, 2.0, 0.0),
    )
    one = decompose_empirical_sequential(base, CFG)
    two = decompose_empirical_sequential(shuffled, CFG)
    for name, value in one.components.items():
        assert two.component(name) == pytest.approx(value, abs=1e-12), name
    for name, value in one.aggregates.items():
        assert two.aggregates[name] == pytest.approx(value, abs=1e-12), name


def test_missing_needed_cell_raises_and_names_it():
    scm = random_binary_scm(np.random.default_rng(42))
    t = ProbTables.from_binary_scm(scm)
    del t.p_y[(1.0, 1.0, 0.0, ())]
    with pytest.raises(EstimationError) as err:
        decompose_empirical_sequential(t, CFG)
    assert "E[Y | A=1, M1=1, M2=0" in str(err.value)


def test_missing_zero_weight_cells_tolerated():
    # M1 is degenerate at 0 under both exposures, so every m1=1 cell carries
    # zero weight; dropping their outcome means must not matter
    scm = BinaryScm(
        p_m1_given_a={0: 0.0, 1: 0.0},
        p_m2_given_a_m1={(a, m): 0.3 + 0.4 * a for a in (0, 1) for m in (0, 1)},
        e_y_given_a_m1_m2={
            (a, m, v): float(a + 2 * v - a * v)
            for a in (0, 1) for m in (0, 1) for v in (0, 1)
        },
    )
    t = ProbTables.from_binary_scm(scm)
    for key in [k for k in t.p_y if k[1] == 1.0]:
        del t.p_y[key]
    got = decompose_empirical_sequential(t, CFG)
    want = enumerate_binary_components(scm, CFG)
    for name, value in want.components.items():
        assert got.component(name) == pytest.approx(value, abs=1e-12), name


def test_probability_sum_violation_rejected():
    with pytest.raises(EstimationError):
        ProbTables(
            pr_m1={(0.0, 0.0, ()): 0.5, (0.0, 1.0, ()): 0.4},
            pr_m2={},
            p_y={},
            support_a=(0.0,),
            support_m1=(0.0, 1.0),
            support_m2=(),
        )


def test_reference_levels_must_sit_in_support():
    t = ProbTables.from_binary_scm(random_binary_scm(np.random.default_rng(1)))
    off_support = ReferenceConfig(
        a=2.0, a_star=0.0, m1_star=0.0, m2_star=0.0,
        covariates=(), topology=Topology.SEQUENTIAL,
    )
    with pytest.raises(ConfigError):
        decompose_empirical_sequential(t, off_support)
    missing_stratum = ReferenceConfig(
        a=1.0, a_star=0.0, m1_star=0.0, m2_star=0.0,
        covariates=(5.0,), topology=Topology.SEQUENTIAL,
    )
    with pytest.raises(ConfigError):
        decompose_empirical_sequential(t, missing_stratum)
    wrong_topology = ReferenceConfig(
        a=1.0, a_star=0.0, m1_star=0.0, m2_star=0.0,
        covariates=(), topology=Topology.NONSEQUENTIAL,
    )
    with pytest.raises(ConfigError):
        decompose_empirical_sequential(t, wrong_topology)


def test_strata_are_independent_analyses():
    rng = np.random.default_rng(77)
    scm_a = random_binary_scm(rng)
    scm_b = random_binary_scm(rng)
    merged = {"pr_m1": {}, "pr_m2": {}, "p_y": {}}
    for stratum, scm in (((0.0,), scm_a), ((1.0,), scm_b)):
        t = ProbTables.from_binary_scm(scm)
        for (a, m1, _), p in t.pr_m1.items():
            merged["pr_m1"][(a, m1, stratum)] = p
        for (a, m1, m2, _), p in t.pr_m2.items():
            merged["pr_m2"][(a, m1, m2, stratum)] = p
        for (a, m1, m2, _), v in t.p_y.items():
            merged["p_y"][(a, m1, m2, stratum)] = v
    both = ProbTables(
        pr_m1=merged["pr_m1"], pr_m2=merged["pr_m2"], p_y=merged["p_y"],
        support_a=(0.0, 1.0), support_m1=(0.0, 1.0), support_m2=(0.0, 1.0),
        strata=((0.0,), (1.0,)),
    )
    for stratum, scm in (((0.0,), scm_a), ((1.0,), scm_b)):
        cfg = ReferenceConfig(
            a=1.0, a_star=0.0, m1_star=0.0, m2_star=0.0,
            covariates=stratum, topology=Topology.SEQUENTIAL,
        )
        got = decompose_empirical_sequential(both, cfg)
        want = enumerate_binary_components(scm, CFG)
        for name, value in want.components.items():
            assert got.component(name) == pytest.approx(value, abs=1e-12), name


def test_estimate_tables_counts_match_hand_tally():
    # all eight cells once, plus duplicates of (1,1,1) and (0,0,0)
    rows = [
        (0, 0, 0, 1.0), (0, 0, 1, 2.0), (0, 1, 0, 3.0), (0, 1, 1, 4.0),
        (1, 0, 0, 5.0), (1, 0, 1, 6.0), (1, 1, 0, 7.0), (1, 1, 1, 8.0),
        (1, 1, 1, 10.0), (0, 0, 0, 3.0),
    ]
    d = Dataset(
        a=np.array([r[0] for r in rows], dtype=float),
        m1=np.array([r[1] for r in rows], dtype=float),
        m2=np.array([r[2] for r in rows], dtype=float),
        y=np.array([r[3] for r in rows]),
    )
    t = estimate_tables(d, CFG)
    # exposure 0: five rows, two with m1=1
    assert t.pr_m1[(0.0, 1.0, ())] == 0.4
    # exposure 1, m1=1: three rows, two with m2=1
    assert t.pr_m2[(1.0, 1.0, 1.0, ())] == pytest.approx(2 / 3)
    # duplicated cells average their outcomes
    assert t.p_y[(1.0, 1.0, 1.0, ())] == 9.0
    assert t.p_y[(0.0, 0.0, 0.0, ())] == 2.0


# table levels, negative and non-integer ones included
_LEVELS = (-2.5, -1.0, -0.3, 0.0, 0.7, 1.0, 3.25)
_TABLE_FIELDS = ("pr_m1", "pr_m2", "p_y", "support_a", "support_m1",
                 "support_m2", "strata")


@st.composite
def _resampled_dataset(draw):
    """A small categorical dataset holding every (a, m1, m2) cell of the
    reference stratum, plus resample indices. Half the resamples keep every
    row; the others draw with replacement and may lose any reference level."""
    k = draw(st.integers(0, 2))
    levels = [
        draw(st.lists(st.sampled_from(_LEVELS), min_size=2, max_size=4, unique=True))
        for _ in range(3 + k)
    ]
    stratum = tuple(draw(st.sampled_from(lv)) for lv in levels[3:])
    rows = [cell + stratum for cell in itertools.product(*levels[:3])]
    rows += draw(st.lists(st.tuples(*map(st.sampled_from, levels)), max_size=30))
    n = len(rows)
    cols = np.array(rows).reshape(n, 3 + k).T
    y = draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n))
    d = Dataset(a=cols[0], m1=cols[1], m2=cols[2], y=np.array(y),
                covariates=cols[3:].T)
    if draw(st.booleans()):
        idx = draw(st.permutations(range(n)))
        idx += draw(st.lists(st.integers(0, n - 1), max_size=n))
    else:
        idx = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    cfg = ReferenceConfig(
        a=draw(st.sampled_from(levels[0])), a_star=draw(st.sampled_from(levels[0])),
        m1_star=draw(st.sampled_from(levels[1])),
        m2_star=draw(st.sampled_from(levels[2])),
        covariates=stratum, topology=Topology.SEQUENTIAL,
    )
    return d, np.array(idx), cfg


def _tables_or_error(estimate):
    try:
        return estimate()
    except (ConfigError, EstimationError) as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(_resampled_dataset())
def test_cell_coded_tables_equal_the_row_loop(case):
    d, idx, cfg = case
    want = _tables_or_error(lambda: loop_estimate_tables(d.take(idx), cfg))
    got = _tables_or_error(lambda: estimate_tables(d.take(idx), cfg))
    if isinstance(want, type):
        assert got is want
        return
    for name in _TABLE_FIELDS:
        assert getattr(got, name) == getattr(want, name), name


_NAMED_CELL = re.compile(
    r"no data for E\[Y \| A=(.+), M1=(.+), M2=(.+), c=\((.*)\)\]$")


def _m1_level_under_a_only():
    # m1 = 1 only under a = 1: Pr(M2 | a* = 0, m1 = 1) is a structural zero,
    # and the first missing entry is the outcome mean at (a*, 1, 0)
    rows = np.array([(1, 0, 0), (0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 0, 1)], float)
    d = Dataset(a=rows[:, 0], m1=rows[:, 1], m2=rows[:, 2], y=np.arange(5.0))
    return d, np.arange(5), CFG


@settings(max_examples=300, deadline=None)
@given(_resampled_dataset())
@example(_m1_level_under_a_only())
def test_a_coverage_error_names_a_cell_the_row_tally_lacks(case):
    """tables() names the first missing cell in the walk order of
    _require_covered, which can differ from the dict walk's first. The cell
    it names is one the resample has no rows for, and the dict walk rejects
    the tables too."""
    d, idx, cfg = case
    try:
        estimate_tables(d.take(idx), cfg)
        return
    except ConfigError:
        return
    except EstimationError as exc:
        named = _NAMED_CELL.match(str(exc))
    assert named, "a count grid lacks only outcome means"
    *cell, stratum = named.groups()
    key = (*map(float, cell), tuple(float(v) for v in stratum.split(",") if v))
    t = loop_tally_tables(d.take(idx))
    assert key[1] in t.support_m1 and key[2] in t.support_m2
    assert key not in t.p_y
    with pytest.raises(EstimationError):
        _check_coverage(t, cfg)


def test_every_grid_route_decides_coverage_with_one_mask(monkeypatch):
    """decompose_empirical_sequential and decompose_counts decide coverage
    with _uncovered; tables() walks the cells and builds no grid."""
    calls, grids = [], []
    uncovered, grid = twomed.empirical._uncovered, CellCoder._grid

    def counted(g):
        calls.append(g.p1.shape[0])
        return uncovered(g)

    monkeypatch.setattr(twomed.empirical, "_uncovered", counted)
    monkeypatch.setattr(CellCoder, "_grid",
                        lambda self, *args: grids.append(1) or grid(self, *args))
    d = _two_strata_dataset()
    cfg = ReferenceConfig(
        a=1.0, a_star=0.0, m1_star=0.3, m2_star=2.5,
        covariates=(2.0,), topology=Topology.SEQUENTIAL,
    )
    coder = CellCoder(d)
    t = coder.tables(cfg)
    assert calls == grids == []
    decompose_empirical_sequential(t, cfg)
    assert calls == [1]
    n, y_sum = coder.counts()
    coder.decompose_counts(cfg, np.stack([n, n]), np.stack([y_sum, y_sum]))
    assert calls == [1, 2] and grids == [1]


@settings(max_examples=300, deadline=None)
@given(_resampled_dataset())
@example(_m1_level_under_a_only())
def test_the_cell_walk_names_what_the_grid_walk_names(case):
    """tables() walks the cells alone. On the resample's count grid, the grid
    walk passes or fails with the resampled rows' tables and names the same
    entry."""
    d, idx, cfg = case
    coder = CellCoder(d)
    try:
        estimate_tables(d.take(idx), cfg)
        want = None
    except ConfigError:
        return
    except EstimationError as exc:
        want = str(exc)
    n, y_sum = coder.counts(idx)
    levels = twomed.empirical._cfg_levels(cfg, *coder.levels)
    try:
        twomed.empirical._require_covered(
            coder._grid(levels, n[None], y_sum[None]), levels)
        got = None
    except EstimationError as exc:
        got = str(exc)
    assert got == want


def _two_strata_dataset():
    # every (a, m1, m2) cell once in each of two strata, outcomes non-dyadic
    rows = [(a, m1, m2, c) for c in (-0.5, 2.0) for a in (0.0, 1.0)
            for m1 in (-1.0, 0.3) for m2 in (0.0, 2.5)]
    cols = np.array(rows).T
    return Dataset(a=cols[0], m1=cols[1], m2=cols[2],
                   y=0.1 * np.arange(len(rows)) - 0.7,
                   covariates=cols[3][:, None])


@pytest.mark.parametrize("lost, column, level", [
    ("exposure", 0, 1.0), ("m1 reference", 1, 0.3),
    ("m2 reference", 2, 2.5), ("stratum", 3, 2.0),
])
def test_a_resample_that_loses_a_reference_fails_like_the_row_loop(
    lost, column, level
):
    d = _two_strata_dataset()
    cfg = ReferenceConfig(
        a=1.0, a_star=0.0, m1_star=0.3, m2_star=2.5,
        covariates=(2.0,), topology=Topology.SEQUENTIAL,
    )
    table = np.column_stack([d.a, d.m1, d.m2, d.covariates[:, 0]])
    idx = np.flatnonzero(table[:, column] != level)
    idx = np.concatenate([idx, idx[: d.n - len(idx)]])
    with pytest.raises(ConfigError, match=lost) as want:
        loop_estimate_tables(d.take(idx), cfg)
    with pytest.raises(ConfigError) as got:
        estimate_tables(d.take(idx), cfg)
    assert str(got.value) == str(want.value)
    # the full data holds every level, and both estimators agree on it
    assert estimate_tables(d, cfg) == loop_estimate_tables(d, cfg)


def test_continuous_mediators_fail_the_coverage_walk_without_the_zero_fill():
    # every row its own level and stratum, except three rows sharing the
    # reference stratum; the walk passes the reference cells and hundreds of
    # structural zeros, then finds (a=1, m1 of row 2, m2 reference) empty
    rng = np.random.default_rng(21)
    n = 600
    a = rng.integers(0, 2, n).astype(float)
    m1, m2, y = rng.normal(size=(3, n))
    c = rng.normal(size=(n, 2))
    c[1] = c[2] = c[0]
    a[:3] = (1.0, 0.0, 0.0)
    m1[1] = m1[0]
    m2[1] = m2[2] = m2[0]
    d = Dataset(a=a, m1=m1, m2=m2, y=y, covariates=c)
    cfg = ReferenceConfig(
        a=1.0, a_star=0.0, m1_star=float(m1[0]), m2_star=float(m2[0]),
        covariates=tuple(c[0].tolist()), topology=Topology.SEQUENTIAL,
    )
    with pytest.raises(EstimationError, match=r"E\[Y \| A=1,") as want:
        loop_estimate_tables(d, cfg)
    tracemalloc.start()
    try:
        with pytest.raises(EstimationError) as got:
            estimate_tables(d, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(got.value) == str(want.value)
    assert peak < 5 * 2**20, peak / 2**20


def test_continuous_mediators_in_one_stratum_fail_without_the_grid():
    # no covariates: the stratum's grid would be (2, n, n); the reference
    # cells are held, and the first m1 level held under a* lacks (a, m2*)
    rng = np.random.default_rng(22)
    n = 2000
    a = rng.integers(0, 2, n).astype(float)
    m1, m2, y = rng.normal(size=(3, n))
    a[:3] = (1.0, 0.0, 0.0)
    m1[0] = m1[1] = m1.min() - 1.0
    m1[2] = m1[0] + 0.5
    m2[1] = m2[0]
    d = Dataset(a=a, m1=m1, m2=m2, y=y)
    cfg = ReferenceConfig(
        a=1.0, a_star=0.0, m1_star=float(m1[0]), m2_star=float(m2[0]),
        covariates=(), topology=Topology.SEQUENTIAL,
    )
    tracemalloc.start()
    try:
        with pytest.raises(EstimationError) as got:
            estimate_tables(d, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(got.value) == (
        f"no data for E[Y | A=1, M1={float(m1[2])!r}, M2={float(m2[0])!r}, c=()]")
    assert peak < 5 * 2**20, peak / 2**20


_TOPOLOGIES = st.sampled_from([Topology.SEQUENTIAL] * 7 + [Topology.NONSEQUENTIAL])


@settings(max_examples=300, deadline=None)
@given(_resampled_dataset(), _TOPOLOGIES, st.data())
def test_table_engine_matches_the_written_out_sums(case, topology, data):
    """On estimated tables, and on tables a user has stripped of cells, the
    engine gives the written-out sums' values, or their error."""
    d, idx, cfg = case
    try:
        t = loop_estimate_tables(d.take(idx), cfg)
    except (ConfigError, EstimationError):
        return
    keys = [(name, key) for name in ("pr_m1", "pr_m2", "p_y")
            for key in sorted(getattr(t, name))]
    for name, key in data.draw(st.lists(st.sampled_from(keys), max_size=3)):
        getattr(t, name).pop(key, None)
    cfg = dataclasses.replace(cfg, topology=topology)
    assert_same_outcome(
        outcome(lambda: decompose_empirical_sequential(t, cfg)),
        outcome(lambda: loop_decompose_empirical_sequential(t, cfg)),
        float(np.abs(d.y).max()),
    )


@settings(max_examples=200, deadline=None)
@given(_resampled_dataset(), st.integers(0, 5), st.integers(0, 2**32 - 1))
def test_batched_replicates_equal_their_one_replicate_decompositions(
    case, extra, seed
):
    """Decomposing resamples' counts together gives each one's values bit for
    bit, the values its tables give, and the failures its tables raise."""
    d, idx, cfg = case
    rng = np.random.default_rng(seed)
    resamples = [idx] + [rng.integers(0, d.n, d.n) for _ in range(extra)]
    coder = CellCoder(d)
    n, y_sum = (np.array(c, dtype=float)
                for c in zip(*(coder.counts(i) for i in resamples)))
    values, failed = coder.decompose_counts(cfg, n, y_sum)
    for r, i in enumerate(resamples):
        one, one_failed = coder.decompose_counts(cfg, n[r:r + 1], y_sum[r:r + 1])
        assert one_failed[0] == failed[r]
        for name, value in one.items():
            assert value.tobytes() == values[name][r:r + 1].tobytes(), name
        want = outcome(lambda: decompose_empirical_sequential(
            estimate_tables(d.take(i), cfg), cfg))
        assert failed[r] == isinstance(want, tuple)
        if not failed[r]:
            assert {k: v[r] for k, v in values.items()} == want


@st.composite
def _cells_and_references(draw):
    """Rows over a few strata, with exposure and reference levels drawn from
    the whole support: the stratum cfg names often lacks a reference level,
    or holds it under neither exposure."""
    levels = [
        draw(st.lists(st.sampled_from(_LEVELS), min_size=1, max_size=4, unique=True))
        for _ in range(4)
    ]
    rows = draw(st.lists(st.tuples(*map(st.sampled_from, levels)),
                         min_size=1, max_size=25))
    cols = np.array(rows).T
    y = draw(st.lists(st.floats(-1e3, 1e3), min_size=len(rows), max_size=len(rows)))
    d = Dataset(a=cols[0], m1=cols[1], m2=cols[2], y=np.array(y),
                covariates=cols[3:].T)
    a, s, m1, m2, c = (draw(st.sampled_from(sorted(set(cols[i].tolist()))))
                       for i in (0, 0, 1, 2, 3))
    return d, ReferenceConfig(a=a, a_star=s, m1_star=m1, m2_star=m2,
                              covariates=(c,), topology=Topology.SEQUENTIAL)


def _union_axes(cells, stratum, exposures, m1_ref, m2_ref):
    """_grid_axes by numpy's set routines."""
    mine = (cells[:, 3] == stratum) & np.isin(cells[:, 0], exposures)
    return (mine, np.union1d(cells[mine, 1], m1_ref),
            np.union1d(cells[mine, 2], m2_ref))


def _reference_off_the_stratum():
    # m1 = 1.0 and m2 = 3.25 occur only in stratum c = 0.7, not in c = -1.0
    rows = np.array([(0, 0, 0, -1), (1, 0, 0, -1), (1, 1, 3.25, 0.7)])
    d = Dataset(a=rows[:, 0], m1=rows[:, 1], m2=rows[:, 2], y=np.arange(3.0),
                covariates=rows[:, 3:])
    return d, ReferenceConfig(a=1.0, a_star=0.0, m1_star=1.0, m2_star=3.25,
                              covariates=(-1.0,), topology=Topology.SEQUENTIAL)


@settings(max_examples=300, deadline=None)
@given(_cells_and_references(), st.integers(0, 2**32 - 1))
@example(_reference_off_the_stratum(), 0)
def test_grid_axes_equal_numpys_set_routines(case, seed):
    """The grid's cell mask and level axes, built with equality tests and
    sets, are np.isin's and np.union1d's in values and dtype, and the
    decomposition from them has the same bits."""
    d, cfg = case
    coder = CellCoder(d)
    a_lv, m1_lv, m2_lv, c_lv = coder.levels
    args = (coder.cells, c_lv.index(cfg.covariates),
            [a_lv.index(cfg.a), a_lv.index(cfg.a_star)],
            m1_lv.index(cfg.m1_star), m2_lv.index(cfg.m2_star))
    for got, want in zip(twomed.empirical._grid_axes(*args), _union_axes(*args)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    rng = np.random.default_rng(seed)
    resamples = [None] + [rng.integers(0, d.n, d.n) for _ in range(3)]
    n, y_sum = (np.array(c, dtype=float)
                for c in zip(*(coder.counts(i) for i in resamples)))
    got = coder.decompose_counts(cfg, n, y_sum)
    with mock.patch.object(twomed.empirical, "_grid_axes", _union_axes):
        want = coder.decompose_counts(cfg, n, y_sum)
    assert got[1].tolist() == want[1].tolist()
    assert list(got[0]) == list(want[0])
    for name, value in got[0].items():
        assert value.tobytes() == want[0][name].tobytes(), name


def test_an_overflowing_decomposition_fails_its_identities():
    """Finite cell means whose contrasts overflow: the batch flags the
    replicate, and the one-replicate route raises EstimationError."""
    rows = [(a, m1, m2) for a in (0.0, 1.0) for m1 in (0.0, 1.0) for m2 in (0.0, 1.0)]
    cols = np.array(rows).T
    d = Dataset(a=cols[0], m1=cols[1], m2=cols[2], y=1.5e308 * (2.0 * cols[0] - 1.0))
    coder = CellCoder(d)
    n, y_sum = coder.counts()
    values, failed = coder.decompose_counts(CFG, n[None], y_sum[None])
    assert failed.tolist() == [True]
    with pytest.raises(EstimationError, match="identity violated"):
        decompose_empirical_sequential(coder.tables(CFG), CFG)
