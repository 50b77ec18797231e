"""Percentile-bootstrap behavior: determinism, seeding contract, failure policy."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import twomed.bootstrap
import twomed.regression
from conftest import (
    count_factorizations,
    count_linalg_calls,
    loop_estimate_tables,
    make_linear_dataset,
    random_linear_scm,
    random_reference,
    scaled_covariate_dataset,
)
from twomed import (
    ConfigError,
    Dataset,
    EstimationError,
    InferenceError,
    ReferenceConfig,
    Topology,
    bootstrap_decomposition,
    decompose_closed_form,
    decompose_empirical_sequential,
    estimate_tables,
    fit_all,
)
from twomed.core import value_names
from twomed.regression import CountWeightedFit


def _noisy_dataset(seed=0, n=400):
    rng = np.random.default_rng(seed)
    scm = random_linear_scm(rng)
    d = make_linear_dataset(scm, n, seed=seed + 1)
    return Dataset(
        a=d["a"], m1=d["m1"], m2=d["m2"], y=d["y"], covariates=d["covariates"]
    ), scm


CFG = ReferenceConfig(
    a=1.0, a_star=0.0, m1_star=0.0, m2_star=0.0,
    covariates=(0.0, 0.0), topology=Topology.SEQUENTIAL,
)


def test_parameter_validation():
    d, _ = _noisy_dataset()
    with pytest.raises(ConfigError):
        bootstrap_decomposition(d, CFG, B=99)
    with pytest.raises(ConfigError):
        bootstrap_decomposition(d, CFG, B=100, level=1.0)
    with pytest.raises(ConfigError):
        bootstrap_decomposition(d, CFG, B=100, level=0.0)
    with pytest.raises(ConfigError):
        bootstrap_decomposition(d, CFG, B=100, seed=-1)
    with pytest.raises(ConfigError):
        bootstrap_decomposition(d, CFG, B=100, estimator="ridge")


@pytest.mark.parametrize("estimator", twomed.bootstrap.ESTIMATORS)
def test_B_above_a_million_fails_before_any_replicate_is_drawn(monkeypatch, estimator):
    """B is capped at 1,000,000: a larger B is a configuration error raised
    before the first resample; the cap itself passes validation."""
    class Drawn(Exception):
        pass

    def drawn(*args):
        raise Drawn

    monkeypatch.setattr(twomed.bootstrap, "_resample_indices", drawn)
    rng = np.random.default_rng(2)
    a, m1, m2 = rng.integers(0, 2, (3, 200)).astype(float)
    d = Dataset(a=a, m1=m1, m2=m2, y=a + m1 + m2 + rng.normal(0.0, 1.0, 200))
    cfg = ReferenceConfig(a=1.0, a_star=0.0, m1_star=0.0, m2_star=0.0,
                          covariates=(), topology=Topology.SEQUENTIAL)
    with pytest.raises(ConfigError, match="B <= 1000000"):
        bootstrap_decomposition(d, cfg, B=1_000_001, estimator=estimator)
    with pytest.raises(Drawn):
        bootstrap_decomposition(d, cfg, B=1_000_000, estimator=estimator)


def test_bitwise_determinism():
    d, _ = _noisy_dataset(3)
    one = bootstrap_decomposition(d, CFG, B=100, seed=11)
    two = bootstrap_decomposition(d, CFG, B=100, seed=11)
    assert one.lower == two.lower
    assert one.upper == two.upper
    for name, value in one.point.components.items():
        assert two.point.component(name) == value
    # a different seed must actually change the resamples
    three = bootstrap_decomposition(d, CFG, B=100, seed=12)
    assert three.lower != one.lower


def test_point_estimate_is_the_full_data_fit():
    d, _ = _noisy_dataset(4)
    r = bootstrap_decomposition(d, CFG, B=100, seed=0)
    direct = decompose_closed_form(fit_all(d, CFG.topology).coefficients, CFG)
    for name, value in direct.components.items():
        assert r.point.component(name) == value, name


def test_replicates_follow_the_seeding_contract(monkeypatch):
    """Replicate b draws its indices from a generator seeded with (seed, b).

    A zero condition limit sends every replicate down the reference route,
    fit_all on the copied rows, which this loop repeats bit for bit.
    """
    monkeypatch.setattr(twomed.regression, "_COND_LIMIT", 0.0)
    d, _ = _noisy_dataset(5, n=80)
    seed, B = 21, 100
    r = bootstrap_decomposition(d, CFG, B=B, seed=seed)
    draws = []
    for b in range(B):
        rng = np.random.default_rng([seed, b])
        idx = rng.integers(0, d.n, size=d.n)
        fit = fit_all(d.take(idx), CFG.topology)
        draws.append(decompose_closed_form(fit.coefficients, CFG).aggregates["TE"])
    vals = np.asarray(draws)
    assert r.lower["TE"] == float(np.quantile(vals, (1.0 - 0.95) / 2.0))
    assert r.upper["TE"] == float(np.quantile(vals, (1.0 + 0.95) / 2.0))
    assert r.failed_replicates == 0


def test_interval_width_shrinks_with_sample_size():
    """Percentile widths behave like a 1/sqrt(n) statistic.

    Sixteen times the data should cut the TE interval width by roughly four;
    requiring better than half leaves generous slack for resampling noise.
    """
    rng = np.random.default_rng(6)
    scm = random_linear_scm(rng)

    def width_at(n):
        arrays = make_linear_dataset(scm, n, seed=7)
        d = Dataset(
            a=arrays["a"], m1=arrays["m1"], m2=arrays["m2"], y=arrays["y"],
            covariates=arrays["covariates"],
        )
        r = bootstrap_decomposition(d, CFG, B=100, seed=1)
        return r.upper["TE"] - r.lower["TE"]

    assert width_at(2400) < 0.5 * width_at(150)


def test_interval_orientation_and_coverage_of_point():
    d, _ = _noisy_dataset(8)
    r = bootstrap_decomposition(d, CFG, B=200, seed=2)
    for name in r.lower:
        assert r.lower[name] <= r.upper[name], name
    # smooth estimator, healthy n: the full-data point sits inside its interval
    assert r.lower["TE"] <= r.point.aggregates["TE"] <= r.upper["TE"]


def _dataset_with_rare_rows(n, rare, seed):
    """A covariate column that is nonzero on exactly `rare` rows.

    A resample that misses all of them has an all-zero column, which the OLS
    layer rejects as degenerate; that replicate then counts as failed.
    """
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, n).astype(float)
    flag = np.zeros(n)
    flag[:rare] = 1.0
    m1 = 0.5 * a + 0.3 * flag + rng.normal(0.0, 1.0, n)
    m2 = 0.4 * a + 0.2 * m1 + rng.normal(0.0, 1.0, n)
    y = a + m1 + m2 + flag + rng.normal(0.0, 1.0, n)
    return Dataset(a=a, m1=m1, m2=m2, y=y,
                   covariates=flag[:, None], covariate_names=("flag",))


RARE_CFG = ReferenceConfig(
    a=1.0, a_star=0.0, m1_star=0.0, m2_star=0.0,
    covariates=(0.0,), topology=Topology.SEQUENTIAL,
)


def test_occasional_failed_replicates_are_counted_not_fatal():
    # about e^-4 of resamples miss all four flagged rows
    d = _dataset_with_rare_rows(n=200, rare=4, seed=9)
    r = bootstrap_decomposition(d, RARE_CFG, B=200, seed=5)
    assert 0 < r.failed_replicates <= 10
    assert r.replicates == 200


def test_excessive_failures_raise_inference_error():
    # a single flagged row is missing from about 37% of resamples
    d = _dataset_with_rare_rows(n=200, rare=1, seed=10)
    with pytest.raises(InferenceError):
        bootstrap_decomposition(d, RARE_CFG, B=100, seed=6)


def test_empirical_estimator_path():
    rng = np.random.default_rng(11)
    n = 500
    a = rng.integers(0, 2, n).astype(float)
    m1 = (rng.random(n) < 0.3 + 0.4 * a).astype(float)
    m2 = (rng.random(n) < 0.2 + 0.3 * m1).astype(float)
    y = a + m1 + m2 + rng.normal(0.0, 0.5, n)
    d = Dataset(a=a, m1=m1, m2=m2, y=y)
    cfg = ReferenceConfig(
        a=1.0, a_star=0.0, m1_star=0.0, m2_star=0.0,
        covariates=(), topology=Topology.SEQUENTIAL,
    )
    r = bootstrap_decomposition(
        d, cfg, B=100, seed=7, estimator="empirical-categorical"
    )
    assert r.failed_replicates <= 5
    assert r.lower["TE"] < r.upper["TE"]


def _dataset_with_rare_reference_level(n=400, per_cell=5, seed=0):
    """Binary data plus a third m1 level, 2, on per_cell rows of each (a, m2)
    cell. With m1* = 2, a resample that misses one of those small cells lacks
    an outcome mean the decomposition needs, so a few replicates fail."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, n).astype(float)
    m1 = rng.integers(0, 2, n).astype(float)
    m2 = rng.integers(0, 2, n).astype(float)
    rare = 4 * per_cell
    a[:rare] = np.repeat([0.0, 0.0, 1.0, 1.0], per_cell)
    m2[:rare] = np.repeat([0.0, 1.0, 0.0, 1.0], per_cell)
    m1[:rare] = 2.0
    y = a + m1 + m2 + rng.normal(0.0, 1.0, n)
    return Dataset(a=a, m1=m1, m2=m2, y=y)


def test_empirical_bootstrap_equals_the_per_replicate_loop(monkeypatch):
    """The cell-coded replicates give exactly what refitting the row-by-row
    table tally on each copied resample gives, failures included, and copy
    no rows."""
    d = _dataset_with_rare_reference_level()
    cfg = ReferenceConfig(
        a=1.0, a_star=0.0, m1_star=2.0, m2_star=0.0,
        covariates=(), topology=Topology.SEQUENTIAL,
    )
    seed, B = 0, 200
    taken = []
    take = Dataset.take
    monkeypatch.setattr(
        Dataset, "take", lambda ds, idx: taken.append(idx) or take(ds, idx)
    )
    r = bootstrap_decomposition(
        d, cfg, B=B, seed=seed, estimator="empirical-categorical"
    )
    assert taken == []

    draws = {name: [] for name in r.lower}
    failed = 0
    for b in range(B):
        idx = np.random.default_rng([seed, b]).integers(0, d.n, size=d.n)
        try:
            cs = decompose_empirical_sequential(
                loop_estimate_tables(d.take(idx), cfg), cfg
            )
        except (ConfigError, EstimationError):
            failed += 1
            continue
        for name in draws:
            draws[name].append(
                cs.aggregates[name] if name in cs.aggregates else cs.component(name)
            )
    assert 0 < failed <= 0.05 * B
    assert r.failed_replicates == failed
    assert r.point == decompose_empirical_sequential(
        loop_estimate_tables(d, cfg), cfg
    )
    for name, vals in draws.items():
        assert r.lower[name] == float(np.quantile(vals, (1.0 - 0.95) / 2.0)), name
        assert r.upper[name] == float(np.quantile(vals, (1.0 + 0.95) / 2.0)), name


@st.composite
def _multi_stratum_dataset(draw):
    """Categorical data over two to four strata. The reference stratum holds
    every cell under a and a* of its own m1 and m2 levels, a dozen rows or
    more each, so no replicate is likely to lose one; the other strata hold
    any cells, over levels the reference stratum may lack, which the tables'
    supports then hold and the count grid does not. Cell means include
    exact and signed zeros and values whose products underflow."""
    levels = [sorted(draw(st.lists(st.sampled_from((-1.0, 0.0, 0.5, 1.0, 2.0)),
                                   min_size=2, max_size=3, unique=True)))
              for _ in range(3)]
    k = draw(st.integers(1, 2))
    strata = list(itertools.product((0.0, 1.0), repeat=k))
    stratum = draw(st.sampled_from(strata))
    a, a_star = draw(st.sampled_from(levels[0])), draw(st.sampled_from(levels[0]))
    held = [sorted(draw(st.sets(st.sampled_from(lv), min_size=1))) for lv in levels[1:]]
    m1_star, m2_star = draw(st.sampled_from(held[0])), draw(st.sampled_from(held[1]))
    reference = [(x, i, j, *stratum)
                 for x, i, j in itertools.product(sorted({a, a_star}), *held)]
    strata.remove(stratum)
    others = draw(st.lists(st.tuples(*map(st.sampled_from, levels),
                                     st.sampled_from(strata)), max_size=20))
    cells = reference * draw(st.integers(12, 16)) + [
        (x, i, j, *c) for x, i, j, c in others]
    cols = np.array(cells).T
    values = st.sampled_from((0.0, -0.0, 1.5, -2.25, 1e-300, -1e-300, 5e-324, -5e-324))
    # a mean per cell, or one per exposure, so that all of a world's products
    # may underflow
    if draw(st.booleans()):
        means = [draw(values) for _ in reference]
    else:
        by_exposure = {x: draw(values) for x in (a, a_star)}
        means = [by_exposure[cell[0]] for cell in reference]
    y = np.array(means)[np.arange(len(cells)) % len(reference)]
    y += draw(st.sampled_from((0.0, 1.0))) * np.random.default_rng(
        draw(st.integers(0, 2 ** 32 - 1))).standard_normal(len(cells))
    d = Dataset(a=cols[0], m1=cols[1], m2=cols[2], y=y, covariates=cols[3:].T)
    cfg = ReferenceConfig(a=a, a_star=a_star, m1_star=m1_star, m2_star=m2_star,
                          covariates=stratum, topology=Topology.SEQUENTIAL)
    return d, cfg


def _an_m1_level_outside_the_reference_stratum(a_star, y_under_a):
    """Every (a, m1, m2) cell of stratum 0, twelve rows each, outcome y_under_a
    under a = 1 and 0 under a = 0, and one row in stratum 1 at m1 level 2,
    which the tables' support holds and stratum 0's count grid does not."""
    cells = list(itertools.product((0.0, 1.0), (0.0, 1.0), (0.0, 1.0), (0.0,))) * 12
    cols = np.array(cells + [(1.0, 2.0, 0.0, 1.0)]).T
    y = np.where(cols[0] == 1.0, y_under_a, 0.0)
    cfg = ReferenceConfig(a=1.0, a_star=a_star, m1_star=0.0, m2_star=1.0,
                          covariates=(0.0,), topology=Topology.SEQUENTIAL)
    return Dataset(a=cols[0], m1=cols[1], m2=cols[2], y=y,
                   covariates=cols[3:].T), cfg


@settings(max_examples=200, deadline=None)
@given(_multi_stratum_dataset())
# a == a*: every contrast is an exact zero
@example(_an_m1_level_outside_the_reference_stratum(1.0, -0.5))
# each term of a world under a underflows to -0.0, and the sum is +0.0
@example(_an_m1_level_outside_the_reference_stratum(0.0, -5e-324))
def test_the_empirical_point_is_the_table_decomposition_bit_for_bit(case):
    """The bootstrap decomposes the full data's counts as a one-replicate
    batch; every value, the sign of a zero included, is the one that
    decomposing the row-by-row tally's tables gives."""
    d, cfg = case
    point = bootstrap_decomposition(
        d, cfg, B=100, seed=0, estimator="empirical-categorical").point
    want = decompose_empirical_sequential(loop_estimate_tables(d, cfg), cfg)
    for name in value_names(Topology.SEQUENTIAL):
        got, value = point.value(name), want.value(name)
        assert got == value and np.signbit(got) == np.signbit(value), name


@pytest.mark.parametrize("level", [0.0, 1.0])
def test_empirical_equal_exposures_give_exact_zeros(level):
    d = _dataset_with_rare_reference_level(per_cell=8, seed=3)
    cfg = ReferenceConfig(
        a=level, a_star=level, m1_star=2.0, m2_star=1.0,
        covariates=(), topology=Topology.SEQUENTIAL,
    )
    r = bootstrap_decomposition(
        d, cfg, B=100, seed=4, estimator="empirical-categorical"
    )
    point = dict(r.point.components) | dict(r.point.aggregates)
    assert point.keys() == r.lower.keys() == r.upper.keys()
    for name in point:
        assert point[name] == r.lower[name] == r.upper[name] == 0.0, name


def test_level_changes_interval_width():
    d, _ = _noisy_dataset(12)
    wide = bootstrap_decomposition(d, CFG, B=200, seed=8, level=0.99)
    narrow = bootstrap_decomposition(d, CFG, B=200, seed=8, level=0.5)
    assert (wide.upper["TE"] - wide.lower["TE"]) > (
        narrow.upper["TE"] - narrow.lower["TE"]
    )


@pytest.mark.parametrize("topology", list(Topology))
def test_count_weighted_engine_matches_reference_refits(monkeypatch, topology):
    """The batched closed-form engine reproduces per-replicate refits.

    The rare-rows data makes some resamples rank deficient, and B is not a
    multiple of the chunk size, so failures land inside chunks and the last
    chunk is short. Agreement is to rounding, not bit for bit: the batched
    solve sums in another order than lstsq.
    """
    n, B, seed = 200, 200, 5
    d = _dataset_with_rare_rows(n=n, rare=4, seed=9)
    cfg = ReferenceConfig(
        a=1.0, a_star=0.0, m1_star=0.5, m2_star=-0.5,
        covariates=(0.0,), topology=topology,
    )
    chunk = twomed.bootstrap._chunk_size(n)
    assert B % chunk != 0
    flag = d.covariates[:, 0]
    misses = [
        b for b in range(B)
        if not flag[np.random.default_rng([seed, b]).integers(0, n, size=n)].any()
    ]
    assert any(0 < b % chunk < chunk - 1 for b in misses)

    taken = []
    take = Dataset.take
    monkeypatch.setattr(
        Dataset, "take", lambda ds, idx: taken.append(idx) or take(ds, idx)
    )
    batched = bootstrap_decomposition(d, cfg, B=B, seed=seed)
    # only the resamples that miss every flagged row leave the batched route
    assert len(taken) == len(misses)
    monkeypatch.setattr(twomed.regression, "_COND_LIMIT", 0.0)
    reference = bootstrap_decomposition(d, cfg, B=B, seed=seed)

    assert batched.failed_replicates == reference.failed_replicates == len(misses)
    assert batched.point == reference.point
    for bounds, want in ((batched.lower, reference.lower),
                         (batched.upper, reference.upper)):
        assert bounds.keys() == want.keys()
        for name, value in bounds.items():
            assert math.isclose(value, want[name], rel_tol=1e-10, abs_tol=1e-12), name


@pytest.mark.parametrize("topology", list(Topology))
def test_a_covariate_in_large_units_stays_batched(monkeypatch, topology):
    """The gate reads the rank decision's singular values, taken at unit-norm
    columns, so a covariate times 1e12 sends no replicate to the reference
    refit, and the bounds are the reference route's to rounding."""
    d = scaled_covariate_dataset(1e12)
    cfg = ReferenceConfig(
        a=1.0, a_star=0.0, m1_star=0.5, m2_star=-0.5,
        covariates=(5e11,), topology=topology,
    )
    taken = []
    take = Dataset.take
    monkeypatch.setattr(
        Dataset, "take", lambda ds, idx: taken.append(idx) or take(ds, idx)
    )
    batched = bootstrap_decomposition(d, cfg, B=100, seed=6)
    assert taken == [] and batched.failed_replicates == 0
    monkeypatch.setattr(twomed.regression, "_COND_LIMIT", 0.0)
    reference = bootstrap_decomposition(d, cfg, B=100, seed=6)
    assert len(taken) == 100 and reference.failed_replicates == 0

    assert batched.point == reference.point
    for bounds, want in ((batched.lower, reference.lower),
                         (batched.upper, reference.upper)):
        assert bounds.keys() == want.keys()
        for name, value in bounds.items():
            assert math.isclose(value, want[name], rel_tol=1e-10, abs_tol=1e-12), name


@pytest.mark.parametrize("topology", list(Topology))
def test_closed_form_bootstrap_factors_the_full_data_once(monkeypatch, topology):
    """One in-place factorization serves the point fit and the count-weighted
    refits; no replicate leaves the batched route, so nothing else is
    factored, and numpy's qr and lstsq are never called."""
    d, _ = _noisy_dataset(14)
    cfg = ReferenceConfig(
        a=1.0, a_star=0.0, m1_star=0.0, m2_star=0.0,
        covariates=(0.0, 0.0), topology=topology,
    )
    taken = []
    take = Dataset.take
    monkeypatch.setattr(
        Dataset, "take", lambda ds, idx: taken.append(idx) or take(ds, idx)
    )
    factored = count_factorizations(monkeypatch)
    calls = count_linalg_calls(monkeypatch)
    r = bootstrap_decomposition(d, cfg, B=100, seed=3)
    assert r.failed_replicates == 0 and taken == []
    assert factored == [(10, d.n)]
    assert "qr" not in calls and "lstsq" not in calls


@pytest.mark.parametrize("topology", list(Topology))
@pytest.mark.parametrize("per_chunk", [1, 256], ids=["one-per-chunk", "B-below-a-chunk"])
def test_bootstrap_does_not_depend_on_the_chunk_size(monkeypatch, topology, per_chunk):
    """One replicate per chunk, or a single chunk longer than B, gives the
    default chunking's failures and, to rounding, its bounds."""
    n, B, seed = 200, 200, 5
    d = _dataset_with_rare_rows(n=n, rare=4, seed=9)
    cfg = ReferenceConfig(
        a=1.0, a_star=0.0, m1_star=0.5, m2_star=-0.5,
        covariates=(0.0,), topology=topology,
    )
    default = bootstrap_decomposition(d, cfg, B=B, seed=seed)
    monkeypatch.setattr(twomed.bootstrap, "_CHUNK_REPLICATES", per_chunk)
    assert twomed.bootstrap._chunk_size(n) == per_chunk
    other = bootstrap_decomposition(d, cfg, B=B, seed=seed)

    assert default.failed_replicates == other.failed_replicates > 0
    assert default.point == other.point
    for bounds, want in ((other.lower, default.lower), (other.upper, default.upper)):
        assert bounds.keys() == want.keys()
        for name, value in bounds.items():
            assert math.isclose(value, want[name], rel_tol=1e-12), name


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("topology", list(Topology))
def test_exact_fit_outcome_gives_zero_sigma_not_nan(monkeypatch, topology):
    """A noiseless outcome leaves only rounding in a replicate's count-weighted
    residual sum of squares, which the update can take below zero: most often
    for a replicate the gate sends to the reference refit, whose batch values
    are computed all the same."""
    d, scm = _noisy_dataset()
    t, (a, m1, m2, c) = scm.theta, (d.a, d.m1, d.m2, d.covariates)
    y = (t[0] + t[1] * a + t[2] * m1 + t[3] * m2 + t[4] * a * m1 + t[5] * a * m2
         + t[6] * m1 * m2 + t[7] * a * m1 * m2 + c @ np.asarray(scm.theta_c))
    d = Dataset(a=a, m1=m1, m2=m2, y=y, covariates=c)
    cfg = ReferenceConfig(
        a=1.0, a_star=0.0, m1_star=0.0, m2_star=0.0,
        covariates=(0.0, 0.0), topology=topology,
    )
    counts = np.ones((1, d.n))
    fitter = CountWeightedFit(d, topology)
    batch, ok = fitter.fit(counts)
    assert ok.all() and batch.sigma_y[0] < 1e-12

    batched = bootstrap_decomposition(d, cfg, B=100, seed=4)
    monkeypatch.setattr(twomed.regression, "_COND_LIMIT", 0.0)
    assert np.isfinite(fitter.fit(counts)[0].sigma_y).all()
    reference = bootstrap_decomposition(d, cfg, B=100, seed=4)
    assert batched.failed_replicates == reference.failed_replicates == 0
    for name, value in batched.lower.items():
        assert math.isclose(value, reference.lower[name], rel_tol=1e-9, abs_tol=1e-12)


@pytest.mark.parametrize("B", [100, 200, 997])
def test_bounds_equal_per_column_quantiles(monkeypatch, B):
    """The bounds, taken over the replicate axis at once, are bit for bit
    np.quantile's of one call per component and probability; the rare-rows
    data leave a kept count that is not B."""
    d = _dataset_with_rare_rows(n=200, rare=4, seed=9)
    seen = []
    bounds = twomed.bootstrap._percentile_bounds
    monkeypatch.setattr(twomed.bootstrap, "_percentile_bounds",
                        lambda vals, probs: seen.append(vals) or bounds(vals, probs))
    for level in (0.8, 0.9, 0.95):
        seen.clear()
        r = bootstrap_decomposition(d, RARE_CFG, B=B, level=level, seed=5)
        (vals,) = seen
        assert len(vals) == B - r.failed_replicates
        for j, name in enumerate(r.lower):
            column = vals[:, j]
            assert r.lower[name] == float(np.quantile(column, (1.0 - level) / 2.0)), name
            assert r.upper[name] == float(np.quantile(column, (1.0 + level) / 2.0)), name


def _bound_columns(rng, n):
    """Columns of n values: normal, heavily tied, constant, with +-inf, with a
    NaN, and signed zeros."""
    normal = rng.standard_normal(n)
    ties = np.round(2.0 * rng.standard_normal(n)) / 2.0
    infs = rng.standard_normal(n)
    infs[::7], infs[3::11] = np.inf, -np.inf
    nan = rng.standard_normal(n)
    nan[n // 2] = np.nan
    zeros = np.where(rng.random(n) < 0.5, 0.0, -0.0)
    return np.column_stack([normal, ties, np.full(n, 0.7), infs, nan, zeros])


@pytest.mark.parametrize("n", [1, 2, 95, 101, 200, 997])
@pytest.mark.parametrize("level", [1e-9, 0.5, 0.95, 1 - 1e-9, 1 - 1e-16])
def test_percentile_bounds_are_numpys_quantiles(n, level):
    """Bit for bit np.quantile's, ties, constant, infinite and NaN columns
    and signed zeros included, at levels near 0 and 1: at 1 - 1e-16 the upper
    probability rounds to 1, where numpy reads the largest value. At n = 101
    and level 0.95 both bounds fall halfway between two order statistics."""
    vals = _bound_columns(np.random.default_rng(n), n)
    probs = [(1.0 - level) / 2.0, (1.0 + level) / 2.0]
    with np.errstate(invalid="ignore"):  # inf - inf, in both
        got = twomed.bootstrap._percentile_bounds(vals, probs)
        want = np.quantile(vals, probs, axis=0)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), (g, w)


def test_chunk_size_keeps_matrix_products_and_bounds_memory():
    chunk_size = twomed.bootstrap._chunk_size
    assert chunk_size(200) == chunk_size(50_000) == 32
    assert 16 <= chunk_size(100_000) < 32
    assert chunk_size(10**9) == 1
    for n in (200, 50_000, 10**6):
        assert chunk_size(n) * 8 * n <= twomed.bootstrap._CHUNK_BYTES


@pytest.mark.parametrize("topology", list(Topology))
def test_count_block_does_not_set_the_closed_form_peak(topology):
    """The count block holds a chunk's counts one byte each: at n = 50,000,
    1.6 MB for 32 replicates, where float64 counts would take 12.8 MB. The
    fitter factors the n x p_y outcome design in place and keeps that one
    array and no residual, so beside Q' (4 MB here) the peak holds the
    block, the 1.2 MB slice buffer, the counts' float64 window and one
    replicate's indices and tally: under two designs' bytes, and so under
    three."""
    n, k = 50_000, 2
    rng = np.random.default_rng(23)
    scm = random_linear_scm(rng, k=k, sequential=topology is Topology.SEQUENTIAL)
    data = make_linear_dataset(scm, n, seed=24)
    d = Dataset(a=data["a"], m1=data["m1"], m2=data["m2"], y=data["y"],
                covariates=data["covariates"])
    cfg = random_reference(rng, topology, k=k)
    tracemalloc.start()
    try:
        r = bootstrap_decomposition(d, cfg, B=100, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.failed_replicates == 0
    assert peak <= 3 * n * (8 + k) * 8, peak / 2**20
    assert peak <= 2 * n * (8 + k) * 8, peak / 2**20


@pytest.mark.parametrize("topology", list(Topology))
def test_a_count_above_255_takes_the_exact_refit(monkeypatch, topology):
    """A count is held in one byte. A replicate that draws one row 300 times
    is refit from its copied rows, so its values are those of
    _closed_form_estimate bit for bit, and the run's bounds and failures
    are the reference route's to the README's 1e-13."""
    d, _ = _noisy_dataset(6, n=400)
    cfg = ReferenceConfig(
        a=1.0, a_star=0.0, m1_star=0.0, m2_star=0.0,
        covariates=(0.0, 0.0), topology=topology,
    )
    seed, heavy = 8, 37
    draw = twomed.bootstrap._resample_indices

    def resample(seed, b, n):
        idx = draw(seed, b, n)
        if b == heavy:
            idx[:300] = 5
        return idx

    monkeypatch.setattr(twomed.bootstrap, "_resample_indices", resample)
    idx = resample(seed, heavy, d.n)
    assert np.bincount(idx).max() == 300
    want = twomed.bootstrap._closed_form_estimate(d.take(idx), cfg)
    want = np.array([want.value(name) for name in value_names(topology)])

    taken, seen = [], []
    take, quantiles = Dataset.take, twomed.bootstrap._percentile_bounds
    monkeypatch.setattr(
        Dataset, "take", lambda ds, idx: taken.append(idx) or take(ds, idx)
    )
    monkeypatch.setattr(twomed.bootstrap, "_percentile_bounds",
                        lambda vals, probs: seen.append(vals) or quantiles(vals, probs))
    batched = bootstrap_decomposition(d, cfg, B=100, seed=seed)
    assert len(taken) == 1 and taken[0].tobytes() == idx.tobytes()
    assert any(row.tobytes() == want.tobytes() for row in seen[0])
    monkeypatch.setattr(twomed.regression, "_COND_LIMIT", 0.0)
    reference = bootstrap_decomposition(d, cfg, B=100, seed=seed)

    assert batched.failed_replicates == reference.failed_replicates == 0
    for bounds, want in ((batched.lower, reference.lower),
                         (batched.upper, reference.upper)):
        for name, value in bounds.items():
            assert math.isclose(value, want[name], rel_tol=1e-13), name


# a config, and 4 rare rows (a, m1, m2, c, y), for each way a resample fails;
# a resample misses all 4 about e^-4 of the time. Each config but the two
# with a != a* is a null contrast: with a != a*, both exposures' reference
# cells would be lost far more often than a level, a stratum or a row
_FAILURES = {
    # a lost exposure level: a = 2 only on the rare rows
    "exposure level": ((2.0, 0.0, 0.0, 0.0, 0.0), (2.0, 0.0, 0.0, 0.0, 1.5)),
    # a lost m1 reference level
    "m1 reference level": ((1.0, 1.0, 2.0, 0.0, 0.0), (1.0, 2.0, 0.0, 0.0, 0.5)),
    # a lost m2 reference level
    "m2 reference level": ((1.0, 1.0, 0.0, 2.0, 0.0), (1.0, 0.0, 2.0, 0.0, 0.5)),
    # a lost stratum
    "stratum": ((1.0, 1.0, 0.0, 0.0, 5.0), (1.0, 0.0, 0.0, 5.0, 0.5)),
    # a coverage gap: the only rows of a cell that a* holds plenty of
    "no data for": ((1.0, 0.0, 0.0, 0.0, 0.0), (1.0, 1.0, 1.0, 0.0, 2.5)),
    # an overflowing cell mean, in a stratum other than cfg's: two rows of
    # 3e307, which overflow a sum once drawn six times (two 1e308 rows would
    # overflow the full data's sum too)
    "non-finite outcome mean": ((1.0, 0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0, 3e307)),
}


def _dataset_that_fails(kind, n=240, seed=1):
    """Binary rows in strata c = 0, 1, plus the kind's rare rows."""
    levels, rare = _FAILURES[kind]
    rng = np.random.default_rng(seed)
    a, m1, m2, c = rng.integers(0, 2, (4, n)).astype(float)
    y = a + m1 - m2 + rng.normal(0.0, 1.0, n)
    if kind == "exposure level":
        # a = 2 holds only (m1*, m2*) in cfg's stratum, so a* may hold no more
        m1[(a == 0.0) & (c == 0.0)] = m2[(a == 0.0) & (c == 0.0)] = 0.0
    if kind == "m2 reference level":
        # every m1 level cfg's exposure holds in cfg's stratum needs m2*
        m1[(a == 1.0) & (c == 0.0)] = 0.0
    if kind == "no data for":
        m2[(a == 1.0) & (m1 == 1.0) & (c == 0.0)] = 0.0
    copies = 2 if kind == "non-finite outcome mean" else 4
    rows = np.array([rare] * copies)
    a, m1, m2, c, y = (np.concatenate([col, extra]) for col, extra in
                       zip((a, m1, m2, c, y), rows.T))
    cfg = ReferenceConfig(*levels[:4], covariates=levels[4:],
                          topology=Topology.SEQUENTIAL)
    return Dataset(a=a, m1=m1, m2=m2, y=y, covariates=c[:, None]), cfg


@pytest.mark.parametrize("kind", list(_FAILURES))
def test_batched_failure_masks_match_the_per_replicate_loop(kind):
    """Each way a resample's tables or decomposition can fail fails the same
    replicates as decomposing each resample's tables on its own."""
    d, cfg = _dataset_that_fails(kind)
    seed, B = 3, 300
    r = bootstrap_decomposition(
        d, cfg, B=B, seed=seed, estimator="empirical-categorical"
    )

    draws = {name: [] for name in r.lower}
    errors = []
    for b in range(B):
        idx = np.random.default_rng([seed, b]).integers(0, d.n, size=d.n)
        try:
            tables = estimate_tables(d.take(idx), cfg)
            cs = decompose_empirical_sequential(tables, cfg)
        except (ConfigError, EstimationError) as exc:
            errors.append(str(exc))
            continue
        for name in draws:
            draws[name].append((cs.components | cs.aggregates)[name])
    assert any(kind in e for e in errors), errors
    assert r.failed_replicates == len(errors)
    for name, vals in draws.items():
        assert r.lower[name] == float(np.quantile(vals, (1.0 - 0.95) / 2.0)), name
        assert r.upper[name] == float(np.quantile(vals, (1.0 + 0.95) / 2.0)), name


@pytest.mark.parametrize("per_chunk", [1, 256], ids=["one-per-chunk", "B-below-a-chunk"])
def test_empirical_bootstrap_does_not_depend_on_the_chunk_size(monkeypatch, per_chunk):
    d, cfg = _dataset_that_fails("no data for")
    default = bootstrap_decomposition(
        d, cfg, B=200, seed=4, estimator="empirical-categorical"
    )
    monkeypatch.setattr(twomed.bootstrap, "_CHUNK_REPLICATES", per_chunk)
    assert twomed.bootstrap._chunk_size(d.n) == per_chunk
    other = bootstrap_decomposition(
        d, cfg, B=200, seed=4, estimator="empirical-categorical"
    )
    assert default.failed_replicates > 0
    assert other == default
