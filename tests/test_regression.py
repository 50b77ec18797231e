"""OLS fitting of the three working models."""

import tracemalloc

import numpy as np
import pytest

from conftest import make_linear_dataset, random_linear_scm
from twomed import (
    DataError,
    Dataset,
    EstimationError,
    Topology,
    fit_all,
)
from twomed.regression import CountWeightedFit


def _dataset_from(arrays):
    return Dataset(
        a=arrays["a"], m1=arrays["m1"], m2=arrays["m2"], y=arrays["y"],
        covariates=arrays["covariates"],
    )


def test_noiseless_data_recovers_coefficients_exactly():
    rng = np.random.default_rng(0)
    scm = random_linear_scm(rng)
    n = 500
    d = make_linear_dataset(scm, n, seed=1)
    # strip the noise by regenerating the outcome from the structural means
    t = scm.theta
    a, m1, m2, c = d["a"], d["m1"], d["m2"], d["covariates"]
    y = (
        t[0] + t[1] * a + t[2] * m1 + t[3] * m2 + t[4] * a * m1
        + t[5] * a * m2 + t[6] * m1 * m2 + t[7] * a * m1 * m2
        + c @ np.asarray(scm.theta_c)
    )
    fit = fit_all(_dataset_from({**d, "y": y}), Topology.SEQUENTIAL)
    got = fit.coefficients
    assert np.allclose(got.theta, scm.theta, atol=1e-8)
    assert np.allclose(got.theta_c, scm.theta_c, atol=1e-8)
    assert fit.r_squared["y"] == pytest.approx(1.0, abs=1e-12)
    assert got.sigma_y == pytest.approx(0.0, abs=1e-7)


def test_noisy_fit_approaches_truth_with_n():
    rng = np.random.default_rng(2)
    scm = random_linear_scm(rng)
    d = make_linear_dataset(scm, 200_000, seed=3)
    fit = fit_all(_dataset_from(d), Topology.SEQUENTIAL)
    got = fit.coefficients
    assert np.allclose(got.theta, scm.theta, atol=0.15)
    assert np.allclose(got.beta, scm.beta, atol=0.05)
    assert np.allclose(got.gamma, scm.gamma, atol=0.02)
    assert got.sigma_m1 == pytest.approx(scm.sigma_m1, rel=0.02)
    # reported standard errors should put the truth within a few bands
    for name, se in fit.stderr_diagnostics["m1"].items():
        assert se > 0.0, name


def test_sigma_m1_uses_unbiased_denominator():
    # residual variance must divide by n - (2 + k), not n
    rng = np.random.default_rng(4)
    n, k = 40, 2
    a = rng.integers(0, 2, n).astype(float)
    c = rng.standard_normal((n, k))
    m1 = 1.0 + 0.5 * a + c @ np.array([0.3, -0.2]) + rng.normal(0.0, 1.0, n)
    m2 = rng.standard_normal(n) + m1
    y = rng.standard_normal(n) + m2
    d = Dataset(a=a, m1=m1, m2=m2, y=y, covariates=c)
    fit = fit_all(d, Topology.SEQUENTIAL)
    x = np.column_stack([np.ones(n), a, c])
    coefs, *_ = np.linalg.lstsq(x, m1, rcond=None)
    rss = float(np.sum((m1 - x @ coefs) ** 2))
    assert fit.residual_sigma_m1 == pytest.approx(
        np.sqrt(rss / (n - (2 + k))), rel=1e-10
    )
    assert fit.coefficients.sigma_m1 == fit.residual_sigma_m1


def test_constant_exposure_is_reported_as_collinear():
    rng = np.random.default_rng(5)
    n = 50
    a = np.ones(n)
    m1 = rng.standard_normal(n)
    m2 = rng.standard_normal(n)
    y = rng.standard_normal(n)
    d = Dataset(a=a, m1=m1, m2=m2, y=y)
    with pytest.raises(EstimationError) as err:
        fit_all(d, Topology.SEQUENTIAL)
    assert "a" in str(err.value)


def test_duplicate_covariate_is_reported_by_name():
    rng = np.random.default_rng(6)
    n = 60
    a = rng.integers(0, 2, n).astype(float)
    m1 = rng.standard_normal(n)
    m2 = rng.standard_normal(n)
    y = rng.standard_normal(n)
    c1 = rng.standard_normal(n)
    d = Dataset(
        a=a, m1=m1, m2=m2, y=y,
        covariates=np.column_stack([c1, 2.0 * c1]),
        covariate_names=("height", "height_cm"),
    )
    with pytest.raises(EstimationError) as err:
        fit_all(d, Topology.SEQUENTIAL)
    assert "height_cm" in str(err.value)


def test_too_few_rows_rejected():
    rng = np.random.default_rng(7)
    n, k = 10, 2  # needs n > 8 + k = 10
    d = Dataset(
        a=rng.integers(0, 2, n).astype(float),
        m1=rng.standard_normal(n),
        m2=rng.standard_normal(n),
        y=rng.standard_normal(n),
        covariates=rng.standard_normal((n, k)),
    )
    with pytest.raises(DataError):
        fit_all(d, Topology.SEQUENTIAL)
    # one more row clears the bound (even if the fit is then noisy)
    d11 = Dataset(
        a=np.append(d.a, 1.0 - d.a[0]),
        m1=np.append(d.m1, 0.0),
        m2=np.append(d.m2, 0.0),
        y=np.append(d.y, 0.0),
        covariates=np.vstack([d.covariates, np.zeros(k)]),
    )
    fit_all(d11, Topology.SEQUENTIAL)


def test_nonsequential_design_drops_m1_terms():
    rng = np.random.default_rng(8)
    scm = random_linear_scm(rng, sequential=False)
    d = make_linear_dataset(scm, 5_000, seed=9)
    fit = fit_all(_dataset_from(d), Topology.NONSEQUENTIAL)
    assert fit.design_names["m2"][:2] == ["intercept", "a"]
    assert "m1" not in fit.design_names["m2"]
    assert fit.coefficients.beta[2] == 0.0
    assert fit.coefficients.beta[3] == 0.0
    assert fit.coefficients.beta[1] == pytest.approx(scm.beta[1], abs=0.1)


def test_dataset_validation():
    with pytest.raises(DataError):
        Dataset(a=np.array([]), m1=np.array([]), m2=np.array([]), y=np.array([]))
    with pytest.raises(DataError):
        Dataset(
            a=np.array([1.0, 0.0]), m1=np.array([0.0]),
            m2=np.array([0.0, 1.0]), y=np.array([0.0, 1.0]),
        )
    with pytest.raises(DataError):
        Dataset(
            a=np.array([1.0, np.nan]), m1=np.array([0.0, 1.0]),
            m2=np.array([0.0, 1.0]), y=np.array([0.0, 1.0]),
        )
    with pytest.raises(DataError):
        Dataset(
            a=np.array([1.0, 0.0]), m1=np.array([0.0, 1.0]),
            m2=np.array([0.0, 1.0]), y=np.array([0.0, 1.0]),
            covariates=np.zeros((2, 1)), covariate_names=("x", "y"),
        )


def test_take_resamples_rows():
    d = Dataset(
        a=np.array([0.0, 1.0, 1.0]),
        m1=np.array([1.0, 2.0, 3.0]),
        m2=np.array([4.0, 5.0, 6.0]),
        y=np.array([7.0, 8.0, 9.0]),
        covariates=np.array([[1.0], [2.0], [3.0]]),
        covariate_names=("z",),
    )
    r = d.take(np.array([2, 2, 0]))
    assert list(r.m1) == [3.0, 3.0, 1.0]
    assert list(r.covariates[:, 0]) == [3.0, 3.0, 1.0]
    assert r.covariate_names == ("z",)


def test_vcov_matches_textbook_formula():
    rng = np.random.default_rng(10)
    n = 300
    a = rng.integers(0, 2, n).astype(float)
    m1 = 0.5 * a + rng.standard_normal(n)
    m2 = 0.25 * m1 + rng.standard_normal(n)
    y = a + m1 + m2 + rng.standard_normal(n)
    d = Dataset(a=a, m1=m1, m2=m2, y=y)
    fit = fit_all(d, Topology.SEQUENTIAL)
    x = np.column_stack([np.ones(n), a, m1, a * m1])
    resid = m2 - x @ np.linalg.lstsq(x, m2, rcond=None)[0]
    s2 = float(resid @ resid) / (n - 4)
    want = s2 * np.linalg.inv(x.T @ x)
    assert np.allclose(fit.vcov["m2"], want, rtol=1e-8, atol=1e-12)


def _topology_dataset(topology, k, n, seed=11):
    rng = np.random.default_rng(seed)
    scm = random_linear_scm(rng, k=k, sequential=topology is Topology.SEQUENTIAL)
    return _dataset_from(make_linear_dataset(scm, n, seed=seed + 1))


@pytest.mark.parametrize("k", [0, 2])
@pytest.mark.parametrize("topology", list(Topology))
def test_count_weighted_fit_of_unit_counts_is_the_full_data_fit(topology, k):
    """Every row taken once is the full data, so each model's coefficients
    come back in its design's column order, as fit_all gives them."""
    d = _topology_dataset(topology, k, n=500)
    batch, ok = CountWeightedFit(d, topology).fit(np.ones((3, d.n)), 1e8)
    want = fit_all(d, topology).coefficients
    assert ok.all()
    for name in batch._fields:
        got, expected = getattr(batch, name), getattr(want, name)
        if isinstance(expected, tuple):
            assert len(got) == len(expected), name
        else:
            got, expected = (got,), (expected,)
        for g, e in zip(got, expected):
            assert np.allclose(g, e, rtol=1e-10, atol=1e-12), name


@pytest.mark.parametrize("k", [0, 2])
@pytest.mark.parametrize("topology", list(Topology))
def test_count_weighted_fit_set_up_holds_little_beyond_its_column_block(topology, k):
    """The block holds the outcome Q's column pairs and, per model, r0 * Q_p
    and r0^2: (p_y (p_y + 1) / 2 + sum (p + 1)) rows of n floats. Building it
    costs at most a quarter more than it keeps, plus one design's worth."""
    n = 20_000
    d = _topology_dataset(topology, k, n=n)
    widths = [len(names) for names in fit_all(d, topology).design_names.values()]
    p_y = 8 + k
    tracemalloc.start()
    try:
        fitter = CountWeightedFit(d, topology)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = fitter._columns
    assert columns.nbytes == (p_y * (p_y + 1) // 2 + sum(p + 1 for p in widths)) * n * 8
    assert peak <= 1.25 * columns.nbytes + n * p_y * 8
