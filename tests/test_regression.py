"""OLS fitting of the three working models."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    count_factorizations,
    count_linalg_calls,
    loop_fit_all,
    make_linear_dataset,
    random_linear_scm,
    scaled_covariate_dataset,
)
from twomed import (
    DataError,
    Dataset,
    EstimationError,
    Topology,
    fit_all,
    write_dataset_csv,
)
import twomed.regression
from twomed.cli import main
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
    batch, ok = CountWeightedFit(d, topology).fit(np.ones((3, d.n)))
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
def test_count_weighted_fit_memory_does_not_grow_beyond_q(topology, k):
    """The fitter keeps the outcome model's Q', and builds the count-weighted
    sums' columns, each model's r0 among them, one slice of rows at a time.
    So its set-up peaks under four copies of the n x p_y outcome design, and
    a fit's peak beyond its count block is the same at n = 20,000 as at
    200,000."""
    p_y = 8 + k
    fit_peaks = []
    for n in (20_000, 200_000):
        d = _topology_dataset(topology, k, n=n)
        counts = np.random.default_rng(n).integers(0, 3, (8, n)).astype(float)
        tracemalloc.start()
        try:
            fitter = CountWeightedFit(d, topology)
            set_up = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            fitter.fit(counts)
            fit_peaks.append(tracemalloc.get_traced_memory()[1] - held)
        finally:
            tracemalloc.stop()
        assert set_up <= 4 * n * p_y * 8, (n, set_up / (n * p_y * 8))
    assert fit_peaks[1] <= fit_peaks[0] + 2**16, fit_peaks


@pytest.mark.parametrize("topology", list(Topology))
def test_count_weighted_fit_set_up_holds_one_copy_of_the_design(topology):
    """The set-up writes the design once and factors it in place into Q', so
    beside that one n x p_y array it holds only one residual at a time and
    the slice buffer: its traced peak stays under two designs' bytes at
    n = 200,000. Once set up, it keeps Q' and the slice buffer and no
    n-length residual: each slice's r0 is formed in the buffer."""
    n, k = 200_000, 2
    d = _topology_dataset(topology, k, n=n)
    tracemalloc.start()
    try:
        fitter = CountWeightedFit(d, topology)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * n * (8 + k) * 8, peak / (n * (8 + k) * 8)
    design = n * (8 + k) * 8
    assert held <= design + fitter._buffer.nbytes + 2**16, held - design


def _qr_reference_designs():
    """(name, n x p design) pairs: random; column scales from 1e-6 to 1e6;
    and a last column within 1e-9 of the first."""
    rng = np.random.default_rng(17)
    x = rng.standard_normal((400, 10))
    near = x.copy()
    near[:, -1] = near[:, 0] + 1e-9 * rng.standard_normal(400)
    return [("random", x), ("scaled", x * np.logspace(-6, 6, 10)),
            ("near-collinear", near)]


@pytest.mark.parametrize("name, x", _qr_reference_designs())
def test_in_place_qr_is_numpys_factorization(name, x):
    """The in-place factorization leaves Q' in the array and returns R with
    QR = X and Q'Q = I to about 1e-14, and R equal to np.linalg.qr's to
    rounding, the signs of its diagonal included."""
    qt = np.ascontiguousarray(x.T)
    r = twomed.regression._qr_in_place(qt)
    scale = np.linalg.norm(x, axis=0)
    assert qt.flags.c_contiguous and np.isfinite(qt).all()
    assert np.all(np.abs(qt.T @ r - x) <= 1e-14 * scale), name
    assert np.abs(qt @ qt.T - np.eye(len(qt))).max() <= 1e-14, name
    want = np.linalg.qr(x, mode="r")
    assert np.all(np.abs(r - want) <= 1e-14 * scale), name
    assert np.array_equal(np.sign(np.diag(r)), np.sign(np.diag(want))), name


def test_in_place_qr_of_a_column_whose_squares_overflow():
    """A finite column near 1e155 has squares past the float range; the norm,
    scaled by the column's largest entry, keeps its factorization finite."""
    rng = np.random.default_rng(18)
    x = rng.standard_normal((300, 10))
    x[:, 3] *= 1e155
    qt = np.ascontiguousarray(x.T)
    r = twomed.regression._qr_in_place(qt)
    assert np.isfinite(qt).all() and np.isfinite(r).all()
    assert np.abs(qt @ qt.T - np.eye(10)).max() <= 1e-14
    scale = np.abs(x).max(axis=0) * np.sqrt(len(x))  # past any column's norm
    assert np.all(np.abs(qt.T @ r - x) <= 1e-14 * scale)


@pytest.mark.parametrize("topology", list(Topology))
@pytest.mark.parametrize("kind", ["zero", "duplicate"])
def test_rank_deficient_design_names_its_columns(topology, kind):
    """A zero covariate column, or one that repeats m1, is rank deficient; both
    readers of the factorization raise, naming that column."""
    rng = np.random.default_rng(31)
    a = rng.integers(0, 2, 300).astype(float)
    m1, m2, y, c = rng.standard_normal((4, 300))
    second = np.zeros(300) if kind == "zero" else m1
    d = Dataset(a=a, m1=m1, m2=m2, y=y, covariates=np.column_stack([c, second]))
    want = "outcome design is rank-deficient; collinear columns: c2"
    for fit in (fit_all, CountWeightedFit):
        with pytest.raises(EstimationError) as err:
            fit(d, topology)
        assert str(err.value) == want, fit


@pytest.mark.parametrize("scale", [1e12, 1e155])
@pytest.mark.parametrize("topology", list(Topology))
def test_a_covariate_in_large_units_does_not_decide_rank(topology, scale):
    """The rank decision takes the design's columns at unit norm, so a
    covariate in large units fits by both readers, with the coefficients of
    the unscaled fit and the covariate's own divided by the scale. At 1e155
    a column's sum of squares overflows, its norm does not."""
    want = fit_all(scaled_covariate_dataset(1.0), topology).coefficients
    d = scaled_covariate_dataset(scale)
    for fit in (fit_all(d, topology), CountWeightedFit(d, topology).full_fit):
        got = fit.coefficients
        for name in ("theta", "beta", "gamma", "sigma_m1", "sigma_m2", "sigma_y"):
            assert np.allclose(getattr(got, name), getattr(want, name),
                               rtol=1e-9, atol=1e-12), name
        for name in ("theta_c", "beta_c", "gamma_c"):
            assert np.allclose(scale * np.asarray(getattr(got, name)),
                               getattr(want, name), rtol=1e-9, atol=1e-12), name


def test_analyze_takes_a_covariate_in_large_units(tmp_path):
    """analyze on the data with a covariate times 1e12 exits 0, with the
    unscaled data's estimates and intervals, where it used to exit 4 calling
    the design numerically degenerate."""
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"covariates": ["c1"]}))
    reports = []
    for scale in (1.0, 1e12):
        data = tmp_path / f"data-{scale:g}.csv"
        write_dataset_csv(scaled_covariate_dataset(scale), str(data))
        res = CliRunner().invoke(main, ["analyze", "--data", str(data), "--config",
                                        str(config), "--bootstrap-B", "100"])
        assert res.exit_code == 0, res.output
        reports.append(json.loads(res.output)["components"])
    for want, got in zip(*reports):
        assert got["name"] == want["name"]
        for field in ("estimate", "ci_lower", "ci_upper"):
            assert got[field] == pytest.approx(want[field], rel=1e-9, abs=1e-12), (
                got["name"], field)


def test_count_weighted_fit_refills_its_slices_for_every_call(monkeypatch):
    """With the rows in three slices, a second fit on other counts matches a
    fresh fitter's bit for bit, so no stale slice is reused; and the sliced
    sums agree with the one-slice sums to rounding."""
    d = _topology_dataset(Topology.SEQUENTIAL, 2, n=150)
    rng = np.random.default_rng(4)
    first, second = (rng.integers(0, 3, (4, d.n)).astype(float) for _ in range(2))
    whole, _ = CountWeightedFit(d, Topology.SEQUENTIAL).fit(second)
    monkeypatch.setattr(twomed.regression, "_SLICE_ROWS", 64)
    fitter = CountWeightedFit(d, Topology.SEQUENTIAL)
    fitter.fit(first)
    got, _ = fitter.fit(second)
    want, _ = CountWeightedFit(d, Topology.SEQUENTIAL).fit(second)
    for name in got._fields:
        g = np.asarray(getattr(got, name))
        assert np.array_equal(g, np.asarray(getattr(want, name))), name
        assert np.allclose(g, np.asarray(getattr(whole, name)), rtol=1e-10), name


@pytest.mark.parametrize("n", [150, 255])
@pytest.mark.parametrize("topology", list(Topology))
def test_count_dtype_does_not_change_a_fit(monkeypatch, topology, n):
    """fit copies each slice of the counts into a float64 window, so the same
    counts held as float64 or as unsigned integers give the same fit bit for
    bit. The rows are in slices of 64, the last one short; n <= 255, the most
    a uint8 count holds, and the first replicate takes one row n times, the
    top of that range (a design the condition gate refuses)."""
    monkeypatch.setattr(twomed.regression, "_SLICE_ROWS", 64)
    d = _topology_dataset(topology, 2, n=n)
    rng = np.random.default_rng(n)
    counts = np.array([np.bincount(rng.integers(0, n, n), minlength=n)
                       for _ in range(5)])
    counts[0] = 0
    counts[0, 7] = n
    assert counts.max() == n <= np.iinfo(np.uint8).max
    fitter = CountWeightedFit(d, topology)
    want, want_ok = fitter.fit(counts.astype(np.float64))
    assert not want_ok[0] and want_ok[1:].all()
    for dtype in (np.uint8, np.uint16, np.uint32):
        got, ok = fitter.fit(counts.astype(dtype))
        assert np.array_equal(ok, want_ok), dtype
        for name in got._fields:
            g, w = getattr(got, name), getattr(want, name)
            if not isinstance(w, tuple):
                g, w = (g,), (w,)
            assert len(g) == len(w), (dtype, name)
            for gi, wi in zip(g, w):
                gi, wi = np.asarray(gi), np.asarray(wi)
                assert gi.dtype == wi.dtype == np.float64, (dtype, name)
                assert gi.tobytes() == wi.tobytes(), (dtype, name)


@pytest.mark.parametrize("topology", list(Topology))
def test_fit_all_factors_the_data_once(monkeypatch, topology):
    """One in-place factorization of the nested design; numpy's qr and lstsq
    are never called."""
    d = _topology_dataset(topology, k=2, n=300)
    factored = count_factorizations(monkeypatch)
    calls = count_linalg_calls(monkeypatch)
    fit_all(d, topology)
    assert factored == [(10, d.n)]
    assert "qr" not in calls and "lstsq" not in calls


@pytest.mark.parametrize("topology", list(Topology))
def test_each_distinct_block_takes_one_svd(monkeypatch, topology):
    """The rank decision and the bootstrap gate read one SVD of each distinct
    R_p block, taken at unit-norm columns: three sequential, two
    non-sequential, whose m1 and m2 models share theirs."""
    d = _topology_dataset(topology, k=2, n=300)
    want = 3 if topology is Topology.SEQUENTIAL else 2
    calls = count_linalg_calls(monkeypatch)
    for make in (fit_all, CountWeightedFit):
        calls.clear()
        make(d, topology)
        assert calls.get("svd") == want, make


def test_overflowing_design_is_an_estimation_error():
    """Finite mediators whose product overflows must not reach the QR, which
    would turn the infinities into NaN coefficients without a word."""
    rng = np.random.default_rng(12)
    n = 200
    d = Dataset(
        a=rng.integers(0, 2, n).astype(float),
        m1=rng.uniform(0.5, 2.0, n) * 1e160,
        m2=rng.uniform(0.5, 2.0, n) * 1e160,
        y=rng.standard_normal(n),
    )
    for topology in Topology:
        with pytest.raises(EstimationError, match="not finite") as err:
            fit_all(d, topology)
        assert "m1:m2, a:m1:m2" in str(err.value)
        with pytest.raises(EstimationError, match="not finite"):
            CountWeightedFit(d, topology)


@st.composite
def _small_integer_data(draw):
    """A topology and a dataset of small integers, k = 0 to 2 covariates. Each
    column after the exposure may instead be constant or a copy of an earlier
    one, so collinear designs come up often."""
    topology = draw(st.sampled_from(list(Topology)))
    k = draw(st.integers(0, 2))
    n = draw(st.integers(8 + k, 20))
    columns = []
    for _ in range(4 + k):
        kind = draw(st.integers(0, 7))
        if kind == 0 and columns:
            column = [draw(st.integers(-3, 3))] * n
        elif kind == 1 and columns:
            column = draw(st.sampled_from(columns))
        else:
            column = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        columns.append(column)
    a, m1, m2, y, *cov = np.asarray(columns, dtype=float)
    return Dataset(a=a, m1=m1, m2=m2, y=y, covariates=np.transpose(cov)), topology


def _fit_or_error(fit, d, topology):
    try:
        return fit(d, topology)
    except (DataError, EstimationError) as exc:
        return type(exc), str(exc)


def _rank_deficient_m1_design():
    """The first covariate repeats the exposure: every design is collinear,
    the first mediator's [1, a, c1] included."""
    rng = np.random.default_rng(13)
    a = rng.integers(0, 2, 15).astype(float)
    m1, m2, y = rng.integers(-3, 4, (3, 15)).astype(float)
    return Dataset(a=a, m1=m1, m2=m2, y=y, covariates=a[:, None])


@settings(max_examples=300, deadline=None)
@given(_small_integer_data())
@example((_rank_deficient_m1_design(), Topology.SEQUENTIAL))
@example((_rank_deficient_m1_design(), Topology.NONSEQUENTIAL))
def test_fit_all_matches_the_lstsq_reference(data):
    """One QR of the nested design gives the per-design lstsq fits: the same
    error, or coefficients, sigmas, covariances, R^2 and standard errors
    within 1e-9 relative. The count-weighted fitter's full-data fit, its
    second reader, gives the same error or fit_all's values bit for bit."""
    d, topology = data
    got = _fit_or_error(fit_all, d, topology)
    want = _fit_or_error(loop_fit_all, d, topology)
    fitter = _fit_or_error(
        lambda d, topology: CountWeightedFit(d, topology).full_fit, d, topology)
    if isinstance(want, tuple):
        assert got == want == fitter
        return
    assert not isinstance(got, tuple), got
    assert not isinstance(fitter, tuple), fitter
    for field in dataclasses.fields(got):
        g, f = getattr(got, field.name), getattr(fitter, field.name)
        if field.name == "vcov":
            assert g.keys() == f.keys()
            assert all(np.array_equal(g[key], f[key]) for key in g), field.name
        else:
            assert g == f, field.name

    def close(g, w):
        g, w = np.asarray(g, dtype=float), np.asarray(w, dtype=float)
        assert g.shape == w.shape
        return np.allclose(g, w, rtol=1e-9, atol=1e-9)

    for field in dataclasses.fields(want.coefficients):
        name = field.name
        assert close(getattr(got.coefficients, name),
                     getattr(want.coefficients, name)), name
    assert got.design_names == want.design_names and got.n == want.n
    assert close(got.residual_sigma_m1, want.residual_sigma_m1)
    for key in want.vcov:
        assert close(got.vcov[key], want.vcov[key]), key
        assert close(got.r_squared[key], want.r_squared[key]), key
        assert got.stderr_diagnostics[key].keys() == want.stderr_diagnostics[key].keys()
        assert close(
            list(got.stderr_diagnostics[key].values()),
            list(want.stderr_diagnostics[key].values()),
        ), key
