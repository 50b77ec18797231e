"""Seeded inputs for the twomed benchmark workloads.

Every file a workload hands the program is drawn here from the workload seed,
with numpy only and without calling the program, so the same seed gives
byte-identical inputs at every commit of the program. Coefficients and
probabilities sit on a 1e-3 grid with the multiples of 1/8 removed, so none
is a dyadic fraction that binary floating point represents exactly.
"""

from __future__ import annotations

import json
import os

import numpy as np


def _nondyadic(rng, lo: float, hi: float, size: int) -> list[float]:
    """Draw values in [lo, hi] on a 1e-3 grid, skipping multiples of 1/8."""
    out = []
    for k in rng.integers(round(lo * 1000), round(hi * 1000) + 1, size=size):
        k = int(k)
        if k % 125 == 0:
            k += 1
        out.append(k / 1000)
    return out


def linear_spec(rng, k: int, sequential: bool) -> dict:
    """A linear-Gaussian model spec in the program's JSON format.

    The triple interaction is kept small so the outcome scale stays moderate;
    a non-sequential spec has beta[2] = beta[3] = 0 (no M1 -> M2 path).
    """
    theta = _nondyadic(rng, -1.5, 1.5, 8)
    theta[7] = _nondyadic(rng, -0.3, 0.3, 1)[0]
    beta = _nondyadic(rng, -1.0, 1.0, 4)
    if not sequential:
        beta[2] = beta[3] = 0.0
    return {
        "theta": theta,
        "beta": beta,
        "gamma": _nondyadic(rng, -1.0, 1.0, 2),
        "theta_c": _nondyadic(rng, -0.8, 0.8, k),
        "beta_c": _nondyadic(rng, -0.8, 0.8, k),
        "gamma_c": _nondyadic(rng, -0.8, 0.8, k),
        "sigma_y": _nondyadic(rng, 0.5, 1.5, 1)[0],
        "sigma_m1": _nondyadic(rng, 0.5, 1.5, 1)[0],
        "sigma_m2": _nondyadic(rng, 0.5, 1.5, 1)[0],
    }


def binary_spec_nonsequential(rng) -> dict:
    """A binary model spec whose Pr(M2 | A, M1) does not depend on M1."""
    p1 = _nondyadic(rng, 0.2, 0.8, 2)
    p2 = _nondyadic(rng, 0.2, 0.8, 2)
    ey = _nondyadic(rng, -2.0, 2.0, 8)
    return {
        "p_m1": {"0": p1[0], "1": p1[1]},
        "p_m2": {a: {m1: p2[int(a)] for m1 in "01"} for a in "01"},
        "e_y": {
            a: {m1: {m2: ey[4 * int(a) + 2 * int(m1) + int(m2)] for m2 in "01"}
                for m1 in "01"}
            for a in "01"
        },
    }


def _write_csv(path: str, columns: dict) -> None:
    names = list(columns)
    rows = zip(*(columns[c] for c in names))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def linear_dataset_csv(rng, spec: dict, n: int, path: str) -> None:
    """n rows drawn from a linear spec; exposure Bernoulli(1/2), covariates N(0, 1)."""
    t, b, g = spec["theta"], spec["beta"], spec["gamma"]
    k = len(spec["theta_c"])
    a = rng.binomial(1, 0.5, size=n).astype(float)
    c = rng.standard_normal((n, k))
    m1 = g[0] + g[1] * a + c @ np.asarray(spec["gamma_c"]) + rng.normal(
        0.0, spec["sigma_m1"], size=n)
    m2 = (b[0] + b[1] * a + b[2] * m1 + b[3] * a * m1
          + c @ np.asarray(spec["beta_c"]) + rng.normal(0.0, spec["sigma_m2"], size=n))
    y = (t[0] + t[1] * a + t[2] * m1 + t[3] * m2 + t[4] * a * m1 + t[5] * a * m2
         + t[6] * m1 * m2 + t[7] * a * m1 * m2 + c @ np.asarray(spec["theta_c"])
         + rng.normal(0.0, spec["sigma_y"], size=n))
    cols = {"a": a, "m1": m1, "m2": m2, "y": y}
    cols.update({f"c{j + 1}": c[:, j] for j in range(k)})
    _write_csv(path, cols)


def categorical_dataset_csv(rng, n: int, levels: tuple[int, ...], path: str) -> None:
    """n rows with binary exposure and mediators and discrete covariates.

    The covariate levels cross into prod(levels) strata; every conditional
    probability is drawn per stratum from [0.3, 0.7], so each cell the
    estimator needs holds data in every bootstrap resample.
    """
    cov = np.stack([rng.integers(0, lv, size=n) for lv in levels], axis=1)
    stratum = np.ravel_multi_index(tuple(cov.T), levels)
    n_strata = int(np.prod(levels))
    p_a = np.asarray(_nondyadic(rng, 0.3, 0.7, n_strata))
    p_m1 = np.asarray(_nondyadic(rng, 0.3, 0.7, 2 * n_strata)).reshape(n_strata, 2)
    p_m2 = np.asarray(_nondyadic(rng, 0.3, 0.7, 4 * n_strata)).reshape(n_strata, 2, 2)
    mu_y = np.asarray(_nondyadic(rng, -2.0, 2.0, 8 * n_strata)).reshape(
        n_strata, 2, 2, 2)
    a = rng.binomial(1, p_a[stratum])
    m1 = rng.binomial(1, p_m1[stratum, a])
    m2 = rng.binomial(1, p_m2[stratum, a, m1])
    y = mu_y[stratum, a, m1, m2] + rng.normal(0.0, 1.0, size=n)
    cols = {"a": a, "m1": m1, "m2": m2, "y": y}
    cols.update({f"c{j + 1}": cov[:, j] for j in range(len(levels))})
    _write_csv(path, cols)


def write_json(path: str, obj: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")
    return path


def boot_small_n(seed: int, workdir: str, n: int, k: int, B: int) -> dict:
    """Closed-form analyze on a continuous dataset with k covariates."""
    rng = np.random.default_rng([seed, 1])
    spec = linear_spec(rng, k, sequential=True)
    data = os.path.join(workdir, "study.csv")
    linear_dataset_csv(rng, spec, n, data)
    config = write_json(os.path.join(workdir, "run.json"), {
        "covariates": [f"c{j + 1}" for j in range(k)],
        "bootstrap_B": B,
        "seed": seed,
        "estimator": "closed-form",
        "output": "json",
    })
    return {"data": data, "config": config}


def boot_categorical(seed: int, workdir: str, n: int, levels: tuple[int, ...],
                     B: int) -> dict:
    """Empirical-categorical analyze on binary data with discrete strata; the
    reference stratum and mediator levels are drawn from the seed."""
    rng = np.random.default_rng([seed, 2])
    data = os.path.join(workdir, "study.csv")
    categorical_dataset_csv(rng, n, levels, data)
    config = write_json(os.path.join(workdir, "run.json"), {
        "covariates": [f"c{j + 1}" for j in range(len(levels))],
        "covariate_values": [int(rng.integers(0, lv)) for lv in levels],
        "m1_star": int(rng.integers(0, 2)),
        "m2_star": int(rng.integers(0, 2)),
        "bootstrap_B": B,
        "seed": seed,
        "estimator": "empirical-categorical",
        "output": "json",
    })
    return {"data": data, "config": config}


def sim_study(seed: int, workdir: str, k: int, B: int) -> dict:
    """Specs for one methods-study scenario on the non-sequential topology.

    The data file does not exist yet: the scenario's simulate command writes
    it, and its analyze command reads it back.
    """
    rng = np.random.default_rng([seed, 3])
    linear = write_json(os.path.join(workdir, "linear.json"),
                        linear_spec(rng, k, sequential=False))
    binary = write_json(os.path.join(workdir, "binary.json"),
                        binary_spec_nonsequential(rng))
    config = write_json(os.path.join(workdir, "run.json"), {
        "topology": "nonsequential",
        "covariates": [f"c{j + 1}" for j in range(k)],
        "bootstrap_B": B,
        "seed": seed,
        "output": "json",
    })
    data = os.path.join(workdir, "sim.csv")
    return {"linear": linear, "binary": binary, "config": config, "data": data,
            "truth": data + ".truth.json"}
