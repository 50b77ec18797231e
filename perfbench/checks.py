"""Output checks for the benchmark's twomed commands.

Each check takes one command's exit code and standard output (plus the files
it read or wrote) and returns a list of problems, empty when the output is
right. Expected numbers are recomputed in this process from the same input
files the command was given. The bootstrap intervals are recomputed with a
plain loop of this module's own, under the package's seeding contract, so a
change to the package's bootstrap engine that alters the resamples shows.
"""

from __future__ import annotations

import json
import math

import numpy as np

from twomed import (
    AGGREGATE_NAMES,
    Dataset,
    EstimationError,
    ModelCoefficients,
    build_run_config,
    component_names,
    decompose_closed_form,
    decompose_empirical_sequential,
    estimate_tables,
    fit_all,
    load_dataset,
    parse_scm_spec,
    resolve_reference,
)
from twomed.dataio import load_json

REL_TOL = 1e-9
ABS_TOL = 1e-12
# analyze on simulated data may differ from the simulation's truth by at most
# TRUTH_WIDTHS interval widths (a width is about 3.9 standard errors) plus
# TRUTH_FLOOR / sqrt(n), for components near zero whose bootstrap interval
# understates their spread; the simulated outcome has a scale of order 1
TRUTH_WIDTHS = 3.0
TRUTH_FLOOR = 3.0


def _close(x: float, want: float) -> bool:
    return math.isclose(x, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _value(cs, name: str) -> float:
    return cs.aggregates[name] if name in cs.aggregates else cs.component(name)


def _rows(doc: dict) -> list[tuple[str, dict | float]]:
    """(name, row) for every component, then every aggregate, of a report."""
    return [(c["name"], c) for c in doc["components"]] + list(doc["aggregates"].items())


def _compare_estimates(doc: dict, want) -> list[str]:
    problems = []
    for name, row in _rows(doc):
        got = row["estimate"] if isinstance(row, dict) else row
        if not _close(got, _value(want, name)):
            problems.append(f"{name}: {got!r} != recomputed {_value(want, name)!r}")
    return problems


def _names_problems(doc: dict, topology) -> list[str]:
    got = [c["name"] for c in doc["components"]]
    problems = []
    if got != list(component_names(topology)):
        problems.append(f"component names {got}")
    if list(doc["aggregates"]) != list(AGGREGATE_NAMES):
        problems.append(f"aggregate names {list(doc['aggregates'])}")
    return problems


def _estimate(d: Dataset, cfg, estimator: str):
    if estimator == "closed-form":
        return decompose_closed_form(fit_all(d, cfg.topology).coefficients, cfg)
    return decompose_empirical_sequential(estimate_tables(d, cfg), cfg)


def _resample(d: Dataset, idx: np.ndarray) -> Dataset:
    """Rows idx of d, selected here rather than through Dataset.take."""
    return Dataset(a=d.a[idx], m1=d.m1[idx], m2=d.m2[idx], y=d.y[idx],
                   covariates=d.covariates[idx], covariate_names=d.covariate_names)


def recompute_analyze(data: str, config: str):
    """What analyze should report: (point decomposition, {name: (lower,
    upper)}, failed replicates, run config, dataset size).

    Replicate b resamples n rows with ``default_rng([seed, b])``, refits and
    decomposes; failed fits are skipped; bounds are numpy's default quantiles.
    """
    rc = build_run_config(load_json(config, "config"), data=data)
    d, _ = load_dataset(rc.data, rc)
    cfg, _ = resolve_reference(rc, d)
    point = _estimate(d, cfg, rc.estimator)
    draws: dict[str, list[float]] = {
        k: [] for k in [*component_names(cfg.topology), *AGGREGATE_NAMES]}
    failed = 0
    for b in range(rc.bootstrap_B):
        idx = np.random.default_rng([rc.seed, b]).integers(0, d.n, size=d.n)
        try:
            cs = _estimate(_resample(d, idx), cfg, rc.estimator)
        except EstimationError:
            failed += 1
            continue
        for k, vals in draws.items():
            vals.append(_value(cs, k))
    lo_q, hi_q = (1.0 - rc.level) / 2.0, (1.0 + rc.level) / 2.0
    bounds = {k: (float(np.quantile(v, lo_q)), float(np.quantile(v, hi_q)))
              for k, v in draws.items()}
    return point, bounds, failed, rc, d.n


def _truth_problems(doc: dict, truth: str) -> list[str]:
    """Estimates close to the simulation's truth (see TRUTH_WIDTHS)."""
    with open(truth, encoding="utf-8") as fh:
        want = dict(_rows(json.load(fh)))
    floor = TRUTH_FLOOR / math.sqrt(doc["meta"]["n"])
    problems = []
    for name, row in _rows(doc):
        true = want[name]["estimate"] if isinstance(want[name], dict) else want[name]
        tol = TRUTH_WIDTHS * (row["ci_upper"] - row["ci_lower"]) + floor
        if abs(row["estimate"] - true) > tol:
            problems.append(f"{name}: estimate {row['estimate']!r} is more than "
                            f"{tol:.3g} from the truth {true!r}")
    return problems


def check_analyze(code: int, stdout: str, data: str, config: str,
                  truth: str | None = None) -> list[str]:
    """Exit 0, every name present and finite, lower <= upper, point estimates
    and bounds equal to the in-process recomputation and, when the data were
    simulated, estimates close to the simulation's truth."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    want, bounds, failed, rc, n = recompute_analyze(data, config)
    problems = _names_problems(doc, want.topology)
    if problems:
        return problems
    for name, row in _rows(doc):
        vals = (row["estimate"], row["ci_lower"], row["ci_upper"])
        if not all(isinstance(v, float) and math.isfinite(v) for v in vals):
            problems.append(f"{name}: non-finite or missing value {vals}")
        elif not row["ci_lower"] <= row["ci_upper"]:
            problems.append(f"{name}: lower {row['ci_lower']} > upper {row['ci_upper']}")
        elif not (_close(row["ci_lower"], bounds[name][0])
                  and _close(row["ci_upper"], bounds[name][1])):
            problems.append(f"{name}: interval {vals[1:]} != recomputed {bounds[name]}")
    if problems:
        return problems
    meta = doc["meta"]
    if (meta["B"], meta["n"], meta["failed_replicates"]) != (rc.bootstrap_B, n, failed):
        problems.append(f"meta B, n, failed = {meta['B']}, {meta['n']}, "
                        f"{meta['failed_replicates']}; expected {rc.bootstrap_B}, {n}, {failed}")
    problems += _compare_estimates(doc, want)
    if truth and not problems:
        problems += _truth_problems(doc, truth)
    return problems


def check_simulate(code: int, stdout: str, spec: str, n: int, data: str,
                   truth: str, config: str) -> list[str]:
    """Exit 0, n data rows, and a truth file equal to the closed form
    evaluated at the reference the written dataset resolves to."""
    if code != 0:
        return [f"exit code {code}"]
    with open(data, encoding="utf-8") as fh:
        rows = sum(1 for _ in fh) - 1
    if rows != n:
        return [f"{rows} data rows, expected {n}"]
    with open(truth, encoding="utf-8") as fh:
        doc = json.load(fh)
    rc = build_run_config(load_json(config, "config"), data=data)
    d, _ = load_dataset(data, rc)
    cfg, resolved = resolve_reference(rc, d)
    scm = parse_scm_spec(load_json(spec, "model spec"), cfg.topology)
    want = decompose_closed_form(ModelCoefficients.from_scm(scm), cfg)
    problems = _names_problems(doc, cfg.topology)
    if problems:
        return problems
    if doc["reference"] != resolved:
        problems.append(f"truth reference {doc['reference']} != {resolved}")
    if doc["meta"]["n"] != n:
        problems.append(f"truth meta n {doc['meta']['n']} != {n}")
    return problems + _compare_estimates(doc, want)


def check_validate(code: int, stdout: str) -> list[str]:
    """Exit 0 with RESULT: PASS as the last line."""
    lines = stdout.strip().splitlines()
    last = lines[-1] if lines else ""
    if code != 0 or last != "RESULT: PASS":
        return [f"exit code {code}, last line {last!r}"]
    return []
