"""Batch command line interface.

Three subcommands: analyze decomposes a dataset with bootstrap intervals,
simulate draws synthetic data from a model spec next to its exact ground
truth, and validate cross-checks the computation paths against each other.
Exit codes: 0 success, 2 configuration error, 3 data error, 4 estimation
error, 5 validation failure.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import click

from . import __version__
from .bootstrap import ESTIMATORS, bootstrap_decomposition
from .closed_form import decompose_closed_form, expected_counterfactual
from .core import (
    AGGREGATE_NAMES,
    TE,
    ConfigError,
    DataError,
    EstimationError,
    InferenceError,
    Topology,
    component_names,
)
from .dataio import (
    OUTPUT_FORMATS,
    build_run_config,
    load_dataset,
    load_json,
    parse_scm_spec,
    resolve_reference,
    simulate_dataset,
    spec_binary_sigma_y,
    spec_exposure_p,
    write_dataset_csv,
)
from .empirical import ProbTables, decompose_empirical_sequential, estimate_tables
from .linear import LinearScm
from .oracle import (
    BinaryScm,
    enumerate_binary_components,
    enumerate_binary_components_by_individuals,
    simulate_linear_components,
)

_TOPOLOGIES = tuple(t.value for t in Topology)


def _with_model_covariates(rc, scm):
    """Give the run config the model's covariates when it names none."""
    if isinstance(scm, LinearScm) and scm.covariate_dim and not rc.covariates:
        k = scm.covariate_dim
        rc = dataclasses.replace(
            rc,
            covariates=tuple(f"c{i + 1}" for i in range(k)),
            covariate_values=("mean",) * k,
        )
    return rc


def _die(code: int, exc: Exception) -> None:
    click.echo(f"error: {exc}", err=True)
    sys.exit(code)


def _guarded(body) -> None:
    try:
        body()
    except ConfigError as exc:
        _die(2, exc)
    except DataError as exc:
        _die(3, exc)
    except (EstimationError, InferenceError) as exc:
        _die(4, exc)


@click.group()
@click.version_option(__version__, prog_name="twomed")
def main() -> None:
    """Decompose a total causal effect through two mediators."""


@main.command()
@click.option("--data", default=None, help="CSV dataset path (overrides config).")
@click.option("--config", "config_path", default=None, help="JSON run-config path.")
@click.option("--topology", type=click.Choice(_TOPOLOGIES), default=None)
@click.option("--bootstrap-B", "bootstrap_b", type=int, default=None,
              help="Bootstrap replicate count (min 100).")
@click.option("--level", type=float, default=None, help="Confidence level.")
@click.option("--seed", type=int, default=None, help="Resampling seed.")
@click.option("--estimator", type=click.Choice(ESTIMATORS), default=None)
@click.option("--dump-tables", "dump_tables", default=None,
              help="Also write the estimated conditional tables to this JSON path.")
@click.option("--output", type=click.Choice(OUTPUT_FORMATS), default=None)
def analyze(data, config_path, topology, bootstrap_b, level, seed, estimator,
            dump_tables, output):
    """Estimate the decomposition from a dataset, with bootstrap intervals."""

    def body():
        config_obj = load_json(config_path, "config") if config_path else None
        rc = build_run_config(
            config_obj,
            data=data,
            topology=topology,
            bootstrap_B=bootstrap_b,
            level=level,
            seed=seed,
            estimator=estimator,
            output=output,
        )
        if not rc.data:
            raise ConfigError('no dataset given; pass --data or a config "data" key')
        d, dropped = load_dataset(rc.data, rc)
        cfg, resolved = resolve_reference(rc, d)
        # a configuration the tables reject fails before any replicate runs;
        # the empirical estimator checks, and returns, its own tables first
        tables = None
        if dump_tables and rc.estimator == "closed-form":
            tables = estimate_tables(d, cfg)
        result = bootstrap_decomposition(
            d, cfg, B=rc.bootstrap_B, level=rc.level, seed=rc.seed,
            estimator=rc.estimator,
        )
        if dump_tables:
            with open(dump_tables, "w", encoding="utf-8") as fh:
                fh.write((tables or result.tables).to_json())
        doc = _report_doc(rc, cfg, resolved, result, n=d.n, dropped=dropped)
        if rc.output == "json":
            click.echo(json.dumps(doc, indent=2))
        else:
            click.echo(_format_table(doc))

    _guarded(body)


def _report_doc(rc, cfg, resolved, result, n, dropped):
    components = [
        {
            "name": name,
            "estimate": result.point.component(name),
            "ci_lower": result.lower[name],
            "ci_upper": result.upper[name],
        }
        for name in component_names(cfg.topology)
    ]
    aggregates = {
        name: {
            "estimate": result.point.aggregates[name],
            "ci_lower": result.lower[name],
            "ci_upper": result.upper[name],
        }
        for name in AGGREGATE_NAMES
    }
    return {
        "topology": cfg.topology.value,
        "reference": resolved,
        "components": components,
        "aggregates": aggregates,
        "meta": {
            "seed": result.seed,
            "B": result.replicates,
            "n": n,
            "dropped_rows": dropped,
            "level": result.level,
            "estimator": rc.estimator,
            "failed_replicates": result.failed_replicates,
            "version": __version__,
        },
    }


def _format_table(doc) -> str:
    level = doc["meta"]["level"]
    ci_head = f"{level * 100:g}% C.I."
    lines = [f"{'Component':<22}{'Estimate':>12}   {ci_head}"]

    def row(name, est, lo, hi):
        return f"{name:<22}{est:>12.6g}   ({lo:.6g}, {hi:.6g})"

    for comp in doc["components"]:
        lines.append(row(comp["name"], comp["estimate"],
                         comp["ci_lower"], comp["ci_upper"]))
    lines.append("-" * len(lines[0]))
    for name, agg in doc["aggregates"].items():
        lines.append(row(name, agg["estimate"], agg["ci_lower"], agg["ci_upper"]))
    ref = doc["reference"]
    covs = ", ".join(f"{k}={v:g}" for k, v in ref["covariates"].items())
    lines.append(
        f"reference: a={ref['a']:g} vs a*={ref['a_star']:g}, "
        f"m1*={ref['m1_star']:g}, m2*={ref['m2_star']:g}"
        + (f", {covs}" if covs else "")
    )
    meta = doc["meta"]
    lines.append(
        f"n={meta['n']} (dropped {meta['dropped_rows']}), B={meta['B']}, "
        f"seed={meta['seed']}, estimator={meta['estimator']}"
    )
    return "\n".join(lines)


@main.command()
@click.option("--spec", "spec_path", required=True, help="Model spec JSON path.")
@click.option("--n", "n_rows", type=int, required=True, help="Rows to draw.")
@click.option("--data", "data_out", required=True, help="Output CSV path.")
@click.option("--truth", "truth_out", default=None,
              help="Ground-truth JSON path (default: <data>.truth.json).")
@click.option("--config", "config_path", default=None, help="JSON run-config path.")
@click.option("--topology", type=click.Choice(_TOPOLOGIES), default=None)
@click.option("--seed", type=int, default=None)
def simulate(spec_path, n_rows, data_out, truth_out, config_path, topology, seed):
    """Draw synthetic data from a model spec, with exact ground truth."""

    def body():
        config_obj = load_json(config_path, "config") if config_path else None
        rc = build_run_config(config_obj, topology=topology, seed=seed)
        spec_obj = load_json(spec_path, "model spec")
        scm = parse_scm_spec(spec_obj, rc.topology_enum)
        rc = _with_model_covariates(rc, scm)
        d = simulate_dataset(
            scm,
            n=n_rows,
            seed=rc.seed,
            exposure_p=spec_exposure_p(spec_obj),
            binary_sigma_y=(
                spec_binary_sigma_y(spec_obj) if isinstance(scm, BinaryScm) else None
            ),
        )
        cfg, resolved = resolve_reference(rc, d)
        if isinstance(scm, BinaryScm):
            truth = enumerate_binary_components(scm, cfg)
        else:
            truth = decompose_closed_form(scm, cfg)
        write_dataset_csv(d, data_out)
        truth_path = truth_out or data_out + ".truth.json"
        doc = {
            "topology": cfg.topology.value,
            "reference": resolved,
            "components": [
                {"name": name, "estimate": truth.component(name)}
                for name in component_names(cfg.topology)
            ],
            "aggregates": dict(truth.aggregates),
            "meta": {"seed": rc.seed, "n": n_rows, "version": __version__},
        }
        with open(truth_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        click.echo(f"wrote {data_out} ({n_rows} rows) and {truth_path}")

    _guarded(body)


@main.command()
@click.option("--spec", "spec_path", required=True, help="Model spec JSON path.")
@click.option("--config", "config_path", default=None, help="JSON run-config path.")
@click.option("--topology", type=click.Choice(_TOPOLOGIES), default=None)
@click.option("--seed", type=int, default=None)
@click.option("--mc-n", "mc_n", type=int, default=1_000_000,
              help="Monte Carlo draws for linear models.")
@click.option("--tol", type=float, default=1e-12,
              help="Tolerance for exact path agreement.")
@click.option("--mc-z", "mc_z", type=float, default=4.0,
              help="Allowed SE multiples for Monte-Carlo deltas.")
def validate(spec_path, config_path, topology, seed, mc_n, tol, mc_z):
    """Cross-check the computation paths on a model spec (exit 5 on failure)."""

    def body():
        config_obj = load_json(config_path, "config") if config_path else None
        rc = build_run_config(config_obj, topology=topology, seed=seed)
        spec_obj = load_json(spec_path, "model spec")
        scm = parse_scm_spec(spec_obj, rc.topology_enum)
        rc = _with_model_covariates(rc, scm)
        cfg, resolved = resolve_reference(rc, None)
        names = list(component_names(cfg.topology)) + list(AGGREGATE_NAMES)
        failures = 0
        if isinstance(scm, BinaryScm):
            click.echo(f"binary model, topology {cfg.topology.value}")
            sets = {
                "probability sums": enumerate_binary_components(scm, cfg),
                "latent individuals": enumerate_binary_components_by_individuals(
                    scm, cfg
                ),
            }
            if cfg.topology is Topology.SEQUENTIAL:
                sets["table estimator"] = decompose_empirical_sequential(
                    ProbTables.from_binary_scm(scm), cfg
                )
            base_tag = "probability sums"
            base = sets[base_tag]
            for tag, cs in sets.items():
                if tag == base_tag:
                    continue
                worst = 0.0
                for name in names:
                    va = _value(base, name)
                    vb = _value(cs, name)
                    worst = max(worst, abs(va - vb))
                ok = worst <= tol
                failures += 0 if ok else 1
                click.echo(
                    f"  {base_tag} vs {tag}: max |delta| = {worst:.3e} "
                    f"(tol {tol:g}) {'PASS' if ok else 'FAIL'}"
                )
        else:
            click.echo(
                f"linear model, topology {cfg.topology.value}, "
                f"mc n={mc_n}, seed={rc.seed}"
            )
            exact = decompose_closed_form(scm, cfg)
            mc = simulate_linear_components(scm, cfg, n=mc_n, seed=rc.seed)
            worst_name, worst_z = "", 0.0
            constant, worst_rel = [], 0.0
            for name in names:
                want = _value(exact, name)
                delta = abs(_value(mc.components, name) - want)
                se = mc.standard_errors[name]
                if se == 0.0:
                    # the same value for every individual: the Monte Carlo mean
                    # is exact up to rounding, so compare it like an exact path
                    constant.append(name)
                    worst_rel = max(worst_rel, delta / max(1.0, abs(want)))
                    continue
                z = delta / se
                if z > worst_z:
                    worst_name, worst_z = name, z
            ok = worst_z <= mc_z
            failures += 0 if ok else 1
            click.echo(
                f"  closed form vs Monte Carlo: worst |z| = {worst_z:.2f} "
                f"({worst_name}; allowed {mc_z:g}) {'PASS' if ok else 'FAIL'}"
            )
            if constant:
                ok = worst_rel <= tol
                failures += 0 if ok else 1
                click.echo(
                    "  closed form vs Monte Carlo, zero-spread terms "
                    f"({', '.join(constant)}): max rel |delta| = {worst_rel:.3e} "
                    f"(rel tol {tol:g}) {'PASS' if ok else 'FAIL'}"
                )
            if cfg.topology is Topology.SEQUENTIAL:
                w1 = expected_counterfactual("W1", scm, cfg)
                w8 = expected_counterfactual("W8", scm, cfg)
                te = exact.aggregates[TE]
                delta = abs(te - (w1 - w8))
                ok = delta <= tol * max(1.0, abs(te))
                failures += 0 if ok else 1
                click.echo(
                    f"  total-effect polynomial vs W1 - W8: |delta| = {delta:.3e} "
                    f"(rel tol {tol:g}) {'PASS' if ok else 'FAIL'}"
                )
        click.echo(
            "reference: "
            + json.dumps(resolved, sort_keys=True)
        )
        if failures:
            click.echo(f"RESULT: FAIL ({failures} check(s) out of tolerance)")
            sys.exit(5)
        click.echo("RESULT: PASS")

    _guarded(body)


def _value(cs, name: str) -> float:
    return cs.aggregates[name] if name in cs.aggregates else cs.component(name)


if __name__ == "__main__":
    main()
