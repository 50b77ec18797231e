"""Batch command line interface.

Three subcommands: analyze decomposes a dataset with bootstrap intervals,
simulate draws synthetic data from a model spec next to its exact ground
truth, and validate cross-checks the computation paths against each other.
Exit codes: 0 success, 2 configuration error, 3 data error, 4 estimation
error, 5 validation failure. A config or spec file that is missing or cannot
be opened is a configuration error, a data file a data error, and an output
path that cannot be written a configuration error, found before any work.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys

import click

from . import __version__
from .bootstrap import ESTIMATORS, bootstrap_decomposition
from .closed_form import decompose_closed_form
from .core import (
    AGGREGATE_NAMES,
    TE,
    ConfigError,
    DataError,
    EstimationError,
    InferenceError,
    Topology,
    component_names,
    value_names,
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


def _read_spec(config_path, spec_path, **options):
    """The run config, the spec object and its model, as simulate and validate
    read them. The run config takes the model's covariates when it names none."""
    config_obj = load_json(config_path, "config") if config_path else None
    rc = build_run_config(config_obj, **options)
    spec_obj = load_json(spec_path, "model spec")
    scm = parse_scm_spec(spec_obj, rc.topology_enum)
    if isinstance(scm, LinearScm) and scm.covariate_dim and not rc.covariates:
        k = scm.covariate_dim
        rc = dataclasses.replace(
            rc,
            covariates=tuple(f"c{i + 1}" for i in range(k)),
            covariate_values=("mean",) * k,
        )
    return rc, spec_obj, scm


# what str.splitlines() breaks a line at, each written as its escape, so that
# a config key or a column name holding one cannot split the error line
_LINE_BREAKS = str.maketrans(
    {c: repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})


def _die(code: int, exc: Exception) -> None:
    click.echo(f"error: {str(exc).translate(_LINE_BREAKS)}", err=True)
    sys.exit(code)


def _finite_nonnegative(ctx, param, value: float) -> float:
    """A tolerance must be a finite number >= 0: NaN fails every comparison."""
    if not (math.isfinite(value) and value >= 0.0):
        raise click.BadParameter(f"must be finite and >= 0, got {value}")
    return value


def _check_writable(path: str, what: str) -> None:
    """Raise ConfigError unless path can be opened for writing. The check
    leaves no file behind: one it had to create is removed again."""
    existed = os.path.lexists(path)
    try:
        open(path, "a", encoding="utf-8").close()
    except OSError as exc:
        raise ConfigError(f"{what} {path} cannot be written: {exc.strerror}") from None
    if not existed:
        os.remove(path)


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
        if dump_tables:
            _check_writable(dump_tables, "--dump-tables path")
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
@click.option("--n", "n_rows", type=click.IntRange(max=10_000_000), required=True,
              help="Rows to draw (at most 10,000,000).")
@click.option("--data", "data_out", required=True, help="Output CSV path.")
@click.option("--truth", "truth_out", default=None,
              help="Ground-truth JSON path (default: <data>.truth.json).")
@click.option("--config", "config_path", default=None, help="JSON run-config path.")
@click.option("--topology", type=click.Choice(_TOPOLOGIES), default=None)
@click.option("--seed", type=int, default=None)
def simulate(spec_path, n_rows, data_out, truth_out, config_path, topology, seed):
    """Draw synthetic data from a model spec, with exact ground truth."""

    def body():
        rc, spec_obj, scm = _read_spec(config_path, spec_path, topology=topology,
                                       seed=seed)
        truth_path = truth_out or data_out + ".truth.json"
        _check_writable(data_out, "--data path")
        _check_writable(truth_path, "--truth path")
        binary = isinstance(scm, BinaryScm)
        d = simulate_dataset(
            scm,
            n=n_rows,
            seed=rc.seed,
            exposure_p=spec_exposure_p(spec_obj),
            binary_sigma_y=spec_binary_sigma_y(spec_obj) if binary else None,
        )
        # a binary model's "mean" references resolve without data, to 0.0, as
        # validate resolves them: the binary oracle takes levels 0 and 1 only
        cfg, resolved = resolve_reference(rc, None if binary else d)
        if binary:
            truth = enumerate_binary_components(scm, cfg)
        else:
            truth = decompose_closed_form(scm, cfg)
        write_dataset_csv(d, data_out)
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
@click.option("--mc-n", "mc_n", type=click.IntRange(min=100, max=1_000_000_000),
              default=1_000_000,
              help="Monte Carlo draws for linear models (100 to 1,000,000,000).")
@click.option("--tol", type=float, default=1e-12, callback=_finite_nonnegative,
              help="Tolerance for exact path agreement.")
@click.option("--mc-z", "mc_z", type=float, default=4.0, callback=_finite_nonnegative,
              help="Allowed SE multiples for Monte-Carlo deltas.")
def validate(spec_path, config_path, topology, seed, mc_n, tol, mc_z):
    """Cross-check the computation paths on a model spec (exit 5 on failure)."""

    def body():
        rc, _, scm = _read_spec(config_path, spec_path, topology=topology, seed=seed)
        cfg, resolved = resolve_reference(rc, None)
        topo = f"topology {cfg.topology.value}"
        click.echo(f"binary model, {topo}" if isinstance(scm, BinaryScm)
                   else f"linear model, {topo}, mc n={mc_n}, seed={rc.seed}")
        checks = validation_checks(scm, cfg, mc_n, rc.seed, tol, mc_z)
        for check in checks:
            click.echo(check.line())
        click.echo("reference: " + json.dumps(resolved, sort_keys=True))
        failures = sum(check.passed is False for check in checks)
        if failures:
            click.echo(f"RESULT: FAIL ({failures} check(s) out of tolerance)")
            sys.exit(5)
        click.echo("RESULT: PASS")

    _guarded(body)


@dataclasses.dataclass(frozen=True)
class Check:
    """One line of validate's report: value, the measure named (a max |delta|,
    a worst |z| or a relative |delta|), held to bound * scale. worst is the
    term it was found at. A check without a bound is a note with no verdict.
    """

    label: str
    measure: str = ""
    value: float = math.nan
    worst: str = ""
    bound: float | None = None
    bound_name: str = "tol"
    scale: float = 1.0

    @property
    def passed(self) -> bool | None:
        """value <= bound * scale, so a NaN fails; None for a note."""
        return None if self.bound is None else self.value <= self.bound * self.scale

    def line(self) -> str:
        """The check as validate prints it: a z-test names its worst term."""
        if self.passed is None:
            return f"  {self.label}"
        z = self.measure == "worst |z|"
        value = f"{self.value:.2f} ({self.worst}; " if z else f"{self.value:.3e} ("
        return (f"  {self.label}: {self.measure} = {value}{self.bound_name} "
                f"{self.bound:g}) {'PASS' if self.passed else 'FAIL'}")


def validation_checks(scm, cfg, mc_n: int, seed: int, tol: float,
                      mc_z: float) -> list[Check]:
    """validate's cross-checks of the computation paths on one model, one
    Check per report line: a binary model's paths against its probability
    sums; a linear model's closed form against mc_n Monte Carlo draws from
    seed, by |z| where a term has spread, and its component sum against
    W1 - W8."""
    names = value_names(cfg.topology)
    if isinstance(scm, BinaryScm):
        base = enumerate_binary_components(scm, cfg)
        paths = {"latent individuals":
                 enumerate_binary_components_by_individuals(scm, cfg)}
        if cfg.topology is Topology.SEQUENTIAL:
            paths["table estimator"] = decompose_empirical_sequential(
                ProbTables.from_binary_scm(scm), cfg
            )
        return [Check(f"probability sums vs {tag}", "max |delta|",
                      *_worst({n: abs(base.value(n) - cs.value(n)) for n in names}),
                      tol)
                for tag, cs in paths.items()]
    exact = decompose_closed_form(scm, cfg)
    mc = simulate_linear_components(scm, cfg, n=mc_n, seed=seed)
    z, rel = {}, {}
    for name in names:
        want = exact.value(name)
        delta = abs(mc.components.value(name) - want)
        if mc.standard_errors[name] == 0.0:
            # the same value for every individual: the Monte Carlo mean is
            # exact up to rounding, so compare it like an exact path
            rel[name] = delta / max(1.0, abs(want))
        else:
            z[name] = delta / mc.standard_errors[name]
    label = "closed form vs Monte Carlo"
    checks = [Check(label, "worst |z|", *_worst(z), mc_z, "allowed") if z else
              Check(f"{label}: no term has Monte Carlo spread, so none is z-tested")]
    if rel:
        checks.append(Check(f"{label}, zero-spread terms ({', '.join(rel)})",
                            "max rel |delta|", *_worst(rel), tol, "rel tol"))
    # TE is W1 - W8, the table's TE row over the expected counterfactuals;
    # the component polynomials are the other route to it
    te = exact.aggregates[TE]
    total = math.fsum(exact.components.values())
    checks.append(Check("component sum vs W1 - W8", "|delta|",
                        abs(total - te), TE, tol, "rel tol", max(1.0, abs(te))))
    return checks


def _worst(deviations: dict) -> tuple[float, str]:
    """The largest of deviations (each >= 0) and its name, the first of equals.
    A NaN is worse than any number and, once worst, stays so."""
    worst, at = -math.inf, ""
    for name, value in deviations.items():
        if not (math.isnan(worst) or value <= worst):
            worst, at = value, name
    return worst, at


if __name__ == "__main__":
    main()
