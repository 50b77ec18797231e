"""Input plumbing: CSV ingestion, run configuration, model-spec files,
and synthetic-data generation for the simulate and validate commands."""

from __future__ import annotations

import csv
import json
import math
import os
import warnings
from dataclasses import dataclass, fields

import numpy as np

from . import linear
from .bootstrap import check_settings
from .core import ConfigError, DataError, ReferenceConfig, Topology
from .linear import LinearScm
from .oracle import BinaryScm
from .regression import Dataset

OUTPUT_FORMATS = ("json", "table")


@dataclass(frozen=True)
class RunConfig:
    """One analysis run, as assembled from a JSON config plus flag overrides.

    m1_star, m2_star and each covariate conditioning value may be the string
    "mean", resolved against the loaded dataset after row drops.
    """

    data: str | None = None
    topology: str = "sequential"
    exposure: str = "a"
    m1: str = "m1"
    m2: str = "m2"
    outcome: str = "y"
    covariates: tuple[str, ...] = ()
    a: float = 1.0
    a_star: float = 0.0
    m1_star: float | str = "mean"
    m2_star: float | str = "mean"
    covariate_values: tuple = ()
    bootstrap_B: int = 1000
    level: float = 0.95
    seed: int = 0
    estimator: str = "closed-form"
    output: str = "json"
    log_m2: bool = False

    def __post_init__(self):
        if self.topology not in (t.value for t in Topology):
            raise ConfigError(
                f"topology must be one of "
                f"{[t.value for t in Topology]}, got {self.topology!r}"
            )
        if self.output not in OUTPUT_FORMATS:
            raise ConfigError(
                f"output must be one of {OUTPUT_FORMATS}, got {self.output!r}"
            )
        for name in ("data", "exposure", "m1", "m2", "outcome"):
            v = getattr(self, name)
            if not isinstance(v, str) and not (name == "data" and v is None):
                raise ConfigError(f"{name} must be a string, got {v!r}")
        if not isinstance(self.log_m2, bool):
            raise ConfigError(f"log_m2 must be true or false, got {self.log_m2!r}")
        if not isinstance(self.covariates, (list, tuple)) or not all(
            isinstance(c, str) for c in self.covariates
        ):
            raise ConfigError(
                f"covariates must be a list of column names, got {self.covariates!r}"
            )
        if not isinstance(self.covariate_values, (list, tuple)):
            raise ConfigError(
                f"covariate_values must be a list, got {self.covariate_values!r}"
            )
        object.__setattr__(self, "covariates", tuple(self.covariates))
        cv = self.covariate_values
        if not cv:
            cv = tuple("mean" for _ in self.covariates)
        cv = tuple(cv)
        if len(cv) != len(self.covariates):
            raise ConfigError(
                f"covariate_values has {len(cv)} entries for "
                f"{len(self.covariates)} covariates"
            )
        object.__setattr__(self, "covariate_values", cv)
        for name in ("a", "a_star"):
            object.__setattr__(self, name, _as_number(getattr(self, name), name))
        for name in ("m1_star", "m2_star"):
            v = getattr(self, name)
            if v != "mean":
                object.__setattr__(self, name, _as_number(v, name))
        for v, cname in zip(self.covariate_values, self.covariates):
            if v != "mean":
                _as_number(v, f"covariate_values[{cname}]")
        for name in ("bootstrap_B", "seed"):
            object.__setattr__(self, name, _as_integer(getattr(self, name), name))
        object.__setattr__(self, "level", _as_number(self.level, "level"))
        # every command holds a config to the bootstrap's rules
        check_settings(self.bootstrap_B, self.level, self.seed, self.estimator)

    @property
    def topology_enum(self) -> Topology:
        return Topology(self.topology)


_CONFIG_KEYS = {f.name for f in fields(RunConfig)}


def _as_number(v, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {v!r}")
    x = float(v)
    if not math.isfinite(x):
        raise ConfigError(f"{path}: expected a finite number, got {v!r}")
    return x


def _as_integer(v, name: str) -> int:
    """An integral number, as an int; a bool is no number here."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) or (
        isinstance(v, float) and not v.is_integer()
    ):
        raise ConfigError(f"{name} must be an integer, got {v!r}")
    return int(v)


def _open_input(path: str, what: str, error: type, **kwargs):
    """open(path, **kwargs) for reading. A missing file, or one the system
    cannot open (a directory, say), raises error: the exit code it maps to
    is the same either way."""
    if not os.path.exists(path):
        raise error(f"{what} file not found: {path}")
    try:
        return open(path, **kwargs)
    except OSError as exc:
        raise error(f"{what} file {path} cannot be opened: {exc.strerror}") from None


def load_json(path: str, what: str) -> dict:
    try:
        with _open_input(path, what, ConfigError, encoding="utf-8") as fh:
            obj = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        # JSON text is UTF-8 (RFC 8259)
        raise ConfigError(f"{what} file {path} is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} file {path} must hold a JSON object")
    return obj


def build_run_config(config_obj: dict | None, **overrides) -> RunConfig:
    """Config-file keys first, then CLI flags (flags win). Unknown keys are
    rejected so typos fail loudly."""
    merged: dict = {}
    if config_obj:
        unknown = set(config_obj) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(
                "unknown config keys: " + ", ".join(sorted(unknown))
            )
        merged.update(config_obj)
    for key, val in overrides.items():
        if val is not None:
            merged[key] = val
    try:
        return RunConfig(**merged)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def load_dataset(path: str, rc: RunConfig) -> tuple[Dataset, int]:
    """Read a CSV into typed columns, dropping unusable rows.

    A row is dropped (and counted) when any required field is empty,
    non-numeric, or non-finite, or when the second mediator is non-positive
    under the log directive. Missing columns and empty results are errors.

    A clean numeric CSV is parsed in bulk by numpy's text reader, which
    converts each field exactly as float() does. The row-by-row reader
    (_load_rows) runs whenever the bulk parse declines a file, such as one
    with a quoted, empty or non-numeric field or a row too short for a
    needed column; it drops only the rows it cannot parse. _drop_in_bulk
    applies the rest of the drop policy to either reader's rows.
    """
    needed = [rc.exposure, rc.m1, rc.m2, rc.outcome, *rc.covariates]
    # utf-8-sig: a byte-order mark, as spreadsheet programs write, is no part
    # of the first column's name
    with _open_input(path, "data", DataError, newline="", encoding="utf-8-sig") as fh:
        try:
            # the header as csv.DictReader reads it
            header = next(csv.reader(fh), [])
            for col in needed:
                if col not in header:
                    raise DataError(f"data file {path} has no column {col!r}")
            # DictReader builds a dict per row, so a repeated name keeps its
            # last column
            column_of = {name: i for i, name in enumerate(header)}
            values = _parse_in_bulk(fh, [column_of[col] for col in needed])
            unparsed = 0
            if values is None:
                fh.seek(0)
                values, unparsed = _load_rows(fh, needed)
            values, dropped = _drop_in_bulk(values, rc.log_m2)
        except (UnicodeDecodeError, csv.Error) as exc:
            # text that is not UTF-8, or a field over csv's size limit
            raise DataError(f"data file {path} cannot be read as CSV: {exc}") from None
    if not len(values):
        raise DataError(f"data file {path} has no usable rows")
    d = Dataset(
        *(values[:, j].copy() for j in range(4)),
        covariates=values[:, 4:].copy(),
        covariate_names=rc.covariates,
    )
    return d, unparsed + dropped


def _parse_in_bulk(fh, usecols: list[int]) -> np.ndarray | None:
    """The rest of the file as one float array, or None when numpy's reader
    declines it.

    numpy's C reader converts each field with CPython's own string-to-double
    routine, so a value it returns has float()'s bits. It raises, and leaves
    the file to the row reader, on the fields it could read otherwise than
    float(): underscores, non-ASCII digits, empty or whitespace-only fields;
    and on a row too short for a needed column. It skips blank lines, as
    DictReader does. A file with no data rows is left to the row reader's
    error.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # "input contained no data"
            return np.loadtxt(_plain_lines(fh), delimiter=",", comments=None,
                              usecols=usecols, ndmin=2, dtype=float)
    except (ValueError, UserWarning):
        return None


def _plain_lines(fh):
    """fh's lines, raising ValueError at one the two readers could part on.

    A quote makes csv join commas, or lines, into one field, even in a
    column numpy never converts. numpy strips \\x1c-\\x1f around a number,
    which float() rejects. csv refuses NUL on some Python versions, and a
    field longer than its size limit, which a line that long could hold.
    """
    limit = csv.field_size_limit()
    for line in fh:
        if ('"' in line or "\x00" in line or "\x1c" in line or "\x1d" in line
                or "\x1e" in line or "\x1f" in line or len(line) > limit):
            raise ValueError("the line needs the csv reader")
        yield line


def _drop_in_bulk(values: np.ndarray, log_m2: bool) -> tuple[np.ndarray, int]:
    """The drop policy and log directive, applied to either reader's rows: a
    row with a non-finite field is dropped, and under log_m2 so is one whose
    second mediator is not positive."""
    keep = np.isfinite(values).all(axis=1)
    if log_m2:
        keep &= values[:, 2] > 0.0
    dropped = len(values) - int(np.count_nonzero(keep))
    if dropped:
        values = values[keep]
    if log_m2:
        # math.log, not np.log, which can differ from it in the last bit
        values[:, 2] = list(map(math.log, values[:, 2].tolist()))
    return values, dropped


def _load_rows(fh, needed: list[str]) -> tuple[np.ndarray, int]:
    """A CSV's needed fields, read one row at a time as csv.DictReader reads
    them, and the count of rows dropped because a field is missing or
    float() rejects it."""
    rows = []
    dropped = 0
    for row in csv.DictReader(fh):
        try:
            rows.append([float(row[col]) for col in needed])
        except (TypeError, ValueError):
            dropped += 1
    return np.array(rows, dtype=float).reshape(-1, len(needed)), dropped


def resolve_reference(
    rc: RunConfig, d: Dataset | None
) -> tuple[ReferenceConfig, dict]:
    """Turn "mean" tokens into numbers and build the estimation config.

    With no dataset (model-only commands) the tokens resolve to 0.0; the
    resolved values are always echoed so reports are self-describing.
    """

    def _resolve(token, column):
        if token == "mean":
            return float(np.mean(column)) if column is not None else 0.0
        return float(token)

    m1_star = _resolve(rc.m1_star, d.m1 if d is not None else None)
    m2_star = _resolve(rc.m2_star, d.m2 if d is not None else None)
    cov_vals = []
    for j, token in enumerate(rc.covariate_values):
        col = d.covariates[:, j] if d is not None else None
        cov_vals.append(_resolve(token, col))
    cfg = ReferenceConfig(
        a=rc.a,
        a_star=rc.a_star,
        m1_star=m1_star,
        m2_star=m2_star,
        covariates=tuple(cov_vals),
        topology=rc.topology_enum,
    )
    resolved = {
        "a": cfg.a,
        "a_star": cfg.a_star,
        "m1_star": cfg.m1_star,
        "m2_star": cfg.m2_star,
        "covariates": dict(zip(rc.covariates, cov_vals)),
    }
    return cfg, resolved


# ---------------------------------------------------------------------------
# structural-model spec files
# ---------------------------------------------------------------------------


def _num_list(obj, key: str, length: int | None, default=None):
    if key not in obj:
        if default is not None:
            return tuple(default)
        raise ConfigError(f"model spec missing required key {key!r}")
    raw = obj[key]
    if not isinstance(raw, list):
        raise ConfigError(f"{key}: expected a list of numbers")
    vals = []
    for i, v in enumerate(raw):
        vals.append(_as_number(v, f"{key}[{i}]"))
    if length is not None and len(vals) != length:
        raise ConfigError(f"{key}: expected {length} entries, got {len(vals)}")
    return tuple(vals)


def _nested_levels(obj, key: str, depth: int):
    """Flatten {"0": {"1": v}} style nested maps to int-tuple keys."""
    if key not in obj:
        raise ConfigError(f"model spec missing required key {key!r}")

    def walk(node, path, prefix):
        if len(prefix) == depth:
            return {prefix: _as_number(node, path)}
        if not isinstance(node, dict):
            raise ConfigError(f"{path}: expected a nested object keyed by 0/1")
        out = {}
        for k, v in node.items():
            if k not in ("0", "1"):
                raise ConfigError(f"{path}.{k}: keys must be \"0\" or \"1\"")
            out.update(walk(v, f"{path}.{k}", prefix + (int(k),)))
        return out

    flat = walk(obj[key], key, ())
    if len(flat) != 2 ** depth:
        raise ConfigError(f"{key}: must cover all {2 ** depth} level combinations")
    return flat


_LINEAR_SPEC_KEYS = {f.name for f in fields(LinearScm)} | {"type", "exposure_p"}


def parse_scm_spec(obj: dict, topology: Topology) -> LinearScm | BinaryScm:
    """A linear spec carries regression coefficients; a binary spec carries
    probability tables. The two key sets do not overlap."""
    if "theta" in obj:
        extra = set(obj) - _LINEAR_SPEC_KEYS
        if extra:
            raise ConfigError("unknown model spec keys: " + ", ".join(sorted(extra)))
        return LinearScm(
            theta=_num_list(obj, "theta", 8),
            beta=_num_list(obj, "beta", 4),
            gamma=_num_list(obj, "gamma", 2),
            theta_c=_num_list(obj, "theta_c", None, default=()),
            beta_c=_num_list(obj, "beta_c", None, default=()),
            gamma_c=_num_list(obj, "gamma_c", None, default=()),
            # an omitted sigma takes LinearScm's default
            **{k: _as_number(obj[k], k) for k in ("sigma_y", "sigma_m1", "sigma_m2")
               if k in obj},
        )
    if "p_m1" in obj:
        extra = set(obj) - {"type", "p_m1", "p_m2", "e_y", "exposure_p", "sigma_y"}
        if extra:
            raise ConfigError("unknown model spec keys: " + ", ".join(sorted(extra)))
        p1 = _nested_levels(obj, "p_m1", 1)
        p2 = _nested_levels(obj, "p_m2", 2)
        ey = _nested_levels(obj, "e_y", 3)
        return BinaryScm(
            p_m1_given_a={k[0]: v for k, v in p1.items()},
            p_m2_given_a_m1=p2,
            e_y_given_a_m1_m2=ey,
            topology=topology,
        )
    raise ConfigError(
        "model spec must contain either \"theta\" (linear) or \"p_m1\" (binary)"
    )


def spec_exposure_p(obj: dict) -> float:
    """Exposure probability for simulation, default one half."""
    return _as_number(obj.get("exposure_p", 0.5), "exposure_p")


def spec_binary_sigma_y(obj: dict) -> float | None:
    """Optional Gaussian outcome noise for binary-model simulation."""
    v = obj.get("sigma_y")
    return None if v is None else _as_number(v, "sigma_y")


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------


def simulate_dataset(
    scm: LinearScm | BinaryScm,
    n: int,
    seed: int,
    exposure_p: float = 0.5,
    binary_sigma_y: float | None = None,
) -> Dataset:
    """Draw n independent individuals from the model.

    Exposure is Bernoulli(exposure_p). Linear models add standard-normal
    covariates of the model's dimension. A binary model yields a Bernoulli
    outcome when every cell mean lies in [0, 1] and binary_sigma_y is unset;
    otherwise the outcome is the cell mean plus optional Gaussian noise.
    """
    if n < 1:
        raise ConfigError(f"n must be at least 1, got {n}")
    if not (0.0 <= exposure_p <= 1.0):
        raise ConfigError(f"exposure_p must be in [0, 1], got {exposure_p}")
    rng = np.random.default_rng(seed)
    a = rng.binomial(1, exposure_p, size=n).astype(float)
    if isinstance(scm, LinearScm):
        c = rng.standard_normal((n, scm.covariate_dim))
        e1 = rng.normal(0.0, scm.sigma_m1, size=n)
        e2 = rng.normal(0.0, scm.sigma_m2, size=n)
        ey = rng.normal(0.0, scm.sigma_y, size=n)
        # an overflow is left to Dataset, which names the non-finite column
        with np.errstate(over="ignore", invalid="ignore"):
            m1 = linear.m1(scm, a, c @ np.asarray(scm.gamma_c), e1)
            m2 = linear.m2(scm, a, m1, c @ np.asarray(scm.beta_c), e2)
            y = linear.y(scm, a, m1, m2, c @ np.asarray(scm.theta_c), ey)
        return Dataset(a=a, m1=m1, m2=m2, y=y, covariates=c)
    p1 = np.where(a == 1.0, scm.p_m1_given_a[1], scm.p_m1_given_a[0])
    m1 = rng.binomial(1, p1).astype(float)
    p2_table = np.array(
        [[scm.p_m2_given_a_m1[(x, v)] for v in (0, 1)] for x in (0, 1)]
    )
    m2 = rng.binomial(1, p2_table[a.astype(int), m1.astype(int)]).astype(float)
    ey_table = np.array(
        [
            [[scm.e_y_given_a_m1_m2[(x, v, w)] for w in (0, 1)] for v in (0, 1)]
            for x in (0, 1)
        ]
    )
    mean_y = ey_table[a.astype(int), m1.astype(int), m2.astype(int)]
    all_prob = bool(np.all((ey_table >= 0.0) & (ey_table <= 1.0)))
    if binary_sigma_y is None and all_prob:
        y = rng.binomial(1, mean_y).astype(float)
    elif binary_sigma_y:
        y = mean_y + rng.normal(0.0, binary_sigma_y, size=n)
    else:
        y = mean_y.astype(float)
    return Dataset(a=a, m1=m1, m2=m2, y=y)


# Rows formatted and written per write call by write_dataset_csv.
_CSV_BLOCK_ROWS = 4096


def write_dataset_csv(d: Dataset, path: str) -> None:
    """Plain CSV with repr-formatted floats, so values round-trip exactly and
    the same dataset always produces the same bytes.

    The header goes through csv.writer, which quotes a name that needs it; a
    float's repr never does, so the body is formatted directly: one block of
    rows per write, by one format string of %r (which is repr) fields.
    """
    row_fmt = ",".join(["%r"] * (4 + d.k)) + "\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["a", "m1", "m2", "y", *d.covariate_names])
        for lo in range(0, d.n, _CSV_BLOCK_ROWS):
            rows = slice(lo, lo + _CSV_BLOCK_ROWS)
            block = np.column_stack((d.a[rows], d.m1[rows], d.m2[rows],
                                     d.y[rows], d.covariates[rows]))
            fh.write(row_fmt * len(block) % tuple(block.ravel().tolist()))
