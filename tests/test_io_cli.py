"""CSV/config plumbing and the click entry points, including exit codes."""

import contextlib
import dataclasses
import io
import json
import math
import os
import platform
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import twomed.dataio
import twomed.empirical
from conftest import (
    loop_load_dataset,
    loop_write_dataset_csv,
    make_linear_dataset,
    random_linear_scm,
)
from twomed import (
    BinaryScm,
    ConfigError,
    DataError,
    Dataset,
    LinearScm,
    ReferenceConfig,
    Topology,
    build_run_config,
    decompose_closed_form,
    enumerate_binary_components,
    load_dataset,
    parse_scm_spec,
    resolve_reference,
    simulate_dataset,
    simulate_linear_components,
    write_dataset_csv,
)
import twomed.cli
from twomed.bootstrap import ESTIMATORS
from twomed.cli import Check, main, validation_checks
from twomed.dataio import OUTPUT_FORMATS


def test_run_config_defaults():
    rc = build_run_config(None)
    assert rc.topology == "sequential"
    assert rc.bootstrap_B == 1000
    assert rc.level == 0.95
    assert rc.m1_star == "mean"
    assert rc.covariates == ()


def test_unknown_config_keys_fail_loudly():
    with pytest.raises(ConfigError, match="bootstrapB"):
        build_run_config({"bootstrapB": 500})


def test_flag_overrides_beat_config_file():
    rc = build_run_config({"seed": 3, "level": 0.9}, seed=7)
    assert rc.seed == 7
    assert rc.level == 0.9


# values each config key accepts, as JSON or as a flag
_CONFIG_VALUES = {
    "data": st.sampled_from(["one.csv", "two.csv"]),
    "topology": st.sampled_from(["sequential", "nonsequential"]),
    "exposure": st.sampled_from(["a", "x"]),
    "outcome": st.sampled_from(["y", "z"]),
    "a": st.floats(-10.0, 10.0),
    "a_star": st.integers(-3, 3),
    "m1_star": st.one_of(st.just("mean"), st.floats(-10.0, 10.0)),
    "bootstrap_B": st.integers(100, 5000),
    "level": st.floats(0.5, 0.999),
    "seed": st.integers(0, 2 ** 32),
    "estimator": st.sampled_from(ESTIMATORS),
    "output": st.sampled_from(OUTPUT_FORMATS),
    "log_m2": st.booleans(),
}


@st.composite
def _config_sources(draw):
    """A JSON config object and flag overrides over the same keys, with
    covariate lists of one shared length so that any merge is valid."""
    k = draw(st.integers(0, 3))
    values = dict(_CONFIG_VALUES)
    values["covariates"] = st.lists(st.sampled_from(["c1", "c2", "age"]),
                                    min_size=k, max_size=k)
    values["covariate_values"] = st.lists(
        st.one_of(st.just("mean"), st.floats(-5.0, 5.0)), min_size=k, max_size=k)
    keys = sorted(values)
    obj = {key: draw(values[key]) for key in draw(st.sets(st.sampled_from(keys)))}
    flags = {key: draw(st.one_of(st.none(), values[key])) for key in keys}
    if flags["covariates"] is None:
        obj.setdefault("covariates", draw(values["covariates"]))
    # the one pair of accepted values that is refused together
    merged = obj | {key: flag for key, flag in flags.items() if flag is not None}
    assume((merged.get("estimator"), merged.get("topology"))
           != ("empirical-categorical", "nonsequential"))
    return obj, flags


@settings(max_examples=100, deadline=None)
@given(_config_sources())
def test_flags_beat_config_keys_and_none_falls_through(sources):
    obj, flags = sources
    rc = build_run_config(obj, **flags)
    default = build_run_config(None)
    for key, flag in flags.items():
        want = flag if flag is not None else obj.get(key, getattr(default, key))
        if key == "covariate_values" and not want:
            want = ("mean",) * len(rc.covariates)
        if isinstance(want, list):
            assert type(getattr(rc, key)) is tuple
            want = tuple(want)
        assert getattr(rc, key) == want, key


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(
    st.text(max_size=8).filter(lambda k: k not in twomed.dataio._CONFIG_KEYS),
    st.integers(), min_size=1), st.data())
def test_unknown_config_keys_are_named_in_sorted_order(unknown, data):
    obj = {**unknown, **data.draw(st.fixed_dictionaries({}, optional=_CONFIG_VALUES))}
    with pytest.raises(ConfigError) as info:
        build_run_config(obj, seed=1)
    assert str(info.value) == "unknown config keys: " + ", ".join(sorted(unknown))


def test_run_config_validation():
    with pytest.raises(ConfigError):
        build_run_config({"topology": "circular"})
    with pytest.raises(ConfigError):
        build_run_config({"estimator": "ridge"})
    with pytest.raises(ConfigError):
        build_run_config({"output": "xml"})
    with pytest.raises(ConfigError):
        build_run_config({"a": "high"})
    with pytest.raises(ConfigError):
        build_run_config({"m1_star": "median"})
    with pytest.raises(ConfigError):
        build_run_config({"bootstrap_B": 100.5})
    with pytest.raises(ConfigError, match="seed must be a nonnegative integer"):
        build_run_config({"seed": -1})
    with pytest.raises(ConfigError):
        build_run_config(
            {"covariates": ["age", "sex"], "covariate_values": [1.0]}
        )
    # a JSON boolean only: the string "false" would be true
    for value in ("false", "true", 0, 1, None, [True]):
        with pytest.raises(ConfigError, match="log_m2"):
            build_run_config({"log_m2": value})
    # column and path names are strings
    for key in ("data", "exposure", "m1", "m2", "outcome"):
        for value in (5, ["x"], {"x": 1}, True):
            with pytest.raises(ConfigError, match=f"{key} must be a string"):
                build_run_config({key: value})
    for key in ("exposure", "m1", "m2", "outcome"):
        with pytest.raises(ConfigError, match=f"{key} must be a string"):
            build_run_config({key: None})


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_dataset_drop_policy(tmp_path):
    csv_path = _write(
        tmp_path / "d.csv",
        "a,m1,m2,y\n"
        "1,0.5,2.0,3.0\n"
        "0,0.1,1.0,2.0\n"
        "1,,1.5,2.5\n"        # empty field
        "0,abc,1.5,2.5\n"     # non-numeric
        "1,0.2,inf,2.5\n"     # non-finite
        "0,0.3,-1.0,2.5\n"    # nonpositive mediator under the log directive
        "1,0.4,4.0,5.0\n",
    )
    rc = build_run_config({"log_m2": True})
    d, dropped = load_dataset(csv_path, rc)
    assert d.n == 3
    assert dropped == 4
    assert d.m2[0] == math.log(2.0)
    # without the log directive the negative mediator row is kept
    d2, dropped2 = load_dataset(csv_path, build_run_config(None))
    assert d2.n == 4
    assert dropped2 == 3


def test_load_dataset_errors(tmp_path):
    rc = build_run_config(None)
    with pytest.raises(DataError, match="not found"):
        load_dataset(str(tmp_path / "missing.csv"), rc)
    no_col = _write(tmp_path / "nc.csv", "a,m1,outcome\n1,2,3\n")
    with pytest.raises(DataError, match="'m2'"):
        load_dataset(no_col, rc)
    empty = _write(tmp_path / "e.csv", "a,m1,m2,y\nx,x,x,x\n")
    with pytest.raises(DataError, match="no usable rows"):
        load_dataset(empty, rc)


_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10 ** 30, 10 ** 30).map(str),
    st.builds("{}.{}e{}".format, st.integers(-10 ** 25, 10 ** 25),
              st.integers(0, 10 ** 25), st.integers(-330, 310)),
)
_NUMBERS = st.one_of(
    _FINITE, _FINITE,
    st.sampled_from(["nan", "NaN", "-inf", "+inf", "Infinity", "-Infinity",
                     "-0.0", "1e400", "-1e-400", ".5", "5."]),
)
# padding float() strips, ASCII or not
_PAD = st.text(st.sampled_from(" \t\x0b\x0c\xa0\u2003"), max_size=2)
_PADDED_NUMBERS = st.one_of(
    _NUMBERS, st.builds(lambda l, x, r: l + x + r, _PAD, _NUMBERS, _PAD))
# fields the bulk parse declines, or that the csv module splits otherwise
# than at each comma
_ODD_FIELDS = st.sampled_from([
    "", " ", "abc", "1_0", "\u0661\u0662", "\uff11", "#1", "0x10", "1 2",
    "1\x002", "\x1c1", "1\x1f", '"1.5"', '"2,5"', '"3\n4"', '1"', '"', '""',
])
# names of columns no config reads, as written in the header
_FREE_NAMES = ("x", '"z"', '"w,v"', '"p\nq"')
# extra header names: repeats of needed ones, quoted ones, a multi-line one
_EXTRA_NAMES = st.sampled_from(["a", "m2", "y", "c1", *_FREE_NAMES])
# what a well-formed file may hold in a column no config reads: a quoted
# comma or line break there shifts every later field of a plain comma split
_FREE_FIELDS = st.one_of(_PADDED_NUMBERS,
                         st.sampled_from(["", "txt", '"p,q"', '"u"', '"v\nw"']))


def _quoted(name):
    return '"' + name + '"'


@st.composite
def _csv_files(draw):
    """CSV text for the loaders and the config to read it with.

    Half of the files hold rows of the header's width with a number in every
    column a config may read, which the bulk parse takes unless a quote
    shows; the others may hold any odd field, short and long rows, and
    whitespace-only lines, which send them to the row reader.
    """
    covariates = draw(st.sampled_from([(), ("c1",), ("c2", "c1")]))
    names = [_quoted(n) if draw(st.booleans()) else n
             for n in ("a", "m1", "m2", "y", "c1", "c2")]
    names += draw(st.lists(_EXTRA_NAMES, max_size=3))
    names = draw(st.permutations(names))
    odd = draw(st.booleans())
    cell = st.one_of(_PADDED_NUMBERS, _ODD_FIELDS)
    lines = [",".join(names)]
    for _ in range(draw(st.integers(0, 6))):
        if odd:
            width = len(names) + draw(st.sampled_from([0, 0, -1, -2, 1, 2]))
            row = draw(st.lists(cell, min_size=width, max_size=width))
        else:
            row = [draw(_FREE_FIELDS if name in _FREE_NAMES else _PADDED_NUMBERS)
                   for name in names]
        lines.append(",".join(row))
        if draw(st.integers(0, 3)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t"] if odd else [""])))
    endings = st.sampled_from(["\n", "\r\n", "\r"])
    text = "".join(line + draw(endings) for line in lines)
    if draw(st.booleans()):
        text = text[:-1]
    if draw(st.integers(0, 7)) == 0:
        text = "\ufeff" + text
    rc = build_run_config({"covariates": list(covariates),
                           "log_m2": draw(st.booleans())})
    return text, rc


def _bits(d):
    return [c.view(np.int64).tolist() for c in (d.a, d.m1, d.m2, d.y, d.covariates)]


def _load_outcome(load, path, rc):
    """A loader's columns as bits and its drop count, or its error."""
    try:
        d, dropped = load(path, rc)
    except Exception as exc:  # the two loaders must fail alike
        return type(exc), str(exc)
    return _bits(d), dropped


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_csv_files())
# a quoted comma in a column no config reads: a plain comma split puts 1,
# where csv puts 2, under a
@example(('x,z,a,m1,m2,y\n"p,q",1,2,3,4,5\n', build_run_config(None)))
# float() rejects \x1c-\x1f around a number, which numpy strips
@example(("a,m1,m2,y\n1,2,3,4\x1c\n5,6,7,8\n", build_run_config(None)))
def test_load_dataset_matches_the_row_loop(tmp_path, csv_file):
    text, rc = csv_file
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode("utf-8"))
    assert (_load_outcome(load_dataset, str(path), rc)
            == _load_outcome(loop_load_dataset, str(path), rc))


@pytest.mark.parametrize("log_m2", [False, True], ids=["plain", "log-m2"])
@pytest.mark.parametrize("names", [("c1", "c2"), ("c,1", 'say "hi"')],
                         ids=["plain-names", "quoted-names"])
def test_a_written_dataset_loads_in_bulk(tmp_path, monkeypatch, log_m2, names):
    """What write_dataset_csv writes never needs the row reader."""
    sim = simulate_dataset(random_linear_scm(np.random.default_rng(3)), n=500, seed=9)
    d = Dataset(a=sim.a, m1=sim.m1, m2=sim.m2, y=sim.y, covariates=sim.covariates,
                covariate_names=names)
    path = str(tmp_path / "d.csv")
    write_dataset_csv(d, path)
    rc = build_run_config({"covariates": list(names), "log_m2": log_m2})
    want, want_dropped = loop_load_dataset(path, rc)

    def row_reader(*args):
        raise AssertionError("the bulk parse declined a written dataset")

    monkeypatch.setattr(twomed.dataio, "_load_rows", row_reader)
    got, dropped = load_dataset(path, rc)
    assert (_bits(got), dropped) == (_bits(want), want_dropped)
    if log_m2:
        assert dropped == np.count_nonzero(d.m2 <= 0.0) > 0
    else:
        assert _bits(got) == _bits(d)


def _fifty_rows():
    return "a,m1,m2,y\n" + "".join(
        f"{i % 2},{i % 3},{0.5 * i},{1.25 * i - 7}\n" for i in range(50))


@pytest.mark.parametrize("reader", ["bulk", "rows"])
def test_a_byte_order_mark_loads_like_no_mark(tmp_path, monkeypatch, reader):
    """A UTF-8 file that starts with a byte-order mark, as spreadsheet
    programs save CSV, loads to the bits of the same file without one."""
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(_fifty_rows().encode("utf-8"))
    marked.write_bytes(_fifty_rows().encode("utf-8-sig"))

    def row_reader(*args):
        raise AssertionError("the bulk parse declined a clean file")

    if reader == "rows":
        monkeypatch.setattr(twomed.dataio, "_parse_in_bulk", lambda *args: None)
    else:
        monkeypatch.setattr(twomed.dataio, "_load_rows", row_reader)
    rc = build_run_config(None)
    got, dropped = load_dataset(str(marked), rc)
    want, want_dropped = load_dataset(str(plain), rc)
    assert got.n == 50
    assert (_bits(got), dropped) == (_bits(want), want_dropped)


def test_mean_tokens_resolve_after_drops(tmp_path):
    csv_path = _write(
        tmp_path / "d.csv",
        "a,m1,m2,y\n1,2.0,1.0,0\n0,4.0,-1.0,0\n1,10.0,3.0,0\n",
    )
    rc = build_run_config({"log_m2": True})
    d, dropped = load_dataset(csv_path, rc)
    assert dropped == 1
    cfg, resolved = resolve_reference(rc, d)
    # the dropped middle row must not pull the mean
    assert cfg.m1_star == pytest.approx((2.0 + 10.0) / 2)
    assert cfg.m2_star == pytest.approx((math.log(1.0) + math.log(3.0)) / 2)
    assert resolved["m1_star"] == cfg.m1_star


def test_mean_tokens_without_dataset_resolve_to_zero():
    cfg, _ = resolve_reference(build_run_config(None), None)
    assert cfg.m1_star == 0.0
    assert cfg.m2_star == 0.0


LINEAR_SPEC = {
    "theta": [0.0, 1.0, 0.5, 0.25, 0.1, 0.2, 0.3, 0.05],
    "beta": [0.0, 0.8, 0.4, 0.1],
    "gamma": [0.0, 0.7],
    "sigma_y": 0.5,
}

BINARY_SPEC = {
    "p_m1": {"0": 0.3, "1": 0.6},
    "p_m2": {"0": {"0": 0.2, "1": 0.5}, "1": {"0": 0.4, "1": 0.7}},
    "e_y": {
        "0": {"0": {"0": 0.1, "1": 0.2}, "1": {"0": 0.3, "1": 0.4}},
        "1": {"0": {"0": 0.5, "1": 0.6}, "1": {"0": 0.7, "1": 0.8}},
    },
}


def test_parse_scm_spec_shapes():
    lin = parse_scm_spec(LINEAR_SPEC, Topology.SEQUENTIAL)
    assert isinstance(lin, LinearScm)
    assert lin.sigma_y == 0.5
    binm = parse_scm_spec(BINARY_SPEC, Topology.SEQUENTIAL)
    assert isinstance(binm, BinaryScm)
    assert binm.p_m2_given_a_m1[(1, 0)] == 0.4


def test_parse_scm_spec_errors():
    with pytest.raises(ConfigError, match="'beta'"):
        parse_scm_spec({"theta": [0.0] * 8}, Topology.SEQUENTIAL)
    with pytest.raises(ConfigError, match="expected 8 entries"):
        parse_scm_spec({"theta": [0.0] * 7}, Topology.SEQUENTIAL)
    with pytest.raises(ConfigError, match="p_m1.2"):
        bad = dict(BINARY_SPEC, p_m1={"0": 0.3, "2": 0.6})
        parse_scm_spec(bad, Topology.SEQUENTIAL)
    with pytest.raises(ConfigError, match="4 level combinations"):
        bad = dict(BINARY_SPEC, p_m2={"0": {"0": 0.2, "1": 0.5}})
        parse_scm_spec(bad, Topology.SEQUENTIAL)
    with pytest.raises(ConfigError, match="unknown model spec keys"):
        parse_scm_spec(dict(LINEAR_SPEC, thetas=[1]), Topology.SEQUENTIAL)
    with pytest.raises(ConfigError, match="theta.*p_m1|p_m1.*theta"):
        parse_scm_spec({"type": "?"}, Topology.SEQUENTIAL)


def test_csv_round_trip_is_byte_identical(tmp_path):
    scm = parse_scm_spec(LINEAR_SPEC, Topology.SEQUENTIAL)
    d = simulate_dataset(scm, n=40, seed=5)
    p1 = tmp_path / "one.csv"
    p2 = tmp_path / "two.csv"
    write_dataset_csv(d, str(p1))
    loaded, dropped = load_dataset(str(p1), build_run_config(None))
    assert dropped == 0
    assert np.array_equal(loaded.y, d.y)
    write_dataset_csv(loaded, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


# signed zero, the smallest subnormal, a huge value and integral floats
_EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 3.0, -2.0, 1e16, 1e22,
                0.1, 2.0 ** 53 + 2.0]


@pytest.mark.parametrize("names", [(), ("c,1", 'say "hi"', "c3")], ids=["k0", "k3"])
@pytest.mark.parametrize("block", [5, None], ids=["block-5", "default-block"])
def test_block_csv_writer_writes_the_row_loop_bytes(tmp_path, monkeypatch,
                                                    names, block):
    if block is None:
        n = twomed.dataio._CSV_BLOCK_ROWS + 3
    else:
        monkeypatch.setattr(twomed.dataio, "_CSV_BLOCK_ROWS", block)
        n = 23
    rng = np.random.default_rng(len(names))
    values = np.concatenate([_EDGE_VALUES, rng.normal(0.0, 1e3, 4 * n)])
    cols = rng.choice(values, (n, 4 + len(names)))
    d = Dataset(a=cols[:, 0], m1=cols[:, 1], m2=cols[:, 2], y=cols[:, 3],
                covariates=cols[:, 4:], covariate_names=names)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_dataset_csv(d, str(got))
    loop_write_dataset_csv(d, str(want))
    assert got.read_bytes() == want.read_bytes()
    if names:
        assert got.read_text().startswith('a,m1,m2,y,"c,1","say ""hi""",c3\n')


@pytest.mark.parametrize("k", [0, 3], ids=["k0", "k3"])
def test_csv_body_is_each_rows_repr_join(tmp_path, monkeypatch, k):
    """The block format string's %r fields give each row's repr join, at
    repr's switches between fixed and exponent form and at the signed zeros
    and the smallest subnormal, in full blocks and a short last one."""
    monkeypatch.setattr(twomed.dataio, "_CSV_BLOCK_ROWS", 4)
    values = [0.0, -0.0, 1e16, 1e-5, 5e-324, 123456789012345.6, 1e22]
    values += [-v for v in values]
    # every value in every column
    rows = [[values[(i + j) % len(values)] for j in range(4 + k)]
            for i in range(len(values))]
    cols = np.array(rows)
    names = tuple(f"c{j + 1}" for j in range(k))
    d = Dataset(a=cols[:, 0], m1=cols[:, 1], m2=cols[:, 2], y=cols[:, 3],
                covariates=cols[:, 4:], covariate_names=names)
    path = tmp_path / "data.csv"
    write_dataset_csv(d, str(path))
    header = ",".join(["a", "m1", "m2", "y", *names]) + "\n"
    body = "".join(",".join(map(repr, row)) + "\n" for row in rows)
    assert path.read_bytes() == (header + body).encode()


def test_simulate_dataset_binary_outcome_modes():
    scm = parse_scm_spec(BINARY_SPEC, Topology.SEQUENTIAL)
    d = simulate_dataset(scm, n=100, seed=3)
    assert set(np.unique(d.y)) <= {0.0, 1.0}
    noisy = simulate_dataset(scm, n=100, seed=3, binary_sigma_y=0.1)
    assert not set(np.unique(noisy.y)) <= {0.0, 1.0}
    means = {(0, 0, 0): -2.0}
    means.update({k: 0.5 for k in (
        (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1),
    )})
    deg = BinaryScm(
        p_m1_given_a={0: 0.5, 1: 0.5},
        p_m2_given_a_m1={(0, 0): 0.5, (0, 1): 0.5, (1, 0): 0.5, (1, 1): 0.5},
        e_y_given_a_m1_m2=means,
        topology=Topology.SEQUENTIAL,
    )
    exact = simulate_dataset(deg, n=50, seed=4)
    assert set(np.unique(exact.y)) <= {-2.0, 0.5}


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


@pytest.fixture()
def runner():
    return CliRunner()


def _linear_csv(tmp_path, n=300, seed=2):
    scm = parse_scm_spec(LINEAR_SPEC, Topology.SEQUENTIAL)
    d = simulate_dataset(scm, n=n, seed=seed)
    path = tmp_path / "data.csv"
    write_dataset_csv(d, str(path))
    return str(path)


def test_cli_analyze_json_report(runner, tmp_path):
    data = _linear_csv(tmp_path)
    res = runner.invoke(
        main, ["analyze", "--data", data, "--bootstrap-B", "100", "--seed", "1"]
    )
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["topology"] == "sequential"
    names = [c["name"] for c in doc["components"]]
    assert len(names) == 9 and "CDE" in names and "NatINT_M1M2" in names
    for comp in doc["components"]:
        assert comp["ci_lower"] <= comp["ci_upper"]
    assert doc["meta"]["n"] == 300
    assert doc["meta"]["dropped_rows"] == 0
    assert doc["meta"]["B"] == 100
    # mean tokens are resolved and echoed
    assert isinstance(doc["reference"]["m1_star"], float)
    assert "TE" in doc["aggregates"]


def test_cli_analyze_table_output(runner, tmp_path):
    data = _linear_csv(tmp_path)
    res = runner.invoke(
        main,
        ["analyze", "--data", data, "--bootstrap-B", "100", "--output", "table"],
    )
    assert res.exit_code == 0, res.output
    assert "Component" in res.output
    assert "reference: a=1" in res.output
    assert "CDE" in res.output


def test_cli_seed_flag_overrides_config(runner, tmp_path):
    data = _linear_csv(tmp_path)
    cfg_path = _write(tmp_path / "cfg.json", json.dumps({"seed": 5, "data": data}))
    res = runner.invoke(
        main,
        ["analyze", "--config", cfg_path, "--bootstrap-B", "100", "--seed", "9"],
    )
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["meta"]["seed"] == 9


def test_cli_analyze_dump_tables(runner, tmp_path):
    scm = parse_scm_spec(BINARY_SPEC, Topology.SEQUENTIAL)
    d = simulate_dataset(scm, n=400, seed=6)
    data = tmp_path / "bin.csv"
    write_dataset_csv(d, str(data))
    dump = tmp_path / "tables.json"
    # categorical tables need reference levels on the observed support
    cfg = _write(tmp_path / "cfg.json", json.dumps({"m1_star": 0, "m2_star": 0}))
    res = runner.invoke(
        main,
        [
            "analyze", "--data", str(data), "--config", cfg,
            "--bootstrap-B", "100",
            "--estimator", "empirical-categorical", "--seed", "2",
            "--dump-tables", str(dump),
        ],
    )
    assert res.exit_code == 0, res.output
    tables = json.loads(dump.read_text())
    assert set(tables) == {"support", "strata", "pr_m1", "pr_m2", "p_y"}
    assert tables["support"]["a"] == ["0", "1"]


def test_cli_dump_tables_rejects_a_bad_configuration_before_the_bootstrap(
    runner, tmp_path, monkeypatch
):
    # continuous mediators: the mean reference levels are not table levels
    def no_bootstrap(*args, **kwargs):
        raise AssertionError("the bootstrap ran before the table check")

    monkeypatch.setattr(twomed.cli, "bootstrap_decomposition", no_bootstrap)
    dump = tmp_path / "tables.json"
    res = runner.invoke(
        main,
        ["analyze", "--data", _linear_csv(tmp_path), "--bootstrap-B", "100",
         "--dump-tables", str(dump)],
    )
    assert res.exit_code == 2, res.output
    assert "m1 reference level" in res.output
    assert "not in the table support" in res.output
    assert not dump.exists()


def test_cli_dump_tables_takes_the_empirical_estimators_own_tables(
    runner, tmp_path, monkeypatch
):
    scm = parse_scm_spec(BINARY_SPEC, Topology.SEQUENTIAL)
    d = simulate_dataset(scm, n=400, seed=6)
    data = tmp_path / "bin.csv"
    write_dataset_csv(d, str(data))
    cfg = _write(tmp_path / "cfg.json", json.dumps({"m1_star": 0, "m2_star": 0}))
    coders = []
    init = twomed.empirical.CellCoder.__init__
    monkeypatch.setattr(twomed.empirical.CellCoder, "__init__",
                        lambda coder, d: coders.append(d) or init(coder, d))
    dump = tmp_path / "tables.json"

    def analyze(config):
        return runner.invoke(main, [
            "analyze", "--data", str(data), "--config", config, "--bootstrap-B", "100",
            "--estimator", "empirical-categorical", "--dump-tables", str(dump),
        ])

    res = analyze(cfg)
    assert res.exit_code == 0, res.output
    assert len(coders) == 1
    loaded, _ = load_dataset(str(data), build_run_config(None, data=str(data)))
    cfg_obj, _ = resolve_reference(
        build_run_config({"m1_star": 0, "m2_star": 0}, data=str(data)), loaded)
    assert dump.read_text() == twomed.empirical.estimate_tables(loaded, cfg_obj).to_json()

    # a rejected configuration still fails before any replicate is drawn
    def no_replicates(*args, **kwargs):
        raise AssertionError("a replicate ran before the table check")

    monkeypatch.setattr(twomed.bootstrap, "_resample_indices", no_replicates)
    bad = _write(tmp_path / "bad.json", json.dumps({"m1_star": 7, "m2_star": 0}))
    dump.unlink()
    res = analyze(bad)
    assert res.exit_code == 2, res.output
    assert "m1 reference level" in res.output
    assert not dump.exists()


def test_cli_closed_form_dumps_the_nonsequential_tables(runner, tmp_path):
    """The tables do not depend on the topology; the closed-form run checks
    them against a non-sequential configuration and writes them."""
    scm = parse_scm_spec(BINARY_SPEC, Topology.SEQUENTIAL)
    d = simulate_dataset(scm, n=400, seed=6)
    data = str(tmp_path / "bin.csv")
    write_dataset_csv(d, data)
    config = {"m1_star": 0, "m2_star": 0, "topology": "nonsequential"}
    cfg = _write(tmp_path / "cfg.json", json.dumps(config))
    dump = tmp_path / "tables.json"
    res = runner.invoke(main, [
        "analyze", "--data", data, "--config", cfg, "--bootstrap-B", "100",
        "--estimator", "closed-form", "--topology", "nonsequential",
        "--dump-tables", str(dump),
    ])
    assert res.exit_code == 0, res.output
    assert json.loads(res.stdout)["topology"] == "nonsequential"
    loaded, _ = load_dataset(data, build_run_config(None, data=data))
    cfg_obj, _ = resolve_reference(build_run_config(config, data=data), loaded)
    assert cfg_obj.topology is Topology.NONSEQUENTIAL
    assert dump.read_text() == twomed.empirical.estimate_tables(loaded, cfg_obj).to_json()


@pytest.mark.parametrize("command, flag, code, what", [
    ("analyze", "--data", 3, "data"),
    ("analyze", "--config", 2, "config"),
    ("simulate", "--spec", 2, "model spec"),
    ("validate", "--spec", 2, "model spec"),
])
def test_cli_an_input_path_that_cannot_be_opened_exits_like_a_missing_one(
    runner, tmp_path, command, flag, code, what
):
    # a directory: it exists, and open() raises IsADirectoryError
    rest = {
        "analyze": ["--data", _linear_csv(tmp_path), "--bootstrap-B", "100"],
        "simulate": ["--n", "30", "--data", str(tmp_path / "sim.csv")],
        "validate": [],
    }[command]
    res = runner.invoke(main, [command, *rest, flag, str(tmp_path)])
    assert res.exit_code == code, res.output
    assert res.stderr.splitlines() == [
        f"error: {what} file {tmp_path} cannot be opened: Is a directory"
    ]
    missing = runner.invoke(main, [command, *rest, flag, str(tmp_path / "none")])
    assert missing.exit_code == code, missing.output


def test_cli_a_config_that_is_not_utf8_exits_2(runner, tmp_path):
    config = tmp_path / "run.json"
    config.write_bytes(b'{"seed": "caf\xe9"}')
    res = runner.invoke(main, ["analyze", "--data", _linear_csv(tmp_path),
                               "--config", str(config)])
    assert res.exit_code == 2, res.output
    assert res.stderr.startswith(f"error: config file {config} is not valid JSON")


@pytest.mark.parametrize("entry", [
    {"seed": 1.5},
    {"seed": True},
    {"level": "x"},
    {"covariates": 5},
    {"covariate_values": 3},
], ids=lambda entry: "-".join(map(str, *entry.items())))
def test_cli_a_config_value_of_the_wrong_type_exits_2(runner, tmp_path, entry):
    """A seed must be an integer and not a bool, so that a run's seed is the
    one its config names; a level a number; covariates and their values
    lists."""
    config = _write(tmp_path / "run.json", json.dumps({"seed": 3, **entry}))
    res = runner.invoke(main, ["analyze", "--data", _linear_csv(tmp_path),
                               "--config", config, "--bootstrap-B", "100"])
    assert res.exit_code == 2, res.output
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), res.stderr
    assert next(iter(entry)) in lines[0]


@pytest.mark.parametrize("value", ["false", 0, None], ids=repr)
def test_cli_a_log_m2_that_is_not_a_bool_exits_2(runner, tmp_path, value):
    """A log_m2 string such as "false" is no JSON boolean: it fails, rather
    than log-transforming m2 and dropping every row with m2 <= 0."""
    config = _write(tmp_path / "run.json", json.dumps({"log_m2": value}))
    res = runner.invoke(main, ["analyze", "--data", _linear_csv(tmp_path),
                               "--config", config, "--bootstrap-B", "100"])
    assert res.exit_code == 2, res.output
    assert res.stdout == ""
    assert res.stderr.splitlines() == [
        f"error: log_m2 must be true or false, got {value!r}"
    ]


def test_cli_an_unwritable_tables_path_exits_2_before_the_bootstrap(
    runner, tmp_path, monkeypatch
):
    def no_bootstrap(*args, **kwargs):
        raise AssertionError("the bootstrap ran before the path check")

    monkeypatch.setattr(twomed.cli, "bootstrap_decomposition", no_bootstrap)
    data = _linear_csv(tmp_path)
    for dump, reason in [(tmp_path / "none" / "t.json", "No such file or directory"),
                         (tmp_path, "Is a directory")]:
        res = runner.invoke(main, ["analyze", "--data", data, "--bootstrap-B", "100",
                                   "--dump-tables", str(dump)])
        assert res.exit_code == 2, res.output
        assert res.stderr.splitlines() == [
            f"error: --dump-tables path {dump} cannot be written: {reason}"
        ]
    # a path the check could write is left as it was found: absent
    dump = tmp_path / "t.json"
    res = runner.invoke(main, ["analyze", "--data", data, "--bootstrap-B", "100",
                               "--dump-tables", str(dump)])
    assert res.exit_code == 2, res.output
    assert "m1 reference level" in res.stderr
    assert not dump.exists()


def test_cli_simulate_checks_its_output_paths_before_writing(runner, tmp_path):
    spec = _write(tmp_path / "spec.json", json.dumps(LINEAR_SPEC))
    data, truth = tmp_path / "sim.csv", tmp_path / "none" / "truth.json"
    res = runner.invoke(main, ["simulate", "--spec", spec, "--n", "30",
                               "--data", str(data), "--truth", str(truth)])
    assert res.exit_code == 2, res.output
    assert res.stderr.splitlines() == [
        f"error: --truth path {truth} cannot be written: No such file or directory"
    ]
    assert not data.exists()
    res = runner.invoke(main, ["simulate", "--spec", spec, "--n", "30",
                               "--data", str(tmp_path)])
    assert res.exit_code == 2, res.output
    assert res.stderr.splitlines() == [
        f"error: --data path {tmp_path} cannot be written: Is a directory"
    ]


def test_cli_exit_code_2_for_config_problems(runner, tmp_path):
    res = runner.invoke(main, ["analyze"])
    assert res.exit_code == 2
    assert "no dataset" in res.output

    res = runner.invoke(main, ["analyze", "--config", str(tmp_path / "nope.json")])
    assert res.exit_code == 2

    bad = _write(tmp_path / "bad.json", json.dumps({"bootstrapB": 5}))
    res = runner.invoke(main, ["analyze", "--config", bad])
    assert res.exit_code == 2
    assert "unknown config keys" in res.output


@pytest.mark.parametrize("command", ["simulate", "validate"])
def test_cli_exit_code_2_for_a_zero_sigma_m2(runner, tmp_path, command):
    spec = _write(tmp_path / "spec.json", json.dumps(dict(LINEAR_SPEC, sigma_m2=0)))
    args = {
        "simulate": ["--n", "30", "--data", str(tmp_path / "sim.csv")],
        "validate": ["--mc-n", "1000"],
    }[command]
    res = runner.invoke(main, [command, "--spec", spec, *args])
    assert res.exit_code == 2, res.output
    assert "sigma_m2 must be a positive real" in res.output


def test_cli_exit_code_3_for_data_problems(runner, tmp_path):
    res = runner.invoke(main, ["analyze", "--data", str(tmp_path / "none.csv")])
    assert res.exit_code == 3
    missing = _write(tmp_path / "m.csv", "a,m1,y\n1,2,3\n")
    res = runner.invoke(main, ["analyze", "--data", missing])
    assert res.exit_code == 3


@pytest.mark.parametrize("tail", [b"1,2,3,caf\xe9\n", b"1,2,3," + b"9" * 200_000 + b"\n"],
                         ids=["latin-1", "field-over-the-csv-limit"])
def test_cli_exit_code_3_for_a_file_the_csv_reader_cannot_read(runner, tmp_path, tail):
    path = tmp_path / "d.csv"
    path.write_bytes(_fifty_rows().encode("utf-8") + tail)
    res = runner.invoke(main, ["analyze", "--data", str(path), "--bootstrap-B", "100"])
    assert res.exit_code == 3, res.output
    assert f"data file {path} cannot be read as CSV" in res.output


def test_cli_exit_code_4_for_degenerate_designs(runner, tmp_path):
    rng = np.random.default_rng(0)
    n = 60
    a = rng.integers(0, 2, n).astype(float)
    m1 = rng.normal(size=n)
    rows = ["a,m1,m2,y"]
    for i in range(n):
        # second mediator is an exact multiple of the first: collinear design
        rows.append(f"{a[i]},{m1[i]},{2 * m1[i]},{rng.normal()}")
    data = _write(tmp_path / "c.csv", "\n".join(rows) + "\n")
    res = runner.invoke(main, ["analyze", "--data", data, "--bootstrap-B", "100"])
    assert res.exit_code == 4
    assert "error:" in res.output


def test_cli_exit_code_4_when_the_closed_form_overflows(runner, tmp_path):
    data = _linear_csv(tmp_path)
    config = _write(tmp_path / "run.json", json.dumps({"a": 1e100}))
    res = runner.invoke(main, ["analyze", "--data", data, "--config", config,
                               "--bootstrap-B", "100"])
    assert res.exit_code == 4, res.output
    assert "a=1e+100" in res.output
    assert "Traceback" not in res.output
    assert isinstance(res.exception, SystemExit)


def _run_cli(*args, **env):
    """Run the CLI in a child process, as a user would, with env added to
    the environment."""
    src = os.path.dirname(os.path.dirname(twomed.dataio.__file__))
    return subprocess.run(
        [sys.executable, "-m", "twomed.cli", *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src, **env},
    )


def _json_leaves(doc, path=""):
    """(path, value) for every leaf of a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return [(path, doc)]
    return [leaf for key, value in items for leaf in _json_leaves(value, f"{path}/{key}")]


def _under_blas_threads(threads, *args, **env):
    """stdout of a CLI run whose BLAS may start that many threads, no more,
    with env added to the environment."""
    pins = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS"), str(threads))
    res = _run_cli(*args, **pins, **env)
    assert res.returncode == 0, res.stderr
    return res.stdout


def _closed_form_run(tmp_path, rng):
    """analyze arguments for a closed-form run on n = 2,000 rows with two
    covariates, B = 200."""
    data = make_linear_dataset(random_linear_scm(rng, k=2), 2_000, seed=1)
    write_dataset_csv(Dataset(a=data["a"], m1=data["m1"], m2=data["m2"],
                              y=data["y"], covariates=data["covariates"]),
                      str(tmp_path / "linear.csv"))
    config = _write(tmp_path / "run.json", json.dumps(
        {"covariates": ["c1", "c2"], "bootstrap_B": 200, "seed": 0, "output": "json"}))
    return ("analyze", "--data", str(tmp_path / "linear.csv"), "--config", config)


def test_blas_threads_move_values_within_the_stated_bound(tmp_path):
    """The README's contract across BLAS thread counts: one thread against
    two moves a closed-form report's values by at most 1e-13 relative, and
    not its failed-replicate count, and leaves an empirical report's bytes
    as they are."""
    rng = np.random.default_rng(0)
    args = _closed_form_run(tmp_path, rng)
    one, two = (dict(_json_leaves(json.loads(_under_blas_threads(t, *args))))
                for t in (1, 2))
    assert one.keys() == two.keys()
    assert one["/meta/failed_replicates"] == two["/meta/failed_replicates"]
    for key, value in one.items():
        if isinstance(value, float):
            assert math.isclose(value, two[key], rel_tol=1e-13, abs_tol=0.0), key
        else:
            assert value == two[key], key

    n = 2_000
    a, m1, m2, c = (rng.integers(0, 2, n) for _ in range(4))
    write_dataset_csv(Dataset(a=a, m1=m1, m2=m2, y=a + m1 * m2 + rng.normal(size=n),
                              covariates=c[:, None]), str(tmp_path / "binary.csv"))
    args = ("analyze", "--data", str(tmp_path / "binary.csv"), "--estimator",
            "empirical-categorical", "--config", _write(tmp_path / "cat.json", json.dumps(
                {"covariates": ["c1"], "covariate_values": [1], "m1_star": 0,
                 "m2_star": 0, "bootstrap_B": 200, "seed": 2, "output": "json"})))
    assert _under_blas_threads(1, *args) == _under_blas_threads(2, *args)


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="the OpenBLAS kernel named is an x86-64 one")
def test_blas_kernels_move_values_within_the_stated_bound(tmp_path):
    """The README's contract across BLAS kernels: at one thread, OpenBLAS's
    Nehalem kernel against the one it picks for the CPU moves each value of
    a closed-form report by at most 1e-13 times max(1, the sum of the point
    components' magnitudes), and not its failed-replicate count."""
    args = _closed_form_run(tmp_path, np.random.default_rng(0))
    picked, nehalem = (json.loads(_under_blas_threads(1, *args, **env))
                       for env in ({}, {"OPENBLAS_CORETYPE": "Nehalem"}))
    scale = max(1.0, sum(abs(c["estimate"]) for c in picked["components"]))
    one, two = dict(_json_leaves(picked)), dict(_json_leaves(nehalem))
    assert one.keys() == two.keys()
    assert one["/meta/failed_replicates"] == two["/meta/failed_replicates"]
    for key, value in one.items():
        if isinstance(value, float):
            assert abs(value - two[key]) <= 1e-13 * scale, key
        else:
            assert value == two[key], key


def test_cli_exit_code_4_for_an_overflowing_design(tmp_path):
    """Finite mediators near 1e160 overflow the m1*m2 column. The run stops
    with one error line on stderr, from before the design reaches LAPACK."""
    rng = np.random.default_rng(1)
    n = 200
    rows = ["a,m1,m2,y"] + [
        f"{i % 2},{rng.uniform(0.5, 2.0) * 1e160!r},{rng.uniform(0.5, 2.0) * 1e160!r},"
        f"{rng.normal()!r}"
        for i in range(n)
    ]
    data = _write(tmp_path / "big.csv", "\n".join(rows) + "\n")
    res = _run_cli("analyze", "--data", data, "--bootstrap-B", "100")
    assert res.returncode == 4, res.stderr
    assert res.stderr.splitlines() == [
        "error: outcome design is not finite; overflowing columns: m1:m2, a:m1:m2"
    ]


@pytest.mark.parametrize("theta7", [1e160, 1e300])
def test_cli_exit_code_4_for_an_overflowing_monte_carlo_spread(tmp_path, theta7):
    """theta_7 this large leaves the closed form finite, but the squares of
    the per-individual contrasts overflow. validate stops with one error line
    naming the terms whose Monte Carlo spread overflows."""
    spec = _write(tmp_path / "spec.json", json.dumps(
        {**LINEAR_SPEC, "theta": [*LINEAR_SPEC["theta"][:7], theta7]}))
    res = _run_cli("validate", "--spec", spec, "--mc-n", "1000", "--seed", "1")
    assert res.returncode == 4, res.stderr
    assert res.stderr.splitlines() == [
        "error: Monte Carlo spread overflows for INT_ref_AM2+AM1M2, NatINT_AM1, "
        "NatINT_AM2, NatINT_AM1M2, PDE, TDE, TE: the per-individual contrasts "
        "are too large to square and sum"
    ]


def test_cli_simulate_reports_an_overflowing_outcome_in_one_line(tmp_path):
    """An outcome that overflows is one error line on stderr, with no numpy
    warning before it, and no data file."""
    spec = _write(tmp_path / "spec.json", json.dumps({
        **LINEAR_SPEC, "theta": [*LINEAR_SPEC["theta"][:7], 1e307],
        "sigma_m1": 50.0, "sigma_m2": 50.0,
    }))
    out = tmp_path / "sim.csv"
    res = _run_cli("simulate", "--spec", spec, "--n", "1000", "--data", str(out),
                   "--seed", "1")
    assert res.returncode == 3, res.stderr
    assert res.stderr.splitlines() == ["error: column 'y' contains non-finite values"]
    assert not out.exists()


def test_cli_validate_never_passes_a_nan(runner, tmp_path, monkeypatch):
    """A NaN standard error makes a NaN z, which fails the z-test and stays
    the worst |z|, whatever terms follow it."""
    draw = twomed.cli.simulate_linear_components

    def nan_se(*args, **kwargs):
        mc = draw(*args, **kwargs)
        ses = {**mc.standard_errors, "CDE": math.nan}
        return dataclasses.replace(mc, standard_errors=ses)

    monkeypatch.setattr(twomed.cli, "simulate_linear_components", nan_se)
    spec = _write(tmp_path / "spec.json", json.dumps(LINEAR_SPEC))
    res = runner.invoke(main, ["validate", "--spec", spec, "--mc-n", "1000",
                               "--seed", "1"])
    assert res.exit_code == 5, res.output
    assert "worst |z| = nan (CDE; allowed 4) FAIL" in res.output


def test_cli_simulate_writes_data_and_truth(runner, tmp_path):
    spec = _write(tmp_path / "spec.json", json.dumps(LINEAR_SPEC))
    out = tmp_path / "sim.csv"
    truth = tmp_path / "truth.json"
    res = runner.invoke(
        main,
        [
            "simulate", "--spec", spec, "--n", "50",
            "--data", str(out), "--truth", str(truth), "--seed", "3",
        ],
    )
    assert res.exit_code == 0, res.output
    assert len(out.read_text().splitlines()) == 51
    doc = json.loads(truth.read_text())
    assert doc["meta"]["n"] == 50
    assert "TE" in doc["aggregates"]
    comp = {c["name"]: c["estimate"] for c in doc["components"]}
    assert len(comp) == 9
    # ground truth is exact, not fitted: rerunning with another seed keeps it
    res2 = runner.invoke(
        main,
        [
            "simulate", "--spec", spec, "--n", "50",
            "--data", str(out), "--truth", str(truth), "--seed", "4",
        ],
    )
    assert res2.exit_code == 0
    assert json.loads(truth.read_text())["aggregates"]["TE"] == doc["aggregates"]["TE"]


def test_cli_simulate_default_truth_path(runner, tmp_path):
    spec = _write(tmp_path / "spec.json", json.dumps(BINARY_SPEC))
    cfg = _write(tmp_path / "cfg.json", json.dumps({"m1_star": 0, "m2_star": 0}))
    out = tmp_path / "sim.csv"
    res = runner.invoke(
        main,
        ["simulate", "--spec", spec, "--config", cfg, "--n", "30",
         "--data", str(out)],
    )
    assert res.exit_code == 0, res.output
    assert (tmp_path / "sim.csv.truth.json").exists()


def test_cli_simulate_binary_reference_off_the_levels_is_rejected(runner, tmp_path):
    # a binary model takes reference levels 0 and 1 only
    spec = _write(tmp_path / "spec.json", json.dumps(BINARY_SPEC))
    cfg = _write(tmp_path / "cfg.json", json.dumps({"m1_star": 0.5}))
    out = tmp_path / "sim.csv"
    res = runner.invoke(
        main, ["simulate", "--spec", spec, "--config", cfg, "--n", "30",
               "--data", str(out)]
    )
    assert res.exit_code == 2
    assert "must be 0 or 1" in res.output


# BINARY_SPEC with Pr(M2 | a, m1) the same for both m1: a non-sequential model
NONSEQUENTIAL_BINARY_SPEC = {
    **BINARY_SPEC, "p_m2": {"0": {"0": 0.2, "1": 0.2}, "1": {"0": 0.4, "1": 0.4}},
}


@pytest.mark.parametrize("topology", list(Topology))
@pytest.mark.parametrize("seed", [3, 7, 11])
def test_cli_simulate_binary_resolves_mean_references_to_zero(
    runner, tmp_path, topology, seed
):
    """With no config, a binary spec's "mean" references resolve without
    data, to 0.0, as validate resolves them, not to the drawn data's means:
    the truth file is the exact decomposition at m1* = m2* = 0."""
    spec_obj = (BINARY_SPEC if topology is Topology.SEQUENTIAL
                else NONSEQUENTIAL_BINARY_SPEC)
    spec = _write(tmp_path / "spec.json", json.dumps(spec_obj))
    truth = tmp_path / "truth.json"
    res = runner.invoke(main, [
        "simulate", "--spec", spec, "--n", "200", "--data", str(tmp_path / "sim.csv"),
        "--truth", str(truth), "--topology", topology.value, "--seed", str(seed),
    ])
    assert res.exit_code == 0, res.output
    doc = json.loads(truth.read_text())
    want = enumerate_binary_components(
        parse_scm_spec(spec_obj, topology),
        ReferenceConfig(1.0, 0.0, 0.0, 0.0, topology=topology),
    )
    assert doc["reference"] == {"a": 1.0, "a_star": 0.0, "m1_star": 0.0,
                                "m2_star": 0.0, "covariates": {}}
    assert {c["name"]: c["estimate"] for c in doc["components"]} == want.components
    assert doc["aggregates"] == want.aggregates


@pytest.mark.parametrize("config, error", [
    ({"bootstrap_B": 5, "level": 7}, "bootstrap needs B >= 100 replicates, got 5"),
    ({"bootstrap_B": 1_000_001},
     "bootstrap needs B <= 1000000 replicates, got 1000001"),
    ({"level": 7}, "confidence level must be in (0, 1), got 7.0"),
    ({"estimator": "ridge"}, "unknown estimator 'ridge'; choose one of "
                             "('closed-form', 'empirical-categorical')"),
    ({"estimator": "empirical-categorical", "topology": "nonsequential"},
     "estimator 'empirical-categorical' needs the sequential topology, "
     "got nonsequential"),
], ids=["B-and-level", "B-over-the-cap", "level", "estimator",
        "estimator-and-topology"])
def test_every_command_holds_a_config_to_the_bootstrap_rules(
    runner, tmp_path, config, error
):
    """analyze, simulate and validate refuse the same bootstrap settings, with
    the same one error line, before any work."""
    spec = _write(tmp_path / "spec.json", json.dumps(LINEAR_SPEC))
    cfg = _write(tmp_path / "cfg.json", json.dumps(config))
    commands = [
        ["analyze", "--data", _linear_csv(tmp_path)],
        ["simulate", "--spec", spec, "--n", "30", "--data", str(tmp_path / "sim.csv")],
        ["validate", "--spec", spec, "--mc-n", "1000"],
    ]
    for args in commands:
        res = runner.invoke(main, [*args, "--config", cfg])
        assert res.exit_code == 2, (args[0], res.output)
        assert res.stderr.splitlines() == [f"error: {error}"], args[0]
        assert res.stdout == "", args[0]
    assert not (tmp_path / "sim.csv").exists()


# any JSON value: huge, negative and non-finite numbers, bools, lists, null
_JSON_VALUES = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70),
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([1e300, -1e300, -0.0, 0.5, 1.0]),
        st.text(max_size=4), st.sampled_from(["mean", "c1", "m1", "json", "table"]),
    ),
    lambda inner: st.lists(inner, max_size=3), max_leaves=4,
)
# bootstrap_B values the config refuses, so that no drawn run is larger
_REFUSED_B = st.one_of(
    st.integers(max_value=99), st.integers(min_value=1_000_001),
    st.sampled_from([100.5, 1e300, math.nan, math.inf, True, None, "100", [100]]),
)


# values each key accepts, with levels of the CSV below and its columns
_ACCEPTED = {
    **_CONFIG_VALUES,
    "m1": st.sampled_from(["m1", "c1"]),
    "m2": st.just("m2"),
    "m1_star": st.one_of(_CONFIG_VALUES["m1_star"], st.sampled_from([0, 1])),
    "m2_star": st.sampled_from(["mean", 0, 1, 0.5]),
    "covariates": st.sampled_from([[], ["c1"]]),
    "covariate_values": st.sampled_from([[], [0], [1], ["mean"]]),
}


@st.composite
def _any_config(draw):
    """A config object: for some known keys a value it accepts or, one time in
    four, any JSON value; bootstrap_B refused or 100; sometimes an unknown
    key."""
    obj = {}
    for key in draw(st.sets(st.sampled_from(sorted(_ACCEPTED)))):
        arbitrary = draw(st.integers(0, 3)) == 0
        obj[key] = draw(_JSON_VALUES if arbitrary else _ACCEPTED[key])
    refused = draw(st.integers(0, 3)) == 0
    obj["bootstrap_B"] = draw(_REFUSED_B) if refused else 100
    if draw(st.integers(0, 4)) == 0:
        unknown = st.text(max_size=6).filter(
            lambda k: k not in twomed.dataio._CONFIG_KEYS)
        obj[draw(unknown)] = draw(_JSON_VALUES)
    return obj


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_any_config())
@example({"seed": 1e300, "bootstrap_B": 100})
@example({"estimator": "empirical-categorical", "topology": "nonsequential",
          "bootstrap_B": 100})
# a line break in an unknown key once split the error line
@example({"bootstrap_B": 100, "a\nb": 1})
def test_any_config_ends_in_a_result_or_one_error_line(tmp_path, config):
    """analyze, run in-process on a fixed CSV under any config object, exits
    0, 2, 3 or 4; a failure writes nothing to stdout and one error line to
    stderr."""
    data = tmp_path / "cat.csv"
    if not data.exists():
        rng = np.random.default_rng(5)
        a, m1, m2, c1 = (rng.integers(0, 2, 80) for _ in range(4))
        write_dataset_csv(Dataset(a=a, m1=m1, m2=m2, y=a + m1 - m2 + rng.normal(size=80),
                                  covariates=c1[:, None]), str(data))
    path = _write(tmp_path / "run.json", json.dumps(config))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main.main(["analyze", "--data", str(data), "--config", path],
                      standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3, 4), (code, err.getvalue())
    if config == {"seed": 1e300, "bootstrap_B": 100}:
        assert code == 0, err.getvalue()
    if code == 0:
        assert out.getvalue() and not err.getvalue()
        return
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()


def test_cli_validate_binary_pass(runner, tmp_path):
    spec = _write(tmp_path / "spec.json", json.dumps(BINARY_SPEC))
    res = runner.invoke(main, ["validate", "--spec", spec])
    assert res.exit_code == 0, res.output
    assert "RESULT: PASS" in res.output
    assert "latent individuals" in res.output
    assert "table estimator" in res.output


def test_cli_validate_linear_pass_and_forced_fail(runner, tmp_path):
    spec = _write(tmp_path / "spec.json", json.dumps(LINEAR_SPEC))
    res = runner.invoke(
        main, ["validate", "--spec", spec, "--mc-n", "200000", "--seed", "1"]
    )
    assert res.exit_code == 0, res.output
    assert "RESULT: PASS" in res.output
    assert "W1 - W8" in res.output

    forced = runner.invoke(
        main,
        [
            "validate", "--spec", spec, "--mc-n", "50000", "--seed", "1",
            "--mc-z", "1e-9",
        ],
    )
    assert forced.exit_code == 5
    assert "RESULT: FAIL" in forced.output


@pytest.mark.parametrize("flags", [
    ["--tol", "nan"], ["--tol", "-1"], ["--tol", "inf"],
    ["--mc-z", "nan"], ["--mc-z", "-1"], ["--mc-z", "inf"],
    ["--mc-n", "1"], ["--mc-n", "0"],
])
def test_cli_validate_rejects_nonsense_tolerances(runner, tmp_path, flags):
    """A NaN or negative tolerance, or one Monte Carlo draw (every SE 0), can
    only give a false verdict: a usage error, not RESULT: FAIL."""
    spec = _write(tmp_path / "spec.json", json.dumps(LINEAR_SPEC))
    res = runner.invoke(main, ["validate", "--spec", spec, "--mc-n", "1000", *flags])
    assert res.exit_code == 2, res.output
    assert "RESULT" not in res.output
    assert flags[0] in res.output


@pytest.mark.parametrize("command, flag, cap, drawer", [
    ("simulate", "--n", 10_000_000, "simulate_dataset"),
    ("validate", "--mc-n", 1_000_000_000, "simulate_linear_components"),
])
def test_cli_caps_the_draw_counts(runner, tmp_path, monkeypatch, command, flag, cap,
                                  drawer):
    """One draw past the cap is a usage error, before anything is drawn."""
    def no_draws(*args, **kwargs):
        raise AssertionError("drew past the cap")

    monkeypatch.setattr(twomed.cli, drawer, no_draws)
    spec = _write(tmp_path / "spec.json", json.dumps(LINEAR_SPEC))
    data = tmp_path / "sim.csv"
    out = ["--data", str(data)] if command == "simulate" else []
    res = runner.invoke(main, [command, "--spec", spec, flag, str(cap + 1), *out])
    assert res.exit_code == 2, res.output
    assert flag in res.stderr
    assert "RESULT" not in res.output
    assert os.listdir(tmp_path) == ["spec.json"]


@pytest.mark.parametrize("command", ["analyze", "simulate", "validate-linear",
                                     "validate-binary"])
def test_cli_a_negative_seed_exits_2(runner, tmp_path, monkeypatch, command):
    """Every command refuses seed -1 where it builds the run config, before
    reading data or drawing anything, with one error line."""
    def no_draws(*args, **kwargs):
        raise AssertionError("drew with a negative seed")

    for drawer in ("simulate_dataset", "simulate_linear_components"):
        monkeypatch.setattr(twomed.cli, drawer, no_draws)
    spec = _write(tmp_path / "spec.json", json.dumps(LINEAR_SPEC))
    args = {
        "analyze": ["analyze", "--data", str(tmp_path / "none.csv")],
        "simulate": ["simulate", "--spec", spec, "--n", "30",
                     "--data", str(tmp_path / "sim.csv")],
        "validate-linear": ["validate", "--spec", spec, "--mc-n", "1000"],
        "validate-binary": [
            "validate", "--spec", _write(tmp_path / "bin.json", json.dumps(BINARY_SPEC)),
            "--config", _write(tmp_path / "cfg.json",
                               json.dumps({"m1_star": 0, "m2_star": 0})),
        ],
    }[command]
    res = runner.invoke(main, [*args, "--seed", "-1"])
    assert res.exit_code == 2, res.output
    assert res.stderr.splitlines() == ["error: seed must be a nonnegative integer, got -1"]
    assert res.stdout == ""
    assert not (tmp_path / "sim.csv").exists()


def test_cli_validate_needs_a_hundred_monte_carlo_draws(runner, tmp_path):
    """Below 100 draws the standard errors are no yardstick for the z-test:
    at 2 or 10 draws a correct closed form fails it for some seeds. So
    --mc-n 99 is a usage error, before anything is drawn."""
    spec = _write(tmp_path / "spec.json", json.dumps(LINEAR_SPEC))
    res = runner.invoke(
        main, ["validate", "--spec", spec, "--mc-n", "99", "--seed", "1"]
    )
    assert res.exit_code == 2, res.output
    assert "--mc-n" in res.output
    assert "RESULT" not in res.output


@pytest.mark.parametrize("topology", ["sequential", "nonsequential"])
def test_cli_validate_passes_at_the_fewest_monte_carlo_draws(runner, tmp_path,
                                                             topology):
    """A correct closed form passes the z-test at --mc-n 100 for seeds 0-11."""
    # the non-sequential topology needs m2 free of m1
    beta = LINEAR_SPEC["beta"] if topology == "sequential" else [0.0, 0.8, 0.0, 0.0]
    spec = _write(tmp_path / "spec.json", json.dumps(dict(LINEAR_SPEC, beta=beta)))
    for seed in range(12):
        res = runner.invoke(main, ["validate", "--spec", spec, "--mc-n", "100",
                                   "--topology", topology, "--seed", str(seed)])
        assert res.exit_code == 0, (seed, res.output)
        assert res.output.splitlines()[-1] == "RESULT: PASS", (seed, res.output)


def test_cli_validate_compares_zero_spread_terms_by_tolerance(runner, tmp_path):
    """A component that is the same for every simulated individual has Monte
    Carlo SE 0 when, as here, its per-individual values are bit-identical;
    values that differ in the last bits would give an SE of rounding noise
    instead. Its mean may still differ from the closed form in the last bit,
    which must pass --tol rather than fail a z-score."""
    spec = dict(LINEAR_SPEC, beta=[0.1, 0.8, 0.0, 0.0],
                theta=[0.3] + LINEAR_SPEC["theta"][1:])
    path = _write(tmp_path / "spec.json", json.dumps(spec))
    args = ["validate", "--spec", path, "--topology", "nonsequential",
            "--mc-n", "1000", "--seed", "1"]
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    assert "zero-spread terms (CDE, NatINT_M1M2)" in res.output
    exact = runner.invoke(main, args + ["--tol", "0"])
    assert exact.exit_code == 5, exact.output
    assert "zero-spread" in exact.output and "FAIL" in exact.output


def test_cli_validate_checks_equal_exposures_by_tolerance(runner, tmp_path):
    """At a == a* every individual's components are exact zeros, the combined
    sequential INT_ref term's too, so each is a zero-spread term held to --tol
    and none is z-tested against the spread of rounding noise."""
    spec = _write(tmp_path / "spec.json", json.dumps(LINEAR_SPEC))
    cfg = _write(tmp_path / "cfg.json", json.dumps({"a": 1.0, "a_star": 1.0}))
    res = runner.invoke(main, ["validate", "--spec", spec, "--config", cfg,
                               "--mc-n", "10000", "--seed", "1"])
    assert res.exit_code == 0, res.output
    zero_spread = next(line for line in res.output.splitlines()
                       if "zero-spread terms" in line)
    assert "INT_ref_AM2+AM1M2" in zero_spread, res.output


@pytest.mark.parametrize("topology", ["sequential", "nonsequential"])
def test_cli_validate_checks_the_total_effect_in_both_topologies(
    runner, tmp_path, topology
):
    """The component sum is held to W1 - W8 in either layout."""
    # m2 free of m1, as the non-sequential topology needs
    spec = _write(tmp_path / "spec.json",
                  json.dumps(dict(LINEAR_SPEC, beta=[0.0, 0.8, 0.0, 0.0])))
    res = runner.invoke(main, ["validate", "--spec", spec, "--topology", topology,
                               "--mc-n", "20000", "--seed", "1"])
    assert res.exit_code == 0, res.output
    lines = res.output.splitlines()
    te = [line for line in lines if "component sum vs W1 - W8" in line]
    assert len(te) == 1 and te[0].endswith(" PASS"), res.output
    assert lines[-1] == "RESULT: PASS"


@pytest.mark.parametrize("topology", ["sequential", "nonsequential"])
def test_cli_validate_says_when_no_term_is_z_tested(runner, tmp_path, topology):
    """At a == a* every term has zero spread, so none is z-tested: validate
    says so in words, not as a worst |z| of 0 for an unnamed term, and still
    passes on the exact checks."""
    # m2 free of a and m1, as the non-sequential topology needs
    spec = dict(LINEAR_SPEC, beta=[0.0, 0.8, 0.0, 0.0])
    spec = _write(tmp_path / "spec.json", json.dumps(spec))
    cfg = _write(tmp_path / "cfg.json", json.dumps({"a": 1, "a_star": 1}))
    res = runner.invoke(main, ["validate", "--spec", spec, "--config", cfg,
                               "--topology", topology, "--mc-n", "10000"])
    assert res.exit_code == 0, res.output
    lines = res.output.splitlines()
    assert not any("worst |z|" in line for line in lines), res.output
    assert ("  closed form vs Monte Carlo: no term has Monte Carlo spread, "
            "so none is z-tested") in lines, res.output
    assert lines[-1] == "RESULT: PASS"


def test_cli_exit_code_does_not_depend_on_the_seed(runner, tmp_path):
    """A resample that loses a reference level is a failed replicate, not a
    configuration error, so the exit code is the same for every seed."""
    rng = np.random.default_rng(0)
    n = 400
    a = rng.integers(0, 2, n)
    m1 = rng.integers(0, 2, n)
    m2 = rng.integers(0, 2, n)
    # the reference level m1 = 2 sits on eight rows, two per (a, m2) cell
    a[:8] = [0, 0, 0, 0, 1, 1, 1, 1]
    m2[:8] = [0, 0, 1, 1, 0, 0, 1, 1]
    m1[:8] = 2
    y = a + m1 + m2 + rng.normal(0.0, 1.0, n)
    rows = ["a,m1,m2,y"] + [f"{r[0]},{r[1]},{r[2]},{float(r[3])!r}"
                            for r in zip(a, m1, m2, y)]
    data = _write(tmp_path / "rare.csv", "\n".join(rows) + "\n")
    cfg = _write(tmp_path / "cfg.json", json.dumps({"m1_star": 2, "m2_star": 0}))
    codes = [
        runner.invoke(main, [
            "analyze", "--data", data, "--config", cfg,
            "--estimator", "empirical-categorical", "--bootstrap-B", "1000",
            "--seed", str(seed),
        ]).exit_code
        for seed in range(5)
    ]
    assert codes == [4] * 5


def test_cli_validate_rejects_binary_refs_off_support(runner, tmp_path):
    spec = _write(tmp_path / "spec.json", json.dumps(BINARY_SPEC))
    cfg = _write(tmp_path / "cfg.json", json.dumps({"a": 2.0}))
    res = runner.invoke(main, ["validate", "--spec", spec, "--config", cfg])
    assert res.exit_code == 2


def _checks(spec, mc_n=1000, tol=1e-12, **options):
    cfg, _ = resolve_reference(build_run_config(None, seed=1, **options), None)
    return validation_checks(parse_scm_spec(spec, cfg.topology), cfg, mc_n, 1, tol, 4.0)


def test_the_worst_deviation_is_the_first_of_equals_and_a_nan_stays_worst():
    worst = twomed.cli._worst
    assert worst({"CDE": 1.0, "PIE_M1": 2.0, "PIE_M2": 2.0}) == (2.0, "PIE_M1")
    assert worst({"CDE": 0.0, "PIE_M1": 0.0}) == (0.0, "CDE")
    value, at = worst({"CDE": 1.0, "PIE_M1": math.nan, "PIE_M2": math.inf})
    assert math.isnan(value) and at == "PIE_M1"


def test_a_check_fails_a_nan_and_passes_a_value_at_its_bound():
    nan = Check("paths", "max |delta|", math.nan, bound=1e-12)
    at_bound = Check("paths", "max |delta|", 1e-12, bound=1e-12)
    above = Check("paths", "max |delta|", math.nextafter(1e-12, 1.0), bound=1e-12)
    assert (nan.passed, at_bound.passed, above.passed) == (False, True, False)
    assert nan.line() == "  paths: max |delta| = nan (tol 1e-12) FAIL"


def test_the_total_effect_check_scales_its_bound_by_the_total_effect():
    """Its tol is relative to max(1, |TE|): a |delta| up to tol * |TE| passes."""
    spec = dict(LINEAR_SPEC, theta=[v * 10.0 for v in LINEAR_SPEC["theta"]])
    te_check = _checks(spec, tol=1e-3)[-1]
    cfg, _ = resolve_reference(build_run_config(None, seed=1), None)
    te = decompose_closed_form(parse_scm_spec(spec, cfg.topology), cfg).aggregates["TE"]
    assert te_check.label == "component sum vs W1 - W8"
    assert abs(te) > 1.0 and te_check.scale == abs(te)
    bound = te_check.bound * te_check.scale
    assert dataclasses.replace(te_check, value=bound).passed
    above = math.nextafter(bound, 2 * bound)
    assert not dataclasses.replace(te_check, value=above).passed


def test_the_no_spread_note_gives_no_verdict():
    """At a == a* no term is z-tested: the note is a check without a bound,
    which neither passes nor fails."""
    spec = dict(LINEAR_SPEC, beta=[0.0, 0.8, 0.0, 0.0])
    checks = _checks(spec, mc_n=10000, a=1.0, a_star=1.0)
    note = checks[0]
    assert (note.bound, note.passed) == (None, None)
    assert note.line() == ("  closed form vs Monte Carlo: no term has Monte Carlo "
                           "spread, so none is z-tested")
    assert [check.passed for check in checks] == [None, True, True]


@pytest.mark.parametrize("topology, paths", [
    ("sequential", ["latent individuals", "table estimator"]),
    ("nonsequential", ["latent individuals"]),
])
def test_a_binary_model_checks_each_path_against_its_probability_sums(topology, paths):
    # Pr(M2 | A, M1) free of M1, as the non-sequential topology needs
    spec = dict(BINARY_SPEC, p_m2={a: {"0": 0.2, "1": 0.2} for a in "01"})
    checks = _checks(spec, topology=topology)
    assert [check.label for check in checks] == [
        f"probability sums vs {path}" for path in paths]
    assert all(check.passed and check.measure == "max |delta|" for check in checks)


def test_cli_version(runner):
    res = runner.invoke(main, ["--version"])
    assert res.exit_code == 0
    assert "twomed" in res.output


_NEW_PACKAGES = """
import sys
before = set(sys.modules)
import twomed.cli
new = {name.split(".")[0] for name in set(sys.modules) - before}
print(*sorted(new - set(sys.stdlib_module_names)))
print("numpy.ma" in sys.modules)
"""


def test_the_cli_loads_no_test_or_scientific_stack():
    """Every command's start-up time includes these imports. Beside the
    standard library, importing the CLI loads click, numpy and twomed alone;
    what the interpreter loaded before (site's own imports) does not count.
    numpy.ma, about 14 ms of start-up, stays unloaded."""
    src = os.path.dirname(os.path.dirname(twomed.dataio.__file__))
    out = subprocess.run(
        [sys.executable, "-c", _NEW_PACKAGES],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    packages, masked = out.splitlines()
    assert packages.split() == ["click", "numpy", "twomed"]
    assert masked == "False"


_EACH_COMMAND = """
import json, sys
from twomed.cli import main
for name, args in json.loads(sys.argv[1]):
    try:
        code = main.main(args, standalone_mode=False)
    except SystemExit as exc:
        code = exc.code
    print("command:", json.dumps([name, code or 0, "numpy.ma" in sys.modules]))
"""

_MA_COMMANDS = {
    "analyze closed-form": ["analyze", "--data", "{linear_csv}", "--bootstrap-B", "100"],
    "analyze empirical-categorical": [
        "analyze", "--data", "{binary_csv}", "--config", "{refs}", "--bootstrap-B", "100",
        "--estimator", "empirical-categorical", "--dump-tables", "{dir}/tables.json",
    ],
    "simulate linear": ["simulate", "--spec", "{linear_sequential}", "--n", "200",
                        "--data", "{dir}/lin.csv", "--truth", "{dir}/lin.json"],
    "simulate binary": ["simulate", "--spec", "{binary_sequential}", "--n", "200",
                        "--config", "{refs}", "--data", "{dir}/bin.csv",
                        "--truth", "{dir}/bin.json"],
    **{f"validate {kind} {topology.value}": [
        "validate", "--spec", f"{{{kind}_{topology.value}}}",
        "--topology", topology.value, "--mc-n", "20000"]
       for kind in ("linear", "binary") for topology in Topology},
}
# the non-sequential specs keep M2 free of M1
_SPECS = {
    "linear": {"sequential": LINEAR_SPEC,
               "nonsequential": dict(LINEAR_SPEC, beta=[0.0, 0.8, 0.0, 0.0])},
    "binary": {"sequential": BINARY_SPEC,
               "nonsequential": dict(BINARY_SPEC, p_m2={"0": {"0": 0.2, "1": 0.2},
                                                        "1": {"0": 0.4, "1": 0.4}})},
}


@pytest.fixture(scope="module")
def numpy_ma_after_each_command(tmp_path_factory):
    """Run every command shape, in the order of _MA_COMMANDS, in one fresh
    process; map each to its exit code and whether numpy.ma was loaded once
    it had run."""
    tmp = tmp_path_factory.mktemp("commands")
    paths = {"dir": str(tmp), "linear_csv": _linear_csv(tmp),
             "binary_csv": str(tmp / "binary.csv")}
    d = simulate_dataset(parse_scm_spec(BINARY_SPEC, Topology.SEQUENTIAL), n=400, seed=6)
    write_dataset_csv(d, paths["binary_csv"])
    paths["refs"] = _write(tmp / "refs.json", json.dumps({"m1_star": 0, "m2_star": 0}))
    for kind, specs in _SPECS.items():
        for topology, spec in specs.items():
            paths[f"{kind}_{topology}"] = _write(tmp / f"{kind}_{topology}.json",
                                                 json.dumps(spec))
    commands = [[name, [arg.format(**paths) for arg in args]]
                for name, args in _MA_COMMANDS.items()]
    src = os.path.dirname(os.path.dirname(twomed.dataio.__file__))
    out = subprocess.run(
        [sys.executable, "-c", _EACH_COMMAND, json.dumps(commands)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    ran = [json.loads(line.removeprefix("command:"))
           for line in out.splitlines() if line.startswith("command:")]
    return {name: (code, loaded) for name, code, loaded in ran}


@pytest.mark.parametrize("command", list(_MA_COMMANDS))
def test_no_command_loads_numpy_ma(numpy_ma_after_each_command, command):
    """numpy.ma costs a run about 13 ms of CPU and 1.3 MB of memory, and the
    calls that import it (a vector np.unique, so np.union1d and np.quantile,
    and np.isin's sort method) have exact replacements. After each command,
    run in turn in one process, it is still unloaded."""
    ran = numpy_ma_after_each_command
    assert list(ran) == list(_MA_COMMANDS)
    first = next((name for name, (_, loaded) in ran.items() if loaded), None)
    code, loaded = ran[command]
    assert (code, loaded) == (0, False), f"exit code {code}, numpy.ma loaded by {first}"


_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SCRIPTS = {
    "oracle_triangle": ["--binary", "5", "--linear", "2", "--mc-n", "20000"],
    "coverage_experiment": ["--runs", "1", "--n", "300", "--B", "100"],
    "validate_formulas": ["--points", "5"],
}


@pytest.mark.parametrize("script", list(_SCRIPTS))
def test_the_dev_scripts_run_at_a_tiny_size(script):
    if script == "validate_formulas":
        pytest.importorskip("sympy")
    path = os.pathsep.join(
        p for p in (os.path.join(_ROOT, "src"), os.environ.get("PYTHONPATH")) if p
    )
    res = subprocess.run(
        [sys.executable, os.path.join(_ROOT, "scripts", f"{script}.py"),
         *_SCRIPTS[script]],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert res.returncode == 0, res.stdout + res.stderr


def test_the_symbolic_audit_passes():
    """The closed-form audit at 20 points, its world-key stage included."""
    pytest.importorskip("sympy")
    path = os.pathsep.join(
        p for p in (os.path.join(_ROOT, "src"), os.environ.get("PYTHONPATH")) if p
    )
    res = subprocess.run(
        [sys.executable, os.path.join(_ROOT, "scripts", "validate_formulas.py"),
         "--points", "20"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert res.returncode == 0, res.stdout + res.stderr
    lines = res.stdout.splitlines()
    assert any(line.startswith("world keys: ") for line in lines), res.stdout
    assert lines[-1] == "all formula checks passed"
