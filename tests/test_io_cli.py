"""CSV/config plumbing and the click entry points, including exit codes."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import twomed.dataio
import twomed.empirical
from conftest import loop_load_dataset, loop_write_dataset_csv, random_linear_scm
from twomed import (
    BinaryScm,
    ConfigError,
    DataError,
    Dataset,
    LinearScm,
    Topology,
    build_run_config,
    load_dataset,
    parse_scm_spec,
    resolve_reference,
    simulate_dataset,
    write_dataset_csv,
)
import twomed.cli
from twomed.bootstrap import ESTIMATORS
from twomed.cli import main
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
    "bootstrap_B": st.integers(1, 5000),
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
    with pytest.raises(ConfigError):
        build_run_config(
            {"covariates": ["age", "sex"], "covariate_values": [1.0]}
        )


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


def test_cli_simulate_binary_mean_reference_is_rejected(runner, tmp_path):
    # a binary model cannot take the continuous "mean" default as a reference
    spec = _write(tmp_path / "spec.json", json.dumps(BINARY_SPEC))
    out = tmp_path / "sim.csv"
    res = runner.invoke(
        main, ["simulate", "--spec", spec, "--n", "30", "--data", str(out)]
    )
    assert res.exit_code == 2
    assert "must be 0 or 1" in res.output


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


def test_cli_validate_compares_zero_spread_terms_by_tolerance(runner, tmp_path):
    """A component that is the same for every simulated individual has Monte
    Carlo SE exactly 0; its mean may still differ from the closed form in the
    last bit, which must pass --tol rather than fail a z-score."""
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


def test_cli_version(runner):
    res = runner.invoke(main, ["--version"])
    assert res.exit_code == 0
    assert "twomed" in res.output


def test_the_cli_loads_no_test_or_scientific_stack():
    """Every command's start-up time includes these imports."""
    src = os.path.dirname(os.path.dirname(twomed.dataio.__file__))
    out = subprocess.run(
        [sys.executable, "-c", "import twomed.cli, sys; print(*sys.modules)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    loaded = {name.split(".")[0] for name in out.split()}
    assert "twomed" in loaded
    assert not loaded & {"hypothesis", "sympy", "scipy", "pandas", "pytest"}


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
