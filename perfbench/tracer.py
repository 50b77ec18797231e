"""Outside-in layer trace of twomed CLI commands, run in one process.

Usage: python3 perfbench/tracer.py PLAN.json OUT.json

PLAN.json names the commands of one op, the files each command writes and
how many seconds to run. The child first runs one warm-up op, untimed, with
tracemalloc on around the Monte Carlo oracle only, for its peak allocation.
Then it runs ops in pairs until the time is up: one untraced, then one
traced, with the package's layer functions wrapped at the names their
callers look up and restored right after. Each command runs through
``twomed.cli.main.main(args, standalone_mode=False)``; the program's source
is not changed. Spans (name, start, end, parent, op, failed, counts) stay in
memory until the end, when OUT.json receives them with every op's outputs
and wall times.

``layer_metrics`` turns those spans into the per-layer metrics that
BENCHMARK.json names; the parent harness (run.py) calls it.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import statistics
import sys
import time
import tracemalloc

# Layer name -> (module, attribute, kind). "function" layers are patched in
# every twomed module that holds the original under that name; "method"
# layers are patched on the class, where instances look them up.
LAYERS = {
    "regression.fit_all": ("twomed.regression", "fit_all", "function"),
    "regression.Dataset.take": ("twomed.regression", "Dataset.take", "method"),
    "bootstrap.bootstrap_decomposition":
        ("twomed.bootstrap", "bootstrap_decomposition", "function"),
    "closed_form.decompose_closed_form":
        ("twomed.closed_form", "decompose_closed_form", "function"),
    "core.ComponentSet": ("twomed.core", "ComponentSet.__post_init__", "method"),
    "empirical.estimate_tables": ("twomed.empirical", "estimate_tables", "function"),
    "empirical.decompose_empirical_sequential":
        ("twomed.empirical", "decompose_empirical_sequential", "function"),
    "dataio.load_dataset": ("twomed.dataio", "load_dataset", "function"),
    "dataio.write_dataset_csv": ("twomed.dataio", "write_dataset_csv", "function"),
    "dataio.simulate_dataset": ("twomed.dataio", "simulate_dataset", "function"),
    "oracle.simulate_linear_components":
        ("twomed.oracle", "simulate_linear_components", "function"),
    "oracle.enumerate_binary_components":
        ("twomed.oracle", "enumerate_binary_components", "function"),
    "oracle.enumerate_binary_components_by_individuals":
        ("twomed.oracle", "enumerate_binary_components_by_individuals", "function"),
}
CLI_MAIN = "cli.main"
MC_LAYER = "oracle.simulate_linear_components"


def _counts(name: str, args: tuple, kwargs: dict, result) -> dict:
    """Work counted at a layer boundary, from the call's arguments and result."""
    if name == "regression.Dataset.take":
        ds, idx = args
        # computed, not observed: take copies n rows of a, m1, m2, y and k covariates
        return {"bytes_copied": len(idx) * (4 + ds.k) * 8}
    if name == "dataio.load_dataset" and result is not None:
        d, dropped = result
        return {"rows": d.n + dropped, "dropped_rows": dropped}
    if name == "dataio.write_dataset_csv":
        return {"rows": args[0].n}
    if name == MC_LAYER:
        return {"individuals": kwargs["n"] if "n" in kwargs else args[2]}
    if name == "bootstrap.bootstrap_decomposition" and result is not None:
        return {"replicates": result.replicates,
                "failed_replicates": result.failed_replicates}
    return {}


class Tracer:
    """Records nested spans around wrapped callables; one instance per run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.op = -1

    def call(self, name: str, fn, args: tuple, kwargs: dict, info: dict | None = None):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self.op, False, dict(info or {})]
        self.spans.append(span)
        self._stack.append(idx)
        result = None
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException:
            span[5] = True
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            span[6].update(_counts(name, args, kwargs, result))

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return wrapper

    def install(self) -> None:
        self._saved = patch(LAYERS, self._wrap)

    def remove(self) -> None:
        unpatch(self._saved)

    def restored(self) -> bool:
        return is_restored(self._saved)


def patch(layers: dict, wrap) -> list[tuple]:
    """Replace each layer's callable by ``wrap(layer name, original)`` and
    return what was replaced, as (owner, attribute, original) triples."""
    saved = []
    for name, (modname, attr, kind) in layers.items():
        module = sys.modules[modname]
        if kind == "method":
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            orig = cls.__dict__[meth]
            saved.append((cls, meth, orig))
            setattr(cls, meth, wrap(name, orig))
            continue
        orig = getattr(module, attr)
        wrapped = wrap(name, orig)
        for mod in [m for k, m in sys.modules.items() if k.startswith("twomed")]:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    saved.append((mod, key, orig))
                    setattr(mod, key, wrapped)
    return saved


def unpatch(saved: list[tuple]) -> None:
    for owner, key, orig in reversed(saved):
        setattr(owner, key, orig)


def is_restored(saved: list[tuple]) -> bool:
    """True when every patched name holds its original object again."""
    return all(vars(owner)[key] is orig for owner, key, orig in saved)


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_command(cli, argv: list[str]) -> tuple[int, str]:
    """One CLI command in this process: (exit code, standard output)."""
    import click

    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main.main(argv, prog_name="twomed", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except click.ClickException as exc:
            code = exc.exit_code
    return code, out.getvalue()


def run_op(cli, plan: dict, tracer: Tracer | None) -> tuple[float, dict]:
    """Every command of one op in order: (wall seconds, outputs by label)."""
    outputs = {}
    t0 = time.perf_counter()
    for label, argv in plan["commands"]:
        if tracer is None:
            code, stdout = run_command(cli, argv)
        else:
            code, stdout = tracer.call(CLI_MAIN, run_command, (cli, argv), {},
                                       {"command": label})
        outputs[label] = [code, stdout, [sha256_file(p) for p in plan["outputs"].get(label, [])]]
    return time.perf_counter() - t0, outputs


def run_op_peak_alloc(cli, plan: dict) -> tuple[dict, int, bool]:
    """One op, untimed, with tracemalloc on around the Monte Carlo oracle only:
    (outputs by label, peak bytes allocated in it, whether it was unpatched)."""
    peak = 0

    def wrap(_name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nonlocal peak
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = max(peak, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        return wrapper

    saved = patch({MC_LAYER: LAYERS[MC_LAYER]}, wrap)
    try:
        _, outputs = run_op(cli, plan, None)
    finally:
        unpatch(saved)
    return outputs, peak, is_restored(saved)


def main(plan_path: str, out_path: str) -> None:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    from twomed import cli

    # the warm-up op measures peak allocation; then untraced and traced ops
    # alternate, so both sides of trace.overhead_ratio see the same machine
    outputs, peak_alloc, all_restored = run_op_peak_alloc(cli, plan)
    ops, untraced, traced = [outputs], [], []
    tracer = Tracer()
    t_start = time.perf_counter()
    while not traced or time.perf_counter() - t_start < plan["seconds"]:
        wall, outputs = run_op(cli, plan, None)
        untraced.append(wall)
        ops.append(outputs)
        tracer.install()
        tracer.op += 1
        try:
            wall, outputs = run_op(cli, plan, tracer)
        finally:
            tracer.remove()
        all_restored = all_restored and tracer.restored()
        traced.append(wall)
        ops.append(outputs)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "traced_walls": traced,
                   "untraced_walls": untraced, "ops": ops, "restored": all_restored,
                   "peak_alloc_bytes": peak_alloc}, fh)


# ---------------------------------------------------------------------------
# per-layer metrics from recorded spans
# ---------------------------------------------------------------------------

class _Layer:
    def __init__(self):
        self.calls = 0
        self.failed = 0
        self.incl: list[float] = []
        self.self_s = 0.0
        self.counts: dict = {}


def _self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [t1 - t0 for _, t0, t1, *_ in spans]
    for _, t0, t1, parent, *_ in spans:
        if parent >= 0:
            own[parent] -= t1 - t0
    return own


def summarize(spans: list[list]) -> dict:
    """Per layer name: calls, failures, inclusive durations, self time and
    summed counts."""
    layers: dict[str, _Layer] = {}
    for (name, t0, t1, _parent, _op, failed, counts), own in zip(spans, _self_times(spans)):
        lay = layers.setdefault(name, _Layer())
        lay.calls += 1
        lay.failed += int(failed)
        lay.incl.append(t1 - t0)
        lay.self_s += own
        for key, val in counts.items():
            if key != "command":
                lay.counts[key] = lay.counts.get(key, 0) + val
    return layers


def layer_metrics(trace: dict, names: dict[str, str]) -> dict:
    """The metrics ``names`` ({name: unit}) of one traced run; counts and
    times are per op."""
    n_ops = len(trace["traced_walls"])
    layers = summarize(trace["spans"])
    empty = _Layer()

    def lay(name):
        return layers.get(name, empty)

    def rate(count_key, name):
        layer = lay(name)
        return layer.counts.get(count_key, 0) / layer.self_s if layer.self_s > 0 else 0.0

    def p50(name):
        return statistics.median(lay(name).incl) if lay(name).incl else 0.0

    boot = lay("bootstrap.bootstrap_decomposition")
    replicates = boot.counts.get("replicates", 0)
    failed_reps = boot.counts.get("failed_replicates", 0)
    values = {
        "regression.fit_all.s_per_call_p50": p50("regression.fit_all"),
        "regression.Dataset.take.bytes_copied":
            lay("regression.Dataset.take").counts.get("bytes_copied", 0) / n_ops,
        "bootstrap.bootstrap_decomposition.failed_replicates": failed_reps / n_ops,
        "bootstrap.bootstrap_decomposition.useful_ratio":
            (replicates - failed_reps) / replicates if replicates else 0.0,
        "empirical.estimate_tables.s_per_call_p50": p50("empirical.estimate_tables"),
        "dataio.load_dataset.rows_per_s": rate("rows", "dataio.load_dataset"),
        "dataio.load_dataset.dropped_rows":
            lay("dataio.load_dataset").counts.get("dropped_rows", 0) / n_ops,
        "dataio.write_dataset_csv.rows_per_s": rate("rows", "dataio.write_dataset_csv"),
        "oracle.simulate_linear_components.individuals_per_s":
            rate("individuals", MC_LAYER),
        "oracle.simulate_linear_components.peak_alloc_mb":
            trace["peak_alloc_bytes"] / 2**20,
        "trace.overhead_ratio": statistics.median(trace["traced_walls"])
            / statistics.median(trace["untraced_walls"]) - 1.0,
    }
    out = {}
    for metric, unit in names.items():
        if metric in values:
            value = values[metric]
        else:
            layer_name, stat = metric.rsplit(".", 1)
            layer = lay(layer_name)
            value = {"calls": layer.calls, "failed": layer.failed,
                     "self_s": layer.self_s}[stat] / n_ops
        out[metric] = {"value": value, "unit": unit}
    return out


def shares(trace: dict) -> list[tuple[str, str, float, float]]:
    """(command, layer, inclusive share, self share) of each command's time,
    with "op" as the command for shares of the whole op."""
    spans = trace["spans"]
    command_of: list[str] = []
    cmd_time: dict[str, float] = {}
    by: dict[tuple[str, str], list[float]] = {}
    for (name, t0, t1, parent, _op, _f, counts), own in zip(spans, _self_times(spans)):
        cmd = counts["command"] if parent < 0 else command_of[parent]
        command_of.append(cmd)
        if parent < 0:
            cmd_time[cmd] = cmd_time.get(cmd, 0.0) + t1 - t0
        for key in ((cmd, name), ("op", name)):
            acc = by.setdefault(key, [0.0, 0.0])
            acc[0] += t1 - t0
            acc[1] += own
    op_time = sum(trace["traced_walls"])
    rows = []
    for (cmd, name), (incl, own) in sorted(by.items()):
        base = op_time if cmd == "op" else cmd_time[cmd]
        rows.append((cmd, name, incl / base, own / base))
    return rows


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: tracer.py PLAN.json OUT.json")
    main(sys.argv[1], sys.argv[2])
