"""Benchmark of the twomed command line tool.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root. One closed-loop client runs the real CLI
(``python -m twomed.cli`` with ``src`` on the path) as child processes, one
op at a time, until S seconds have passed; every op of a run gets the same
inputs, drawn from the seed before timing starts. Each command's output is
checked, and a command whose check fails counts as failed.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the same op
in one traced child process (tracer.py) and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. perfbench/README.md
lists the workloads and metrics.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)  # checks.py recomputes results with the package itself

# One BLAS/OpenMP thread: the children's fits are small, and extra threads
# only add spread on a shared machine. Set here before numpy is imported, so
# the in-process recomputation in checks.py runs the same way.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

SIZES = {
    "boot-small-n": {"n": 2000, "k": 2, "B": 1000},
    "boot-categorical": {"n": 2000, "levels": [2, 3], "B": 300},
    "sim-study": {"sim_n": 50000, "mc_n": 2_000_000, "B": 100, "k": 2},
}
SETUP_REPEATS = 11


def declared(kind: str) -> dict[str, str]:
    """{metric name: unit} of one metric list ("end_to_end" or "per_layer")
    of BENCHMARK.json, the metrics a run of that kind reports."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@dataclass
class Plan:
    """One op: its commands in order, how to check each, what each writes."""

    commands: list[tuple[str, list[str]]]
    checks: dict[str, Callable[[int, str], list[str]]]
    replicates: int
    outputs: dict[str, list[str]] = field(default_factory=dict)


def build_plan(workload: str, seed: int, workdir: str, size: dict) -> Plan:
    """Write the workload's inputs for this seed and describe its op."""
    # imported here: inputs.py loads numpy, which must see THREAD_ENV first,
    # and checks.py the package, which main() first checks is there
    import checks
    import inputs

    if workload == "boot-small-n":
        f = inputs.boot_small_n(seed, workdir, size["n"], size["k"], size["B"])
    elif workload == "boot-categorical":
        f = inputs.boot_categorical(seed, workdir, size["n"], tuple(size["levels"]),
                                    size["B"])
    else:
        f = inputs.sim_study(seed, workdir, size["k"], size["B"])
    analyze = ("analyze", ["analyze", "--data", f["data"], "--config", f["config"]])
    check_analyze = functools.partial(checks.check_analyze, data=f["data"],
                                      config=f["config"], truth=f.get("truth"))
    if workload != "sim-study":
        return Plan([analyze], {"analyze": check_analyze}, size["B"])
    topo = ["--topology", "nonsequential"]
    commands = [
        ("simulate", ["simulate", "--spec", f["linear"], "--n", str(size["sim_n"]),
                      "--data", f["data"], "--seed", str(seed), *topo]),
        ("validate-linear", ["validate", "--spec", f["linear"],
                             "--mc-n", str(size["mc_n"]), "--seed", str(seed), *topo]),
        ("validate-binary", ["validate", "--spec", f["binary"], *topo]),
        analyze,
    ]
    return Plan(
        commands,
        {
            "simulate": functools.partial(
                checks.check_simulate, spec=f["linear"], n=size["sim_n"],
                data=f["data"], truth=f["truth"], config=f["config"]),
            "validate-linear": checks.check_validate,
            "validate-binary": checks.check_validate,
            "analyze": check_analyze,
        },
        size["B"],
        outputs={"simulate": [f["data"], f["truth"]]},
    )


def child_env() -> dict:
    """The caller's environment with the thread pins and ``src`` on the path.

    Bytecode writing is left on, so children import the package from its
    cache as an installed copy would, whatever the caller's setting.
    """
    env = dict(os.environ, **THREAD_ENV)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], workdir: str, env: dict) -> tuple[int, str, float, float, float]:
    """Run one child to completion: (exit code, stdout, wall s, CPU s, peak RSS MB).

    CPU is the child's user plus system time, as os.wait4 reports it.
    """
    out_path = os.path.join(workdir, "child.out")
    with open(out_path, "w+b") as out, open(os.path.join(workdir, "child.err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read().decode("utf-8", "replace")
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, stdout, wall, cpu, usage.ru_maxrss / 1024


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "twomed.cli", *args]


def measure_setup(workdir: str, env: dict) -> tuple[float, float, float, list[str]]:
    """Median CPU and wall seconds of ``twomed --version``, after one
    unmeasured call that fills the bytecode cache: (CPU s, wall s, peak RSS
    MB, problems)."""
    cpus, walls, rss, problems = [], [], 0.0, []
    for i in range(SETUP_REPEATS + 1):
        code, stdout, wall, cpu, peak = spawn(cli_argv(["--version"]), workdir, env)
        if code != 0 or "twomed" not in stdout:
            problems.append(f"--version: exit {code}, output {stdout!r}")
        rss = max(rss, peak)
        if i:
            cpus.append(cpu)
            walls.append(wall)
    return statistics.median(cpus), statistics.median(walls), rss, problems


def percentile(values: list[float], pct: int) -> float:
    """The pct-th percentile, interpolated between order statistics."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def judge(plan: Plan, ops: list[dict]) -> tuple[bool, int, int, list[str]]:
    """Check every op's outputs: (correct, attempted, failed, problems).

    A command fails when its check finds a problem. The run is incorrect
    when a command that exited 0 gave a wrong output, or when ops of the run
    gave different outputs for the same inputs.
    """
    verdicts: dict[str, list[str]] = {}
    attempted = failed = 0
    correct = True
    problems = []
    first = ops[0]
    for op in ops:
        for label, (code, stdout, hashes) in op.items():
            attempted += 1
            key = json.dumps([label, code, stdout, hashes])
            if key not in verdicts:
                verdicts[key] = plan.checks[label](code, stdout)
                problems += [f"{label}: {p}" for p in verdicts[key]]
                if verdicts[key] and code == 0:
                    correct = False
            failed += bool(verdicts[key])
            if op[label] != first[label]:
                correct = False
                problems.append(f"{label}: output differs from the run's first op")
    return correct, attempted, failed, problems


def run_untraced(plan: Plan, seconds: float, workdir: str, env: dict):
    """Closed loop for `seconds`: wall and CPU seconds of every command, by
    label, and of every op, under "op"; peak RSS MB; every op's outputs."""
    walls: dict[str, list[float]] = {label: [] for label, _ in plan.commands}
    walls["op"] = []
    cpus: dict[str, list[float]] = {label: [] for label in walls}
    ops, rss = [], 0.0
    t_start = time.perf_counter()
    while not ops or time.perf_counter() - t_start < seconds:
        op, op_cpu = {}, 0.0
        t0 = time.perf_counter()
        for label, args in plan.commands:
            code, stdout, wall, cpu, peak = spawn(cli_argv(args), workdir, env)
            walls[label].append(wall)
            cpus[label].append(cpu)
            op_cpu += cpu
            rss = max(rss, peak)
            op[label] = [code, stdout,
                         [tracer.sha256_file(p) for p in plan.outputs.get(label, [])]]
        walls["op"].append(time.perf_counter() - t0)
        cpus["op"].append(op_cpu)
        ops.append(op)
    return walls, cpus, rss, ops


def run_traced(plan: Plan, seconds: float, workdir: str, env: dict):
    plan_path = os.path.join(workdir, "trace-plan.json")
    out_path = os.path.join(workdir, "trace-out.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump({"commands": plan.commands, "outputs": plan.outputs,
                   "seconds": seconds}, fh)
    code, *_ = spawn([sys.executable, os.path.join(HERE, "tracer.py"),
                           plan_path, out_path], workdir, env)
    if code != 0:
        with open(os.path.join(workdir, "child.err"), encoding="utf-8") as fh:
            raise RuntimeError(f"traced child exited {code}:\n{fh.read()}")
    with open(out_path, encoding="utf-8") as fh:
        trace = json.load(fh)
    return trace, tracer.layer_metrics(trace, declared("per_layer")), tracer.shares(trace)


def environment(workload: str, seed: int, seconds: float) -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": THREAD_ENV, "sizes": SIZES,
    }


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 sizes: dict | None = None) -> dict:
    """One run: prints a readable report and returns the result object."""
    size = (sizes or SIZES)[workload]
    workdir = os.path.join(HERE, ".work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    env = child_env()
    try:
        plan = build_plan(workload, seed, workdir, size)
        print("env " + json.dumps(environment(workload, seed, seconds)))
        if trace:
            return _report_traced(plan, seconds, workdir, env)
        return _report_untraced(plan, seconds, workdir, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _report_untraced(plan: Plan, seconds: float, workdir: str, env: dict) -> dict:
    setup_s, setup_wall, setup_rss, setup_problems = measure_setup(workdir, env)
    walls, cpus, rss, ops = run_untraced(plan, seconds, workdir, env)
    correct, attempted, failed, problems = judge(plan, ops)
    problems += setup_problems
    correct = correct and not setup_problems
    # Times are CPU seconds (user + system of the children): on a shared VM,
    # wall time moves with host CPU steal, at times by more across seeds than
    # the largest bound a metric may have. Wall times are printed as info lines.
    analyze_cpu = _p50(cpus["analyze"])
    values = {
        "op_cpu_s_p50": _p50(cpus["op"]),
        "op_cpu_s_p90": percentile(cpus["op"], 90),
        "analyze_cpu_s_p50": analyze_cpu,
        "replicates_per_cpu_s": plan.replicates / analyze_cpu,
        "setup_s": setup_s,
        "peak_rss_mb": max(rss, setup_rss),
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared("end_to_end").items()}
    for p in problems:
        print(f"problem {p}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(f"info ops in the run: {len(ops)}")
    print(f"info wall: setup_s = {setup_wall:.6g} s, "
          f"op_s_p90 = {percentile(walls['op'], 90):.6g} s, "
          f"replicates_per_s = {plan.replicates / _p50(walls['analyze']):.6g} 1/s")
    for label, ws in walls.items():
        print(f"info wall: {label}_s_p50 = {_p50(ws):.6g} s; "
              f"cpu: {label}_cpu_s_p50 = {_p50(cpus[label]):.6g} s")
    validate = [sum(w) for w in zip(*(ws for label, ws in walls.items()
                                      if label.startswith("validate")))]
    if validate:
        print(f"info wall: validate_s_p50 = {_p50(validate):.6g} s (both validate commands)")
    print(f"info failed_ratio = {failed / attempted:.6g} ({failed} of {attempted} commands)")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _report_traced(plan: Plan, seconds: float, workdir: str, env: dict) -> dict:
    trace, metrics, share_rows = run_traced(plan, seconds, workdir, env)
    correct, attempted, failed, problems = judge(plan, trace["ops"])
    if not trace["restored"]:
        correct = False
        problems.append("tracer left a wrapper installed")
    for p in problems:
        print(f"problem {p}")
    for cmd, layer, incl, own in share_rows:
        print(f"share {cmd:<16} {layer:<50} incl {incl:7.1%}  self {own:7.1%}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(f"info traced ops {len(trace['traced_walls'])}, untraced op walls "
          f"{[round(w, 4) for w in trace['untraced_walls']]}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*SIZES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through spawn(), which kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "twomed", "cli.py")):
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    names = list(SIZES) if args.workload == "all" else [args.workload]
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace))
               for w in names}
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    for w, r in results.items():
        print(f"result {w} " + json.dumps(r))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
