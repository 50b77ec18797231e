"""Self-test of the benchmark harness at tiny sizes (a few minutes).

Usage, from the repository root:
    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

It checks that every metric BENCHMARK.json names is emitted for each
workload, traced and untraced; that a planted wrong analyze output counts as
failed; and that installing and removing the tracer's wrappers leaves the
commands' outputs unchanged.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil

import run
import tracer

TINY = {
    "boot-small-n": {"n": 200, "k": 2, "B": 100},
    "boot-categorical": {"n": 2000, "levels": [2, 3], "B": 100},
    "sim-study": {"sim_n": 500, "mc_n": 20000, "B": 100, "k": 2},
}


@contextlib.contextmanager
def _workdir(tag: str):
    path = os.path.join(run.HERE, ".work", f"selftest-{tag}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def _quiet_run(workload: str, trace: bool) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        return run.run_workload(workload, seed=3, seconds=0, trace=trace, sizes=TINY)


def test_every_declared_metric_is_emitted():
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        declared = run.declared(kind)
        for workload in TINY:
            result = _quiet_run(workload, trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == declared, (workload, kind, set(got) ^ set(declared))
            for name, m in result["metrics"].items():
                assert math.isfinite(m["value"]), (workload, name, m)
            assert result["correct"], (workload, kind)
            assert result["attempted"] >= 1
            if workload != "sim-study":
                assert result["failed"] == 0, (workload, kind, result["failed"])


def test_planted_wrong_analyze_output_counts_as_failed():
    with _workdir("plant") as wd:
        plan = run.build_plan("boot-small-n", 5, wd, TINY["boot-small-n"])
        code, stdout, *_ = run.spawn(run.cli_argv(plan.commands[0][1]), wd,
                                       run.child_env())
        good = {"analyze": [code, stdout, []]}
        assert run.judge(plan, [good])[:3] == (True, 1, 0)

        doc = json.loads(stdout)
        doc["components"][0]["estimate"] *= 1.0 + 1e-6
        wrong = {"analyze": [0, json.dumps(doc, indent=2), []]}
        correct, attempted, failed, problems = run.judge(plan, [wrong])
        assert (correct, attempted, failed) == (False, 1, 1), problems

        doc = json.loads(stdout)
        agg = doc["aggregates"]["TE"]
        agg["ci_lower"], agg["ci_upper"] = agg["ci_upper"], agg["ci_lower"]
        swapped = {"analyze": [0, json.dumps(doc, indent=2), []]}
        assert run.judge(plan, [swapped])[:3] == (False, 1, 1)

        doc = json.loads(stdout)
        doc["components"][-1]["ci_upper"] *= 1.0 + 1e-6
        widened = {"analyze": [0, json.dumps(doc, indent=2), []]}
        assert run.judge(plan, [widened])[:3] == (False, 1, 1)

        exit4 = {"analyze": [4, "", []]}
        assert run.judge(plan, [good, exit4])[:3] == (False, 2, 1)


def test_estimate_far_from_simulated_truth_is_a_problem():
    import checks

    with _workdir("truth") as wd:
        plan = run.build_plan("sim-study", 5, wd, TINY["sim-study"])
        env = run.child_env()
        outputs = {}
        for label, args in plan.commands:
            if label in ("simulate", "analyze"):
                code, outputs[label], *_ = run.spawn(run.cli_argv(args), wd, env)
                assert code == 0, label
        truth = plan.outputs["simulate"][1]
        doc = json.loads(outputs["analyze"])
        assert checks._truth_problems(doc, truth) == []
        row = doc["components"][0]
        row["estimate"] += 4 * (row["ci_upper"] - row["ci_lower"]) + 1.0
        assert len(checks._truth_problems(doc, truth)) == 1


def test_wrappers_leave_outputs_unchanged():
    from twomed import cli

    with _workdir("wrap") as wd:
        plan = run.build_plan("sim-study", 5, wd, TINY["sim-study"])
        spec = {"commands": plan.commands, "outputs": plan.outputs}
        _, before = tracer.run_op(cli, spec, None)
        t = tracer.Tracer()
        t.install()
        try:
            _, traced = tracer.run_op(cli, spec, t)
        finally:
            t.remove()
        _, after = tracer.run_op(cli, spec, None)
        assert t.restored()
        assert before == traced == after
        names = {s[0] for s in t.spans}
        assert set(tracer.LAYERS) - names <= {
            "empirical.estimate_tables", "empirical.decompose_empirical_sequential",
        }, names


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
