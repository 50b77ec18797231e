"""Empirical coverage of the percentile bootstrap intervals.

Simulates datasets from a fixed linear model, runs the bootstrap on each, and
tallies how often each component's interval contains the known truth.

    python3 scripts/coverage_experiment.py --runs 100 --n 2000 --B 500
"""

import argparse
import time

import numpy as np

from twomed import (
    LinearScm,
    ReferenceConfig,
    Topology,
    bootstrap_decomposition,
    component_names,
    decompose_closed_form,
    simulate_dataset,
)

SCM = LinearScm(
    theta=(0.4, 0.8, 0.5, 0.6, 0.3, -0.4, 0.25, 0.2),
    beta=(0.2, 0.7, 0.5, 0.3),
    gamma=(0.3, 0.9),
    theta_c=(0.3, -0.2),
    beta_c=(0.2, 0.1),
    gamma_c=(-0.3, 0.2),
)

CFG = ReferenceConfig(
    a=1.0, a_star=0.0, m1_star=0.5, m2_star=0.8,
    covariates=(0.3, -0.1), topology=Topology.SEQUENTIAL,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=100)
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--B", type=int, default=500)
    ap.add_argument("--level", type=float, default=0.95)
    ap.add_argument("--seed", type=int, default=0)
    opts = ap.parse_args()

    names = list(component_names(CFG.topology)) + ["PDE", "TDE", "SIE_M1", "TE"]
    truth_cs = decompose_closed_form(SCM, CFG)
    truth = {
        nm: (truth_cs.aggregates[nm] if nm in truth_cs.aggregates
             else truth_cs.component(nm))
        for nm in names
    }
    covered = {nm: 0 for nm in names}
    widths = {nm: [] for nm in names}
    t0 = time.perf_counter()
    for i in range(opts.runs):
        d = simulate_dataset(SCM, opts.n, seed=opts.seed * 100_000 + i)
        r = bootstrap_decomposition(
            d, CFG, B=opts.B, level=opts.level, seed=i
        )
        for nm in names:
            if r.lower[nm] <= truth[nm] <= r.upper[nm]:
                covered[nm] += 1
            widths[nm].append(r.upper[nm] - r.lower[nm])
    elapsed = time.perf_counter() - t0

    print(f"{opts.runs} runs, n={opts.n}, B={opts.B}, "
          f"level={opts.level:g}, {elapsed:.0f}s")
    print(f"{'component':<22}{'truth':>10}{'coverage':>10}{'med width':>11}")
    for nm in names:
        print(f"{nm:<22}{truth[nm]:>10.4f}{covered[nm] / opts.runs:>10.3f}"
              f"{float(np.median(widths[nm])):>11.4f}")


if __name__ == "__main__":
    main()
