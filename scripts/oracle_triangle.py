"""Cross-check the three computation paths on freshly drawn random models.

Each model goes through validate's checks, twomed.cli.validation_checks, with
tol 1e-12 and |z| <= 5. Binary models: exact probability sums vs the sweep
over latent response types vs the conditional-table estimator fed the true
tables (sequential only). Linear models: closed forms vs Monte Carlo
potential-outcome simulation, the component sum vs W1 - W8 too.

    python3 scripts/oracle_triangle.py --binary 100 --linear 10 --mc-n 500000
"""

import argparse
import sys

import numpy as np

from twomed import BinaryScm, LinearScm, ReferenceConfig, Topology
from twomed.cli import validation_checks

TOL, MC_Z = 1e-12, 5.0


def _failures(where, checks):
    return [f"{where}:{check.line()}" for check in checks if check.passed is False]


def random_binary(rng, topology):
    p2 = {(x, m1): float(rng.uniform()) for x in (0, 1) for m1 in (0, 1)}
    if topology is Topology.NONSEQUENTIAL:
        p2[(0, 1)] = p2[(0, 0)]
        p2[(1, 1)] = p2[(1, 0)]
    return BinaryScm(
        p_m1_given_a={0: float(rng.uniform()), 1: float(rng.uniform())},
        p_m2_given_a_m1=p2,
        e_y_given_a_m1_m2={
            cell: float(rng.normal(0.0, 2.0))
            for cell in ((x, v, w) for x in (0, 1) for v in (0, 1) for w in (0, 1))
        },
        topology=topology,
    )


def random_linear(rng, sequential):
    beta = rng.normal(0.0, 1.0, 4)
    if not sequential:
        beta[2] = beta[3] = 0.0
    return LinearScm(
        theta=rng.normal(0.0, 1.0, 8), beta=beta, gamma=rng.normal(0.0, 1.0, 2),
        sigma_y=float(rng.uniform(0.5, 1.5)),
        sigma_m1=float(rng.uniform(0.5, 1.5)),
        sigma_m2=float(rng.uniform(0.5, 1.5)),
    )


def binary_stage(count, rng):
    worst, failed = 0.0, []
    for i in range(count):
        for topology in (Topology.SEQUENTIAL, Topology.NONSEQUENTIAL):
            scm = random_binary(rng, topology)
            cfg = ReferenceConfig(
                a=1.0, a_star=0.0,
                m1_star=float(rng.integers(0, 2)),
                m2_star=float(rng.integers(0, 2)),
                covariates=(), topology=topology,
            )
            # the Monte Carlo draw count and seed go unused on a binary model
            checks = validation_checks(scm, cfg, 2, 0, TOL, MC_Z)
            worst = max([worst, *(check.value for check in checks)])
            failed += _failures(f"model {i}, {topology.value}", checks)
    print(f"binary: {count} models per topology, worst |delta| = {worst:.3e}")
    return failed


def linear_stage(count, mc_n, rng, seed):
    worst_z, worst_at, failed = 0.0, "", []
    for i in range(count):
        scm = random_linear(rng, sequential=True)
        cfg = ReferenceConfig(
            a=float(rng.normal(1.0, 0.5)), a_star=float(rng.normal(0.0, 0.5)),
            m1_star=float(rng.normal()), m2_star=float(rng.normal()),
            covariates=(), topology=Topology.SEQUENTIAL,
        )
        checks = validation_checks(scm, cfg, mc_n, seed + i, TOL, MC_Z)
        for check in checks:
            if check.measure == "worst |z|" and check.value > worst_z:
                worst_z, worst_at = check.value, f"model {i}, {check.worst}"
        failed += _failures(f"model {i}", checks)
    print(f"linear: {count} models at n={mc_n}, worst |z| = {worst_z:.2f} "
          f"({worst_at})")
    return failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--binary", type=int, default=100)
    ap.add_argument("--linear", type=int, default=10)
    ap.add_argument("--mc-n", type=int, default=500_000)
    ap.add_argument("--seed", type=int, default=0)
    opts = ap.parse_args()
    rng = np.random.default_rng(opts.seed)
    failed = binary_stage(opts.binary, rng)
    failed += linear_stage(opts.linear, opts.mc_n, rng, opts.seed)
    if failed:
        print("\n".join(failed))
        sys.exit("FAIL: computation paths disagree")
    print("all paths agree")


if __name__ == "__main__":
    main()
