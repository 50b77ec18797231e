"""Symbolic audit of the closed-form component algebra.

Two stages. First, with sympy alone: rebuild the expected nested
counterfactuals W1..W8 from the raw structural equations (expanding the first
mediator's error moments by hand), define every component by its population
contrast, and prove the internal identities symbolically. Second, against the
installed package: evaluate those definitional expressions at random points
and compare with decompose_closed_form and expected_counterfactual, and with
decompose_closed_form_batch on all the points' coefficient sets at once.
expected_counterfactual is read for W1..W8 and for every world key of
core.CONTRASTS, reference slots included, in both topologies.

Dev tooling only; sympy is not a package dependency.

    python3 scripts/validate_formulas.py [--points 200] [--seed 0]
"""

import argparse
import dataclasses
import random
import sys

try:
    import sympy as sp
except ImportError:
    sys.exit("this audit needs sympy (pip install sympy); it is dev-only")

from twomed import (
    ModelCoefficients,
    ReferenceConfig,
    Topology,
    decompose_closed_form,
    expected_counterfactual,
)
from twomed.closed_form import CoefficientBatch, decompose_closed_form_batch
from twomed.core import CONTRASTS

t0, t1, t2, t3, t4, t5, t6, t7, t8c = sp.symbols("t0 t1 t2 t3 t4 t5 t6 t7 t8c")
b0, b1, b2, b3, b4c = sp.symbols("b0 b1 b2 b3 b4c")
g0, g1, g2c = sp.symbols("g0 g1 g2c")
s1sq = sp.symbols("s1sq")
a, s = sp.symbols("a astar")
m1r, m2r = sp.symbols("m1star m2star")
e1 = sp.symbols("e1")

ARGS = (t0, t1, t2, t3, t4, t5, t6, t7, t8c, b0, b1, b2, b3, b4c,
        g0, g1, g2c, s1sq, a, s, m1r, m2r)

FAILURES = []


def check(label, expr_is_zero):
    ok = sp.simplify(expr_is_zero) == 0
    print(f"  {label}: {'ok' if ok else 'MISMATCH'}")
    if not ok:
        FAILURES.append(label)


def G(y):
    return g0 + g1 * y + g2c


def B(z):
    return b0 + b1 * z + b4c


def K(z):
    return b2 + b3 * z


def y_structural(x, m1, m2):
    return (
        t0 + t1 * x + t2 * m1 + t3 * m2 + t4 * x * m1 + t5 * x * m2
        + t6 * m1 * m2 + t7 * x * m1 * m2 + t8c
    )


def w_sequential(x, y, z):
    """E[Y(x, M1(y), M2(z, M1(y)))] by expanding the error moments."""
    m1 = G(y) + e1
    return expectation(y_structural(x, m1, B(z) + K(z) * m1))


def world_expression(key):
    """E[Y] in world key "xij" of core.CONTRASTS: exposure x, M1 slot i and
    M2 slot j, each "a", "s" or "r". M1 at its reference is m1star and M2 at
    its reference m2star; a natural M2 takes the world's M1, through K, which
    is zero in the non-sequential topology."""
    lv = {"a": a, "s": s}
    m1 = m1r if key[1] == "r" else G(lv[key[1]]) + e1
    m2 = m2r if key[2] == "r" else B(lv[key[2]]) + K(lv[key[2]]) * m1
    return expectation(y_structural(lv[key[0]], m1, m2))


def expectation(expr):
    """The mean over e1 of a polynomial in it.

    The first mediator is G(y) + e1 with E[e1] = 0 and E[e1^2] = s1sq; the
    second mediator's own error enters linearly and drops in expectation.
    """
    poly = sp.Poly(sp.expand(expr), e1)
    out = 0
    for (k,), coeff in poly.terms():
        if k == 0:
            out += coeff
        elif k == 2:
            out += coeff * s1sq
        elif k > 2:
            raise AssertionError("unexpected error power")
    return sp.expand(out)


def w_nonsequential(x, y, z):
    """E[Y(x, M1(y), M2(z))] with mediators independent given exposure."""
    return sp.expand(y_structural(x, G(y), B(z)))


def ey_fixed(x, m1v, m2v):
    return y_structural(x, m1v, m2v)


def ey_m1nat_m2fixed(x, y, m2v):
    return y_structural(x, G(y), m2v)  # linear in m1, so the mean suffices


def sequential_definitions():
    w = {
        nm: w_sequential(*slots)
        for nm, slots in {
            "W1": (a, a, a), "W2": (a, a, s), "W3": (a, s, a),
            "W4": (s, a, a), "W5": (s, s, a), "W6": (s, a, s),
            "W7": (a, s, s), "W8": (s, s, s),
        }.items()
    }
    comp = {
        "CDE": ey_fixed(a, m1r, m2r) - ey_fixed(s, m1r, m2r),
        "INT_ref_AM1": (
            ey_m1nat_m2fixed(a, s, m2r) - ey_m1nat_m2fixed(s, s, m2r)
            - ey_fixed(a, m1r, m2r) + ey_fixed(s, m1r, m2r)
        ),
        "INT_ref_AM2+AM1M2": (
            (w["W7"] - ey_m1nat_m2fixed(a, s, m2r))
            - (w["W8"] - ey_m1nat_m2fixed(s, s, m2r))
        ),
        "NatINT_AM1": w["W2"] - w["W6"] - w["W7"] + w["W8"],
        "NatINT_AM2": w["W3"] - w["W5"] - w["W7"] + w["W8"],
        "NatINT_AM1M2": (
            w["W1"] - w["W4"] - w["W3"] + w["W5"]
            - w["W2"] + w["W6"] + w["W7"] - w["W8"]
        ),
        "NatINT_M1M2": w["W4"] - w["W5"] - w["W6"] + w["W8"],
        "PIE_M1": w["W6"] - w["W8"],
        "PIE_M2": w["W5"] - w["W8"],
    }
    return w, comp


def nonsequential_definitions():
    w = {
        nm: w_nonsequential(*slots)
        for nm, slots in {
            "W1": (a, a, a), "W2": (a, a, s), "W3": (a, s, a),
            "W4": (s, a, a), "W5": (s, s, a), "W6": (s, a, s),
            "W7": (a, s, s), "W8": (s, s, s),
        }.items()
    }

    def ey_m1fixed_m2nat(x, m1v, z):
        return y_structural(x, m1v, B(z))

    comp = {
        "CDE": ey_fixed(a, m1r, m2r) - ey_fixed(s, m1r, m2r),
        "INT_ref_AM1": (
            ey_m1nat_m2fixed(a, s, m2r) - ey_m1nat_m2fixed(s, s, m2r)
            - ey_fixed(a, m1r, m2r) + ey_fixed(s, m1r, m2r)
        ),
        "INT_ref_AM2": (
            ey_m1fixed_m2nat(a, m1r, s) - ey_m1fixed_m2nat(s, m1r, s)
            - ey_fixed(a, m1r, m2r) + ey_fixed(s, m1r, m2r)
        ),
        "INT_ref_AM1M2": (
            w["W7"] - w["W8"]
            - ey_m1fixed_m2nat(a, m1r, s) + ey_m1fixed_m2nat(s, m1r, s)
            - ey_m1nat_m2fixed(a, s, m2r) + ey_m1nat_m2fixed(s, s, m2r)
            + ey_fixed(a, m1r, m2r) - ey_fixed(s, m1r, m2r)
        ),
        "NatINT_AM1": w["W2"] - w["W6"] - w["W7"] + w["W8"],
        "NatINT_AM2": w["W3"] - w["W5"] - w["W7"] + w["W8"],
        "NatINT_AM1M2": (
            w["W1"] - w["W4"] - w["W3"] + w["W5"]
            - w["W2"] + w["W6"] + w["W7"] - w["W8"]
        ),
        "NatINT_M1M2": w["W4"] - w["W5"] - w["W6"] + w["W8"],
        "PIE_M1": w["W6"] - w["W8"],
        "PIE_M2": w["W5"] - w["W8"],
    }
    return w, comp


def symbolic_stage():
    print("symbolic identities (sequential):")
    w, comp = sequential_definitions()
    te = w["W1"] - w["W8"]
    check("components sum to W1 - W8", sum(comp.values()) - te)
    check(
        "direct components sum to W7 - W8",
        comp["CDE"] + comp["INT_ref_AM1"] + comp["INT_ref_AM2+AM1M2"]
        - (w["W7"] - w["W8"]),
    )
    check(
        "seminatural indirect effect splits",
        (w["W4"] - w["W5"]) - (comp["PIE_M1"] + comp["NatINT_M1M2"]),
    )

    print("symbolic identities (non-sequential, no mediator link):")
    wn, compn = nonsequential_definitions()
    sub = {b2: 0, b3: 0}
    check(
        "components sum to W1 - W8",
        sp.expand(sum(compn.values()) - (wn["W1"] - wn["W8"])).subs(sub),
    )
    check(
        "combined reference interaction splits in two",
        (comp["INT_ref_AM2+AM1M2"].subs(sub))
        - (compn["INT_ref_AM2"] + compn["INT_ref_AM1M2"]).subs(sub),
    )
    for nm in ("NatINT_AM1", "NatINT_AM2", "NatINT_AM1M2", "NatINT_M1M2",
               "PIE_M1", "PIE_M2", "CDE", "INT_ref_AM1"):
        check(
            f"{nm} matches the sequential form at b2=b3=0",
            comp[nm].subs(sub) - compn[nm].subs(sub),
        )
    return comp, compn, w


def numeric_stage(comp_seq, comp_non, w_seq, points, seed):
    """Definitional expressions vs the installed closed forms, at random points.

    Every coefficient set is also evaluated a second time under one shared
    reference configuration, and those sets go through the batched closed
    form together, one batch per topology.
    """
    rng = random.Random(seed)
    fns_seq = {nm: sp.lambdify(ARGS, ex, "math") for nm, ex in comp_seq.items()}
    fns_non = {nm: sp.lambdify(ARGS, ex, "math") for nm, ex in comp_non.items()}
    fns_w = {nm: sp.lambdify(ARGS, ex, "math") for nm, ex in w_seq.items()}
    keys = sorted({term[1:] for row in CONTRASTS.values() for term in row.split()})
    fns_world = {
        key: sp.lambdify(ARGS, world_expression(key), "math") for key in keys
    }
    worst_world = 0.0
    batch_refs = [rng.uniform(-2, 2) for _ in range(4)]
    batch_c = rng.choice([-1, 1]) * rng.uniform(0.5, 2.0)
    batches = {Topology.SEQUENTIAL: ([], []), Topology.NONSEQUENTIAL: ([], [])}
    worst = 0.0
    for _ in range(points):
        vals = [rng.uniform(-2, 2) for _ in range(17)]
        sig = rng.uniform(0.1, 2.0)
        refs = [rng.uniform(-2, 2) for _ in range(4)]
        c_v = rng.choice([-1, 1]) * rng.uniform(0.5, 2.0)
        theta = vals[0:8]
        beta = vals[9:13]
        gamma = [vals[14], vals[15]]
        # symbolic slots 8, 13, 16 are the contracted covariate products
        tc, bc, gc = vals[8], vals[13], vals[16]
        point = dict(zip(
            ARGS,
            theta + [tc] + beta + [bc] + gamma + [gc, sig**2] + refs,
        ))
        for topology, fns in ((Topology.SEQUENTIAL, fns_seq),
                              (Topology.NONSEQUENTIAL, fns_non)):
            use_beta = list(beta)
            if topology is Topology.NONSEQUENTIAL:
                use_beta[2] = use_beta[3] = 0.0
                point = dict(point)
                point[b2] = 0.0
                point[b3] = 0.0
            coefs = ModelCoefficients(
                theta=theta, beta=use_beta, gamma=gamma,
                theta_c=(tc / c_v,), beta_c=(bc / c_v,), gamma_c=(gc / c_v,),
                sigma_m1=sig,
            )
            cfg = ReferenceConfig(
                a=refs[0], a_star=refs[1], m1_star=refs[2], m2_star=refs[3],
                covariates=(c_v,), topology=topology,
            )
            cs = decompose_closed_form(coefs, cfg)
            args = [point[sym] for sym in ARGS]
            for nm, fn in fns.items():
                want = fn(*args)
                got = cs.component(nm)
                worst = max(worst, abs(want - got) / max(1.0, abs(want)))
            for nm, fn in fns_w.items():
                got = expected_counterfactual(nm, coefs, cfg)
                worst = max(worst, abs(fn(*args) - got))
            for key, fn in fns_world.items():
                want = fn(*args)
                got = expected_counterfactual(key, coefs, cfg)
                worst_world = max(worst_world, abs(want - got) / max(1.0, abs(want)))
            models, wants = batches[topology]
            models.append(dataclasses.replace(
                coefs,
                theta_c=(tc / batch_c,), beta_c=(bc / batch_c,),
                gamma_c=(gc / batch_c,),
            ))
            batch_point = point | dict(zip((a, s, m1r, m2r), batch_refs))
            args = [batch_point[sym] for sym in ARGS]
            wants.append({nm: fn(*args) for nm, fn in fns.items()})
    print(f"numeric stage: worst relative delta over {points} random points "
          f"= {worst:.3e}")
    if worst > 1e-9:
        FAILURES.append("numeric comparison against the package")
    print(f"world keys: worst relative delta over {len(keys)} keys at {points} "
          f"random points per topology = {worst_world:.3e}")
    if worst_world > 1e-9:
        FAILURES.append("world keys against expected_counterfactual")

    worst = 0.0
    for topology, (models, wants) in batches.items():
        cfg = ReferenceConfig(
            a=batch_refs[0], a_star=batch_refs[1], m1_star=batch_refs[2],
            m2_star=batch_refs[3], covariates=(batch_c,), topology=topology,
        )
        got, violated = decompose_closed_form_batch(
            CoefficientBatch.stack(models), cfg
        )
        if violated.any():
            FAILURES.append(f"batched identity checks ({topology.value})")
        for i, want in enumerate(wants):
            for nm, value in want.items():
                delta = abs(value - got[nm][i]) / max(1.0, abs(value))
                worst = max(worst, delta)
    print(f"batch stage: worst relative delta over {points} coefficient sets "
          f"per topology = {worst:.3e}")
    if worst > 1e-9:
        FAILURES.append("batched comparison against the package")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--points", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    opts = ap.parse_args()
    comp_seq, comp_non, w_seq = symbolic_stage()
    numeric_stage(comp_seq, comp_non, w_seq, opts.points, opts.seed)
    if FAILURES:
        sys.exit(f"FAIL: {len(FAILURES)} check(s): {FAILURES}")
    print("all formula checks passed")


if __name__ == "__main__":
    main()
