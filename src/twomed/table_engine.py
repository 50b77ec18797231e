"""The mediation formula over conditional tables, as array sums.

Each component is a sum over the mediator supports of an outcome contrast
times a probability contrast, for example

    NatINT_AM1 = sum_ij (Y[a,i,j] - Y[a*,i,j]) Pr(j | a*, i) (Pr(i | a) - Pr(i | a*)).

The differences stay inside the sums. The aggregates come apart from them:
they are the rows of core.CONTRASTS over the nested expectations
W(x, y, z) = E[Y(x, M1(y), M2(z, M1(y)))], so the component-set identities
still check one against the other.

The tables are those of one stratum. Every array has a leading replicate axis
r and an exposure axis x that holds (a, a*):

    p1[r, x, i]     Pr(M1 = level i | A = x)
    p2[r, x, i, j]  Pr(M2 = level j | A = x, M1 = level i), the same for
                    every i in the non-sequential topology
    y[r, x, i, j]   E[Y | A = x, M1 = level i, M2 = level j]

A cell without data holds outcome 0 and probability 0, so every term it
enters is an exact zero and no branch has to skip it.
"""

from __future__ import annotations

import numpy as np

from .core import (
    AGGREGATE_NAMES,
    CDE,
    INT_REF_AM1,
    INT_REF_AM1M2,
    INT_REF_AM2,
    INT_REF_AM2_PLUS_AM1M2,
    INT_REF_NAMES,
    NATINT_AM1,
    NATINT_AM1M2,
    NATINT_AM2,
    NATINT_M1M2,
    PIE_M1,
    PIE_M2,
    ComponentSet,
    Topology,
    component_names,
    contrasts,
)


def _sum(terms: np.ndarray, axes: int) -> np.ndarray:
    """Sum over the trailing axes, one term at a time in support order.

    A running sum (not numpy's pairwise reduction) gives each replicate the
    same bits whatever the number of replicates in the call, and an exact
    zero term leaves it unchanged, so levels without data do not matter.
    """
    flat = terms.reshape(terms.shape[: terms.ndim - axes] + (-1,))
    return np.cumsum(flat, axis=-1)[..., -1]


def decompose_tables(
    topology: Topology, p1: np.ndarray, p2: np.ndarray, y: np.ndarray,
    m1_ref: int, m2_ref: int, null_contrast: bool,
) -> tuple[dict, dict]:
    """Every component and aggregate of each replicate, as arrays over r.

    m1_ref and m2_ref index the reference levels in the i and j axes.
    null_contrast (a == a*) sets the INT_ref sums to exactly 0.0: their
    four-term differences cancel only up to rounding. Overflow gives inf or
    nan values, which the component-set identities reject.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        p1a, p1s = p1[:, 0, :, None], p1[:, 1, :, None]
        p2a, p2s = p2[:, 0], p2[:, 1]
        ya, ys = y[:, 0], y[:, 1]
        d1 = p1a - p1s
        d2 = p2a - p2s
        dy = ya - ys
        # Y[x, i, m2*] and Y[x, m1*, m2*]
        ya_r, ys_r = ya[:, :, m2_ref], ys[:, :, m2_ref]
        ya_rr, ys_rr = ya_r[:, m1_ref, None], ys_r[:, m1_ref, None]

        comps = {
            CDE: ya_rr[:, 0] - ys_rr[:, 0],
            INT_REF_AM1: _sum((ya_r - ya_rr - ys_r + ys_rr) * p1[:, 1], 1),
            NATINT_AM1: _sum(dy * p2s * d1, 2),
            NATINT_AM2: _sum(dy * p1s * d2, 2),
            NATINT_AM1M2: _sum(dy * d1 * d2, 2),
            NATINT_M1M2: _sum(ys * d1 * d2, 2),
            PIE_M1: _sum(ys * p2s * d1, 2),
            PIE_M2: _sum(ys * p1s * d2, 2),
        }
        if topology is Topology.SEQUENTIAL:
            comps[INT_REF_AM2_PLUS_AM1M2] = _sum(
                (ya - ya_r[..., None] - ys + ys_r[..., None]) * p1s * p2s, 2
            )
        else:
            # M2's law does not depend on M1: read it off the first row
            ya_m1r, ys_m1r = ya[:, m1_ref], ys[:, m1_ref]
            comps[INT_REF_AM2] = _sum(
                (ya_m1r - ys_m1r - ya_rr + ys_rr) * p2[:, 1, 0], 1
            )
            comps[INT_REF_AM1M2] = _sum(
                (
                    ya - ys
                    - ya_m1r[:, None] + ys_m1r[:, None]
                    - ya_r[..., None] + ys_r[..., None]
                    + ya_rr[..., None] - ys_rr[..., None]
                )
                * p1s * p2s,
                2,
            )
        if null_contrast:
            for k in INT_REF_NAMES[topology]:
                comps[k] = np.zeros_like(comps[CDE])

        def w(key: str) -> np.ndarray:
            """The nested expectation of world key, both mediators natural."""
            x, x1, x2 = ("as".index(slot) for slot in key)
            return _sum(y[:, x] * p1[:, x1, :, None] * p2[:, x2], 2)

        aggs = contrasts(AGGREGATE_NAMES, w)
    return {k: comps[k] for k in component_names(topology)}, aggs


def table_component_set(
    topology: Topology, p1, p2, y, m1_ref: int, m2_ref: int, null_contrast: bool
) -> ComponentSet:
    """decompose_tables for one set of tables, given without the replicate
    axis, as a checked ComponentSet."""
    comps, aggs = decompose_tables(
        topology, *(np.asarray(t, dtype=float)[None] for t in (p1, p2, y)),
        m1_ref, m2_ref, null_contrast,
    )
    return ComponentSet(topology, *({k: v[0] for k, v in values.items()}
                                    for values in (comps, aggs)))
