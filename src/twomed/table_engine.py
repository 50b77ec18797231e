"""The mediation formula over conditional tables, as array sums.

Every component and aggregate is a row of core.CONTRASTS, a signed sum of
nested worlds. Over the tables, world "xij" is the expectation

    E[Y(x, M1 slot i, M2 slot j)] = sum_kl y[x, k, l] Pr1(k) Pr2(l | k),

where a natural M1 slot i weights level k by Pr(M1 = k | A = i), a natural
M2 slot j weights level l by Pr(M2 = l | A = j, M1 = k), and a reference
slot puts all weight on the reference level. The sum runs over the slots
left natural, so each world is one sum and the differences come after it.
At a == a* every a-world has the bits of its a* twin, and each row subtracts
one right after the other, so every contrast is an exact zero.

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

from .core import ComponentSet, Topology, contrasts, value_names


def _sum(terms: np.ndarray, axes: int) -> np.ndarray:
    """Sum over the trailing axes, one term at a time in support order.

    A running sum (not numpy's pairwise reduction) gives each replicate the
    same bits whatever the number of replicates in the call. Adding +0.0
    turns a sum of -0.0 terms (products that underflowed) into +0.0, the sum
    that any further +0.0 term would give; so an exact zero term leaves the
    sum unchanged, sign included, and levels without data do not matter.
    """
    flat = terms.reshape(terms.shape[: terms.ndim - axes] + (-1,))
    return np.cumsum(flat, axis=-1)[..., -1] + 0.0


def decompose_tables(
    topology: Topology, p1: np.ndarray, p2: np.ndarray, y: np.ndarray,
    m1_ref: int, m2_ref: int,
) -> dict:
    """Every component and aggregate of each replicate, as arrays over r, by
    name in value_names order.

    m1_ref and m2_ref index the reference levels in the i and j axes.
    Overflow gives inf or nan values, which the component-set identities
    reject.
    """

    def world(key: str) -> np.ndarray:
        """E[Y(x, M1 slot i, M2 slot j)] for world key "xij"."""
        x, i, j = ("asr".index(slot) for slot in key)
        if i == 2 and j == 2:
            return y[:, x, m1_ref, m2_ref]
        if j == 2:
            return _sum(y[:, x, :, m2_ref] * p1[:, i], 1)
        if i == 2:
            # M2 natural given M1 at its reference level
            return _sum(y[:, x, m1_ref] * p2[:, j, m1_ref], 1)
        return _sum(y[:, x] * p1[:, i, :, None] * p2[:, j], 2)

    with np.errstate(over="ignore", invalid="ignore"):
        return contrasts(value_names(topology), world)


def table_component_set(
    topology: Topology, p1, p2, y, m1_ref: int, m2_ref: int
) -> ComponentSet:
    """decompose_tables for one set of tables, given without the replicate
    axis, as a checked ComponentSet."""
    values = decompose_tables(
        topology, *(np.asarray(t, dtype=float)[None] for t in (p1, p2, y)),
        m1_ref, m2_ref,
    )
    return ComponentSet.from_values(topology, {k: v[0] for k, v in values.items()})
