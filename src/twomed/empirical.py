"""Plug-in estimator for categorical mediators in the sequential topology.

Works from saturated conditional probability tables and conditional outcome
means, combined by iterated-expectation double sums over the mediator
supports. Covariates are handled as discrete strata only; continuous
covariates belong to the regression path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import compress
from typing import NamedTuple

import numpy as np

from .core import (
    CDE,
    INT_REF_AM1,
    INT_REF_AM2_PLUS_AM1M2,
    NATINT_AM1,
    NATINT_AM1M2,
    NATINT_AM2,
    NATINT_M1M2,
    PDE,
    PIE_M1,
    PIE_M2,
    SIE_M1,
    TDE,
    TE,
    ComponentSet,
    ConfigError,
    EstimationError,
    ReferenceConfig,
    Topology,
)
from .oracle import BinaryScm

_SUM_TOL = 1e-9


def _level(v) -> float:
    x = float(v)
    if not math.isfinite(x):
        raise ConfigError(f"level must be finite, got {v!r}")
    return x


def _level_str(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(float(v))


def _stratum_str(stratum: tuple) -> str:
    return "c=(" + ",".join(_level_str(v) for v in stratum) + ")"


@dataclass(frozen=True)
class ProbTables:
    """Conditional tables for the discrete sequential estimator.

    pr_m1[(a, m1, stratum)] is Pr(M1=m1 | A=a, C=stratum),
    pr_m2[(a, m1, m2, stratum)] is Pr(M2=m2 | A=a, M1=m1, C=stratum),
    p_y[(a, m1, m2, stratum)] is E[Y | A=a, M1=m1, M2=m2, C=stratum].
    A stratum is the tuple of covariate values (empty when none). Levels are
    stored as floats; every defined conditional distribution must sum to one.
    Absent keys mean "no data for that cell": tolerated while the cell gets
    zero weight, a hard error once the decomposition touches it.
    """

    pr_m1: dict = field(default_factory=dict)
    pr_m2: dict = field(default_factory=dict)
    p_y: dict = field(default_factory=dict)
    support_a: tuple[float, ...] = ()
    support_m1: tuple[float, ...] = ()
    support_m2: tuple[float, ...] = ()
    strata: tuple[tuple, ...] = ((),)

    def __post_init__(self):
        groups1: dict = {}
        for (a, m1, c), p in self.pr_m1.items():
            groups1.setdefault((a, c), []).append(p)
        for (a, c), ps in groups1.items():
            s = math.fsum(ps)
            if abs(s - 1.0) > _SUM_TOL:
                raise EstimationError(
                    f"Pr(M1 | A={_level_str(a)}, {_stratum_str(c)}) sums to {s!r}"
                )
        groups2: dict = {}
        for (a, m1, m2, c), p in self.pr_m2.items():
            groups2.setdefault((a, m1, c), []).append(p)
        for (a, m1, c), ps in groups2.items():
            s = math.fsum(ps)
            if abs(s - 1.0) > _SUM_TOL:
                raise EstimationError(
                    f"Pr(M2 | A={_level_str(a)}, M1={_level_str(m1)}, "
                    f"{_stratum_str(c)}) sums to {s!r}"
                )
        for p in list(self.pr_m1.values()) + list(self.pr_m2.values()):
            if not (0.0 <= p <= 1.0 + 1e-12):
                raise EstimationError(f"probability out of range: {p!r}")
        for v in self.p_y.values():
            if not math.isfinite(v):
                raise EstimationError(f"non-finite outcome mean {v!r}")

    @classmethod
    def from_binary_scm(cls, scm: BinaryScm) -> "ProbTables":
        """The SCM's true tables, for oracle-identity checks."""
        pr1 = {}
        pr2 = {}
        py = {}
        for a in (0, 1):
            p = scm.p_m1_given_a[a]
            pr1[(float(a), 1.0, ())] = p
            pr1[(float(a), 0.0, ())] = 1.0 - p
            for m1 in (0, 1):
                q = scm.p_m2_given_a_m1[(a, m1)]
                pr2[(float(a), float(m1), 1.0, ())] = q
                pr2[(float(a), float(m1), 0.0, ())] = 1.0 - q
                for m2 in (0, 1):
                    py[(float(a), float(m1), float(m2), ())] = scm.e_y_given_a_m1_m2[
                        (a, m1, m2)
                    ]
        return cls(
            pr_m1=pr1,
            pr_m2=pr2,
            p_y=py,
            support_a=(0.0, 1.0),
            support_m1=(0.0, 1.0),
            support_m2=(0.0, 1.0),
            strata=((),),
        )

    def to_json_dict(self) -> dict:
        """Nested string-keyed maps for the audit dump."""
        out = {
            "support": {
                "a": [_level_str(v) for v in self.support_a],
                "m1": [_level_str(v) for v in self.support_m1],
                "m2": [_level_str(v) for v in self.support_m2],
            },
            "strata": [[_level_str(v) for v in c] for c in self.strata],
            "pr_m1": {},
            "pr_m2": {},
            "p_y": {},
        }
        for (a, m1, c), p in sorted(self.pr_m1.items()):
            key = f"a={_level_str(a)}|{_stratum_str(c)}"
            out["pr_m1"].setdefault(key, {})[_level_str(m1)] = p
        for (a, m1, m2, c), p in sorted(self.pr_m2.items()):
            key = f"a={_level_str(a)},m1={_level_str(m1)}|{_stratum_str(c)}"
            out["pr_m2"].setdefault(key, {})[_level_str(m2)] = p
        for (a, m1, m2, c), v in sorted(self.p_y.items()):
            key = f"a={_level_str(a)},m1={_level_str(m1)}|{_stratum_str(c)}"
            out["p_y"].setdefault(key, {})[_level_str(m2)] = v
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def _distinct(x: np.ndarray):
    """Sorted distinct entries (rows, for a matrix) of x, and the position of
    each of x's entries among them."""
    values, inverse = np.unique(x, axis=0, return_inverse=True)
    return values, inverse.ravel()


class CellCoder:
    """A dataset's rows coded once by their (a, m1, m2, stratum) cell.

    tables() estimates the tables of all rows, or of the resample made of rows
    idx, from two bincounts over the codes plus work in the number of cells,
    not rows. Counts are exact integers and each cell's outcomes are summed in
    row order from 0.0, so the tables are exactly those of a row-by-row tally
    of the resampled rows.
    """

    def __init__(self, d):
        self.y = d.y
        self.levels, index = [], []
        for col in (d.a, d.m1, d.m2, d.covariates):
            values, inverse = _distinct(col)
            self.levels.append([v if col.ndim == 1 else tuple(v)
                                for v in values.tolist()])
            index.append(inverse)
        self.cells, self.codes = _distinct(np.stack(index, axis=1))
        am1, self.cell_am1 = _distinct(self.cells[:, [0, 1, 3]])
        ac, self.am1_ac = _distinct(am1[:, [0, 2]])
        a, m1, m2, c = self.levels
        self.cell_keys = [(a[i], m1[j], m2[k], c[s])
                          for i, j, k, s in self.cells.tolist()]
        self.am1_keys = [(a[i], m1[j], c[s]) for i, j, s in am1.tolist()]
        self.ac_keys = [(a[i], c[s]) for i, s in ac.tolist()]

    def tables(self, cfg: ReferenceConfig, idx=None) -> ProbTables:
        """Tables of rows idx (all rows when None), checked against cfg."""
        codes, y = (self.codes, self.y) if idx is None else (
            self.codes[idx], self.y[idx])
        n = np.bincount(codes, minlength=len(self.cell_keys))
        y_sum = np.bincount(codes, weights=y, minlength=len(self.cell_keys))
        n_am1 = np.bincount(self.cell_am1, weights=n, minlength=len(self.am1_keys))
        n_ac = np.bincount(self.am1_ac, weights=n_am1, minlength=len(self.ac_keys))
        live, live_am1 = n > 0, n_am1 > 0
        # the supports and strata are the levels the rows still hold
        support_a, support_m1, support_m2, strata = (
            tuple(compress(lv, np.bincount(self.cells[live, j], minlength=len(lv))))
            for j, lv in enumerate(self.levels)
        )
        _cfg_levels(cfg, support_a, support_m1, support_m2, strata)

        live_am1_keys = list(compress(self.am1_keys, live_am1))
        pr1_live = _ZerosElsewhere(zip(
            live_am1_keys, (n_am1[live_am1] / n_ac[self.am1_ac[live_am1]]).tolist()))
        pr2_live = _ZerosElsewhere(zip(
            compress(self.cell_keys, live),
            (n[live] / n_am1[self.cell_am1[live]]).tolist()))
        py = dict(zip(compress(self.cell_keys, live), (y_sum[live] / n[live]).tolist()))
        # walk the cells before filling in the zeros, which number
        # levels x groups: O(n^2) when a mediator is continuous
        _check_coverage(_Tables(pr1_live, pr2_live, py, support_a, support_m1,
                                support_m2, strata), cfg)

        # unobserved levels within an observed group are structural zeros
        pr1 = {(a, m1, c): 0.0 for a, c in compress(self.ac_keys, n_ac > 0)
               for m1 in support_m1}
        pr1.update(pr1_live)
        pr2 = {(a, m1, m2, c): 0.0 for a, m1, c in live_am1_keys for m2 in support_m2}
        pr2.update(pr2_live)
        return ProbTables(pr_m1=pr1, pr_m2=pr2, p_y=py, support_a=support_a,
                          support_m1=support_m1, support_m2=support_m2, strata=strata)


class _ZerosElsewhere(dict):
    """Observed probabilities; any other key reads as a structural zero.

    Right for the coverage walk: it looks up a level only after it has found
    outcome cells in that level's group (a, c) or (a, m1, c), and the filled
    tables hold a zero for every support level of such a group.
    """

    def __missing__(self, key):
        return 0.0


class _Tables(NamedTuple):
    """The ProbTables fields _check_coverage reads, without the checks that
    construction runs."""

    pr_m1: dict
    pr_m2: dict
    p_y: dict
    support_a: tuple
    support_m1: tuple
    support_m2: tuple
    strata: tuple


def estimate_tables(d, cfg: ReferenceConfig) -> ProbTables:
    """Saturated frequency tables from a dataset, one stratum per distinct
    covariate row.

    Raises once a cell the decomposition needs (under cfg's levels and
    stratum) has no data, naming the cell; coarsening the strata is the
    caller's remedy.
    """
    return CellCoder(d).tables(cfg)


def _cfg_levels(cfg: ReferenceConfig, support_a, support_m1, support_m2, strata):
    a = _level(cfg.a)
    s = _level(cfg.a_star)
    m1r = _level(cfg.m1_star)
    m2r = _level(cfg.m2_star)
    c = tuple(_level(v) for v in cfg.covariates)
    for lev, sup, what in (
        (a, support_a, "exposure"),
        (s, support_a, "exposure"),
        (m1r, support_m1, "m1 reference"),
        (m2r, support_m2, "m2 reference"),
    ):
        if lev not in sup:
            raise ConfigError(
                f"{what} level {_level_str(lev)} not in the table support"
            )
    if c not in strata:
        raise ConfigError(f"stratum {_stratum_str(c)} not present in the tables")
    return a, s, m1r, m2r, c


def _pr1(t, a, m1, c):
    try:
        return t.pr_m1[(a, m1, c)]
    except KeyError:
        raise EstimationError(
            f"no data for Pr(M1={_level_str(m1)} | A={_level_str(a)}, "
            f"{_stratum_str(c)})"
        ) from None


def _pr2(t, a, m1, m2, c):
    try:
        return t.pr_m2[(a, m1, m2, c)]
    except KeyError:
        raise EstimationError(
            f"no data for Pr(M2={_level_str(m2)} | A={_level_str(a)}, "
            f"M1={_level_str(m1)}, {_stratum_str(c)})"
        ) from None


def _py(t, a, m1, m2, c):
    try:
        return t.p_y[(a, m1, m2, c)]
    except KeyError:
        raise EstimationError(
            f"no data for E[Y | A={_level_str(a)}, M1={_level_str(m1)}, "
            f"M2={_level_str(m2)}, {_stratum_str(c)}]"
        ) from None


def _check_coverage(t: ProbTables, cfg: ReferenceConfig) -> None:
    """Touch every cell any sum can reach with positive weight."""
    a, s, m1r, m2r, c = _cfg_levels(
        cfg, t.support_a, t.support_m1, t.support_m2, t.strata
    )
    for x in (a, s):
        _py(t, x, m1r, m2r, c)
    for y in (a, s):
        for m1 in t.support_m1:
            if _pr1(t, y, m1, c) == 0.0:
                continue
            for x in (a, s):
                _py(t, x, m1, m2r, c)
            for z in (a, s):
                for m2 in t.support_m2:
                    if _pr2(t, z, m1, m2, c) == 0.0:
                        continue
                    for x in (a, s):
                        _py(t, x, m1, m2, c)


def _w_sum(t, c, support_m1, support_m2, x, y, z):
    """E[Y(x, M1(y), M2(z, M1(y)))] from the tables."""
    terms = []
    for m1 in support_m1:
        w1 = _pr1(t, y, m1, c)
        if w1 == 0.0:
            continue
        for m2 in support_m2:
            w2 = _pr2(t, z, m1, m2, c)
            if w2 == 0.0:
                continue
            terms.append(_py(t, x, m1, m2, c) * w1 * w2)
    return math.fsum(terms)


def decompose_empirical_sequential(
    t: ProbTables, cfg: ReferenceConfig
) -> ComponentSet:
    """All nine sequential components as iterated-expectation double sums."""
    if cfg.topology is not Topology.SEQUENTIAL:
        raise ConfigError(
            "decompose_empirical_sequential needs Sequential topology"
        )
    a, s, m1r, m2r, c = _cfg_levels(
        cfg, t.support_a, t.support_m1, t.support_m2, t.strata
    )
    sup1 = t.support_m1
    sup2 = t.support_m2

    cde = _py(t, a, m1r, m2r, c) - _py(t, s, m1r, m2r, c)

    ref_am1_terms = []
    for m1 in sup1:
        w = _pr1(t, s, m1, c)
        if w == 0.0:
            continue
        ref_am1_terms.append(
            (
                _py(t, a, m1, m2r, c)
                - _py(t, a, m1r, m2r, c)
                - _py(t, s, m1, m2r, c)
                + _py(t, s, m1r, m2r, c)
            )
            * w
        )
    ref_am1 = math.fsum(ref_am1_terms)

    ref_rest_terms = []
    nat_am1_terms = []
    nat_am2_terms = []
    nat_am1m2_terms = []
    nat_m1m2_terms = []
    pie1_terms = []
    pie2_terms = []
    for m1 in sup1:
        p1a = _pr1(t, a, m1, c)
        p1s = _pr1(t, s, m1, c)
        d1 = p1a - p1s
        if p1a == 0.0 and p1s == 0.0:
            continue
        for m2 in sup2:
            p2a = _pr2(t, a, m1, m2, c)
            p2s = _pr2(t, s, m1, m2, c)
            d2 = p2a - p2s
            if p2a == 0.0 and p2s == 0.0:
                continue
            dy = _py(t, a, m1, m2, c) - _py(t, s, m1, m2, c)
            ys = _py(t, s, m1, m2, c)
            if p1s != 0.0 and p2s != 0.0:
                ref_rest_terms.append(
                    (
                        _py(t, a, m1, m2, c)
                        - _py(t, a, m1, m2r, c)
                        - _py(t, s, m1, m2, c)
                        + _py(t, s, m1, m2r, c)
                    )
                    * p1s
                    * p2s
                )
            if d1 != 0.0 and p2s != 0.0:
                nat_am1_terms.append(dy * p2s * d1)
            if p1s != 0.0 and d2 != 0.0:
                nat_am2_terms.append(dy * p1s * d2)
            if d1 != 0.0 and d2 != 0.0:
                nat_am1m2_terms.append(dy * d1 * d2)
                nat_m1m2_terms.append(ys * d1 * d2)
            if d1 != 0.0 and p2s != 0.0:
                pie1_terms.append(ys * p2s * d1)
            if p1s != 0.0 and d2 != 0.0:
                pie2_terms.append(ys * p1s * d2)

    ref_rest = math.fsum(ref_rest_terms)
    if a == s:
        # the four-term differences cancel only up to rounding, and every
        # component of a null contrast is exactly zero
        ref_am1 = ref_rest = 0.0

    comps = {
        CDE: cde,
        INT_REF_AM1: ref_am1,
        INT_REF_AM2_PLUS_AM1M2: ref_rest,
        NATINT_AM1: math.fsum(nat_am1_terms),
        NATINT_AM2: math.fsum(nat_am2_terms),
        NATINT_AM1M2: math.fsum(nat_am1m2_terms),
        NATINT_M1M2: math.fsum(nat_m1m2_terms),
        PIE_M1: math.fsum(pie1_terms),
        PIE_M2: math.fsum(pie2_terms),
    }

    def w(x, y, z):
        return _w_sum(t, c, sup1, sup2, x, y, z)

    aggs = {
        PDE: w(a, s, s) - w(s, s, s),
        TDE: w(a, a, a) - w(s, a, a),
        SIE_M1: w(s, a, a) - w(s, s, a),
        TE: w(a, a, a) - w(s, s, s),
    }
    return ComponentSet(Topology.SEQUENTIAL, comps, aggs)
