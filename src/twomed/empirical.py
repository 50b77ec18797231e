"""Plug-in estimator for categorical mediators in the sequential topology.

Works from saturated conditional probability tables and conditional outcome
means, combined by the table engine's iterated-expectation double sums over
the mediator supports. Covariates are handled as discrete strata only;
continuous covariates belong to the regression path.

Decomposition works on one grid: the tables of cfg's stratum on the
(x, i, j) grid the table engine takes, with a leading replicate axis and nan
for each entry the tables lack. CellCoder.decompose_counts fills it from a
batch of resamples' cell counts, decompose_empirical_sequential from a
ProbTables. One mask, _uncovered, decides for both which replicates lack an
entry the sums weight, and only a single grid that fails it is walked, to
name the first entry missing. CellCoder.tables checks the data's counts
before it builds the ProbTables, in the same walk order over the cells
alone: a count grid lacks only outcome means, and the grid is quadratic in
the levels, so a continuous mediator would make it O(n^2). ProbTables stays
the public input and the --dump-tables form.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import (
    ComponentSet,
    ConfigError,
    EstimationError,
    ReferenceConfig,
    Topology,
    identity_violations,
)
from .oracle import BinaryScm
from .table_engine import decompose_tables

_SUM_TOL = 1e-9


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


def _grid_axes(cells: np.ndarray, stratum: int, exposures: list, m1_ref: int,
               m2_ref: int):
    """The mask of the cells (rows of (a, m1, m2, stratum) codes) in the
    stratum under either exposure, and the sorted m1 and m2 codes they hold
    with the reference codes added: np.isin and np.union1d's results."""
    # np.union1d, and np.isin when it sorts, call a vector np.unique, which
    # imports numpy.ma (~13 ms, 1.3 MB): equality tests and sets instead
    mine = (cells[:, 3] == stratum) & (
        (cells[:, 0] == exposures[0]) | (cells[:, 0] == exposures[1]))
    return (mine, np.array(sorted({*cells[mine, 1].tolist(), m1_ref})),
            np.array(sorted({*cells[mine, 2].tolist(), m2_ref})))


class _Grid(NamedTuple):
    """Tables on the engine's (r, x, i, j) grid, nan where they lack an entry,
    with the reference positions and the levels of the i and j axes."""

    p1: np.ndarray
    p2: np.ndarray
    y: np.ndarray
    m1_ref: int
    m2_ref: int
    m1_levels: tuple
    m2_levels: tuple


class CellCoder:
    """A dataset's rows coded once by their (a, m1, m2, stratum) cell.

    tables() estimates the tables of all rows from two bincounts over the
    codes (counts()) plus work in the number of cells, not rows. Counts are
    exact integers and each cell's outcomes are summed in row order from 0.0,
    so the tables are exactly those of a row-by-row tally.
    decompose_counts() decomposes many resamples from their bincounts at
    once.
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

    def counts(self, idx=None):
        """Each cell's row count and outcome sum over rows idx (all rows when
        None), the sums taken in row order from 0.0."""
        codes, y = (self.codes, self.y) if idx is None else (
            self.codes[idx], self.y[idx])
        return (np.bincount(codes, minlength=len(self.cells)),
                np.bincount(codes, weights=y, minlength=len(self.cells)))

    def _grid(self, levels, n: np.ndarray, y_sum: np.ndarray) -> _Grid:
        """The grid of cfg's stratum, over the reference levels and those the
        stratum holds under a or a*, for replicates whose cell counts and
        outcome sums (as counts() returns them) are the rows of n and y_sum.
        An outcome mean without rows is nan; a probability whose group has no
        rows is 0: a structural zero, or Pr(M1 | x) for an exposure without
        rows, whose reference cells are nan."""
        a, s, m1r, m2r, c = levels
        a_lv, m1_lv, m2_lv, c_lv = self.levels
        exposures = [a_lv.index(a), a_lv.index(s)]
        cells = self.cells
        mine, lv1, lv2 = _grid_axes(cells, c_lv.index(c), exposures,
                                    m1_lv.index(m1r), m2_lv.index(m2r))
        # a cell missing from the data reads column -1, masked to zero below
        at = np.full((2, len(lv1), len(lv2)), -1)
        for x, level in enumerate(exposures):
            rows = np.flatnonzero(mine & (cells[:, 0] == level))
            at[x, np.searchsorted(lv1, cells[rows, 1]),
               np.searchsorted(lv2, cells[rows, 2])] = rows
        grid_n = np.where(at >= 0, n[:, at], 0.0)
        n_am1 = grid_n.sum(axis=-1)
        return _Grid(
            n_am1 / np.maximum(n_am1.sum(axis=-1), 1.0)[..., None],
            grid_n / np.maximum(n_am1, 1.0)[..., None],
            np.where(grid_n > 0, y_sum[:, at], np.nan) / np.maximum(grid_n, 1.0),
            int(np.searchsorted(lv1, m1_lv.index(m1r))),
            int(np.searchsorted(lv2, m2_lv.index(m2r))),
            tuple(m1_lv[i] for i in lv1.tolist()),
            tuple(m2_lv[j] for j in lv2.tolist()),
        )

    def _require_outcomes(self, levels) -> None:
        """_require_covered for the tables of all rows, in time and memory
        linear in the cells, not in the size of their grid. A count grid lacks
        only outcome means, so the walk visits just the outcome cells that the
        cells of cfg's stratum give weight."""
        a_lv, m1_lv, m2_lv, c_lv = self.levels
        cells = self.cells[self.cells[:, 3] == c_lv.index(levels[4])]
        held = {(x, i, j) for x in (0, 1)
                for i, j in cells[cells[:, 0] == a_lv.index(levels[x]), 1:3].tolist()}
        ref = m1_lv.index(levels[2]), m2_lv.index(levels[3])
        walk = ([ref] + [(i, ref[1]) for i in sorted({i for x, i, _ in held if x})]
                + sorted({(i, j) for _, i, j in held}))
        for x, i, j in ((x, i, j) for i, j in walk for x in (0, 1)):
            if (x, i, j) not in held:
                raise _no_outcome(*map(_level_str, (levels[x], m1_lv[i], m2_lv[j])),
                                  _stratum_str(levels[4]))

    def tables(self, cfg: ReferenceConfig) -> ProbTables:
        """Tables of all rows, checked against cfg."""
        n, y_sum = self.counts()
        support_a, support_m1, support_m2, strata = map(tuple, self.levels)
        levels = _cfg_levels(cfg, support_a, support_m1, support_m2, strata)
        # check coverage on the cells before filling in the zeros, which
        # number levels x groups: O(n^2) when a mediator is continuous
        self._require_outcomes(levels)

        n_am1 = np.bincount(self.cell_am1, weights=n, minlength=len(self.am1_keys))
        n_ac = np.bincount(self.am1_ac, weights=n_am1, minlength=len(self.ac_keys))
        # unobserved levels within an observed group are structural zeros
        pr1 = {(a, m1, c): 0.0 for a, c in self.ac_keys for m1 in support_m1}
        pr1.update(zip(self.am1_keys, (n_am1 / n_ac[self.am1_ac]).tolist()))
        pr2 = {(a, m1, m2, c): 0.0 for a, m1, c in self.am1_keys for m2 in support_m2}
        pr2.update(zip(self.cell_keys, (n / n_am1[self.cell_am1]).tolist()))
        py = dict(zip(self.cell_keys, (y_sum / n).tolist()))
        return ProbTables(pr_m1=pr1, pr_m2=pr2, p_y=py, support_a=support_a,
                          support_m1=support_m1, support_m2=support_m2, strata=strata)

    def decompose_counts(self, cfg: ReferenceConfig, n: np.ndarray,
                         y_sum: np.ndarray) -> tuple[dict, np.ndarray]:
        """The components and aggregates of replicates whose cell counts and
        outcome sums, as counts() returns them, are the rows of n and y_sum.

        Returns one array per name, over the replicates, in value_names
        order, and a mask of the replicates that fail: those whose resampled
        rows' estimate_tables would raise, and those whose component set
        would break an identity. The values of the others are those of
        decompose_empirical_sequential on their tables, bit for bit.
        """
        levels = _sequential_levels(cfg, *self.levels)
        grid = self._grid(levels, n, y_sum)
        # ProbTables raises EstimationError for a cell mean that overflowed.
        # A replicate that loses a level or the stratum cfg names (tables()
        # raises ConfigError) loses the reference cells, failing the mask.
        failed = ~np.isfinite(y_sum).all(axis=1) | _uncovered(grid)
        values = _decompose_grid(grid)
        # an overflowed replicate, already failed, warns of nothing new
        with np.errstate(invalid="ignore"):
            failed |= identity_violations(Topology.SEQUENTIAL, values)
        return values, failed


def estimate_tables(d, cfg: ReferenceConfig) -> ProbTables:
    """Saturated frequency tables from a dataset, one stratum per distinct
    covariate row.

    Raises once a cell the decomposition needs (under cfg's levels and
    stratum) has no data, naming the cell; coarsening the strata is the
    caller's remedy.
    """
    return CellCoder(d).tables(cfg)


def _cfg_levels(cfg: ReferenceConfig, support_a, support_m1, support_m2, strata):
    # ReferenceConfig holds finite floats only (core._require_finite)
    a, s, m1r, m2r, c = cfg.a, cfg.a_star, cfg.m1_star, cfg.m2_star, cfg.covariates
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


def _sequential_levels(cfg: ReferenceConfig, support_a, support_m1, support_m2, strata):
    """_cfg_levels for the sequential decomposition, the only one tables give."""
    if cfg.topology is not Topology.SEQUENTIAL:
        raise ConfigError(
            "decompose_empirical_sequential needs Sequential topology"
        )
    return _cfg_levels(cfg, support_a, support_m1, support_m2, strata)


def _uncovered(g: _Grid) -> np.ndarray:
    """True for each replicate whose grid lacks an entry the sums weight.

    The sums weight every Pr(M1 | x); Pr(M2 | x, i) under both exposures
    wherever M1 takes level i under either; and the outcome means at the
    reference cell, at (i, m2*) wherever M1 takes i under a*, and at (i, j)
    under both exposures wherever i is weighted and M2 takes j under either.
    A missing probability (nan) counts as weight, so the entries it
    conditions are needed too.
    """
    rows = (g.p1 != 0).any(axis=1)
    need_y = rows[..., None] & (g.p2 != 0).any(axis=1)
    need_y[..., g.m2_ref] |= g.p1[:, 1] != 0
    need_y[:, g.m1_ref, g.m2_ref] = True
    return (
        np.isnan(g.p1).any(axis=(1, 2))
        | (np.isnan(g.p2) & rows[:, None, :, None]).any(axis=(1, 2, 3))
        | (np.isnan(g.y) & need_y[:, None]).any(axis=(1, 2, 3))
    )


def _require_covered(g: _Grid, levels) -> None:
    """Raise EstimationError if the grid's one replicate is _uncovered. The
    error names the first entry missing in this order: the reference cells;
    per m1 level, Pr(M1 | a*) and then its (i, m2*) cells; per m1 level,
    Pr(M1 | a) and then its row."""
    if not _uncovered(g)[0]:
        return
    p1, p2, y = g.p1[0], g.p2[0], g.y[0]
    walk = [(y, (x, g.m1_ref, g.m2_ref)) for x in (0, 1)]
    for i in range(p1.shape[1]):
        walk.append((p1, (1, i)))
        walk += [(y, (x, i, g.m2_ref)) for x in (0, 1) if p1[1, i] != 0]
    for i in range(p1.shape[1]):
        walk.append((p1, (0, i)))
        if p1[0, i] == 0 and p1[1, i] == 0:
            continue
        for j in range(p2.shape[2]):
            walk += [(p2, (x, i, j)) for x in (0, 1)]
            walk += [(y, (x, i, j)) for x in (0, 1) if (p2[:, i, j] != 0).any()]
    table, (x, i, *j) = next(entry for entry in walk if np.isnan(entry[0][entry[1]]))
    a = _level_str(levels[x])
    m1, c = _level_str(g.m1_levels[i]), _stratum_str(levels[4])
    if table is p1:
        raise EstimationError(f"no data for Pr(M1={m1} | A={a}, {c})")
    m2 = _level_str(g.m2_levels[j[0]])
    if table is p2:
        raise EstimationError(f"no data for Pr(M2={m2} | A={a}, M1={m1}, {c})")
    raise _no_outcome(a, m1, m2, c)


def _no_outcome(a: str, m1: str, m2: str, c: str) -> EstimationError:
    return EstimationError(f"no data for E[Y | A={a}, M1={m1}, M2={m2}, {c}]")


def _decompose_grid(g: _Grid) -> dict:
    """decompose_tables on the grid, every missing entry read as a zero."""
    return decompose_tables(
        Topology.SEQUENTIAL, *(np.where(np.isnan(t), 0.0, t) for t in g[:3]),
        g.m1_ref, g.m2_ref,
    )


def decompose_empirical_sequential(
    t: ProbTables, cfg: ReferenceConfig
) -> ComponentSet:
    """All nine sequential components from the tables of cfg's stratum.

    The tables go to the table engine as one replicate, with a zero for
    every cell that carries no weight. A missing cell that does carry weight
    raises EstimationError.
    """
    sup1, sup2 = t.support_m1, t.support_m2
    levels = _sequential_levels(cfg, t.support_a, sup1, sup2, t.strata)
    a, s, m1r, m2r, c = levels
    p1 = [[t.pr_m1.get((x, m1, c), np.nan) for m1 in sup1] for x in (a, s)]
    p2, y = (
        [[[table.get((x, m1, m2, c), np.nan) for m2 in sup2] for m1 in sup1]
         for x in (a, s)]
        for table in (t.pr_m2, t.p_y)
    )
    grid = _Grid(*(np.array([g], dtype=float) for g in (p1, p2, y)),
                 sup1.index(m1r), sup2.index(m2r), sup1, sup2)
    _require_covered(grid, levels)
    return ComponentSet.from_values(
        Topology.SEQUENTIAL, {k: v[0] for k, v in _decompose_grid(grid).items()})
