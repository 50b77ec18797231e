"""The table engine: the mediation formula as array sums over the supports."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_same_outcome, loop_enumerate_binary_components, outcome
from twomed import (
    BinaryScm,
    ReferenceConfig,
    Topology,
    enumerate_binary_components,
)
from twomed.table_engine import decompose_tables


_probs = st.floats(min_value=0.0, max_value=1.0)
_levels = st.sampled_from([0.0, 1.0])


@settings(max_examples=300, deadline=None)
@given(
    topology=st.sampled_from(list(Topology)),
    p1=st.tuples(_probs, _probs),
    p2=st.tuples(_probs, _probs, _probs, _probs),
    ey=st.tuples(*[st.floats(-1e6, 1e6)] * 8),
    refs=st.tuples(_levels, _levels, _levels, _levels),
    odd=st.sampled_from([None] * 5 + ["topology", "level", "covariate"]),
)
def test_binary_engine_matches_the_written_out_sums(topology, p1, p2, ey, refs, odd):
    if topology is Topology.NONSEQUENTIAL:
        p2 = (p2[0], p2[0], p2[2], p2[2])
    bits = (0, 1)
    scm = BinaryScm(
        p_m1_given_a=dict(zip(bits, p1)),
        p_m2_given_a_m1={(x, m): p2[2 * x + m] for x in bits for m in bits},
        e_y_given_a_m1_m2={
            (x, m, v): ey[4 * x + 2 * m + v] for x in bits for m in bits for v in bits
        },
        topology=topology,
    )
    a, a_star, m1_star, m2_star = refs
    cfg = ReferenceConfig(
        a=2.0 if odd == "level" else a, a_star=a_star,
        m1_star=m1_star, m2_star=m2_star,
        covariates=(1.0,) if odd == "covariate" else (),
        topology=(
            [t for t in Topology if t is not topology][0]
            if odd == "topology" else topology
        ),
    )
    got = outcome(lambda: enumerate_binary_components(scm, cfg))
    if cfg.a == cfg.a_star and odd is None:
        # each row subtracts every a-world right after its a* twin, which has
        # the same bits, so every value is an exact zero; the loop
        # reference's sequential INT_ref_AM1 cancels only up to rounding,
        # enough at large means to fail an identity
        assert set(got.values()) == {0.0}, got
        return
    assert_same_outcome(
        got,
        outcome(lambda: loop_enumerate_binary_components(scm, cfg)),
        max(abs(v) for v in ey),
    )


def _random_tables(rng, topology, replicates, n1, n2):
    """Tables with empty cells: zero probabilities, zero outcome means."""
    p1 = rng.dirichlet(np.ones(n1), size=(replicates, 2))
    p1[rng.random(p1.shape) < 0.2] = 0.0
    p2 = rng.dirichlet(np.ones(n2), size=(replicates, 2, n1))
    if topology is Topology.NONSEQUENTIAL:
        p2[:] = p2[:, :, :1]
    p2[rng.random(p2.shape) < 0.2] = 0.0
    y = rng.normal(0.0, 10.0, size=(replicates, 2, n1, n2))
    y[rng.random(y.shape) < 0.2] = 0.0
    return p1, p2, y


@pytest.mark.parametrize("topology", list(Topology))
@pytest.mark.parametrize("equal_rows", [False, True])
def test_one_replicate_equals_its_row_in_a_batch(topology, equal_rows):
    rng = np.random.default_rng(17)
    for n1, n2 in [(1, 1), (2, 2), (3, 4), (5, 2)]:
        p1, p2, y = _random_tables(rng, topology, 37, n1, n2)
        if equal_rows:
            # a == a*: the x = a* tables are those of x = a
            for t in (p1, p2, y):
                t[:, 1] = t[:, 0]
        refs = (int(rng.integers(n1)), int(rng.integers(n2)))
        batch = decompose_tables(topology, p1, p2, y, *refs)
        for r in range(len(y)):
            one = decompose_tables(
                topology, p1[r:r + 1], p2[r:r + 1], y[r:r + 1], *refs
            )
            for name, value in one.items():
                assert value.tobytes() == batch[name][r:r + 1].tobytes(), name


@pytest.mark.parametrize("topology", list(Topology))
def test_a_level_without_data_leaves_every_sum_unchanged(topology):
    """An inserted level with probability 0 and outcome 0 adds exact zeros."""
    rng = np.random.default_rng(23)
    p1, p2, y = _random_tables(rng, topology, 20, 3, 3)
    values = decompose_tables(topology, p1, p2, y, 1, 2)
    wide = [np.insert(t, 1, 0.0, axis=2) for t in (p1, p2, y)]
    wide[1:] = [np.insert(t, 0, 0.0, axis=3) for t in wide[1:]]
    widened = decompose_tables(topology, *wide, 2, 3)
    for name, value in values.items():
        assert np.array_equal(widened[name], value), name
