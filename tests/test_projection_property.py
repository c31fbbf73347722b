"""Properties of the two entrywise maps the optimizers iterate.

elad's shrinkage is odd, monotone non-decreasing and never amplifies an
entry, and altproj's convex projection is idempotent and equals its
``np.where`` oracle bit for bit, for every threshold in (0, 1) and every
finite input, not only on a grid.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from incoproj.altproj import project_convex
from incoproj.elad import shrink_elad

from oracles import where_convex_projection

UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
ENTRIES = st.floats(-3.0, 3.0)


@settings(deadline=None, database=None)
@given(g=arrays(float, st.integers(1, 50), elements=ENTRIES), t=UNIT, gamma=UNIT)
def test_shrink_is_odd_monotone_and_never_amplifies(g, t, gamma):
    s = shrink_elad(g, t, gamma)
    assert np.array_equal(shrink_elad(-g, t, gamma), -s)
    order = np.argsort(g, kind="stable")
    assert np.all(np.diff(s[order]) >= 0.0)
    assert np.all(np.abs(s) <= np.abs(g))


@settings(deadline=None, database=None)
@given(
    G=st.integers(1, 6).flatmap(lambda k: arrays(float, (k, k), elements=ENTRIES)),
    t=UNIT,
)
def test_convex_projection_is_idempotent(G, t):
    H = project_convex(G, t)
    assert np.array_equal(project_convex(H, t), H)


@settings(deadline=None, database=None)
@given(t=UNIT, data=st.data())
def test_convex_projection_matches_the_where_oracle_bitwise(t, data):
    # Entries of exactly +-t and +-0.0 are drawn often; the diagonal is
    # drawn from [-3, 3], so it is below 1 in most cases.
    k = data.draw(st.integers(1, 6))
    entries = st.one_of(ENTRIES, st.sampled_from([t, -t, 0.0, -0.0]))
    A = data.draw(arrays(float, (k, k), elements=entries))
    G = np.where(np.triu(np.ones((k, k), dtype=bool)), A, A.T)  # symmetric, signs of zeros kept
    assert project_convex(G, t).tobytes() == where_convex_projection(G, t).tobytes()


def test_convex_projection_matches_the_where_oracle_on_edge_entries():
    t = 0.3
    G = np.array([[0.5, t, -0.0, 0.7], [t, -2.0, -t, 0.0], [-0.0, -t, 1.0, -0.31], [0.7, 0.0, -0.31, 1.2]])
    H = project_convex(G, t)
    assert H.tobytes() == where_convex_projection(G, t).tobytes()
    assert np.signbit(H[0, 2]) and not np.signbit(H[1, 3]) and (H[0, 1], H[1, 2]) == (t, -t)
