"""Properties of the two entrywise maps the optimizers iterate.

elad's shrinkage is odd, monotone non-decreasing and never amplifies an
entry, and altproj's convex projection is idempotent, for every
threshold in (0, 1) and every finite input, not only on a grid.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from incoproj import project_convex, shrink_elad

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
