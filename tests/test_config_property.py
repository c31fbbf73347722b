"""Property: a config's echo parses back to the same experiment.

The echo of every valid configuration, whatever its dictionary source,
sparsity levels and arm keys, must reparse to an equal config, and
echoing that config again must give the same text.
"""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from incoproj.harness import SWEEP_OPTIMIZERS, ExperimentConfig, config_echo, parse_config_text
from incoproj.optimizers import Arm, lookup

SEEDS = st.integers(0, 2**64 - 1)
# Config text holds a path up to its line's end: no line break, and no
# surrounding whitespace, which the parser strips.  No '#' either: a
# source that holds one is rejected, since it would start a comment.
PATHS = st.text("abcXYZ019/._-: ", min_size=1, max_size=20).filter(lambda p: p == p.strip())


def key_values(key):
    """Every in-bounds value of one registry key."""
    if key.choices:
        return st.sampled_from(key.choices)
    if key.bounds is None:
        return SEEDS
    lo, hi = key.bounds
    if key.kind is int:
        return st.integers(int(lo) + 1, 10**6 if math.isinf(hi) else int(hi) - 1)
    return st.floats(lo, hi, exclude_min=True, exclude_max=True)


def arms(name):
    keys = {key.name: key_values(key) for key in lookup(name).keys}
    return st.fixed_dictionaries({}, optional=keys).map(lambda params: Arm(name, params))


@st.composite
def configs(draw):
    m = draw(st.integers(1, 40))
    names = draw(st.lists(st.sampled_from(SWEEP_OPTIMIZERS), min_size=1, unique=True))
    optional = {
        "dictionary_source": st.one_of(
            st.just("gaussian"),
            SEEDS.map(lambda seed: f"gaussian:{seed}"),
            PATHS.map(lambda path: f"file:{path}"),
        ),
        "solver": st.sampled_from(["omp", "bp", "both"]),
        "failure_threshold": st.floats(0.0, exclude_min=True, allow_infinity=False),
        "master_seed": st.integers(-(2**63), 2**63),
    }
    required = {
        "n": st.integers(m, 500),  # a projection has at most n rows
        "k": st.integers(2, 1000),
        "m": st.just(m),
        "S_range": st.lists(st.integers(0, m - 1), min_size=1, unique=True).map(tuple),
        "N": st.integers(1, 10**6),
        "optimizers": st.tuples(*(arms(name) for name in names)),
    }
    return ExperimentConfig(**draw(st.fixed_dictionaries(required, optional=optional)))


@settings(deadline=None, database=None)
@given(configs())
def test_echo_reparses_to_the_same_config(cfg):
    echo = config_echo(cfg)
    reparsed = parse_config_text(echo)
    assert reparsed == cfg
    assert config_echo(reparsed) == echo
