"""Properties of sweep configs: echoes reparse, and accepted sweeps run.

The echo of every valid configuration, whatever its dictionary source,
sparsity levels and arm keys, must reparse to an equal config, and
echoing that config again must give the same text.  Every config that
``ExperimentConfig`` accepts must also run to its end: a size rule it
does not check would fail midway, after the arms before it had run, and
an arm whose design raises fails its own trials, not the sweep.
"""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, reject, settings, strategies as st

from incoproj.errors import ConfigError
from incoproj.harness import SWEEP_OPTIMIZERS, ExperimentConfig, config_echo, parse_config_text, run_sweep
from incoproj.optimizers import OPTIMIZERS, Arm, lookup

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


@st.composite
def arms(draw, name):
    """An arm with any subset of its keys; a key that ``Key.when`` rules out is not drawn."""
    params = {}
    for key in lookup(name).keys:
        applies = key.when is None or params.get(key.when[0], Arm(name).params[key.when[0]]) == key.when[1]
        if applies and draw(st.booleans()):
            params[key.name] = draw(key_values(key))
    return Arm(name, params)


@st.composite
def configs(draw):
    m = draw(st.integers(1, 40))
    names = draw(st.lists(st.sampled_from(SWEEP_OPTIMIZERS), min_size=1, unique=True))
    # elad and altproj need m <= k; a planted signal needs S <= k
    gram_rank = any(OPTIMIZERS[name].gram_rank for name in names)
    k = draw(st.integers(max(2, m) if gram_rank else 2, 1000))
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
        "k": st.just(k),
        "m": st.just(m),
        "S_range": st.lists(st.integers(0, min(m - 1, k)), min_size=1, unique=True).map(tuple),
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


@st.composite
def tiny_configs(draw):
    """Fields of a tiny sweep with m <= n and every S < m, at any k, so some break a rule on k."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, n))
    names = draw(st.lists(st.sampled_from(SWEEP_OPTIMIZERS), min_size=1, unique=True))
    return dict(
        n=n,
        k=draw(st.integers(2, 12)),
        m=m,
        S_range=tuple(draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=3, unique=True))),
        N=draw(st.integers(1, 2)),
        dictionary_source=f"gaussian:{draw(SEEDS)}",
        # at most two iterations keep the elad and altproj arms cheap
        optimizers=tuple(
            Arm(name, {"iterations": draw(st.integers(1, 2))} if name in ("elad", "altproj") else {})
            for name in names
        ),
        solver=draw(st.sampled_from(["omp", "bp", "both"])),
        master_seed=draw(SEEDS),
    )


def altproj_at_one_row(names, master_seed):
    """At m=1 altproj's rank-1 Gram can reach a zero diagonal entry, which fails its design."""
    return dict(
        n=1, k=5, m=1, S_range=(0,), N=1, dictionary_source="gaussian:0",
        optimizers=tuple(
            Arm(name, {"iterations": 1} if name in ("elad", "altproj") else {}) for name in names
        ),
        solver="omp", master_seed=master_seed,
    )


@settings(deadline=None, database=None, max_examples=150)
@given(tiny_configs())
@example(altproj_at_one_row(("none", "altproj"), 180))
@example(altproj_at_one_row(SWEEP_OPTIMIZERS, 1425))
def test_accepted_sweeps_run_to_the_end(fields):
    try:
        cfg = ExperimentConfig(**fields)
    except ConfigError:
        reject()
    sweep = run_sweep(cfg)
    assert len(sweep.cells) == len(cfg.optimizers) * len(cfg.S_range) * len(cfg.solvers)
