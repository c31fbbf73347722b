"""The projection optimizers, one registry entry each.

An entry names an optimizer, lists the keys that configure it (with
their types, config-file defaults and allowed ranges) and runs it as
``design(D, m, **params) -> (P, trace)``.  The benchmark harness, coupled
dictionary learning and the CLI all describe an optimizer as an
:class:`Arm` (a registry name plus key values) and run it with
:func:`design`, so adding an optimizer means adding one entry here.

``m`` is given at design time, never stored in an arm: the same arm runs
at any projection size.  :func:`check_size`, which :func:`design` and
``ExperimentConfig`` both call, is the one check of m against D's size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import altproj, elad, sapiro
from .errors import ConfigError
from .linalg import as_matrix

_KIND_NAMES = {int: "integer", float: "number"}


@dataclass(frozen=True)
class Key:
    """One configuration key of an optimizer.

    ``default`` None leaves the key unset until someone fills it: the
    harness derives unset seeds from the master seed, and the fixed
    projection needs its matrix.  ``choices`` restricts a string key.
    ``when = (other, value)`` makes the key apply only while key ``other``
    has that value; otherwise the arm leaves it out, and rejects it if
    given.  ``bounds = (lo, hi)`` is the open interval a number must lie in.
    """

    name: str
    kind: type
    default: object = None
    choices: tuple[str, ...] = ()
    when: tuple[str, str] | None = None
    bounds: tuple[float, float] | None = None

    def parse(self, value, label: str):
        """Coerce ``value`` (config text or a Python value) to this key's type; ConfigError if bad."""
        if self.kind is np.ndarray:
            return as_matrix(value, "projection")
        try:
            # int() would truncate 2.7 to 2 and overflow on inf.
            fractional = isinstance(value, (float, np.floating)) and not float(value).is_integer()
            if self.kind is int and fractional:
                raise ValueError(value)
            value = self.kind(value)
        except (TypeError, ValueError):
            raise ConfigError(
                f"key {label!r}: expected {_KIND_NAMES[self.kind]}, got {value!r}"
            ) from None
        if self.choices and value not in self.choices:
            raise ConfigError(f"{label} {value!r} not " + " or ".join(map(repr, self.choices)))
        if self.bounds and not self.bounds[0] < value < self.bounds[1]:
            raise ConfigError(f"{label} must be in ({self.bounds[0]:g}, {self.bounds[1]:g})")
        return value


@dataclass(frozen=True)
class Optimizer:
    """A registry entry: name, key table, and how to run it."""

    name: str
    keys: tuple[Key, ...]
    design: Callable  # (D, m, **params) -> (P, trace)
    gram_rank: bool = False  # works on a rank-m Gram of the k atoms


@dataclass(frozen=True)
class Arm:
    """One optimizer choice: a registry name and the values of its keys.

    ``params`` is normalized on construction, in the entry's key order:
    each value takes its key's type, unset keys take their defaults, and
    the defaults of keys that do not apply (``Key.when``) are dropped.  A
    given key that the arm does not read (the entry has no such key, or
    ``Key.when`` rules it out), or a value of the wrong type or outside
    its key's choices or bounds, is rejected here, before any arm runs.
    """

    name: str
    params: dict = field(default_factory=dict, hash=False)

    def __post_init__(self):
        params: dict = {}
        for key in lookup(self.name).keys:
            if key.when and params[key.when[0]] != key.when[1]:
                continue
            value = self.params.get(key.name, key.default)
            if value is not None:
                value = key.parse(value, f"{self.name}.{key.name}")
            params[key.name] = value
        unknown = set(self.params) - set(params)
        if unknown:
            raise ConfigError(f"unknown {self.name} keys: {sorted(unknown)}")
        object.__setattr__(self, "params", params)


def lookup(name: str, among: tuple[str, ...] | None = None) -> Optimizer:
    """The registry entry called ``name``; ConfigError unless it is one of ``among``."""
    among = tuple(OPTIMIZERS) if among is None else among
    if name not in among:
        raise ConfigError(f"unknown optimizer {name!r} (choose {', '.join(among)})")
    return OPTIMIZERS[name]


def check_size(name: str, n: int, k: int, m) -> None:
    """Raise unless optimizer ``name`` can design an m-row projection for an n x k dictionary."""
    if not isinstance(m, (int, np.integer)) or not 1 <= m <= n:
        raise ValueError(f"m={m!r} must be an integer in [1, n={n}]: a projection has at most n rows")
    if OPTIMIZERS[name].gram_rank and k < 2:
        raise ValueError("need at least two atoms to optimize coherence")
    if OPTIMIZERS[name].gram_rank and m > k:
        raise ValueError(f"m={m} exceeds k={k}: a Gram of k atoms has rank at most k")


def design(arm: Arm, D, m: int):
    """Run ``arm``'s optimizer on dictionary D for an m-row projection; returns (P, trace).

    The one place an optimizer's arguments are checked: D must be a
    finite 2-D matrix, and :func:`check_size` checks ``m`` against it.
    """
    unset = [key for key, value in arm.params.items() if value is None]
    if unset:
        raise ConfigError(
            f"{arm.name} arm has no {', '.join(unset)}; set it"
            " (an ExperimentConfig derives unset seeds from its master seed)"
        )
    D = as_matrix(D, "dictionary")
    check_size(arm.name, *D.shape, m)
    return OPTIMIZERS[arm.name].design(D, m, **arm.params)


# The entries call the optimizers through their modules at call time, so a
# wrapper installed on a module attribute sees every call.


def _random(D, m, *, seed):
    return np.random.default_rng(seed).standard_normal((m, D.shape[0])), None


def _fixed(D, m, *, P):
    if P.shape != (m, D.shape[0]):
        raise ValueError(f"fixed projection shape {P.shape} != ({m}, {D.shape[0]})")
    return P, None


SEED = Key("seed", int, bounds=(-1, math.inf))  # an integer >= 0, as numpy requires

# The threshold elad's fixed mode and altproj default to; `incoproj design`
# also reports mu_t at it when --t is unset.
DEFAULT_T = 0.26

OPTIMIZERS: dict[str, Optimizer] = {
    entry.name: entry
    for entry in (
        # Baseline: i.i.d. Gaussian projection, no optimization.
        Optimizer("none", (SEED,), _random),
        Optimizer(
            "elad",
            (
                Key("mode", str, "relative", choices=("fixed", "relative")),
                Key("t", float, DEFAULT_T, when=("mode", "fixed"), bounds=(0, 1)),
                Key("percent", float, 26.0, when=("mode", "relative"), bounds=(0, 100)),
                Key("gamma", float, 0.6, bounds=(0, 1)),
                Key("iterations", int, 50, bounds=(0, math.inf)),
                SEED,
            ),
            lambda D, m, **p: elad.elad_optimize(D, m, **p),
            gram_rank=True,
        ),
        Optimizer("sapiro", (SEED,), lambda D, m, **p: sapiro.sapiro_optimize(D, m, **p)),
        Optimizer(
            "altproj",
            (
                Key("t", float, DEFAULT_T, bounds=(0, 1)),
                Key("iterations", int, 300, bounds=(0, math.inf)),
                SEED,
            ),
            lambda D, m, **p: altproj.altproj_optimize(D, m, **p),
            gram_rank=True,
        ),
        # Keep a caller-supplied projection fixed (coupled learning only).
        Optimizer("fixed", (Key("P", np.ndarray),), _fixed),
    )
}
