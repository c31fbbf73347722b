"""The projection optimizers, one registry entry each.

An entry names an optimizer, lists the keys that configure it (with
their types and config-file defaults) and runs it through
``design(D, m, params) -> (P, trace)``.  The benchmark harness, coupled
dictionary learning and the CLI all describe an optimizer as an
:class:`Arm` (a registry name plus key values) and run it with
:func:`design`, so adding an optimizer means adding one entry here.

``m`` is given at design time, never stored in an arm: the same arm runs
at any projection size.
"""

from __future__ import annotations

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
    has that value; otherwise the arm drops it.
    """

    name: str
    kind: type
    default: object = None
    choices: tuple[str, ...] = ()
    when: tuple[str, str] | None = None

    def parse(self, value, label: str):
        """Coerce ``value`` (config text or a Python value) to this key's type."""
        if self.kind is np.ndarray:
            return as_matrix(value, "projection")
        try:
            value = self.kind(value)
        except (TypeError, ValueError):
            raise ConfigError(
                f"key {label!r}: expected {_KIND_NAMES[self.kind]}, got {value!r}"
            ) from None
        if self.choices and value not in self.choices:
            raise ConfigError(f"{label} {value!r} not " + " or ".join(map(repr, self.choices)))
        return value


@dataclass(frozen=True)
class Optimizer:
    """A registry entry: name, key table, and how to run it.

    ``config(params, m)``, where given, builds the optimizer's typed
    config, which checks the values' ranges before anything runs.
    """

    name: str
    keys: tuple[Key, ...]
    design: Callable  # (D, m, params) -> (P, trace)
    config: Callable | None = None


@dataclass(frozen=True)
class Arm:
    """One optimizer choice: a registry name and the values of its keys.

    ``params`` is normalized on construction, in the entry's key order:
    each value takes its key's type, unset keys take their defaults, and
    keys that do not apply (``Key.when``) are dropped.
    """

    name: str
    params: dict = field(default_factory=dict, hash=False)

    def __post_init__(self):
        entry = lookup(self.name)
        unknown = set(self.params) - {key.name for key in entry.keys}
        if unknown:
            raise ConfigError(f"unknown {self.name} keys: {sorted(unknown)}")
        params: dict = {}
        for key in entry.keys:
            if key.when and params[key.when[0]] != key.when[1]:
                continue
            value = self.params.get(key.name, key.default)
            if value is not None:
                value = key.parse(value, f"{self.name}.{key.name}")
            params[key.name] = value
        object.__setattr__(self, "params", params)


def lookup(name: str, among: tuple[str, ...] | None = None) -> Optimizer:
    """The registry entry called ``name``; ConfigError unless it is one of ``among``."""
    among = tuple(OPTIMIZERS) if among is None else among
    if name not in among:
        raise ConfigError(f"unknown optimizer {name!r} (choose {', '.join(among)})")
    return OPTIMIZERS[name]


def design(arm: Arm, D, m: int):
    """Run ``arm``'s optimizer on dictionary D for an m-row projection; returns (P, trace)."""
    unset = [key for key, value in arm.params.items() if value is None]
    if unset:
        raise ConfigError(
            f"{arm.name} arm has no {', '.join(unset)}; set it"
            " (a sweep's resolve_config derives unset seeds from its master seed)"
        )
    return OPTIMIZERS[arm.name].design(D, m, arm.params)


# The entries call the optimizers through their modules at call time, so a
# wrapper installed on a module attribute sees every call.


def _random(D, m, p):
    return np.random.default_rng(p["seed"]).standard_normal((m, D.shape[0])), None


def _elad_config(p, m) -> elad.EladConfig:
    if p["mode"] == "fixed":
        threshold = elad.FixedThreshold(p["t"])
    else:
        threshold = elad.RelativeThreshold(p["percent"])
    return elad.EladConfig(
        threshold_mode=threshold, gamma=p["gamma"], iterations=p["iterations"], m=m, seed=p["seed"]
    )


def _altproj_config(p, m) -> altproj.AltProjConfig:
    return altproj.AltProjConfig(t=p["t"], m=m, iterations=p["iterations"], seed=p["seed"])


def _fixed(D, m, p):
    P = p["P"]
    if P.shape != (m, D.shape[0]):
        raise ValueError(f"fixed projection shape {P.shape} != ({m}, {D.shape[0]})")
    return P, None


_SEED = Key("seed", int)

OPTIMIZERS: dict[str, Optimizer] = {
    entry.name: entry
    for entry in (
        # Baseline: i.i.d. Gaussian projection, no optimization.
        Optimizer("none", (_SEED,), _random),
        Optimizer(
            "elad",
            (
                Key("mode", str, "relative", choices=("fixed", "relative")),
                Key("t", float, 0.26, when=("mode", "fixed")),
                Key("percent", float, 26.0, when=("mode", "relative")),
                Key("gamma", float, 0.6),
                Key("iterations", int, 50),
                _SEED,
            ),
            lambda D, m, p: elad.elad_optimize(D, _elad_config(p, m)),
            _elad_config,
        ),
        Optimizer("sapiro", (_SEED,), lambda D, m, p: sapiro.sapiro_optimize(D, m, p["seed"])),
        Optimizer(
            "altproj",
            (Key("t", float, 0.26), Key("iterations", int, 300), _SEED),
            lambda D, m, p: altproj.altproj_optimize(D, _altproj_config(p, m)),
            _altproj_config,
        ),
        # Keep a caller-supplied projection fixed (coupled learning only).
        Optimizer("fixed", (Key("P", np.ndarray),), _fixed),
    )
}
