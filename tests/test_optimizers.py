import ast
from pathlib import Path

import numpy as np
import pytest

from incoproj import ExperimentConfig, altproj, elad, gram, mutual_coherence, t_average_coherence
from incoproj.altproj import altproj_optimize
from incoproj.elad import elad_optimize
from incoproj.errors import ConfigError, ZeroColumn
from incoproj.optimizers import OPTIMIZERS, Arm, design, lookup
from incoproj.sapiro import sapiro_optimize


def dictionary(seed=0):
    return np.random.default_rng(seed).standard_normal((8, 16))


class TestArm:
    def test_defaults_fill_in_key_order(self):
        arm = Arm("elad")
        assert list(arm.params) == ["mode", "percent", "gamma", "iterations", "seed"]
        assert arm.params == dict(
            mode="relative", percent=26.0, gamma=0.6, iterations=50, seed=None
        )
        assert Arm("altproj").params == dict(t=0.26, iterations=300, seed=None)

    def test_inapplicable_defaults_dropped_and_given_keys_rejected(self):
        assert "t" not in Arm("elad").params
        assert "percent" not in Arm("elad", {"mode": "fixed"}).params
        assert Arm("elad", {"mode": "fixed", "t": 0.3}).params["t"] == 0.3
        with pytest.raises(ConfigError, match=r"^unknown elad keys: \['t'\]$"):
            Arm("elad", {"t": 0.3})
        with pytest.raises(ConfigError, match=r"^unknown elad keys: \['percent'\]$"):
            Arm("elad", {"mode": "fixed", "percent": 40})

    def test_values_take_key_types(self):
        arm = Arm("elad", {"percent": "30", "iterations": "7", "seed": np.int64(3)})
        assert arm.params["percent"] == 30.0 and type(arm.params["percent"]) is float
        assert type(arm.params["iterations"]) is int and type(arm.params["seed"]) is int
        assert Arm("elad", arm.params) == arm

    def test_int_keys_reject_fractional_floats(self):
        # int() would truncate 2.7 to 2 and raise OverflowError on inf
        for value in (2.7, float("inf"), np.float64(-0.5)):
            with pytest.raises(ConfigError, match=r"key 'elad.iterations': expected integer, got "):
                Arm("elad", {"iterations": value})
        assert Arm("elad", {"iterations": 50.0}).params["iterations"] == 50
        assert Arm("elad", {"iterations": "50"}).params["iterations"] == 50

    @pytest.mark.parametrize(
        "name, params",
        [
            ("magic", {}),
            ("elad", {"colour": 1}),
            ("elad", {"mode": "adaptive"}),
            ("altproj", {"iterations": "many"}),
        ],
    )
    def test_bad_arms_rejected(self, name, params):
        with pytest.raises(ConfigError):
            Arm(name, params)

    # (arm, key, value, inside): every bounded key at both ends of its open
    # interval and inside it; elad's t is tried in fixed mode, where it applies.
    BOUNDED = [
        ("elad", "t", 0.0, False),
        ("elad", "t", 1.0, False),
        ("elad", "t", 0.5, True),
        ("elad", "percent", 0.0, False),
        ("elad", "percent", 100.0, False),
        ("elad", "percent", 30.0, True),
        ("elad", "gamma", 0.0, False),
        ("elad", "gamma", 1.0, False),
        ("elad", "gamma", 0.5, True),
        ("elad", "iterations", 0, False),
        ("elad", "iterations", 10**9, True),
        ("elad", "iterations", 1, True),
        ("altproj", "t", 0.0, False),
        ("altproj", "t", 1.0, False),
        ("altproj", "t", 0.3, True),
        ("altproj", "iterations", 0, False),
        ("altproj", "iterations", 10**9, True),
        ("altproj", "iterations", 1, True),
        *((name, "seed", seed, seed >= 0) for name in ("none", "elad", "sapiro", "altproj") for seed in (-1, 0)),
    ]

    @pytest.mark.parametrize(
        "name, key, value, inside", BOUNDED, ids=[f"{n}.{k}={v}" for n, k, v, _ in BOUNDED]
    )
    def test_bounds_are_open_intervals(self, name, key, value, inside):
        params = {"mode": "fixed", key: value} if (name, key) == ("elad", "t") else {key: value}
        if inside:
            assert Arm(name, params).params[key] == value
        else:
            with pytest.raises(ValueError, match=rf"^{name}\.{key} must be in \("):
                Arm(name, params)

    def test_every_bounded_key_is_tried(self):
        bounded = {
            (name, key.name)
            for name, entry in OPTIMIZERS.items()
            for key in entry.keys
            if key.bounds
        }
        assert bounded == {(name, key) for name, key, _, _ in self.BOUNDED}

    def test_lookup_restricts_names(self):
        assert lookup("fixed") is OPTIMIZERS["fixed"]
        with pytest.raises(ConfigError, match=r"choose none, elad\)"):
            lookup("fixed", ("none", "elad"))


class TestDesign:
    """Each entry gives what calling its optimizer directly gives."""

    def test_elad_both_modes(self):
        D = dictionary(1)
        for params in (dict(mode="fixed", t=0.4), dict(mode="relative", percent=30.0)):
            params = dict(params, gamma=0.6, iterations=5, seed=2)
            P, trace = design(Arm("elad", params), D, 4)
            P_ref, trace_ref = elad_optimize(D, 4, **params)
            assert np.array_equal(P, P_ref)
            assert np.array_equal(trace.mu, trace_ref.mu)

    def test_altproj_and_sapiro(self):
        D = dictionary(2)
        P, _ = design(Arm("altproj", dict(t=0.4, iterations=10, seed=3)), D, 4)
        P_ref, _ = altproj_optimize(D, 4, t=0.4, iterations=10, seed=3)
        assert np.array_equal(P, P_ref)
        P, trace = design(Arm("sapiro", {"seed": 3}), D, 4)
        P_ref, trace_ref = sapiro_optimize(D, 4, seed=3)
        assert np.array_equal(P, P_ref) and np.array_equal(trace.objective, trace_ref.objective)

    def test_same_arm_any_m(self):
        arm = Arm("elad", dict(iterations=2, seed=0))
        for m in (3, 5):
            assert design(arm, dictionary(), m)[0].shape == (m, 8)

    def test_unset_key_rejected(self):
        with pytest.raises(ConfigError):
            design(Arm("sapiro"), dictionary(), 4)
        with pytest.raises(ConfigError):
            design(Arm("fixed"), dictionary(), 4)

    # Small settings for every entry but fixed, whose arm carries its P.
    SMALL = {
        "none": {"seed": 0},
        "elad": {"iterations": 2, "seed": 0},
        "sapiro": {"seed": 0},
        "altproj": {"iterations": 2, "seed": 0},
    }

    @pytest.mark.parametrize("name", list(OPTIMIZERS))
    def test_m_must_be_an_integer_in_1_to_n(self, name):
        D = dictionary()  # n = 8 < k = 16, so m = 9 is within altproj's k

        def arm(m):
            return Arm("fixed", {"P": np.ones((int(m), 8))}) if name == "fixed" else Arm(name, self.SMALL[name])

        for m in (0, 9, 2.5):
            message = rf"^m={m!r} must be an integer in \[1, n=8\]: a projection has at most n rows$"
            with pytest.raises(ValueError, match=message):
                design(arm(m), D, m)
        assert design(arm(8), D, 8)[0].shape == (8, 8)

    @pytest.mark.parametrize("name", ["elad", "altproj"])
    def test_m_above_k_rejected_before_any_iteration(self, name, monkeypatch):
        def step(*args):
            raise AssertionError("an iteration ran")

        monkeypatch.setattr(elad, "shrink_elad", step)
        monkeypatch.setattr(altproj, "project_convex", step)
        D = np.random.default_rng(0).standard_normal((10, 6))  # m = 7 <= n, but a k = 6 Gram has rank <= 6
        with pytest.raises(ValueError, match=r"^m=7 exceeds k=6: a Gram of k atoms has rank at most k$") as exc:
            design(Arm(name, self.SMALL[name]), D, 7)
        assert type(exc.value) is ValueError
        monkeypatch.undo()
        assert design(Arm(name, self.SMALL[name]), D, 6)[0].shape == (6, 10)

    def test_size_rules_are_stated_once(self):
        # check_size holds every size rule and raises its ValueError; the optimizers trust design to call it
        src = Path(__file__).resolve().parents[1] / "src" / "incoproj"
        offenders = []
        for name in ("elad.py", "altproj.py"):
            for node in ast.walk(ast.parse((src / name).read_text(), filename=name)):
                if isinstance(node, ast.Name) and node.id == "ValueError":
                    offenders.append(f"{name}:{node.lineno} ValueError")
                if isinstance(node, ast.Compare):
                    parts = [part for side in (node.left, *node.comparators) for part in ast.walk(side)]
                    if any(isinstance(p, ast.Name) and p.id in ("n", "k", "m") for p in parts) or any(
                        isinstance(p, ast.Attribute) and p.attr == "shape" for p in parts
                    ):
                        offenders.append(f"{name}:{node.lineno} {ast.unparse(node)}")
        assert offenders == []
        rule = "a Gram of k atoms has rank at most k"
        assert sum(path.read_text().count(rule) for path in src.glob("*.py")) == 1

    def test_one_atom_rejected(self):
        D = np.random.default_rng(0).standard_normal((6, 1))
        with pytest.raises(ValueError, match="^need at least two atoms to optimize coherence$"):
            design(Arm("elad", self.SMALL["elad"]), D, 1)

    def test_elad_zero_atom_names_its_iteration(self):
        D = dictionary()
        D[:, 5] = 0.0
        with pytest.raises(ZeroColumn, match=r"^column 5 has zero norm \(effective dictionary at iteration 0\)$"):
            design(Arm("elad", self.SMALL["elad"]), D, 4)

    def test_fixed_checks_shape(self):
        P = np.ones((4, 8))
        assert np.array_equal(design(Arm("fixed", {"P": P}), dictionary(), 4)[0], P)
        with pytest.raises(ValueError):
            design(Arm("fixed", {"P": P}), dictionary(), 3)



def _design_call(name, n, k, m):
    D = np.random.default_rng(0).standard_normal((n, k))
    return lambda: design(Arm(name, {"seed": 0}), D, m)


def _config(name, n, k, m):
    return dict(n=n, k=k, m=m, S_range=(1,), N=1, dictionary_source="gaussian:5", optimizers=(Arm(name),))


GRAM_1X1 = gram(np.ones((3, 1)))
M_OVER_K = "m=7 exceeds k=6: a Gram of k atoms has rank at most k"
ONE_ATOM = "need at least two atoms to optimize coherence"
# A config's k field is bounded to k >= 2, so it rejects one atom before any arm's rule.
K_BOUND = "k must be in (1, inf)"


# Every size rule, through the call that breaks it, with its exact message;
# and what an ExperimentConfig of the same sizes raises, where one can have them.
@pytest.mark.parametrize(
    "call, message, config, config_message",
    [
        pytest.param(_design_call("none", 8, 16, 0),
                     "m=0 must be an integer in [1, n=8]: a projection has at most n rows",
                     _config("none", 8, 16, 0),
                     "none arm: m=0 must be an integer in [1, n=8]: a projection has at most n rows",
                     id="m-below-1"),
        pytest.param(_design_call("sapiro", 8, 16, 9),
                     "m=9 must be an integer in [1, n=8]: a projection has at most n rows",
                     _config("sapiro", 8, 16, 9),
                     "sapiro arm: m=9 must be an integer in [1, n=8]: a projection has at most n rows",
                     id="m-above-n"),
        pytest.param(_design_call("elad", 10, 6, 7), M_OVER_K, _config("elad", 10, 6, 7),
                     f"elad arm: {M_OVER_K}", id="elad-m-above-k"),
        pytest.param(_design_call("altproj", 10, 6, 7), M_OVER_K, _config("altproj", 10, 6, 7),
                     f"altproj arm: {M_OVER_K}", id="altproj-m-above-k"),
        pytest.param(_design_call("elad", 6, 1, 1), ONE_ATOM, _config("elad", 6, 1, 1), K_BOUND,
                     id="elad-one-atom"),
        pytest.param(_design_call("altproj", 6, 1, 1), ONE_ATOM, _config("altproj", 6, 1, 1), K_BOUND,
                     id="altproj-one-atom"),
        pytest.param(lambda: mutual_coherence(GRAM_1X1),
                     "mutual coherence needs at least two columns", None, None, id="mu-1x1-gram"),
        pytest.param(lambda: t_average_coherence(GRAM_1X1, 0.1),
                     "t-average coherence needs at least two columns", None, None, id="mu_t-1x1-gram"),
    ],
)
def test_size_misuse_raises_plain_value_error(call, message, config, config_message):
    with pytest.raises(ValueError) as exc:
        call()
    assert type(exc.value) is ValueError
    assert str(exc.value) == message
    if config is not None:
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(**config)
        assert str(exc.value) == config_message
