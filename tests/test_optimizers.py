import numpy as np
import pytest

from incoproj.altproj import AltProjConfig, altproj_optimize
from incoproj.elad import EladConfig, FixedThreshold, RelativeThreshold, elad_optimize
from incoproj.errors import ConfigError
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

    def test_inactive_mode_keys_dropped(self):
        assert "t" not in Arm("elad", {"t": 0.3}).params
        assert Arm("elad", {"mode": "fixed", "t": 0.3}).params["t"] == 0.3
        assert "percent" not in Arm("elad", {"mode": "fixed", "percent": 40}).params

    def test_values_take_key_types(self):
        arm = Arm("elad", {"percent": "30", "iterations": "7", "seed": np.int64(3)})
        assert arm.params["percent"] == 30.0 and type(arm.params["percent"]) is float
        assert type(arm.params["iterations"]) is int and type(arm.params["seed"]) is int
        assert Arm("elad", arm.params) == arm

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

    def test_lookup_restricts_names(self):
        assert lookup("fixed") is OPTIMIZERS["fixed"]
        with pytest.raises(ConfigError, match=r"choose none, elad\)"):
            lookup("fixed", ("none", "elad"))


class TestDesign:
    """Each entry gives what calling its optimizer directly gives."""

    def test_elad_both_modes(self):
        D = dictionary(1)
        for params, mode in (
            (dict(mode="fixed", t=0.4), FixedThreshold(0.4)),
            (dict(percent=30.0), RelativeThreshold(30.0)),
        ):
            P, trace = design(Arm("elad", dict(params, iterations=5, seed=2)), D, 4)
            cfg = EladConfig(threshold_mode=mode, gamma=0.6, iterations=5, m=4, seed=2)
            P_ref, trace_ref = elad_optimize(D, cfg)
            assert np.array_equal(P, P_ref)
            assert np.array_equal(trace.mu, trace_ref.mu)

    def test_altproj_and_sapiro(self):
        D = dictionary(2)
        P, _ = design(Arm("altproj", dict(t=0.4, iterations=10, seed=3)), D, 4)
        P_ref, _ = altproj_optimize(D, AltProjConfig(t=0.4, m=4, iterations=10, seed=3))
        assert np.array_equal(P, P_ref)
        P, trace = design(Arm("sapiro", {"seed": 3}), D, 4)
        P_ref, trace_ref = sapiro_optimize(D, 4, 3)
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

    def test_fixed_checks_shape(self):
        P = np.ones((4, 8))
        assert np.array_equal(design(Arm("fixed", {"P": P}), dictionary(), 4)[0], P)
        with pytest.raises(ValueError):
            design(Arm("fixed", {"P": P}), dictionary(), 3)
