import csv
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from incoproj.cli import main
from incoproj.coherence import mutual_coherence, t_average_coherence
from incoproj.linalg import gram
from incoproj.matrixio import read_matrix, write_matrix
from incoproj.errors import ConfigError
from incoproj.harness import (
    TRIALS_HEADER,
    ExperimentConfig,
    arm_projection,
    config_echo,
    derive_seed,
    emit_reports,
    load_dictionary,
    parse_config_text,
    run_sweep,
    synthesize_signals,
)
from incoproj.pursuit import RecoveryStatus
from incoproj import cli, harness
from incoproj.optimizers import Arm


class TestDeriveSeed:
    def test_golden_values(self):
        # pinned: blake2b of the repr'd tag tuple, little-endian
        assert derive_seed(0, "signals", 3) == 16265440666576385193
        assert derive_seed(11, "arm", "none") == 5077210113225047289

    def test_tags_separate_streams(self):
        seen = {
            derive_seed(0, "signals", 1),
            derive_seed(0, "signals", 2),
            derive_seed(1, "signals", 1),
            derive_seed(0, "arm", "none"),
            derive_seed(0, "arm", "elad"),
        }
        assert len(seen) == 5

    def test_stable_across_calls(self):
        assert derive_seed(42, "x") == derive_seed(42, "x")


class TestSynthesizeSignals:
    def test_planted_pairs(self):
        rng = np.random.default_rng(0)
        D = rng.standard_normal((6, 12))
        pairs = synthesize_signals(D, 3, 20, np.random.default_rng(1))
        assert len(pairs) == 20
        for theta, x in pairs:
            assert np.count_nonzero(theta) == 3
            assert_allclose(x, D @ theta)

    def test_zero_sparsity_allowed(self):
        D = np.eye(4)
        pairs = synthesize_signals(D, 0, 3, np.random.default_rng(2))
        for theta, x in pairs:
            assert not theta.any()
            assert not x.any()

    def test_sparsity_beyond_atom_count(self):
        with pytest.raises(ValueError):
            synthesize_signals(np.eye(3), 4, 1, np.random.default_rng(3))


def tiny_config(**overrides):
    kw = dict(
        n=6,
        k=12,
        m=4,
        S_range=(1,),
        N=4,
        dictionary_source="gaussian:5",
        optimizers=(Arm("none"), Arm("sapiro")),
        solver="both",
        master_seed=11,
    )
    kw.update(overrides)
    return ExperimentConfig(**kw)


class TestExperimentConfig:
    def test_accepts_tiny_config(self):
        cfg = tiny_config()
        assert cfg.solvers == ("omp", "bp")
        assert tiny_config(solver="omp").solvers == ("omp",)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(n=0),
            dict(k=1),
            dict(m=0),
            dict(S_range=()),
            dict(S_range=(-1,)),
            dict(S_range=(4,)),  # S must stay below m
            dict(N=0),
            dict(solver="cosamp"),
            dict(optimizers=()),
            dict(optimizers=(Arm("none"), Arm("none"))),  # duplicate names
            dict(optimizers=(Arm("fixed", {"P": np.eye(4, 6)}),)),  # coupled-only entry
        ],
    )
    def test_rejects_bad_fields(self, overrides):
        with pytest.raises(ConfigError):
            tiny_config(**overrides)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            # every trial would fail, whatever the solvers did
            (dict(failure_threshold=float("nan")), "failure_threshold"),
            (dict(failure_threshold=-1.0), "failure_threshold"),
            (dict(failure_threshold=0.0), "failure_threshold"),
            (dict(failure_threshold=float("inf")), "failure_threshold"),
            # two identical cells and duplicate trials.csv rows
            (dict(S_range=(1, 1)), "repeats"),
            (dict(dictionary_source="csv:x"), "dictionary_source"),
            (dict(dictionary_source="gaussian:x"), "dictionary_source"),
            (dict(dictionary_source="gaussian:-1"), "dictionary_source"),
            (dict(dictionary_source="file:"), "dictionary_source"),
            # config text drops a line's '#' and all after it: the echo would not reparse
            (dict(dictionary_source="file:runs#2/D.csv"), "'#', which starts a config comment"),
            # every arm but the random one would fail at design time, after
            # the random arm had run all its trials
            (dict(m=8), "m=8 exceeds n=6"),
        ],
    )
    def test_rejects_meaningless_sweeps(self, overrides, message):
        with pytest.raises(ConfigError, match=message):
            tiny_config(**overrides)

    def test_scalar_fields_take_their_type(self):
        cfg = tiny_config(n="6", N=4.0, failure_threshold="1e-3", master_seed="11")
        assert cfg == tiny_config(failure_threshold=1e-3)
        assert type(cfg.N) is int and type(cfg.failure_threshold) is float
        with pytest.raises(ConfigError, match="'N'"):
            tiny_config(N=2.5)

    def test_source_takes_its_canonical_form(self):
        assert tiny_config(dictionary_source="gaussian: 05").dictionary_source == "gaussian:5"
        assert tiny_config(dictionary_source="file:a:b.csv").dictionary_source == "file:a:b.csv"


class TestResolveConfig:
    """Construction derives every unset seed from the master seed."""

    def test_fills_unset_seeds_from_master(self):
        cfg = tiny_config(dictionary_source="gaussian")
        assert cfg.dictionary_source == f"gaussian:{derive_seed(11, 'dictionary')}"
        assert cfg.optimizers[0].params["seed"] == derive_seed(11, "arm", "none")
        assert cfg.optimizers[1].params["seed"] == derive_seed(11, "arm", "sapiro")

    def test_existing_seeds_kept(self):
        cfg = tiny_config(optimizers=(Arm("none", {"seed": 123}),))
        assert cfg.optimizers[0].params["seed"] == 123
        assert cfg.dictionary_source == "gaussian:5"

    def test_idempotent(self):
        once = tiny_config(dictionary_source="gaussian")
        assert replace(once) == once
        assert replace(once, N=9) == replace(tiny_config(dictionary_source="gaussian"), N=9)


class TestArmProjection:
    def test_unresolved_random_arm_rejected(self):
        with pytest.raises(ConfigError):
            arm_projection(Arm("none"), np.eye(4), 2)

    def test_random_arm_shape_and_determinism(self):
        P1 = arm_projection(Arm("none", {"seed": 9}), np.ones((5, 8)), 3)
        P2 = arm_projection(Arm("none", {"seed": 9}), np.ones((5, 8)), 3)
        assert P1.shape == (3, 5)
        assert np.array_equal(P1, P2)


class TestFileSource:
    def test_load_checks_shape(self, tmp_path):
        path = tmp_path / "dict.csv"
        write_matrix(path, np.ones((3, 5)))
        cfg = tiny_config(dictionary_source=f"file:{path}")
        with pytest.raises(ConfigError):
            load_dictionary(cfg.dictionary_source, (cfg.n, cfg.k))

    def test_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        D = rng.standard_normal((6, 12))
        path = tmp_path / "dict.csv"
        write_matrix(path, D)
        cfg = tiny_config(dictionary_source=f"file:{path}")
        assert_allclose(load_dictionary(cfg.dictionary_source, (cfg.n, cfg.k)), D, rtol=1e-12)


def trial_records(sweep) -> list[dict]:
    """The sweep's trials.csv rows, keyed by column name."""
    return [dict(zip(TRIALS_HEADER, row)) for row in sweep.trial_rows()]


def read_trial_rows(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == TRIALS_HEADER
    return rows


class TestRunSweep:
    def test_record_grid_is_complete(self):
        sweep = run_sweep(tiny_config())
        records = trial_records(sweep)
        # arms x S levels x trials x solvers
        assert len(records) == 2 * 1 * 4 * 2
        keys = {(r["optimizer_name"], r["solver_name"], r["S"], r["trial_index"]) for r in records}
        assert len(keys) == len(records)

    def test_arms_share_planted_signals(self):
        by_trial = {}
        for r in trial_records(run_sweep(tiny_config())):
            by_trial.setdefault((r["S"], r["trial_index"], r["solver_name"]), []).append(r)
        for group in by_trial.values():
            assert len({r["seed_used"] for r in group}) == 1
            assert {r["optimizer_name"] for r in group} == {"none", "sapiro"}

    def test_summary_arithmetic(self):
        sweep = run_sweep(tiny_config())
        records = trial_records(sweep)
        for cell in sweep.cells:
            grp = [
                r
                for r in records
                if (r["optimizer_name"], r["solver_name"], r["S"])
                == (cell.optimizer_name, cell.solver_name, cell.S)
            ]
            assert cell.trial_count == len(grp) == 4
            assert_allclose(cell.failure_rate, np.mean([not r["success"] for r in grp]))
            assert_allclose(
                cell.mean_relative_error, np.mean([r["relative_error"] for r in grp])
            )

    def test_easy_instance_recovers(self):
        # S=1 at m=4 with any sane projection: both solvers should succeed
        # on nearly every trial
        sweep = run_sweep(tiny_config(N=10))
        curve = sweep.failure_curve("sapiro", "omp")
        assert curve[1] <= 0.2

    def test_histograms_per_arm(self):
        sweep = run_sweep(tiny_config())
        assert set(sweep.arm_histograms) == {"none", "sapiro"}
        for hist in sweep.arm_histograms.values():
            assert sum(count for _, count in hist) == 12 * 11 // 2

    def test_statuses_are_solver_outcomes(self):
        sweep = run_sweep(tiny_config())
        assert {r["status"] for r in trial_records(sweep)} <= {s.value for s in RecoveryStatus}

    def test_linalg_error_recorded_as_failed_trial(self, monkeypatch):
        # lstsq raises LinAlgError when its SVD does not converge
        calls = []

        def flaky_omp(*args):
            calls.append(args)
            if len(calls) == 2:
                raise np.linalg.LinAlgError("SVD did not converge")
            return omp(*args)

        omp = harness.omp
        monkeypatch.setattr(harness, "omp", flaky_omp)
        sweep = run_sweep(tiny_config(solver="omp"))
        assert len(calls) == 2 * 4  # arms x trials: the sweep ran on
        (cell,) = [c for c in sweep.cells if (c.optimizer_name, c.solver_name) == ("none", "omp")]
        assert cell.status[1] == "error:LinAlgError"
        assert cell.relative_error[1] == np.inf and not cell.success[1]
        statuses = [r["status"] for r in trial_records(sweep)]
        assert statuses.count("error:LinAlgError") == 1

    def test_cells_in_first_seen_order(self):
        sweep = run_sweep(tiny_config())
        assert [c.optimizer_name for c in sweep.cells[:2]] == ["none", "none"]
        assert sweep.cells[0].solver_name == "omp"

    def test_trial_rows_ordered_by_s_then_trial_then_solver(self):
        sweep = run_sweep(tiny_config(S_range=(1, 2), N=3))
        keys = [
            (r["optimizer_name"], r["S"], r["trial_index"], r["solver_name"])
            for r in trial_records(sweep)
        ]
        expected = [
            (arm, S, i, solver)
            for arm in ("none", "sapiro")
            for S in (1, 2)
            for i in range(3)
            for solver in ("omp", "bp")
        ]
        assert keys == expected


class TestEmitReports:
    def test_files_and_round_trip(self, tmp_path):
        sweep = run_sweep(tiny_config())
        written = emit_reports(sweep, tmp_path)
        names = {p.split("/")[-1] for p in map(str, written)}
        assert names == {
            "trials.csv",
            "summary.csv",
            "gram_hist_none.csv",
            "gram_hist_sapiro.csv",
            "config.echo",
        }
        trials = tmp_path / "trials.csv"
        header = trials.read_text().splitlines()[0]
        assert header == "S,trial_index,optimizer_name,solver_name,relative_error,success,seed_used,status"
        parsed = [
            (int(S), int(i), arm, solver, float(err), success == "true", int(seed), status)
            for S, i, arm, solver, err, success, seed, status in read_trial_rows(trials)
        ]
        assert parsed == list(sweep.trial_rows())
        summary_header = (tmp_path / "summary.csv").read_text().splitlines()[0]
        assert summary_header == "optimizer_name,solver_name,S,mean_relative_error,failure_rate,trial_count"

    @staticmethod
    def _assert_echo_round_trips(tmp_path, make_config):
        emit_reports(run_sweep(make_config()), tmp_path)
        raw = (tmp_path / "config.echo").read_bytes()
        reparsed = parse_config_text(raw.decode())
        assert reparsed == make_config()
        assert config_echo(reparsed).encode() == raw

    def test_config_echo_reparses_to_same_experiment(self, tmp_path):
        self._assert_echo_round_trips(tmp_path, tiny_config)

    def test_config_text_echo_reparses_to_same_experiment(self, tmp_path):
        self._assert_echo_round_trips(tmp_path, lambda: parse_config_text(CONFIG_TEXT))

    def test_reruns_are_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            emit_reports(run_sweep(tiny_config()), out)
        for name in ("trials.csv", "summary.csv", "config.echo"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


CONFIG_TEXT = """
# benchmark configuration
n = 6
k = 12            # atoms
m = 4
S_range = 1-2
N = 3
dictionary_source = gaussian:5
optimizers = none, elad, altproj
solver = omp
elad.mode = fixed
elad.t = 0.3
elad.iterations = 4
altproj.t = 0.45
altproj.iterations = 20
master_seed = 7
"""


class TestConfigParsing:
    def test_full_document(self):
        cfg = parse_config_text(CONFIG_TEXT)
        assert (cfg.n, cfg.k, cfg.m, cfg.N) == (6, 12, 4, 3)
        assert cfg.S_range == (1, 2)
        assert cfg.dictionary_source == "gaussian:5"
        assert cfg.solver == "omp"
        assert cfg.master_seed == 7
        none_arm, elad_arm, alt_arm = cfg.optimizers
        assert none_arm.params["seed"] == derive_seed(7, "arm", "none")
        assert (elad_arm.params["mode"], elad_arm.params["t"]) == ("fixed", 0.3)
        assert "percent" not in elad_arm.params  # belongs to relative mode
        assert elad_arm.params["gamma"] == 0.6  # default
        assert elad_arm.params["iterations"] == 4
        # arms carry no m: each projection gets the experiment's
        D = load_dictionary(cfg.dictionary_source, (cfg.n, cfg.k))
        for arm in cfg.optimizers:
            assert arm_projection(arm, D, cfg.m).shape == (4, 6)
        assert alt_arm.params["t"] == 0.45
        assert alt_arm.params["iterations"] == 20

    def test_s_range_comma_form(self):
        cfg = parse_config_text(CONFIG_TEXT.replace("S_range = 1-2", "S_range = 1,3"))
        assert cfg.S_range == (1, 3)

    def test_relative_mode_default(self):
        text = CONFIG_TEXT.replace("elad.mode = fixed\n", "").replace("elad.t = 0.3\n", "")
        cfg = parse_config_text(text)
        elad_arm = cfg.optimizers[1]
        assert (elad_arm.params["mode"], elad_arm.params["percent"]) == ("relative", 26.0)
        assert "t" not in elad_arm.params

    @pytest.mark.parametrize(
        "mutation",
        [
            lambda t: t + "color = blue\n",  # unknown key
            lambda t: t + "n = 9\n",  # duplicate key
            lambda t: t.replace("n = 6", "n ="),  # unparsable int
            lambda t: t.replace("S_range = 1-2", "S_range = one"),
            lambda t: t.replace("n = 6", "just a line"),  # no equals sign
            lambda t: t.replace("dictionary_source = gaussian:5", "dictionary_source = csv:x"),
            lambda t: t.replace("optimizers = none, elad, altproj", "optimizers = magic"),
            lambda t: t.replace("elad.mode = fixed", "elad.mode = adaptive"),
            lambda t: t.replace("solver = omp", "solver = lasso"),
        ],
    )
    def test_malformed_documents_rejected(self, mutation):
        with pytest.raises(ConfigError):
            parse_config_text(mutation(CONFIG_TEXT))

    def test_out_of_range_arm_values_rejected_at_parse(self):
        # checked before any arm runs, not when the sweep reaches the arm
        with pytest.raises(ValueError, match="gamma"):
            parse_config_text(CONFIG_TEXT + "elad.gamma = 1.5\n")
        with pytest.raises(ValueError, match="t must be"):
            parse_config_text(CONFIG_TEXT.replace("altproj.t = 0.45", "altproj.t = 1.45"))

    @pytest.mark.parametrize(
        "old, new",
        [
            ("solver = omp", "solver = omp\nfailure_threshold = nan"),
            ("solver = omp", "solver = omp\nfailure_threshold = -1"),
            ("S_range = 1-2", "S_range = 1,1"),
        ],
        ids=["nan_threshold", "negative_threshold", "repeated_level"],
    )
    def test_meaningless_sweeps_rejected_at_parse(self, old, new):
        with pytest.raises(ConfigError):
            parse_config_text(CONFIG_TEXT.replace(old, new))

    @pytest.mark.parametrize("S_range", ["", "3-1"])
    def test_empty_s_range_rejected_by_the_config(self, S_range):
        with pytest.raises(ConfigError, match="^S_range must be nonempty$"):
            parse_config_text(CONFIG_TEXT.replace("S_range = 1-2", f"S_range = {S_range}"))

    def test_defaults_fill_absent_keys(self):
        text = "\n".join(
            line for line in CONFIG_TEXT.splitlines()
            if not line.startswith(("dictionary_source", "solver", "master_seed"))
        )
        cfg = parse_config_text(text)
        assert (cfg.solver, cfg.failure_threshold, cfg.master_seed) == ("both", 1e-4, 0)
        assert cfg.dictionary_source == f"gaussian:{derive_seed(0, 'dictionary')}"

    def test_missing_required_key(self):
        with pytest.raises(ConfigError):
            parse_config_text("n = 4\nk = 8\n")

    def test_file_source_form(self):
        text = CONFIG_TEXT.replace(
            "dictionary_source = gaussian:5", "dictionary_source = file:some/dict.csv"
        )
        cfg = parse_config_text(text)
        assert cfg.dictionary_source == "file:some/dict.csv"


class TestCLI:
    def run_design(self, out_dir, method="elad", t="0.35"):
        return main(
            [
                "design",
                "--method",
                method,
                "--n",
                "8",
                "--k",
                "12",
                "--dict-seed",
                "3",
                "--m",
                "4",
                "--mode",
                "fixed",
                "--t",
                t,
                "--iterations",
                "4",
                "--out-dir",
                str(out_dir),
            ]
        )

    def test_design_writes_artifacts(self, tmp_path, capsys):
        assert self.run_design(tmp_path / "out") == 0
        for name in ("projection.csv", "trace.csv", "gram_hist.csv"):
            assert (tmp_path / "out" / name).exists()
        line = capsys.readouterr().out.strip()
        assert line.startswith("method=elad mu=")

    @pytest.mark.parametrize("method, t", [("elad", "0.35"), ("altproj", "0.35"), ("sapiro", "0.999")])
    def test_design_line_reports_the_effective_gram(self, tmp_path, capsys, method, t):
        assert self.run_design(tmp_path, method=method, t=t) == 0
        D = np.random.default_rng(3).standard_normal((8, 12))  # --n 8 --k 12 --dict-seed 3
        G = gram(read_matrix(tmp_path / "projection.csv") @ D)
        mu, _ = mutual_coherence(G)
        mu_t = "n/a" if t == "0.999" else repr(t_average_coherence(G, float(t)))
        assert capsys.readouterr().out == f"method={method} mu={mu!r} mu_t[{t}]={mu_t}\n"
        assert mu < 0.999  # so sapiro's line takes the n/a branch

    def test_design_deterministic(self, tmp_path):
        self.run_design(tmp_path / "a")
        self.run_design(tmp_path / "b")
        for name in ("projection.csv", "trace.csv", "gram_hist.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_design_sapiro_trace(self, tmp_path):
        assert self.run_design(tmp_path / "s", method="sapiro") == 0
        header = (tmp_path / "s" / "trace.csv").read_text().splitlines()[0]
        assert header == "step,objective"

    def test_design_needs_dictionary_spec(self, tmp_path, capsys):
        rc = main(["design", "--method", "elad", "--m", "4", "--n", "8",
                   "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_zero_atom_dictionary_rejected(self, tmp_path, capsys):
        D = np.random.default_rng(5).standard_normal((6, 12))  # the config's n x k
        D[:, 3] = 0.0
        dict_path = tmp_path / "D.csv"
        write_matrix(dict_path, D)
        cfg_path = tmp_path / "bench.cfg"
        cfg_path.write_text(
            CONFIG_TEXT.replace("dictionary_source = gaussian:5", f"dictionary_source = file:{dict_path}")
        )
        commands = (
            ["design", "--method", "elad", "--dict", str(dict_path), "--m", "4",
             "--out-dir", str(tmp_path / "design")],
            ["bench", "--config", str(cfg_path), "--out-dir", str(tmp_path / "bench")],
        )
        for argv in commands:
            assert main(argv) == 1
            assert capsys.readouterr().err == "error: column 3 has zero norm (dictionary atom)\n"

    def test_bench_round_trip(self, tmp_path):
        cfg_path = tmp_path / "bench.cfg"
        cfg_path.write_text(CONFIG_TEXT)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["bench", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
        assert (out_a / "trials.csv").read_bytes() == (out_b / "trials.csv").read_bytes()
        assert len(read_trial_rows(out_a / "trials.csv")) == 3 * 2 * 3  # arms x S x N

    def test_bench_paper_scale_with_other_m(self, tmp_path, monkeypatch):
        # the config's m (4) differs from the paper-scale m; arms take the
        # experiment's m at design time instead of carrying their own
        monkeypatch.setattr(cli, "PAPER_SCALE", dict(n=7, k=14, m=5, N=2, S_range=(1, 2)))
        cfg_path = tmp_path / "bench.cfg"
        cfg_path.write_text(CONFIG_TEXT)
        out = tmp_path / "paper"
        rc = main(["bench", "--config", str(cfg_path), "--out-dir", str(out), "--paper-scale"])
        assert rc == 0
        echo = (out / "config.echo").read_text()
        assert "m = 5\n" in echo and "optimizers = none,elad,altproj\n" in echo
        assert len(read_trial_rows(out / "trials.csv")) == 3 * 2 * 2  # arms x S x N

    def test_bench_rejects_nan_threshold(self, tmp_path, capsys):
        cfg_path = tmp_path / "bench.cfg"
        cfg_path.write_text(CONFIG_TEXT + "failure_threshold = nan\n")
        out = tmp_path / "out"
        assert main(["bench", "--config", str(cfg_path), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == "error: failure_threshold must be finite and > 0, got nan\n"
        assert not out.exists()

    def test_bench_missing_config(self, tmp_path, capsys):
        rc = main(["bench", "--config", str(tmp_path / "nope.cfg"), "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_hist_command(self, tmp_path):
        rng = np.random.default_rng(6)
        dict_path = tmp_path / "D.csv"
        write_matrix(dict_path, rng.standard_normal((6, 10)))
        out = tmp_path / "hist.csv"
        assert main(["hist", "--dict", str(dict_path), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "bin_lower,count"
        assert sum(int(l.split(",")[1]) for l in lines[1:]) == 10 * 9 // 2

    def test_hist_projection_shape_mismatch(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        dict_path, proj_path = tmp_path / "D.csv", tmp_path / "P.csv"
        write_matrix(dict_path, rng.standard_normal((30, 60)))
        write_matrix(proj_path, rng.standard_normal((8, 20)))
        out = tmp_path / "hist.csv"
        rc = main(["hist", "--dict", str(dict_path), "--proj", str(proj_path), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: projection shape (8, 20)")
        assert "(30, 60)" in err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["", "\n\n"])
    def test_empty_matrix_file_rejected(self, tmp_path, capsys, text):
        empty = tmp_path / "empty.csv"
        empty.write_text(text)
        commands = (
            ["hist", "--dict", str(empty), "--out", str(tmp_path / "hist.csv")],
            ["ksvd", "--signals", str(empty), "--atoms", "4", "--sparsity", "1",
             "--out-dir", str(tmp_path / "ksvd")],
        )
        for argv in commands:
            assert main(argv) == 1
            assert capsys.readouterr().err == f"error: {empty}: no matrix rows\n"

    def test_ksvd_command(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        signals = tmp_path / "X.csv"
        write_matrix(signals, rng.standard_normal((6, 40)))
        out = tmp_path / "ksvd"
        rc = main(
            [
                "ksvd",
                "--signals",
                str(signals),
                "--atoms",
                "8",
                "--sparsity",
                "2",
                "--iterations",
                "2",
                "--out-dir",
                str(out),
            ]
        )
        assert rc == 0
        for name in ("dictionary.csv", "coefficients.csv", "trace.csv"):
            assert (out / name).exists()
        label, value = capsys.readouterr().out.rstrip("\n").split(" = ")
        assert label == "ksvd final objective"
        assert float(value) > 0.0  # a plain float, not a NumPy repr

    def test_coupled_command(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((6, 40))
        P = rng.standard_normal((3, 6))
        signals = tmp_path / "X.csv"
        meas = tmp_path / "Y.csv"
        proj = tmp_path / "P.csv"
        write_matrix(signals, X)
        write_matrix(meas, P @ X)
        write_matrix(proj, P)
        out = tmp_path / "coupled"
        rc = main(
            [
                "coupled",
                "--signals",
                str(signals),
                "--measurements",
                str(meas),
                "--atoms",
                "8",
                "--sparsity",
                "2",
                "--outer",
                "2",
                "--inner",
                "fixed",
                "--proj",
                str(proj),
                "--out-dir",
                str(out),
            ]
        )
        assert rc == 0
        for name in ("projection.csv", "dictionary.csv", "coefficients.csv", "trace.csv"):
            assert (out / name).exists()
        label, values = capsys.readouterr().out.rstrip("\n").split(" = ")
        assert label == "coupled final terms"
        assert all(float(v) >= 0.0 for v in values.split(", "))  # plain floats

    @pytest.mark.parametrize("command", ["ksvd", "coupled"])
    def test_zero_atoms_rejected(self, tmp_path, capsys, command):
        X = np.random.default_rng(9).standard_normal((6, 40))
        signals, meas = tmp_path / "X.csv", tmp_path / "Y.csv"
        write_matrix(signals, X)
        write_matrix(meas, X[:3])
        argv = [command, "--signals", str(signals), "--atoms", "0", "--sparsity", "2",
                "--out-dir", str(tmp_path / "out")]
        if command == "coupled":
            argv += ["--measurements", str(meas)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: k must be >= 1\n"

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
