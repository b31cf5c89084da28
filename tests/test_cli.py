import filecmp
import json

import numpy as np
import pytest

from rxlearner.cli import build_parser, main
from rxlearner.datasets import ScenarioSpec, generate_synthetic, load_dataset_csv, save_dataset_csv
from rxlearner.metalearners import fit_meta, load_meta, mse_x_spec, predict_cate, rx_spec, save_meta
from rxlearner.boosting import BoostConfig

TINY = """
version: 1
kind: scenario
seed: 0
n_trials: 1
rates: [0.0, 0.1]
magnitudes: [0, 50]
curve_n: 60
curve_outliers: 3
scenario:
  n: 120
  treated_fraction: 0.4
  contamination: {rate: 0.1, tail_arm: both}
learners:
  - {name: rx, kind: rx, boost: {n_rounds: 20}}
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(TINY)
    return str(path)


DRAW = {"--config", "--out-dir", "--seed"}
REPORT = DRAW | {"--jobs", "--format"}
OPTIONS = {
    "simulate": DRAW, "semisynthetic": DRAW, "curves": DRAW,
    "fit": {"--config", "--model-out"},
    "predict": set(),
    "evaluate": REPORT, "sweep": REPORT,
    "smear": DRAW | {"--format"},
}


class TestParser:
    def test_each_command_takes_only_the_flags_it_reads(self):
        parser = build_parser()
        (commands,) = [a for a in parser._actions if a.dest == "command"]
        got = {
            name: {opt for a in sub._actions for opt in a.option_strings} - {"-h", "--help"}
            for name, sub in commands.choices.items()
        }
        assert got == OPTIONS
        assert sum(map(len, got.values())) == 25

    def test_predict_rejects_jobs(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["predict", "m", "d.csv", "o.csv", "--jobs", "2"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err


class TestSimulate:
    def test_writes_loadable_dataset(self, tiny_config, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", "--config", tiny_config, "--out-dir", str(out)]) == 0
        data = load_dataset_csv(out / "dataset.csv")
        assert data.n_units == 120
        assert data.true_cate is not None

    def test_seed_override_changes_data(self, tiny_config, tmp_path):
        a, b, c = (tmp_path / d for d in ("a", "b", "c"))
        for out, seed in ((a, "7"), (b, "7"), (c, "8")):
            assert main(["simulate", "--config", tiny_config,
                         "--out-dir", str(out), "--seed", seed]) == 0
        assert filecmp.cmp(a / "dataset.csv", b / "dataset.csv", shallow=False)
        assert not filecmp.cmp(a / "dataset.csv", c / "dataset.csv", shallow=False)

    def test_config_seed_draws_like_seed_flag(self, tiny_config, tmp_path):
        seeded = tmp_path / "seeded.yaml"
        seeded.write_text(TINY.replace("seed: 0", "seed: 7"))
        flag, top = tmp_path / "flag", tmp_path / "top"
        assert main(["simulate", "--config", tiny_config, "--out-dir", str(flag),
                     "--seed", "7"]) == 0
        assert main(["simulate", "--config", str(seeded), "--out-dir", str(top)]) == 0
        assert (flag / "dataset.csv").read_bytes() == (top / "dataset.csv").read_bytes()

    def test_negative_seed_flag_is_validation_error(self, tiny_config, tmp_path, capsys):
        assert main(["simulate", "--config", tiny_config, "--out-dir", str(tmp_path),
                     "--seed", "-1"]) == 1
        assert "seed" in capsys.readouterr().err


class TestFitPredict:
    def test_matches_in_process(self, tiny_config, tmp_path):
        sim = tmp_path / "sim"
        main(["simulate", "--config", tiny_config, "--out-dir", str(sim)])
        dataset = str(sim / "dataset.csv")
        model = str(tmp_path / "model.json")
        preds = tmp_path / "preds.csv"
        assert main(["fit", dataset, "--config", tiny_config,
                     "--model-out", model]) == 0
        assert main(["predict", model, dataset, str(preds)]) == 0

        data = load_dataset_csv(dataset)
        expected = predict_cate(
            fit_meta(data, rx_spec(boost_config=BoostConfig(n_rounds=20))),
            data.features,
        )
        got = np.loadtxt(preds, skiprows=1)
        np.testing.assert_array_equal(got, expected)

    def test_predict_accepts_features_only_csv(self, tiny_config, tmp_path):
        sim = tmp_path / "sim"
        main(["simulate", "--config", tiny_config, "--out-dir", str(sim)])
        dataset = str(sim / "dataset.csv")
        model = str(tmp_path / "model.json")
        assert main(["fit", dataset, "--config", tiny_config, "--model-out", model]) == 0
        X = load_dataset_csv(dataset).features
        features = tmp_path / "features.csv"
        features.write_text(
            ",".join(f"f{j}" for j in range(X.shape[1])) + "\n"
            + "".join(",".join(repr(float(v)) for v in row) + "\n" for row in X)
        )
        preds = tmp_path / "preds.csv"
        assert main(["predict", model, str(features), str(preds)]) == 0
        expected = predict_cate(load_meta(model), X)
        assert np.loadtxt(preds, skiprows=1).tobytes() == expected.tobytes()

    def test_fit_leaves_out_dir_alone(self, tmp_path, tiny_config):
        sim = tmp_path / "sim"
        main(["simulate", "--config", tiny_config, "--out-dir", str(sim)])
        cfg = tmp_path / "fit.yaml"
        never = tmp_path / "never"
        cfg.write_text(TINY + f"out_dir: {never}\n")
        assert main(["fit", str(sim / "dataset.csv"), "--config", str(cfg),
                     "--model-out", str(tmp_path / "m")]) == 0
        assert not never.exists()

    def test_fit_requires_single_learner(self, tmp_path, tiny_config):
        cfg = tmp_path / "two.yaml"
        cfg.write_text(TINY.replace(
            "learners:",
            "learners:\n  - {name: extra, kind: mse_x}",
        ))
        sim = tmp_path / "sim"
        main(["simulate", "--config", tiny_config, "--out-dir", str(sim)])
        code = main(["fit", str(sim / "dataset.csv"), "--config", str(cfg),
                     "--model-out", str(tmp_path / "m")])
        assert code == 1


    def test_collapsed_scale_exits_one_naming_the_part(self, tmp_path, zero_inflated, capsys):
        # Most outcomes are exactly 0, so rx's sigma-hat has nothing to anchor on.
        save_dataset_csv(zero_inflated, tmp_path / "dataset.csv")
        (tmp_path / "rx.yaml").write_text(TINY.replace("n_rounds: 20", "n_rounds: 5"))
        model = tmp_path / "model.json"
        assert main(["fit", str(tmp_path / "dataset.csv"), "--config", str(tmp_path / "rx.yaml"),
                     "--model-out", str(model)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: mu0 (control arm): the MAD scale of 1800 residuals "
                              "has collapsed")
        assert not model.exists()


class TestEvaluateAndStudies:
    def test_evaluate_writes_both_formats(self, tiny_config, tmp_path):
        out = tmp_path / "ev"
        assert main(["evaluate", "--config", tiny_config, "--out-dir", str(out)]) == 0
        assert (out / "report.csv").exists() and (out / "report.json").exists()

    def test_format_flag_restricts_output(self, tiny_config, tmp_path):
        out = tmp_path / "ev"
        assert main(["evaluate", "--config", tiny_config, "--out-dir", str(out),
                     "--format", "json"]) == 0
        assert (out / "report.json").exists()
        assert not (out / "report.csv").exists()

    def test_evaluate_idempotent(self, tiny_config, tmp_path):
        out = tmp_path / "ev"
        main(["evaluate", "--config", tiny_config, "--out-dir", str(out)])
        first = (out / "report.csv").read_bytes()
        main(["evaluate", "--config", tiny_config, "--out-dir", str(out)])
        assert (out / "report.csv").read_bytes() == first

    def test_sweep_outputs(self, tiny_config, tmp_path):
        out = tmp_path / "sw"
        assert main(["sweep", "--config", tiny_config, "--out-dir", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "rate,learner,mean_pehe"
        assert len(lines) == 3  # two rates, one learner

    def test_smear_zero_baseline(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "sm"
        assert main(["smear", "--config", tiny_config, "--out-dir", str(out)]) == 0
        rows = (out / "smear.csv").read_text().strip().splitlines()[1:]
        baseline = [r for r in rows if r.startswith("0.0,")]
        assert baseline and all(r.rsplit(",", 1)[1] == "0.0" for r in baseline)

    def test_curves_row_count(self, tiny_config, tmp_path):
        out = tmp_path / "cv"
        assert main(["curves", "--config", tiny_config, "--out-dir", str(out)]) == 0
        lines = (out / "curves.csv").read_text().strip().splitlines()
        assert len(lines) == 61


class TestSemiSynthetic:
    def test_surrogate_fallback(self, tmp_path):
        cfg = tmp_path / "semi.yaml"
        cfg.write_text(
            "version: 1\nkind: semi_synthetic\nseed: 0\nn_trials: 1\n"
            "surrogate: {rows: 600, cols: 4}\n"
            "semi_synthetic: {treated_fraction: 0.1}\n"
            "learners:\n  - {name: rx, kind: rx, boost: {n_rounds: 15}}\n"
        )
        out = tmp_path / "ss"
        assert main(["semisynthetic", "--config", str(cfg), "--out-dir", str(out)]) == 0
        data = load_dataset_csv(out / "dataset.csv")
        assert data.n_units == 600
        assert main(["evaluate", "--config", str(cfg), "--out-dir", str(out)]) == 0


    def test_covariate_csv_with_any_header(self, tmp_path):
        cfg = tmp_path / "semi.yaml"
        cfg.write_text(
            "version: 1\nkind: semi_synthetic\nseed: 0\nn_trials: 1\n"
            "semi_synthetic: {treated_fraction: 0.1}\n"
            "learners:\n  - {name: rx, kind: rx, boost: {n_rounds: 15}}\n"
        )
        X = np.random.default_rng(0).normal(size=(300, 3))
        cov = tmp_path / "cov.csv"
        np.savetxt(cov, X, delimiter=",", header="a,b,c", comments="", fmt="%.17g")
        out = tmp_path / "ss"
        assert main(["semisynthetic", str(cov), "--config", str(cfg), "--out-dir", str(out)]) == 0
        data = load_dataset_csv(out / "dataset.csv")
        assert data.features.tobytes() == X.tobytes()


class TestExitCodes:
    def test_validation_error_lists_every_violation(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("version: 9\nkind: bogus\nlearners:\n  - {kind: nope}\n")
        assert main(["evaluate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "version" in err and "kind" in err and "nope" in err

    def test_unknown_preset_is_validation_error(self):
        assert main(["simulate", "--config", "no_such_preset"]) == 1

    def test_missing_dataset_file(self, tiny_config, tmp_path):
        assert main(["fit", str(tmp_path / "missing.csv"), "--config", tiny_config,
                     "--model-out", str(tmp_path / "m")]) == 1

    def test_out_of_range_bundle_value_is_validation_error(self, tiny_config, tmp_path, capsys):
        sim = tmp_path / "sim"
        main(["simulate", "--config", tiny_config, "--out-dir", str(sim)])
        dataset = str(sim / "dataset.csv")
        model = tmp_path / "model.json"
        assert main(["fit", dataset, "--config", tiny_config, "--model-out", str(model)]) == 0
        doc = json.loads(model.read_text())
        doc["parts"]["mu0"]["loss_spec"]["gamma"] = 0.0
        model.write_text(json.dumps(doc))
        assert main(["predict", str(model), dataset, str(tmp_path / "preds.csv")]) == 1
        err = capsys.readouterr().err
        assert f"{model}: malformed bundle: part mu0: gamma must be > 0" in err

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["trees"][0]["left"].__setitem__(0, 0), "tree 0 has a cycle"),
        (lambda doc: doc["trees"][0]["feature"].__setitem__(0, 40), "tree 0: feature index 40"),
    ])
    def test_unroutable_bundle_tree_is_validation_error(self, tiny_config, tmp_path, capsys,
                                                        edit, message):
        sim = tmp_path / "sim"
        main(["simulate", "--config", tiny_config, "--out-dir", str(sim)])
        dataset = str(sim / "dataset.csv")
        model = tmp_path / "model.json"
        assert main(["fit", dataset, "--config", tiny_config, "--model-out", str(model)]) == 0
        doc = json.loads(model.read_text())
        part = doc["parts"]["tau0"]
        assert len(part["trees"]) == 20 and part["trees"][0]["feature"][0] >= 0
        edit(part)
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["predict", str(model), dataset, str(tmp_path / "preds.csv")]) == 1
        err = capsys.readouterr().err
        assert f"{model}: malformed bundle: part tau0: {message}" in err

    @pytest.mark.parametrize("text", ["[1]", "null", "3"])
    def test_bundle_part_not_an_object_is_validation_error(self, tiny_config, tmp_path, capsys,
                                                           text):
        sim = tmp_path / "sim"
        main(["simulate", "--config", tiny_config, "--out-dir", str(sim)])
        dataset = str(sim / "dataset.csv")
        model = tmp_path / "model.json"
        assert main(["fit", dataset, "--config", tiny_config, "--model-out", str(model)]) == 0
        doc = json.loads(model.read_text())
        doc["parts"]["mu1"] = json.loads(text)
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["predict", str(model), dataset, str(tmp_path / "preds.csv")]) == 1
        assert (f"{model}: malformed bundle: part mu1: expected a JSON object, got {text}"
                in capsys.readouterr().err)

    def test_predict_names_a_non_finite_cell(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("rxlearner.cli.load_meta", lambda path: None)
        features = tmp_path / "x.csv"
        features.write_text("f0,f1,f2,f3,f4\n1,3,1,1,1\nnan,3,1,1,1\n")
        assert main(["predict", "bundle", str(features), str(tmp_path / "preds.csv")]) == 1
        err = capsys.readouterr().err
        assert f"{features}: non-finite cell at row 3, column 'f0': 'nan'" in err

    def test_non_integer_seed_is_validation_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(TINY.replace("seed: 0", "seed: abc").replace("curve_n: 60", "curve_n: x"))
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "seed: must be an integer >= 0, got 'abc'" in err
        assert "curve_n: must be an integer, got 'x'" in err

    @pytest.mark.parametrize("old, new, message", [
        ("rates: [0.0, 0.1]", "rates: abc", "rates: expected a list, got 'abc'"),
        ("magnitudes: [0, 50]", "magnitudes: x", "magnitudes: expected a list, got 'x'"),
        ("rates: [0.0, 0.1]", "rates: 5", "rates: expected a list, got 5"),
        ("learners:\n  - {name: rx, kind: rx, boost: {n_rounds: 20}}", "learners: 5",
         "learners: expected a list, got 5"),
        ("magnitudes: [0, 50]", "magnitudes: [0, x]", "magnitudes: expected a number, got 'x'"),
        ("{name: rx, kind: rx,", "{name: [rx], kind: rx,", "learners[0].name: expected a string"),
        ("{name: rx, kind: rx,", "{name: rx, kind: [rx],", "learners[0].kind: unknown learner kind"),
        ("  n: 120", "  n: 120.5", "scenario: n must be an integer"),
        ("boost: {n_rounds: 20}", "boost: {n_rounds: 20, learning_rate: '0.1'}",
         "learners[0].boost: learning_rate must be a finite number, got '0.1'"),
        ("{name: rx, kind: rx,", "{name: rx, kind: rx, gamma: '0.2',",
         "learners[0]: gamma must be a finite number, got '0.2'"),
        ("{name: rx, kind: rx,", "{name: rx, kind: rx, aggregation: fixed, g: '0.5',",
         "learners[0]: g must be a finite number, got '0.5'"),
        ("curve_n: 60", "curve_n: 60\nsurrogate: {rows: 300.5, cols: 4}",
         "surrogate.rows: must be an integer >= 1, got 300.5"),
    ])
    def test_ill_typed_value_is_validation_error(self, tmp_path, capsys, old, new, message):
        cfg = tmp_path / "bad.yaml"
        assert old in TINY
        cfg.write_text(TINY.replace(old, new).replace("seed: 0", "seed: abc"))
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "seed: must be an integer >= 0, got 'abc'" in err

    def test_runtime_error_exit_two(self, tiny_config, tmp_path):
        # out-dir collides with an existing file: OS error past validation
        blocker = tmp_path / "blocker"
        blocker.write_text("x")
        assert main(["simulate", "--config", tiny_config,
                     "--out-dir", str(blocker)]) == 2


MALFORMED_BUNDLES = {
    "no_kind": ("rx", lambda doc: doc.pop("kind"), "missing key 'kind'"),
    "bogus_kind": ("rx", lambda doc: doc.update(kind="bogus"), "unknown learner kind 'bogus'"),
    "no_format_version": ("rx", lambda doc: doc.pop("format_version"),
                          "missing key 'format_version'"),
    "parts_without_mu0": ("rx", lambda doc: doc["parts"].pop("mu0"),
                          "parts ['mu1', 'tau0', 'tau1'] do not match a rx bundle"),
    "x_kind_without_tau0": ("rx", lambda doc: doc["parts"].pop("tau0"),
                            "parts ['mu0', 'mu1', 'tau1'] do not match a rx bundle"),
    "parts_as_a_list": ("rx", lambda doc: doc.update(parts=sorted(doc["parts"])),
                        "parts of type list do not match a rx bundle"),
    "extra_aggregation_key": ("rx", lambda doc: doc["aggregation"].update(extra=1),
                              "unexpected keyword argument 'extra'"),
    "aggregation_g_as_text": ("rx", lambda doc: doc["aggregation"].update(g="0.5"),
                              "g must be a finite number, got '0.5'"),
    "propensity_constant_as_text": ("rx", lambda doc: doc.update(propensity_constant="0.5"),
                                    "propensity_constant must be a finite number, got '0.5'"),
    "arm_variance_as_text": ("rx", lambda doc: doc.update(arm_variance=["1", True]),
                             "arm_variance[0] must be a finite number, got '1'"),
    "arm_variance_zero": ("rx", lambda doc: doc.update(arm_variance=[1.0, 0.0]),
                          "arm_variance[1] must be > 0, got 0.0"),
    "mse_x_without_propensity": ("mse_x", lambda doc: doc.update(propensity_constant=None),
                                 "with propensity_constant None: expected ['mu0', 'mu1', "
                                 "'propensity_model', 'tau0', 'tau1']"),
    "two_propensity_sources": ("rx", lambda doc: doc["parts"].update(
        propensity_model=doc["parts"]["mu0"]), "parts ['mu0', 'mu1', 'propensity_model', "
                                               "'tau0', 'tau1'] do not match a rx bundle"),
}


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    root = tmp_path_factory.mktemp("bundles")
    data = generate_synthetic(ScenarioSpec(n=120, treated_fraction=0.4))
    boost = BoostConfig(n_rounds=5)
    for name, spec in (("rx", rx_spec(boost_config=boost)), ("mse_x", mse_x_spec(boost))):
        save_meta(fit_meta(data, spec), root / f"{name}.json")
    save_dataset_csv(data, root / "dataset.csv")
    return root


class TestMalformedBundle:
    @pytest.mark.parametrize("case", sorted(MALFORMED_BUNDLES))
    def test_predict_exits_one_naming_bundle(self, case, bundles, tmp_path, capsys):
        learner, edit, message = MALFORMED_BUNDLES[case]
        bundle = tmp_path / "bundle.json"
        doc = json.loads((bundles / f"{learner}.json").read_text())
        edit(doc)
        bundle.write_text(json.dumps(doc))
        preds = tmp_path / "preds.csv"
        assert main(["predict", str(bundle), str(bundles / "dataset.csv"), str(preds)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bundle}: malformed bundle: ") and message in err
        assert not preds.exists()

    def test_directory_bundle_exits_one(self, bundles, tmp_path, capsys):
        # Bundles were once directories of part files beside a manifest.
        (tmp_path / "old").mkdir()
        (tmp_path / "old" / "manifest.json").write_text("{}")
        assert main(["predict", str(tmp_path / "old"), str(bundles / "dataset.csv"),
                     str(tmp_path / "preds.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'old'}: cannot read bundle: ")
        assert "Traceback" not in err

    def test_unedited_bundles_predict(self, bundles, tmp_path):
        for learner in ("rx", "mse_x"):
            preds = tmp_path / f"{learner}.csv"
            assert main(["predict", str(bundles / f"{learner}.json"),
                         str(bundles / "dataset.csv"), str(preds)]) == 0
