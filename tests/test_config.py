from dataclasses import replace

import pytest

from rxlearner.boosting import BoostConfig
from rxlearner.config import (
    ConfigError,
    list_presets,
    load_config,
    parse_config,
    preset_path,
)
from rxlearner.metalearners import LEARNERS, learner_spec

MINIMAL = {
    "version": 1,
    "kind": "scenario",
    "scenario": {"n": 100, "treated_fraction": 0.3},
    "learners": [{"name": "rx", "kind": "rx"}],
}


class TestParseConfig:
    def test_minimal_document(self):
        cfg = parse_config(MINIMAL)
        assert cfg.kind == "scenario"
        assert cfg.scenario.n == 100
        assert "rx" in cfg.learners

    def test_unknown_top_key_rejected(self):
        doc = dict(MINIMAL, mystery=1)
        with pytest.raises(ConfigError, match="mystery"):
            parse_config(doc)

    def test_version_required(self):
        doc = dict(MINIMAL)
        doc.pop("version")
        with pytest.raises(ConfigError, match="version"):
            parse_config(doc)

    def test_all_violations_collected(self):
        doc = {
            "version": 2,
            "kind": "bogus",
            "n_trials": 0,
            "rates": [2.0],
            "learners": [{"kind": "nope"}, {"kind": "mse_x", "gamma": 0.5}],
        }
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        text = str(err.value)
        for fragment in ("version", "kind", "n_trials", "rates",
                         "learners[0]", "learners[1].gamma"):
            assert fragment in text

    def test_boost_seed_is_unknown_key(self):
        doc = dict(MINIMAL, learners=[{"kind": "rx", "boost": {"seed": 1}}])
        with pytest.raises(ConfigError, match=r"learners\[0\]\.boost: unknown keys \['seed'\]"):
            parse_config(doc)

    @pytest.mark.parametrize("key", ["n_rounds", "max_depth", "min_samples_leaf"])
    def test_fractional_boost_count_rejected(self, key):
        doc = dict(MINIMAL, learners=[{"kind": "rx", "boost": {key: 2.5}}])
        with pytest.raises(ConfigError, match=rf"learners\[0\]\.boost: {key} must be an integer"):
            parse_config(doc)

    def test_duplicate_learner_names_rejected(self):
        doc = dict(MINIMAL, learners=[{"name": "a", "kind": "rx"},
                                      {"name": "a", "kind": "mse_x"}])
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(doc)

    def test_learner_overrides(self):
        doc = dict(MINIMAL, learners=[{
            "name": "custom", "kind": "rx", "gamma": 0.4,
            "aggregation": "fixed", "g": 0.7,
            "boost": {"n_rounds": 10, "max_depth": 2},
        }])
        cfg = parse_config(doc)
        spec = cfg.learners["custom"]
        assert spec.loss.gamma == 0.4
        assert spec.aggregation.kind == "fixed" and spec.aggregation.g == 0.7
        assert spec.boost_config.n_rounds == 10

    def test_scenario_contamination_nested_validation(self):
        doc = dict(MINIMAL, scenario={
            "n": 100, "treated_fraction": 0.3,
            "contamination": {"rate": 0.1, "weird": 1},
        })
        with pytest.raises(ConfigError, match="weird"):
            parse_config(doc)

    # YAML's .nan is a float that passes a "> 0" check; each dataset real is
    # checked to be finite, and the error names the block and the field.
    @pytest.mark.parametrize("where, key", [
        ("scenario.contamination", "core_sd"), ("scenario.contamination", "tail_df"),
        ("scenario", "tau_value"), ("semi_synthetic", "target_mean_tau"),
        ("semi_synthetic", "core_sd"),
    ])
    def test_nan_dataset_reals_rejected(self, tmp_path, where, key):
        block = {
            "scenario.contamination": "scenario: {n: 100, treated_fraction: 0.3, "
                                      f"contamination: {{{key}: .nan}}}}",
            "scenario": f"scenario: {{n: 100, treated_fraction: 0.3, {key}: .nan}}",
            "semi_synthetic": f"semi_synthetic: {{treated_fraction: 0.1, {key}: .nan}}",
        }[where]
        path = tmp_path / "nan.yaml"
        path.write_text(f"version: 1\nkind: {where.split('.')[0]}\n{block}\n"
                        "learners: [{name: rx, kind: rx}]\n")
        with pytest.raises(ConfigError, match=rf"{where}: {key} must be a finite number, got nan"):
            load_config(path)

    # A listed rate or magnitude is checked as gamma is: YAML text, bools and
    # non-finite values are rejected, naming the key and the item.
    @pytest.mark.parametrize("key, value", [
        ("magnitudes", ".nan"), ("magnitudes", ".inf"), ("magnitudes", "true"),
        ("magnitudes", "'0.1'"), ("rates", "'0.1'"), ("rates", ".nan"),
    ])
    def test_listed_reals_must_be_finite_numbers(self, tmp_path, key, value):
        path = tmp_path / "lists.yaml"
        path.write_text("version: 1\nkind: scenario\nscenario: {n: 100, treated_fraction: 0.3}\n"
                        f"learners: [{{name: rx, kind: rx}}]\n{key}: [0, {value}]\n")
        with pytest.raises(ConfigError, match=rf"^{key}\[1\] must be a finite number, got "):
            load_config(path)
        assert getattr(parse_config(dict(MINIMAL, **{key: [0, 0.5]})), key) == [0.0, 0.5]

    def test_non_mapping_root(self):
        with pytest.raises(ConfigError):
            parse_config([1, 2])

    @pytest.mark.parametrize("block", ["scenario", "semi_synthetic"])
    def test_block_seed_is_unknown_key(self, block):
        doc = dict(MINIMAL, **{block: {"treated_fraction": 0.3, "seed": 1}})
        with pytest.raises(ConfigError, match=rf"{block}: unknown keys \['seed'\]"):
            parse_config(doc)

    def test_top_level_seed_reaches_every_block(self):
        doc = dict(MINIMAL, seed=7, semi_synthetic={"treated_fraction": 0.1})
        cfg = parse_config(doc)
        assert cfg.seed == cfg.scenario.seed == cfg.semi_synthetic.seed == 7
        moved = cfg.with_seed(9)
        assert moved.seed == moved.scenario.seed == moved.semi_synthetic.seed == 9
        assert replace(moved, seed=7, scenario=cfg.scenario,
                       semi_synthetic=cfg.semi_synthetic) == cfg

    @pytest.mark.parametrize("seed", [-1, True, 1.5])
    def test_with_seed_rejects_non_draw_seeds(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            parse_config(MINIMAL).with_seed(seed)

    @pytest.mark.parametrize("key, value", [
        ("seed", "abc"), ("seed", 1.7), ("seed", -1), ("seed", True),
        ("curve_n", "x"), ("curve_n", 60.0), ("curve_outliers", False),
        ("n_trials", True),
    ])
    def test_integer_values_validated(self, key, value):
        doc = dict(MINIMAL, **{key: value}, version=2)
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        lines = str(err.value).splitlines()
        assert f"{key}: must be an integer" in "\n".join(lines)
        assert any(line.startswith("version") for line in lines)

    @pytest.mark.parametrize("learner, key", [
        ({"kind": "mse_x", "gamma": 0.5}, "gamma"),
        ({"kind": "rx", "delta_multiplier": 2.0}, "delta_multiplier"),
        ({"kind": "mse_x", "delta_multiplier": 2.0}, "delta_multiplier"),
        ({"kind": "t", "aggregation": "fixed", "g": 0.3}, "aggregation"),
        ({"kind": "dr_clipped", "aggregation": "inverse_variance"}, "aggregation"),
        ({"kind": "rx", "g": 0.3}, "g"),
        ({"kind": "mse_x", "aggregation": "propensity", "g": 0.3}, "g"),
    ])
    def test_learner_keys_only_where_read(self, learner, key):
        with pytest.raises(ConfigError, match=rf"learners\[0\]\.{key}: "):
            parse_config(dict(MINIMAL, learners=[learner]))

    @pytest.mark.parametrize("name", sorted(LEARNERS))
    def test_every_learner_kind_parses_to_its_table_spec(self, name):
        cfg = parse_config(dict(MINIMAL, learners=[{"kind": name}]))
        assert cfg.learners == {name: learner_spec(name, BoostConfig())}

    def test_huber_delta_multiplier_sets_the_one_loss(self):
        cfg = parse_config(dict(MINIMAL, learners=[{"kind": "huber_x", "delta_multiplier": 2.0}]))
        assert cfg.learners["huber_x"].loss.delta_multiplier == 2.0


class TestPresets:
    def test_all_five_ship(self):
        assert list_presets() == [
            "displacement_80_1", "extreme_pathology", "small_sample_t3",
            "smearing", "sweep_0_20",
        ]

    @pytest.mark.parametrize("name", [
        "displacement_80_1", "extreme_pathology", "small_sample_t3",
        "smearing", "sweep_0_20",
    ])
    def test_every_preset_parses(self, name):
        cfg = load_config(preset_path(name))
        assert cfg.learners
        assert "rx" in cfg.learners

    @pytest.mark.parametrize("name", list_presets())
    def test_every_preset_draws_at_seed_zero(self, name):
        cfg = load_config(preset_path(name))
        assert cfg.seed == 0
        for block in (cfg.scenario, cfg.semi_synthetic):
            assert block is None or block.seed == 0

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            preset_path("nope")

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("version: [unclosed")
        with pytest.raises(ConfigError, match="YAML"):
            load_config(path)
