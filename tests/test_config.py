import pytest

from rxlearner.config import (
    ConfigError,
    list_presets,
    load_config,
    parse_config,
    preset_path,
)

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
        assert spec.base_loss.gamma == 0.4
        assert spec.aggregation.kind == "fixed" and spec.aggregation.g == 0.7
        assert spec.boost_config.n_rounds == 10

    def test_scenario_contamination_nested_validation(self):
        doc = dict(MINIMAL, scenario={
            "n": 100, "treated_fraction": 0.3,
            "contamination": {"rate": 0.1, "weird": 1},
        })
        with pytest.raises(ConfigError, match="weird"):
            parse_config(doc)

    def test_non_mapping_root(self):
        with pytest.raises(ConfigError):
            parse_config([1, 2])


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

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            preset_path("nope")

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("version: [unclosed")
        with pytest.raises(ConfigError, match="YAML"):
            load_config(path)
