import pytest
import yaml

from uflst import config as config_mod
from uflst import losses, network
from uflst.data import SyntheticSpec
from uflst.errors import ConfigError
from uflst.pipeline import TrainConfig


class TestLoadConfig:
    def test_defaults_are_the_dataclass_defaults(self):
        cfg = config_mod.load_config()
        assert config_mod.build_train_config(cfg) == TrainConfig()
        assert config_mod.build_synthetic_spec(cfg) == SyntheticSpec()

    def test_defaults_validate(self):
        cfg = config_mod.load_config()
        tc = config_mod.build_train_config(cfg)
        assert tc.rounds == 20
        assert tc.epochs_per_round == 50
        assert tc.optimizer.learning_rate == 0.005
        assert network.LR_DROP_AFTER_EPOCH == 25
        assert (tc.episode.n_c_train, tc.episode.n_e) == (32, 4)
        assert losses.TRIPLET_MARGIN == 0.5

    def test_prototype_needs_split(self):
        # the prototype loss reads its support from the episode split
        cfg = config_mod.load_config(None, ["loss.kind=prototype"])
        with pytest.raises(ConfigError, match="episode.mode=prototype"):
            config_mod.build_train_config(cfg)
        cfg = config_mod.load_config(None, ["loss.kind=prototype",
                                            "episode.mode=prototype"])
        assert config_mod.build_train_config(cfg).loss.kind == "prototype"

    def test_file_merge(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("rounds: 3\ndbscan:\n  ms: 7\n")
        cfg = config_mod.load_config(str(path))
        assert cfg["rounds"] == 3
        assert cfg["dbscan"]["ms"] == 7
        # untouched values keep their defaults
        assert cfg["dbscan"]["p_fraction"] == 0.02

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("roundz: 3\n")
        with pytest.raises(ConfigError):
            config_mod.load_config(str(path))

    def test_unknown_nested_key_rejected(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("dbscan:\n  bogus: 1\n")
        with pytest.raises(ConfigError):
            config_mod.load_config(str(path))

    def test_overrides_typed(self):
        cfg = config_mod.load_config(
            overrides=["rounds=5", "dbscan.ms=2", "loss.kind=prototype",
                       "optimizer.learning_rate=0.001"]
        )
        assert cfg["rounds"] == 5 and isinstance(cfg["rounds"], int)
        assert cfg["dbscan"]["ms"] == 2
        assert cfg["loss"]["kind"] == "prototype"
        assert cfg["optimizer"]["learning_rate"] == 0.001

    def test_override_errors(self):
        with pytest.raises(ConfigError):
            config_mod.load_config(overrides=["rounds"])
        with pytest.raises(ConfigError):
            config_mod.load_config(overrides=["nope=1"])
        with pytest.raises(ConfigError):
            config_mod.load_config(overrides=["dbscan=1"])

    def test_dump_round_trip(self, tmp_path):
        cfg = config_mod.load_config(overrides=["seed=42"])
        path = tmp_path / "out.yaml"
        config_mod.dump_config(cfg, str(path))
        with open(path) as f:
            loaded = yaml.safe_load(f)
        assert loaded == cfg

    def test_build_synthetic_spec(self):
        cfg = config_mod.load_config(overrides=["synthetic.num_classes=7"])
        spec = config_mod.build_synthetic_spec(cfg)
        assert spec.num_classes == 7
        assert spec.dim == 32

    def test_invalid_values_surface(self):
        cfg = config_mod.load_config(overrides=["optimizer.learning_rate=-1"])
        with pytest.raises(ValueError):
            config_mod.build_train_config(cfg)

    @pytest.mark.parametrize("override", [
        "rounds=abc", "rounds=true", "rounds=2.5", "synthetic.dim=abc",
        "loss.kind=3", "hidden_dims=[8, x]", "rounds.x=1", "synthetic.dim=[",
    ])
    def test_bad_values_raise_config_error(self, override):
        with pytest.raises(ConfigError):
            config_mod.load_config(overrides=[override])

    def test_int_stands_for_float(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("optimizer:\n  learning_rate: 1\n")
        cfg = config_mod.load_config(
            str(path),
            overrides=["dbscan.p_fraction=1", "synthetic.separation=6"])
        assert cfg["dbscan"]["p_fraction"] == 1
        assert cfg["optimizer"]["learning_rate"] == 1
        assert cfg["synthetic"]["separation"] == 6

    def test_exponent_notation_is_a_float(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("optimizer:\n  learning_rate: 1e-3\n")
        cfg = config_mod.load_config(
            str(path), overrides=["dbscan.epsilon_override=1e-12",
                                  "synthetic.separation=2.5E+1"])
        assert cfg["optimizer"]["learning_rate"] == 1e-3
        assert cfg["dbscan"]["epsilon_override"] == 1e-12
        assert cfg["synthetic"]["separation"] == 25.0
        assert config_mod.build_train_config(cfg).dbscan.epsilon_override \
            == 1e-12

    @pytest.mark.parametrize("override", ["rounds=1e3", "hidden_dims=[1e2]"])
    def test_exponent_notation_is_not_an_int(self, override):
        with pytest.raises(ConfigError, match="must be int"):
            config_mod.load_config(overrides=[override])

    def test_malformed_yaml_file(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("rounds: [3\n")
        with pytest.raises(ConfigError, match="invalid YAML"):
            config_mod.load_config(str(path))


def dotted_keys(section, prefix=""):
    for key, value in section.items():
        if isinstance(value, dict):
            yield from dotted_keys(value, f"{prefix}{key}.")
        else:
            yield prefix + key


def test_settable_keys():
    """Every settable key, pinned: a new knob shows up in review."""
    assert sorted(dotted_keys(config_mod.default_config())) == [
        "dbscan.epsilon_override", "dbscan.ms", "dbscan.p_count",
        "dbscan.p_fraction", "embedding_dim", "episode.mode",
        "episode.n_c_test", "episode.n_c_train", "episode.n_e", "episode.n_q",
        "episode.n_s", "epochs_per_round", "eval_episodes", "hidden_dims",
        "knn_k", "loss.kind", "optimizer.learning_rate", "rounds", "seed",
        "synthetic.dim", "synthetic.heldout_classes", "synthetic.kind",
        "synthetic.num_classes", "synthetic.points_per_class",
        "synthetic.seed", "synthetic.separation",
    ]
