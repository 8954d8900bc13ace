import csv
import struct

import numpy as np
import pytest

from uflst import cluster, config, data, evaluate
from uflst.errors import ConfigError, DatasetParseError, InputError


class TestSynthetic:
    def test_shapes_and_labels(self):
        spec = data.SyntheticSpec(num_classes=4, points_per_class=10, dim=6,
                                  heldout_classes=2, seed=0)
        train, test = data.generate_synthetic(spec)
        assert train.features.shape == (40, 6)
        assert test.features.shape == (20, 6)
        assert np.array_equal(np.unique(train.labels), np.arange(4))
        assert np.array_equal(np.unique(test.labels), np.arange(2))

    def test_deterministic(self):
        spec = data.SyntheticSpec(num_classes=3, points_per_class=5, dim=4, seed=9)
        a, _ = data.generate_synthetic(spec)
        b, _ = data.generate_synthetic(spec)
        assert np.array_equal(a.features, b.features)

    def test_centers_on_sphere(self):
        spec = data.SyntheticSpec(num_classes=6, points_per_class=200, dim=8,
                                  separation=50.0, heldout_classes=0, seed=1)
        train, _ = data.generate_synthetic(spec)
        for c in range(6):
            center = train.features[train.labels == c].mean(axis=0)
            # empirical mean of 200 points: radius within sampling noise
            assert np.linalg.norm(center) == pytest.approx(50.0, abs=0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            data.SyntheticSpec(num_classes=0).validate()
        with pytest.raises(ValueError):
            data.SyntheticSpec(heldout_classes=-1).validate()
        with pytest.raises(ValueError):
            data.SyntheticSpec(separation=-1.0).validate()

    @pytest.mark.parametrize("kind, field", [
        ("blobs", "separation"), ("blobs", "within_std"), ("rays", "radius_min"),
        ("rays", "radius_ratio"), ("rays", "cone"), ("rays", "tight_cone"),
        ("rays", "heldout_offset"), ("rays", "radial_noise"),
        ("rays", "heldout_radial_noise"),
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_nonfinite_scale_rejected(self, kind, field, value):
        # through the config, as a run sets it (YAML spells .nan and .inf):
        # separation fails its range check, and the fixed geometry values
        # are no keys at all
        overrides = [f"synthetic.kind={kind}", f"synthetic.{field}=.{value}"]
        with pytest.raises(ConfigError):
            config.build_synthetic_spec(config.load_config(overrides=overrides))


class TestRaySynthetic:
    def make_spec(self, **kw):
        base = dict(kind="rays", num_classes=20, points_per_class=50, dim=32,
                    heldout_classes=5, seed=2)
        base.update(kw)
        return data.SyntheticSpec(**base)

    def test_shapes_and_labels(self):
        train, test = data.generate_synthetic(self.make_spec())
        assert train.features.shape == (1000, 32)
        assert test.features.shape == (250, 32)
        assert np.array_equal(np.unique(train.labels), np.arange(20))
        assert np.array_equal(np.unique(test.labels), np.arange(5))

    def test_deterministic(self):
        a_train, a_test = data.generate_synthetic(self.make_spec())
        b_train, b_test = data.generate_synthetic(self.make_spec())
        assert np.array_equal(a_train.features, b_train.features)
        assert np.array_equal(a_test.features, b_test.features)

    @pytest.fixture
    def noiseless(self, monkeypatch):
        monkeypatch.setattr(data, "RADIAL_NOISE", 0.0)
        monkeypatch.setattr(data, "HELDOUT_RADIAL_NOISE", 0.0)
        return self.make_spec()

    def test_radii_within_declared_range(self, noiseless):
        train, test = data.generate_synthetic(noiseless)
        for ds in (train, test):
            r = np.linalg.norm(ds.features, axis=1)
            assert np.all(r >= data.RADIUS_MIN)
            assert np.all(r <= data.RADIUS_MIN * data.RADIUS_RATIO)

    def test_class_directions_are_unit_rays(self, noiseless):
        train, _ = data.generate_synthetic(noiseless)
        for c in range(20):
            pts = train.features[train.labels == c]
            dirs = pts / np.linalg.norm(pts, axis=1, keepdims=True)
            # all points of a noiseless class lie on a single ray
            assert np.max(np.abs(dirs - dirs[0])) < 1e-12

    def test_heldout_directions_hug_tight_rays(self, noiseless):
        train, test = data.generate_synthetic(noiseless)

        def class_dirs(ds, k):
            out = []
            for c in range(k):
                p = ds.features[ds.labels == c][0]
                out.append(p / np.linalg.norm(p))
            return np.array(out)

        train_dirs = class_dirs(train, 20)
        held_dirs = class_dirs(test, 5)
        cos = held_dirs @ train_dirs.T
        hosts = np.argmax(cos, axis=1)
        # each heldout class sits next to a distinct tight host (classes 15-19)
        assert np.array_equal(np.sort(hosts), np.arange(15, 20))
        angles = np.arccos(np.clip(cos[np.arange(5), hosts], -1, 1))
        assert np.all(angles < 0.05)
        # but never coincides with its host exactly
        assert np.all(angles > 1e-4)

    def test_spread_rays_are_separated(self, noiseless):
        train, _ = data.generate_synthetic(noiseless)
        dirs = []
        for c in range(20):
            p = train.features[train.labels == c][0]
            dirs.append(p / np.linalg.norm(p))
        dirs = np.array(dirs)
        cos = dirs @ dirs.T
        np.fill_diagonal(cos, -1.0)
        angles = np.arccos(np.clip(cos, -1, 1))
        np.fill_diagonal(angles, np.inf)
        # greedy max-min spacing keeps every pair of rays apart
        assert angles.min() > 0.01

    def test_every_class_tight(self):
        # no widely spread rays: the train set still has num_classes classes
        train, test = data.generate_synthetic(self.make_spec(
            num_classes=5, heldout_classes=5))
        assert np.array_equal(np.unique(train.labels), np.arange(5))
        assert train.features.shape == (250, 32)
        assert np.array_equal(np.unique(test.labels), np.arange(5))

    def test_validation(self):
        with pytest.raises(ValueError):
            data.SyntheticSpec(kind="spiral").validate()
        with pytest.raises(ValueError):
            self.make_spec(heldout_classes=21).validate()
        with pytest.raises(ValueError):
            self.make_spec(heldout_classes=0).validate()
        with pytest.raises(ValueError, match="num_classes <= 2000"):
            self.make_spec(num_classes=2001).validate()


class TestRaw64:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(7, 3))
        path = tmp_path / "x.raw64"
        data.save_raw64(path, feats)
        ds = data.load_matrix_dataset(path)
        assert np.array_equal(ds.features, feats)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.raw64"
        path.write_bytes(b"WRONGMAG" + struct.pack("<II", 1, 1) + b"\0" * 8)
        with pytest.raises(DatasetParseError, match="byte 0"):
            data.load_matrix_dataset(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "x.raw64"
        data.save_raw64(path, np.zeros((4, 4)))
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(DatasetParseError, match="payload"):
            data.load_matrix_dataset(path)

    def test_nonfinite_rejected(self, tmp_path):
        path = tmp_path / "x.raw64"
        data.save_raw64(path, np.array([[1.0, np.nan]]))
        with pytest.raises(InputError):
            data.load_matrix_dataset(path)


class TestNumberFormatting:
    def test_round_trip_float64(self):
        rng = np.random.default_rng(1)
        for x in rng.normal(size=50) * 10.0 ** rng.integers(-20, 20, size=50):
            assert float(data.format_number(float(x))) == x

    def test_nan_is_empty(self):
        assert data.format_number(float("nan")) == ""

    def test_int_passthrough(self):
        assert data.format_number(7) == "7"
        assert data.format_number(np.int64(7)) == "7"


class TestMetricsOutput:
    def make_history(self):
        return [
            evaluate.RoundMetrics(1, 0.5, 10, 3, 9.7, 0.81, 0.05, 1.234),
            evaluate.RoundMetrics(2, float("nan"), 0, 100, 0.0, float("nan"),
                                  float("nan"), float("nan")),
        ]

    def test_header_and_rows(self, tmp_path):
        path = tmp_path / "metrics.csv"
        data.write_metrics(self.make_history(), path)
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert tuple(rows[0]) == evaluate.RoundMetrics.FIELDS
        assert rows[1][0] == "1"
        assert float(rows[1][1]) == 0.5
        # nan cells are empty
        assert rows[2][1] == "" and rows[2][5] == ""

    def test_empty_history_rejected(self, tmp_path):
        with pytest.raises(InputError):
            data.write_metrics([], tmp_path / "metrics.csv")

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_history_round_trip(self, newline):
        history = self.make_history()
        text = data.format_history(history, newline)
        parsed = data.parse_history(text)
        assert data.format_history(parsed, newline) == text
        assert [m.round for m in parsed] == [1, 2]
        assert parsed[0].mean_loss == 1.234 and parsed[1].num_outliers == 100

    @pytest.mark.parametrize("text", [
        "",
        "round,nmi\n1,0.5\n",                          # wrong header
        "round,nmi,num_clusters,num_outliers,mean_cluster_size,"
        "accuracy_mean,accuracy_std,mean_loss\n1,0.5,3,0,2.0,,\n",  # 7 fields
        "round,nmi,num_clusters,num_outliers,mean_cluster_size,"
        "accuracy_mean,accuracy_std,mean_loss\n1,0.5,3,0,2.0,,,1,2\n",
        "round,nmi,num_clusters,num_outliers,mean_cluster_size,"
        "accuracy_mean,accuracy_std,mean_loss\n1,0.x,3,0,2.0,,,1\n",
        "round,nmi,num_clusters,num_outliers,mean_cluster_size,"
        "accuracy_mean,accuracy_std,mean_loss\n1.5,0.5,3,0,2.0,,,1\n",
    ], ids=["empty", "header", "few_fields", "extra_field", "float", "int"])
    def test_malformed_history_rejected(self, text):
        with pytest.raises(InputError):
            data.parse_history(text)


class TestPseudoLabelOutput:
    def test_layout(self, tmp_path):
        pl = cluster.build_pseudo_labeled_set(
            np.array([0, cluster.NOISE, 0, 1])
        )
        path = tmp_path / "labels.csv"
        data.write_pseudo_labels(path, pl, 4, 3)
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["index", "pseudo_label", "round"]
        assert rows[1] == ["0", "0", "3"]
        assert rows[2] == ["1", "-1", "3"]
        assert rows[4] == ["3", "1", "3"]
