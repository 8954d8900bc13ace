"""Dataset generation, file ingestion and metrics output.

Training code only ever sees `Dataset.features`; ground-truth labels ride
along for evaluation and are never handed to the clustering or episodic
machinery (those functions take bare feature matrices).
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DatasetParseError, InputError

RAW64_MAGIC = b"UFLSTD\0\0"
IDX_UBYTE = 0x08


@dataclass
class Dataset:
    features: np.ndarray          # (N, D) float64
    labels: np.ndarray = None     # evaluation only
    split: str = "train"

    @property
    def n(self):
        return self.features.shape[0]

    @property
    def dim(self):
        return self.features.shape[1]

    def subset(self, rows):
        rows = np.asarray(rows)
        return Dataset(
            features=self.features[rows],
            labels=None if self.labels is None else self.labels[rows],
            split=self.split,
        )


@dataclass
class SyntheticSpec:
    kind: str = "blobs"           # "blobs" | "rays"
    num_classes: int = 20
    points_per_class: int = 50
    dim: int = 32
    heldout_classes: int = 5
    seed: int = 0
    # blobs: isotropic Gaussians with centers on a sphere
    separation: float = 6.0       # radius of the sphere the class centers sit on
    within_std: float = 1.0
    noise_dims: int = 0           # trailing class-independent nuisance dims
    noise_std: float = 0.0
    # rays: classes are directions from the origin with log-uniform radii
    cone: float = 0.1             # direction spread of the widely spaced rays
    tight_classes: int = 5        # rays bundled closely; hosts for heldout
    tight_cone: float = 0.025
    heldout_offset: float = 0.005  # angular nudge off each host direction
    radius_min: float = 5.0
    radius_ratio: float = 8.0     # radii drawn log-uniformly over one octave^3
    radial_noise: float = 0.005   # transverse noise, proportional to radius
    heldout_radial_noise: float = 0.01
    direction_candidates: int = 2000

    def validate(self):
        if self.kind not in ("blobs", "rays"):
            raise ConfigError(f"unknown synthetic kind {self.kind!r}")
        if self.num_classes < 1 or self.points_per_class < 1 or self.dim < 1:
            raise ConfigError("class/point/dim counts must be positive")
        if self.kind == "blobs":
            if self.noise_dims < 0 or self.noise_dims >= self.dim:
                raise ConfigError("noise_dims must lie in [0, dim)")
            if self.separation < 0 or self.within_std < 0 or self.noise_std < 0:
                raise ConfigError("scales must be nonnegative")
            return
        if not (0 < self.tight_classes <= self.num_classes):
            raise ConfigError("tight_classes must lie in (0, num_classes]")
        if self.heldout_classes != self.tight_classes:
            raise ConfigError("rays pin one heldout class to each tight ray")
        if self.radius_min <= 0 or self.radius_ratio < 1:
            raise ConfigError("radius_min must be positive, radius_ratio >= 1")
        if min(self.cone, self.tight_cone, self.heldout_offset,
               self.radial_noise, self.heldout_radial_noise) < 0:
            raise ConfigError("angular and noise scales must be nonnegative")
        if self.direction_candidates < self.num_classes:
            raise ConfigError("direction_candidates must cover num_classes")


def generate_synthetic(spec):
    """Generate a (train, heldout) dataset pair per the spec's kind."""
    spec.validate()
    if spec.kind == "rays":
        return _generate_rays(spec)
    return _generate_blobs(spec)


def _generate_blobs(spec):
    """Isotropic Gaussian blobs with centers on a scaled sphere.

    The informative subspace is the first dim - noise_dims coordinates;
    any trailing noise dims carry class-independent Gaussian clutter.
    Train and heldout classes use disjoint center draws.
    """
    rng = np.random.default_rng(spec.seed)
    d_info = spec.dim - spec.noise_dims
    total_classes = spec.num_classes + spec.heldout_classes

    dirs = rng.normal(size=(total_classes, d_info))
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    centers = spec.separation * dirs / norms

    def build(class_rows, split):
        feats, labs = [], []
        for j, c in enumerate(class_rows):
            pts = np.zeros((spec.points_per_class, spec.dim))
            pts[:, :d_info] = centers[c] + spec.within_std * rng.normal(
                size=(spec.points_per_class, d_info)
            )
            if spec.noise_dims:
                pts[:, d_info:] = spec.noise_std * rng.normal(
                    size=(spec.points_per_class, spec.noise_dims)
                )
            feats.append(pts)
            labs.append(np.full(spec.points_per_class, j, dtype=np.int64))
        if not feats:
            return Dataset(
                features=np.empty((0, spec.dim)),
                labels=np.empty(0, dtype=np.int64),
                split=split,
            )
        return Dataset(
            features=np.concatenate(feats),
            labels=np.concatenate(labs),
            split=split,
        )

    train = build(range(spec.num_classes), "train")
    test = build(range(spec.num_classes, total_classes), "test")
    return train, test


def _spread_directions(rng, n, dim, center, cone, candidates):
    """Pick n well-separated unit directions from a Gaussian cone.

    Draws a candidate pool around `center`, normalizes, then greedily
    takes the candidate farthest (in cosine) from everything chosen so
    far, starting from candidate 0.  Greedy max-min spacing keeps the
    minimum pairwise angle from collapsing the way independent draws do.
    """
    pool = center + cone * rng.normal(size=(candidates, dim))
    pool /= np.linalg.norm(pool, axis=1, keepdims=True)
    chosen = [0]
    for _ in range(n - 1):
        sims = np.max(pool @ pool[chosen].T, axis=1)
        sims[chosen] = np.inf
        chosen.append(int(np.argmin(sims)))
    return pool[chosen]


def _generate_rays(spec):
    """Classes are rays from the origin; identity is angular, not radial.

    Every point is r * direction + noise, with r log-uniform over
    [radius_min, radius_min * radius_ratio] and transverse noise
    proportional to r, so raw Euclidean distance is dominated by the
    shared radial spread while class membership lives entirely in the
    direction.  Most train rays are spread widely around a fixed axis;
    `tight_classes` of them are bundled around a second random center.
    Each heldout class direction is a small perturbation of one tight
    ray, so heldout classes occupy the same angular neighborhood as
    known classes without duplicating any of them.  Train and heldout
    radii span the identical range.
    """
    rng = np.random.default_rng(spec.seed)
    axis = np.zeros(spec.dim)
    axis[0] = 1.0
    spread = _spread_directions(
        rng, spec.num_classes - spec.tight_classes, spec.dim, axis,
        spec.cone, spec.direction_candidates,
    )
    center = rng.normal(size=spec.dim)
    center /= np.linalg.norm(center)
    tight = _spread_directions(
        rng, spec.tight_classes, spec.dim, center,
        spec.tight_cone, spec.direction_candidates,
    )
    train_dirs = np.concatenate([spread, tight])
    heldout_dirs = tight + spec.heldout_offset * rng.normal(
        size=(spec.tight_classes, spec.dim)
    )
    heldout_dirs /= np.linalg.norm(heldout_dirs, axis=1, keepdims=True)

    def build(dirs, split, noise):
        feats, labs = [], []
        for j in range(len(dirs)):
            u = rng.uniform(0.0, 1.0, size=(spec.points_per_class, 1))
            r = spec.radius_min * spec.radius_ratio ** u
            pts = r * dirs[j] + noise * r * rng.normal(
                size=(spec.points_per_class, spec.dim)
            )
            feats.append(pts)
            labs.append(np.full(spec.points_per_class, j, dtype=np.int64))
        return Dataset(
            features=np.concatenate(feats),
            labels=np.concatenate(labs),
            split=split,
        )

    train = build(train_dirs, "train", spec.radial_noise)
    test = build(heldout_dirs, "test", spec.heldout_radial_noise)
    return train, test


def save_raw64(path, features):
    features = np.asarray(features, dtype=np.float64)
    with open(path, "wb") as f:
        f.write(RAW64_MAGIC)
        f.write(struct.pack("<II", features.shape[0], features.shape[1]))
        f.write(features.astype("<f8").tobytes())


def _load_raw64(path):
    with open(path, "rb") as f:
        magic = f.read(len(RAW64_MAGIC))
        if magic != RAW64_MAGIC:
            raise DatasetParseError(
                f"{path}: bad raw64 magic {magic!r} at byte 0"
            )
        header = f.read(8)
        if len(header) != 8:
            raise DatasetParseError(f"{path}: truncated raw64 header")
        n, d = struct.unpack("<II", header)
        body = f.read()
    expected = 8 * n * d
    if len(body) != expected:
        raise DatasetParseError(
            f"{path}: expected {expected} payload bytes, got {len(body)}"
        )
    return np.frombuffer(body, dtype="<f8").astype(np.float64).reshape(n, d)


def _load_dsv(path, delimiter=",", label_column=False):
    rows, labels = [], []
    width = None
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(delimiter)
            if width is None:
                width = len(parts)
            elif len(parts) != width:
                raise DatasetParseError(
                    f"{path}: ragged row at line {lineno} "
                    f"({len(parts)} fields, expected {width})"
                )
            try:
                vals = [float(p) for p in parts]
            except ValueError as exc:
                raise DatasetParseError(
                    f"{path}: non-numeric field at line {lineno}: {exc}"
                ) from exc
            if label_column:
                labels.append(int(vals[-1]))
                vals = vals[:-1]
            rows.append(vals)
    if not rows:
        raise DatasetParseError(f"{path}: no data rows")
    feats = np.array(rows, dtype=np.float64)
    labs = np.array(labels, dtype=np.int64) if label_column else None
    return feats, labs


def _load_idx(path):
    with open(path, "rb") as f:
        header = f.read(4)
        if len(header) != 4 or header[0] != 0 or header[1] != 0:
            raise DatasetParseError(f"{path}: bad IDX magic at byte 0")
        if header[2] != IDX_UBYTE:
            raise DatasetParseError(
                f"{path}: unsupported IDX type 0x{header[2]:02x} at byte 2"
            )
        ndim = header[3]
        dims_raw = f.read(4 * ndim)
        if len(dims_raw) != 4 * ndim:
            raise DatasetParseError(f"{path}: truncated IDX dimension header")
        dims = struct.unpack(">" + "I" * ndim, dims_raw)
        body = f.read()
    count = dims[0] if ndim > 0 else 0
    per_item = int(np.prod(dims[1:])) if ndim > 1 else 1
    if len(body) != count * per_item:
        raise DatasetParseError(
            f"{path}: expected {count * per_item} pixel bytes, got {len(body)}"
        )
    pixels = np.frombuffer(body, dtype=np.uint8).astype(np.float64) / 255.0
    return pixels.reshape(count, per_item)


def load_matrix_dataset(path, fmt, delimiter=",", label_column=False,
                        split="train"):
    """Load a dataset file; fmt is one of raw64 | dsv | idx."""
    labels = None
    if fmt == "raw64":
        feats = _load_raw64(path)
    elif fmt == "dsv":
        feats, labels = _load_dsv(path, delimiter, label_column)
    elif fmt == "idx":
        feats = _load_idx(path)
    else:
        raise DatasetParseError(f"unknown dataset format {fmt!r}")
    if not np.all(np.isfinite(feats)):
        raise InputError(f"{path}: dataset contains non-finite values")
    return Dataset(features=feats, labels=labels, split=split)


def format_number(x):
    """17-significant-digit text that round-trips float64 exactly."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float) and math.isnan(x):
        return ""
    return format(float(x), ".17g")


def write_metrics(history, path):
    """One CSV row per round, header first, round-trippable numbers."""
    if not history:
        raise InputError("metrics history is empty")
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(history[0].FIELDS)
        for row in history:
            writer.writerow([format_number(v) for v in row.as_row()])


def write_pseudo_labels(path, pl, n_total, round_index):
    """index,pseudo_label,round rows; outliers carry label -1."""
    labels = np.full(n_total, -1, dtype=np.int64)
    labels[pl.kept_indices] = pl.labels
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["index", "pseudo_label", "round"])
        for i in range(n_total):
            writer.writerow([i, int(labels[i]), round_index])
