"""Dataset generation, file ingestion and metrics output.

Training code only ever sees `Dataset.features`; ground-truth labels ride
along for evaluation and are never handed to the clustering or episodic
machinery (those functions take bare feature matrices).
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import astuple, dataclass, fields

import numpy as np

from .errors import ConfigError, DatasetParseError, InputError
from .evaluate import RoundMetrics

RAW64_MAGIC = b"UFLSTD\0\0"


@dataclass
class Dataset:
    features: np.ndarray          # (N, D) float64
    labels: np.ndarray = None     # evaluation only

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
        )


# Fixed geometry of the generators.  blobs: the within-class spread.
WITHIN_STD = 1.0
# rays: classes are directions from the origin with log-uniform radii
CONE = 0.1                    # direction spread of the widely spaced rays
TIGHT_CONE = 0.025            # spread of the bundle of tight rays
HELDOUT_OFFSET = 0.005        # angular nudge off each host direction
RADIUS_MIN = 5.0
RADIUS_RATIO = 8.0            # radii drawn log-uniformly over one octave^3
RADIAL_NOISE = 0.005          # transverse noise, proportional to radius
HELDOUT_RADIAL_NOISE = 0.01
DIRECTION_CANDIDATES = 2000   # pool each greedy direction pick reads


@dataclass
class SyntheticSpec:
    """The settable part of a synthetic data set; the rest of its geometry
    is the module constants above."""
    kind: str = "blobs"           # "blobs" | "rays"
    num_classes: int = 20
    points_per_class: int = 50
    dim: int = 32
    heldout_classes: int = 5      # rays: also the number of tight rays
    seed: int = 0
    separation: float = 6.0       # blobs: radius of the sphere of centers

    def validate(self):
        if self.kind not in ("blobs", "rays"):
            raise ConfigError(f"unknown synthetic kind {self.kind!r}")
        if self.num_classes < 1 or self.points_per_class < 1 or self.dim < 1:
            raise ConfigError("class/point/dim counts must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.kind == "blobs":
            if self.heldout_classes < 0:
                raise ConfigError("heldout_classes must be nonnegative")
            if not 0 <= self.separation < math.inf:
                raise ConfigError("separation must be nonnegative and finite")
            return
        if not (0 < self.heldout_classes <= self.num_classes):
            raise ConfigError("rays pin one heldout class to each tight ray: "
                              "heldout_classes must lie in (0, num_classes]")
        if self.num_classes > DIRECTION_CANDIDATES:
            # a greedy pick past the end of the pool repeats candidate 0
            raise ConfigError(f"rays need num_classes <= "
                              f"{DIRECTION_CANDIDATES}, got {self.num_classes}")


def generate_synthetic(spec):
    """Generate a (train, heldout) dataset pair per the spec's kind."""
    spec.validate()
    if spec.kind == "rays":
        return _generate_rays(spec)
    return _generate_blobs(spec)


def _stack_classes(blocks, spec):
    """One Dataset of the per-class point blocks, labelled 0.. in order."""
    return Dataset(
        features=np.concatenate([np.empty((0, spec.dim)), *blocks]),
        labels=np.repeat(np.arange(len(blocks)), spec.points_per_class),
    )


def _generate_blobs(spec):
    """Isotropic Gaussian blobs with centers on a scaled sphere.

    Train and heldout classes use disjoint center draws.
    """
    rng = np.random.default_rng(spec.seed)
    total_classes = spec.num_classes + spec.heldout_classes

    dirs = rng.normal(size=(total_classes, spec.dim))
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    centers = spec.separation * dirs / norms

    def build(class_rows):
        return _stack_classes([
            centers[c] + WITHIN_STD * rng.normal(
                size=(spec.points_per_class, spec.dim))
            for c in class_rows], spec)

    train = build(range(spec.num_classes))
    test = build(range(spec.num_classes, total_classes))
    return train, test


def _spread_directions(rng, n, dim, center, cone):
    """Pick n well-separated unit directions from a Gaussian cone.

    Draws a candidate pool around `center`, normalizes, then greedily
    takes the candidate farthest (in cosine) from everything chosen so
    far, starting from candidate 0.  Greedy max-min spacing keeps the
    minimum pairwise angle from collapsing the way independent draws do.
    With n = 0 the pool is still drawn, and none of it is returned.
    """
    pool = center + cone * rng.normal(size=(DIRECTION_CANDIDATES, dim))
    pool /= np.linalg.norm(pool, axis=1, keepdims=True)
    chosen = [0]
    for _ in range(n - 1):
        sims = np.max(pool @ pool[chosen].T, axis=1)
        sims[chosen] = np.inf
        chosen.append(int(np.argmin(sims)))
    return pool[chosen[:n]]


def _generate_rays(spec):
    """Classes are rays from the origin; identity is angular, not radial.

    Every point is r * direction + noise, with r log-uniform over
    [RADIUS_MIN, RADIUS_MIN * RADIUS_RATIO] and transverse noise
    proportional to r, so raw Euclidean distance is dominated by the
    shared radial spread while class membership lives entirely in the
    direction.  Most train rays are spread widely around a fixed axis;
    `heldout_classes` of them are bundled around a second random center.
    Each heldout class direction is a small perturbation of one tight
    ray, so heldout classes occupy the same angular neighborhood as
    known classes without duplicating any of them.  Train and heldout
    radii span the identical range.
    """
    rng = np.random.default_rng(spec.seed)
    axis = np.zeros(spec.dim)
    axis[0] = 1.0
    spread = _spread_directions(
        rng, spec.num_classes - spec.heldout_classes, spec.dim, axis, CONE)
    center = rng.normal(size=spec.dim)
    center /= np.linalg.norm(center)
    tight = _spread_directions(
        rng, spec.heldout_classes, spec.dim, center, TIGHT_CONE)
    train_dirs = np.concatenate([spread, tight])
    heldout_dirs = tight + HELDOUT_OFFSET * rng.normal(
        size=(spec.heldout_classes, spec.dim)
    )
    heldout_dirs /= np.linalg.norm(heldout_dirs, axis=1, keepdims=True)

    def build(dirs, noise):
        blocks = []
        for direction in dirs:
            u = rng.uniform(0.0, 1.0, size=(spec.points_per_class, 1))
            r = RADIUS_MIN * RADIUS_RATIO ** u
            blocks.append(r * direction + noise * r * rng.normal(
                size=(spec.points_per_class, spec.dim)))
        return _stack_classes(blocks, spec)

    train = build(train_dirs, RADIAL_NOISE)
    test = build(heldout_dirs, HELDOUT_RADIAL_NOISE)
    return train, test


def save_raw64(path, features):
    features = np.asarray(features, dtype=np.float64)
    with open(path, "wb") as f:
        f.write(RAW64_MAGIC)
        f.write(struct.pack("<II", features.shape[0], features.shape[1]))
        f.write(features.astype("<f8").tobytes())


def load_matrix_dataset(path):
    """The features of a raw64 file; they must all be finite."""
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
    feats = np.frombuffer(body, dtype="<f8").astype(np.float64).reshape(n, d)
    if not np.all(np.isfinite(feats)):
        raise InputError(f"{path}: dataset contains non-finite values")
    return Dataset(features=feats)


def format_number(x):
    """17-significant-digit text that round-trips float64 exactly."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float) and math.isnan(x):
        return ""
    return format(float(x), ".17g")


def format_history(history, newline="\n"):
    """The metrics history as CSV text: the header, then one row per round."""
    rows = [RoundMetrics.FIELDS, *([format_number(v) for v in astuple(m)]
                                   for m in history)]
    return "".join(",".join(row) + newline for row in rows)


def _parse_float(text):
    return float(text or "nan")   # an empty field is an undefined metric


# One parser per metrics column, from the field annotations (strings,
# since `evaluate` postpones their evaluation).
_COLUMN_PARSERS = tuple(int if f.type == "int" else _parse_float
                        for f in fields(RoundMetrics))


def parse_history(text):
    """The RoundMetrics rows of `format_history` text, either line end."""
    lines = text.splitlines()
    if not lines or tuple(lines[0].split(",")) != RoundMetrics.FIELDS:
        raise InputError("unexpected metrics header")
    history = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = zip(_COLUMN_PARSERS, line.split(","), strict=True)
        try:
            history.append(RoundMetrics(*(parse(c) for parse, c in cells)))
        except ValueError as exc:
            raise InputError(f"line {lineno} is not {len(RoundMetrics.FIELDS)} "
                             f"numbers ({exc})") from exc
    return history


def write_metrics(history, path):
    """One CSV row per round, header first, round-trippable numbers."""
    if not history:
        raise InputError("metrics history is empty")
    with open(path, "w", newline="") as f:
        f.write(format_history(history, "\r\n"))


def write_pseudo_labels(path, pl, n_total, round_index):
    """index,pseudo_label,round rows; outliers carry label -1."""
    labels = np.full(n_total, -1, dtype=np.int64)
    labels[pl.kept_indices] = pl.labels
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["index", "pseudo_label", "round"])
        for i in range(n_total):
            writer.writerow([i, int(labels[i]), round_index])
