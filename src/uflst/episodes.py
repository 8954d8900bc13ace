"""Episode construction from a pseudo-labeled set.

An episode samples n_c pseudo-classes and n_e examples per class; in
prototype mode the per-class examples are further split positionally into
support and query halves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractViolationError, EpisodeInfeasibleError

PROTOTYPE = "prototype"
TRIPLET = "triplet"


@dataclass
class EpisodeConfig:
    n_c_train: int = 32
    n_c_test: int = 5
    n_e: int = 4
    n_s: int = 1
    n_q: int = 3
    mode: str = TRIPLET

    def validate(self):
        if self.n_c_train < 2 or self.n_c_test < 2:
            raise ConfigError("need at least 2 ways for train and test")
        if self.mode == PROTOTYPE:
            if self.n_s < 1 or self.n_q < 1:
                raise ConfigError("prototype mode needs n_s >= 1 and n_q >= 1")
            if self.n_e != self.n_s + self.n_q:
                raise ConfigError("prototype mode requires n_e = n_s + n_q")
        elif self.mode == TRIPLET:
            if self.n_e < 2:
                raise ConfigError("triplet mode needs n_e >= 2 for positive pairs")
        else:
            raise ConfigError(f"unknown episode mode {self.mode!r}")

    @property
    def batch_size(self):
        return self.n_c_train * self.n_e


def hard_triplet_preset():
    """32 classes x 4 examples per episode, 5-way 1-shot test protocol:
    the EpisodeConfig defaults."""
    return EpisodeConfig()


@dataclass
class EpisodicTask:
    class_ids: np.ndarray     # sampled pseudo-labels, length n_c
    example_indices: list     # per class: n_e original dataset indices
    support: list = field(default=None)  # per class, prototype mode only
    query: list = field(default=None)

    def flat_indices(self):
        return np.concatenate(self.example_indices)


@dataclass
class FeasibilityReport:
    eligible_classes: np.ndarray
    feasible: bool


def check_feasibility(pl, cfg, n_c=None):
    """Classes with at least n_e members, and whether n_c of them exist."""
    n_c = cfg.n_c_train if n_c is None else n_c
    eligible = np.array(
        [c for c in range(pl.num_clusters) if pl.class_members[c].size >= cfg.n_e],
        dtype=np.int64,
    )
    return FeasibilityReport(eligible_classes=eligible,
                             feasible=eligible.size >= n_c)


def sample_episode(pl, cfg, rng, n_c=None):
    """Uniformly sample n_c eligible classes, then n_e examples per class."""
    n_c = cfg.n_c_train if n_c is None else n_c
    report = check_feasibility(pl, cfg, n_c)
    if not report.feasible:
        raise EpisodeInfeasibleError(
            f"{report.eligible_classes.size} eligible classes < way {n_c}"
        )
    class_ids = rng.choice(report.eligible_classes, size=n_c, replace=False)
    example_indices = [
        rng.choice(pl.class_members[c], size=cfg.n_e, replace=False)
        for c in class_ids
    ]
    task = EpisodicTask(class_ids=np.asarray(class_ids), example_indices=example_indices)
    if cfg.mode == PROTOTYPE:
        task = split_support_query(task, cfg)
    return task


def split_support_query(task, cfg):
    """Positional split: first n_s indices per class are support, rest query."""
    if cfg.mode != PROTOTYPE:
        raise ContractViolationError("support/query split requires prototype mode")
    if cfg.n_s + cfg.n_q != cfg.n_e or cfg.n_q < 1:
        raise ContractViolationError(
            f"bad split n_s={cfg.n_s} n_q={cfg.n_q} for n_e={cfg.n_e}"
        )
    task.support = [ex[: cfg.n_s] for ex in task.example_indices]
    task.query = [ex[cfg.n_s:] for ex in task.example_indices]
    return task
