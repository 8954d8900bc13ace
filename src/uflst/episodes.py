"""Episode construction from a pseudo-labeled set.

An episode samples n_c pseudo-classes and n_e examples per class and is
held as one (n_c, n_e) array of dataset indices; in prototype mode the
first n_s columns are the support and the other n_q the query.  Training
and evaluation embed the flattened block and read its rows through
`episode_layout`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EpisodeInfeasibleError

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
        if self.n_s < 1 or self.n_q < 1:
            raise ConfigError("the test protocol needs n_s >= 1 and n_q >= 1")
        if self.mode == PROTOTYPE:
            if self.n_e != self.n_s + self.n_q:
                raise ConfigError("prototype mode requires n_e = n_s + n_q")
        elif self.mode == TRIPLET:
            if self.n_e < 2:
                raise ConfigError("triplet mode needs n_e >= 2 for positive pairs")
        else:
            raise ConfigError(f"unknown episode mode {self.mode!r}")


def hard_triplet_preset():
    """32 classes x 4 examples per episode, 5-way 1-shot test protocol:
    the EpisodeConfig defaults."""
    return EpisodeConfig()


def eligible_members(members, n_e):
    """The member arrays, in order, of the classes with at least n_e members."""
    return [m for m in members if m.size >= n_e]


def sample_episode(members, n_c, n_e, rng):
    """An (n_c, n_e) block of dataset indices: n_c classes drawn uniformly
    from `members` (one index array per class), then n_e distinct members
    of each.  Row c holds class c; in prototype mode its first n_s columns
    are the support and the rest the query."""
    if len(members) < n_c:
        raise EpisodeInfeasibleError(
            f"{len(members)} eligible classes < way {n_c}"
        )
    chosen = rng.choice(len(members), size=n_c, replace=False)
    return np.stack([rng.choice(members[c], size=n_e, replace=False)
                     for c in chosen])


def episode_layout(n_c, n_e, n_s):
    """Class position and support flag of each row of a flattened (n_c, n_e)
    episode block: row c of the block is class c, its first n_s columns
    the support."""
    rows = np.arange(n_c * n_e)
    return rows // n_e, rows % n_e < n_s
