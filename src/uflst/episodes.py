"""Episode construction from a pseudo-labeled set.

An episode samples n_c pseudo-classes and n_e examples per class and is
held as one (n_c, n_e) array of dataset indices; in prototype mode the
first n_s columns are the support and the other n_q the query.  Training
embeds the flattened block and reads its rows through `episode_layout`;
evaluation embeds the rows a round's blocks touch once, gathers each
block from them and reads it by its shape alone.

An episode draws n_c distinct classes uniformly, then n_e distinct members
of each in random order, then the ranks of its random triplets, if any.
`sample_episodes` draws `CHUNK` episodes at a time through `draws`, from
one block of generator outputs, into preallocated output arrays.  The
draws read the outputs that 1 + n_c `Generator.choice(..., replace=False)`
calls and one `Generator.integers(0, bounds)` call per episode would, and
give the same values except where numpy would reject an output (see
`draws`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import draws
from .errors import ConfigError, EpisodeInfeasibleError

PROTOTYPE = "prototype"
TRIPLET = "triplet"
CHUNK = 256   # episodes per batched draw, which bounds its scratch arrays


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
    return sample_episodes(members, n_c, n_e, 1, rng)[0][0]


def sample_episodes(members, n_c, n_e, count, rng, bounds=()):
    """`count` (n_c, n_e) episode blocks, as `sample_episode` draws them
    one after another, and with each its ranks: one draw in [0, b) per
    bound b of `bounds`.  Returns the (count, n_c, n_e) blocks and the
    (count, *bounds.shape) int64 ranks."""
    if len(members) < n_c:
        raise EpisodeInfeasibleError(
            f"{len(members)} eligible classes < way {n_c}"
        )
    sizes = np.array([len(m) for m in members], dtype=np.int64)
    if sizes.min() < n_e:
        raise EpisodeInfeasibleError(
            f"a class of {sizes.min()} members < {n_e} examples per class"
        )
    bounds = np.asarray(bounds, dtype=np.int64)
    flat = np.concatenate(members)
    blocks = np.empty((count, n_c, n_e), dtype=flat.dtype)
    ranks = np.empty((count, *bounds.shape), dtype=np.int64)
    for done in range(0, count, CHUNK):
        _draw_chunk(sizes, flat, n_c, n_e, rng, bounds,
                    blocks[done:done + CHUNK], ranks[done:done + CHUNK])
    return blocks, ranks


def _draw_chunk(sizes, flat, n_c, n_e, rng, bounds, blocks, ranks):
    """Fill one chunk of `blocks` and `ranks` from one lookahead block of
    outputs, for classes of `sizes` members laid end to end in `flat`: each
    episode's classes in scalar Python (the next one starts where this
    one's draws end), then all member rows and ranks at once."""
    count = len(blocks)
    class_outputs = int(draws.choice_outputs(sizes.size, n_c))
    taken = (bounds > 1).ravel()   # a bound of 1 takes no output
    outputs = class_outputs + n_c * (2 * n_e - 1) + int(taken.sum())
    ahead = draws.Lookahead(rng, count * outputs)
    full = (sizes == n_e).tolist()
    chosen = np.empty((count, n_c), dtype=np.int64)
    first_row = np.empty(count, dtype=np.int64)
    at = 0
    for e in range(count):
        classes = draws.choice_scalar(
            ahead.u[at:at + class_outputs].tolist(), sizes.size, n_c)
        chosen[e] = classes
        first_row[e] = at + class_outputs
        at += outputs - sum(full[c] for c in classes)
    ahead.commit(at)
    pop = sizes[chosen]
    used = draws.choice_outputs(pop, n_e)
    start = first_row[:, None] + np.cumsum(used, axis=1) - used
    picks = draws.choice_rows(ahead.u, start.ravel(), pop.ravel(), n_e)
    # an episode's ranks follow its last row's draws; a bound of 1 reads
    # an output before its draw and ignores it
    at_rank = start[:, -1:] + used[:, -1:] + np.cumsum(taken) - 1
    ranks[:] = draws.bounded(ahead.u[at_rank],
                             bounds.ravel() - 1).reshape(ranks.shape)
    offsets = (np.cumsum(sizes) - sizes)[chosen].reshape(-1, 1)
    blocks[:] = flat[offsets + picks].reshape(blocks.shape)


def episode_layout(n_c, n_e, n_s):
    """Class position and support flag of each row of a flattened (n_c, n_e)
    episode block: row c of the block is class c, its first n_s columns
    the support."""
    rows = np.arange(n_c * n_e)
    return rows // n_e, rows % n_e < n_s
