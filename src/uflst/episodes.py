"""Episode construction from a pseudo-labeled set.

An episode samples n_c pseudo-classes and n_e examples per class and is
held as one (n_c, n_e) array of dataset indices; in prototype mode the
first n_s columns are the support and the other n_q the query.  Training
embeds the flattened block and its loss reads the embeddings back as an
(n_c, n_e, D) block; evaluation embeds the rows a round's blocks touch
once, gathers each block from them and reads it by its shape alone.

An episode draws n_c distinct classes uniformly, then n_e distinct members
of each in random order, then the ranks of its random triplets, if any.
Every draw reads the 32-bit outputs of a numpy `Generator` in order (the
low half of each 64-bit output first): a draw in [0, hi] is
`(u * (hi + 1)) >> 32` for the next output u, and hi = 0 takes no output.
A sample of `size` distinct values of range(pop) is Floyd's algorithm
(Bentley & Floyd, CACM 1987) and then a Fisher-Yates shuffle of the result.
`sample_episodes` draws `CHUNK` episodes at a time from one block of
outputs read ahead, into preallocated output arrays, and then advances the
generator by exactly the outputs they used.

The draws read the outputs that 1 + n_c `Generator.choice(pop, n,
replace=False)` calls and one `Generator.integers(0, bounds)` call per
episode would, for populations up to 10,000, and give the same values
except where numpy would reject an output and draw another.  That is
Lemire's bounded draw (ACM TOMACS 2019) without its rejection step: each
value of [0, hi] takes floor or ceil of 2**32 / (hi + 1) of the outputs,
so its probability is off by at most (hi + 1) / 2**32 relative.  A span is
at most the number of points N: below 1e-6 at N = 4,000.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractViolationError, EpisodeInfeasibleError

PROTOTYPE = "prototype"
TRIPLET = "triplet"
CHUNK = 256   # episodes per batched draw, which bounds its scratch arrays
_U32 = 1 << 32


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
    bound b >= 1 of `bounds`.  Returns the (count, n_c, n_e) blocks and the
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
    if bounds.size and bounds.min() < 1:
        raise ContractViolationError(
            f"a rank bound must be >= 1, got {bounds.min()}")
    flat = np.concatenate(members)
    blocks = np.empty((count, n_c, n_e), dtype=flat.dtype)
    ranks = np.empty((count, *bounds.shape), dtype=np.int64)
    for done in range(0, count, CHUNK):
        _draw_chunk(sizes, flat, n_c, n_e, rng, bounds,
                    blocks[done:done + CHUNK], ranks[done:done + CHUNK])
    return blocks, ranks


def _draw_chunk(sizes, flat, n_c, n_e, rng, bounds, blocks, ranks):
    """Fill one chunk of `blocks` and `ranks` from one block of outputs
    read ahead, for classes of `sizes` members laid end to end in `flat`:
    each episode's classes in scalar Python (the next one starts where
    this one's draws end), then all member rows and ranks at once."""
    count = len(blocks)
    class_outputs = int(_choice_outputs(sizes.size, n_c))
    taken = (bounds > 1).ravel()   # a bound of 1 takes no output
    outputs = class_outputs + n_c * (2 * n_e - 1) + int(taken.sum())
    state = rng.bit_generator.state
    u = rng.integers(0, _U32, size=count * outputs, dtype=np.uint32)
    full = (sizes == n_e).tolist()
    chosen = np.empty((count, n_c), dtype=np.int64)
    first_row = np.empty(count, dtype=np.int64)
    at = 0
    for e in range(count):
        classes = _choice_scalar(u[at:at + class_outputs].tolist(),
                                 sizes.size, n_c)
        chosen[e] = classes
        first_row[e] = at + class_outputs
        at += outputs - sum(full[c] for c in classes)
    # consume only the outputs the chunk used
    rng.bit_generator.state = state
    rng.integers(0, _U32, size=at, dtype=np.uint32)
    pop = sizes[chosen]
    used = _choice_outputs(pop, n_e)
    start = first_row[:, None] + np.cumsum(used, axis=1) - used
    picks = _choice_rows(u, start.ravel(), pop.ravel(), n_e)
    # an episode's ranks follow its last row's draws; a bound of 1 reads
    # an output before its draw and ignores it
    at_rank = start[:, -1:] + used[:, -1:] + np.cumsum(taken) - 1
    ranks[:] = _bounded(u[at_rank], bounds.ravel() - 1).reshape(ranks.shape)
    offsets = (np.cumsum(sizes) - sizes)[chosen].reshape(-1, 1)
    blocks[:] = flat[offsets + picks].reshape(blocks.shape)


def _bounded(u, hi):
    """Draws in [0, hi] (int64) from the 32-bit outputs `u`; hi = 0 gives 0
    whatever u is."""
    hi = np.asarray(hi).astype(np.uint64)
    m = np.asarray(u).astype(np.uint64) * (hi + 1)
    return (m >> 32).astype(np.int64)


def _choice_outputs(pop, size):
    """Outputs one sample of `size` of range(pop) takes: size Floyd steps,
    whose first has nothing to draw when pop == size, then size - 1
    shuffle steps."""
    return 2 * size - 1 - (np.asarray(pop) == size)


def _choice_scalar(u, pop, size):
    """A sample of `size` distinct values of range(pop), as a list, from the
    list of 32-bit outputs `u` (at least `_choice_outputs(pop, size)`)."""
    floyd = range(max(pop - size, 1), pop)   # the steps that take an output
    picks = [0] if pop == size else []
    seen = set(picks)
    for j, x in zip(floyd, u):
        v = x * (j + 1) >> 32
        if v in seen:
            v = j
        seen.add(v)
        picks.append(v)
    for i, x in zip(range(size - 1, 0, -1), u[len(floyd):]):
        v = x * (i + 1) >> 32
        picks[i], picks[v] = picks[v], picks[i]
    return picks


def _choice_rows(u, start, pop, size):
    """A sample of `size` of range(pop[r]) for every row r at once, row r
    reading the outputs `u[start[r]:]`: the (rows, size) int64 picks."""
    start = np.asarray(start, dtype=np.int64)
    pop = np.asarray(pop, dtype=np.int64)
    full = (pop == size).astype(np.int64)
    steps = np.arange(2 * size - 1)
    # a full row's first Floyd step reads an output it ignores (hi = 0)
    at = start[:, None] + np.maximum(steps - full[:, None], 0)
    hi = np.concatenate([pop[:, None] - size + steps[:size],
                         np.broadcast_to(np.arange(size - 1, 0, -1),
                                         (pop.size, size - 1))], axis=1)
    vals = _bounded(u[np.minimum(at, len(u) - 1)], hi)
    picks = np.empty((pop.size, size), dtype=np.int64)
    for t in range(size):
        v = vals[:, t]
        seen = (picks[:, :t] == v[:, None]).any(axis=1)
        picks[:, t] = np.where(seen, hi[:, t], v)
    rows = np.arange(pop.size)
    for t, i in enumerate(range(size - 1, 0, -1), start=size):
        j = vals[:, t]
        swap = picks[rows, j]
        picks[rows, j] = picks[:, i]
        picks[:, i] = swap
    return picks

