"""Uniform draws for episode sampling, many at once.

Every draw reads the 32-bit outputs of a numpy `Generator` in order (the
low half of each 64-bit output first): a draw in [0, hi] is
`(u * (hi + 1)) >> 32` for the next output u, and hi = 0 takes no output.
A sample of `size` distinct values of range(pop) is Floyd's algorithm
(Bentley & Floyd, CACM 1987) and then a Fisher-Yates shuffle of the result.
A caller reads a block of outputs ahead (`Lookahead`), computes many draws
from it, and then advances the generator by exactly the outputs they used.

This multiply-shift is Lemire's bounded draw (ACM TOMACS 2019) without its
rejection step.  Each value of [0, hi] takes floor or ceil of
2**32 / (hi + 1) of the outputs, so its probability is off by at most
(hi + 1) / 2**32 relative.  A span is at most the number of points N:
below 1e-6 at N = 4,000.  The draws read the same outputs as numpy's
`Generator.choice(pop, size, replace=False)` and `integers(0, highs)` do
for pop up to 10,000, and give the same values, except where numpy would
reject an output (probability below (hi + 1) / 2**32) and draw another.
"""

from __future__ import annotations

import functools

import numpy as np

U32 = 1 << 32


class Lookahead:
    """The next `n` 32-bit outputs of `rng`, read without consuming them
    until `commit(used)` consumes the first `used`."""

    def __init__(self, rng, n):
        self.rng = rng
        self.state = rng.bit_generator.state
        self.u = rng.integers(0, U32, size=n, dtype=np.uint32)

    def commit(self, used):
        self.rng.bit_generator.state = self.state
        self.rng.integers(0, U32, size=used, dtype=np.uint32)


def bounded(u, hi):
    """Draws in [0, hi] (int64) from the 32-bit outputs `u`; hi = 0 gives 0
    whatever u is."""
    hi = np.asarray(hi).astype(np.uint64)
    m = np.asarray(u).astype(np.uint64) * (hi + 1)
    return (m >> 32).astype(np.int64)


def choice_outputs(pop, size):
    """Outputs one sample of `size` of range(pop) takes: size Floyd steps,
    whose first has nothing to draw when pop == size, then size - 1
    shuffle steps."""
    return 2 * size - 1 - (np.asarray(pop) == size)


def choice_scalar(u, pop, size):
    """A sample of `size` distinct values of range(pop), as a list, from the
    list of 32-bit outputs `u` (at least `choice_outputs(pop, size)`)."""
    floyd, shuffle = _spans(pop, size)
    picks = [0] if pop == size else []
    seen = set(picks)
    for j, x in zip(floyd, u):
        v = x * (j + 1) >> 32
        if v in seen:
            v = j
        seen.add(v)
        picks.append(v)
    for i, x in zip(shuffle, u[len(floyd):]):
        v = x * (i + 1) >> 32
        picks[i], picks[v] = picks[v], picks[i]
    return picks


@functools.lru_cache(maxsize=64)
def _spans(pop, size):
    """The hi of each draw of one sample: the Floyd steps that take an
    output, then the shuffle steps."""
    return (tuple(range(max(pop - size, 1), pop)),
            tuple(range(size - 1, 0, -1)))


def choice_rows(u, start, pop, size):
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
    vals = bounded(u[np.minimum(at, len(u) - 1)], hi)
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
