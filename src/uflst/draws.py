"""Many `Generator.choice` draws at once, with the same numbers and state.

For the sizes uflst asks for (a population of at most 10,000, or a sample
of at most a fiftieth of it), numpy's `Generator.choice(pop, size,
replace=False)` runs Floyd's algorithm and then a Fisher-Yates shuffle of
the result.  Both steps take Lemire-bounded draws from the generator's
32-bit stream: a draw in [0, hi] is `(u * (hi + 1)) >> 32` for the next
32-bit output u (the low half of each 64-bit output comes first), and
hi = 0 takes no output.  A scalar `choice` with replacement is one such
draw.  So a caller can read a block of outputs ahead (`Lookahead`),
compute many choices from it, and then advance the generator by exactly
the outputs those choices used.

Lemire's method draws again when the low word of `u * (hi + 1)` falls
below `(2**32 - hi - 1) % (hi + 1)`.  The emulation never draws again: it
reports that such a draw happened, and its caller rewinds and makes the
real calls.  The emulation rests on numpy internals that a release may
change, so `exact()` checks it against `Generator.choice` on first use
and turns false, with one warning, when they disagree.

`integers(0, highs)` takes one such draw per bound in order (none for a
bound of 1), the same as one scalar `choice(high)` per bound; `exact()`
checks both.
"""

from __future__ import annotations

import functools
import logging

import numpy as np

log = logging.getLogger("uflst")

U32 = 1 << 32
LOW = U32 - 1
FLOYD_MAX_POP = 10_000   # larger populations may take numpy's tail shuffle
PROBE_SEED = 20_190_611


class Lookahead:
    """The next `n` 32-bit outputs of `rng`, read without consuming them:
    `commit(used)` consumes the first `used`, `rewind()` none."""

    def __init__(self, rng, n):
        self.rng = rng
        self.state = rng.bit_generator.state
        self.u = rng.integers(0, U32, size=n, dtype=np.uint32)

    def rewind(self):
        self.rng.bit_generator.state = self.state

    def commit(self, used):
        self.rewind()
        self.rng.integers(0, U32, size=used, dtype=np.uint32)


def bounded(u, hi):
    """Lemire draws in [0, hi] (int64) from the 32-bit outputs `u`, and
    whether numpy would have drawn again for any of them.  hi = 0 gives 0
    with no redraw, whatever u is."""
    hi = np.asarray(hi).astype(np.uint64)
    m = np.asarray(u).astype(np.uint64) * (hi + 1)
    redraw = bool(np.any(m & LOW < (LOW - hi) % (hi + 1)))
    return (m >> 32).astype(np.int64), redraw


def choice_outputs(pop, size):
    """Outputs one `choice(pop, size, replace=False)` takes: size Floyd
    steps, whose first has nothing to draw when pop == size, then
    size - 1 shuffle steps."""
    return 2 * size - 1 - (np.asarray(pop) == size)


def floyd_fits(pop, size):
    """Whether numpy samples `size` of each `pop` by Floyd's algorithm."""
    pop = np.asarray(pop)
    return bool(np.all((pop <= FLOYD_MAX_POP) | (size <= pop // 50)))


def choice_scalar(u, pop, size):
    """`choice(pop, size, replace=False)` as a list, from the list of
    32-bit outputs `u` (at least `choice_outputs(pop, size)` of them), or
    None when numpy would have drawn again."""
    floyd, shuffle = _steps(pop, size)
    picks = [0] if pop == size else []
    seen = set(picks)
    for (j, span, redraw_below), x in zip(floyd, u):
        m = x * span
        if m & LOW < redraw_below:
            return None
        v = m >> 32
        if v in seen:
            v = j
        seen.add(v)
        picks.append(v)
    for (i, span, redraw_below), x in zip(shuffle, u[len(floyd):]):
        m = x * span
        if m & LOW < redraw_below:
            return None
        v = m >> 32
        picks[i], picks[v] = picks[v], picks[i]
    return picks


@functools.lru_cache(maxsize=64)
def _steps(pop, size):
    """(hi, hi + 1, redraw threshold) of each draw of a scalar choice: the
    Floyd steps that take an output, then the shuffle steps."""
    def step(hi):
        return hi, hi + 1, (LOW - hi) % (hi + 1)
    return (tuple(step(j) for j in range(max(pop - size, 1), pop)),
            tuple(step(i) for i in range(size - 1, 0, -1)))


def choice_rows(u, start, pop, size):
    """`choice(pop[r], size, replace=False)` of every row r at once, row r
    reading the outputs `u[start[r]:]`.  Returns the (rows, size) int64
    picks and whether numpy would have drawn again anywhere."""
    start = np.asarray(start, dtype=np.int64)
    pop = np.asarray(pop, dtype=np.int64)
    full = (pop == size).astype(np.int64)
    steps = np.arange(2 * size - 1)
    # a full row's first Floyd step reads an output it ignores (hi = 0)
    at = start[:, None] + np.maximum(steps - full[:, None], 0)
    hi = np.concatenate([pop[:, None] - size + steps[:size],
                         np.broadcast_to(np.arange(size - 1, 0, -1),
                                         (pop.size, size - 1))], axis=1)
    vals, redraw = bounded(u[np.minimum(at, len(u) - 1)], hi)
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
    return picks, redraw


@functools.cache
def exact():
    """Whether this numpy draws `choice` as the emulation does; checked
    once per process against `Generator.choice` on a fixed seed."""
    agrees = _probe()
    if not agrees:
        log.warning("numpy %s draws Generator.choice differently from the "
                    "batched emulation; sampling one call at a time",
                    np.__version__)
    return agrees


def _probe():
    """A scalar choice, a row of choices (two of them full), emulated
    `integers(0, highs)` draws (a bound of 1 reads no output of its own)
    and a real `integers` call, against real `choice`, `integers` and
    scalar `choice(high)` calls: the same picks and the final state."""
    pops, size = np.array([3, 4, 9, 60, 3, 5000]), 3
    highs = np.array([[3, 1], [60, 5000]])
    ref = np.random.default_rng(PROBE_SEED)
    want = [ref.choice(12, size=5, replace=False).tolist(),
            *(ref.choice(p, size=size, replace=False).tolist() for p in pops),
            *ref.integers(0, highs).ravel().tolist(),
            *(int(ref.choice(h)) for h in highs.ravel())]

    rng = np.random.default_rng(PROBE_SEED)
    ahead = Lookahead(rng, 200)
    first = choice_scalar(ahead.u[:9].tolist(), 12, 5)
    outputs = choice_outputs(pops, size)
    end = 9 + np.cumsum(outputs)
    rows, redraw = choice_rows(ahead.u, end - outputs, pops, size)
    ints, int_redraw = bounded(ahead.u[end[-1] + [[0, 1], [1, 2]]], highs - 1)
    ahead.commit(int(end[-1]) + 3)
    got = [first, *rows.tolist(), *ints.ravel().tolist(),
           *rng.integers(0, highs).ravel().tolist()]
    return (not redraw and not int_redraw and got == want
            and rng.bit_generator.state == ref.bit_generator.state)
