"""Machine-speed probes, so that timings hold still on a shared machine.

On a small shared machine the same code runs 20-40% slower for minutes
at a time while neighbours are busy; CPU time tracks wall time, so this
is the processor's speed, not descheduling.  The benchmark therefore
runs fixed reference computations after every timed operation and
scales the run's wall times by its machine speed: the probes' reference
times (REFERENCE_S) over their measured times, summed over the run.  A
sum, because a run's total time integrates every slow moment too.

The probes are written out here and share no code with the program, so
a change to the program leaves them alone.  Each imitates one kind of
work the program does: `tape_unit` the numpy attention-tape recurrence,
`text_unit` plain-Python lexicon matching, `fault_unit` the page faults
of fresh allocations.  Each workload probes with the mix that resembles
its own work, and set-up with its own mix.  A reported time is thus
"seconds at the reference speed"; the raw wall-clock figures are
printed beside it.
"""

import mmap
import time
from collections import defaultdict

import numpy as np

_RNG = np.random.default_rng(12345)
_H, _X_DIM, _STEPS = 150, 300, 12
_WH = _RNG.uniform(-0.1, 0.1, (_H, _H))
_WX = _RNG.uniform(-0.1, 0.1, (_H, _X_DIM))
_WP = _RNG.uniform(-0.1, 0.1, (_H, _H))
_V = _RNG.uniform(-0.1, 0.1, _H)
_W = _RNG.uniform(-0.1, 0.1, (4 * _H, _H + _X_DIM))
_XS = _RNG.uniform(-1.0, 1.0, (_STEPS, _X_DIM))
_LINE = [chr(0x4E00 + int(i)) for i in _RNG.integers(0, 3000, 20)]
_LEXICON = frozenset(
    "".join(chr(0x4E00 + int(i)) for i in _RNG.integers(3000, 4000, 4))
    for _ in range(150)
)


def tape_unit():
    """One attention-tape recurrence over a 12-step input at the paper's
    sizes, written out independently of the program."""
    tape_h, tape_c, keep = [], [], []   # keep: pre-tanh vectors stay alive, as in the decode cache
    summary = np.zeros(_H)
    for x in _XS:
        scores = np.empty(len(tape_h))
        for i, h in enumerate(tape_h):
            u = np.tanh(_WH @ h + _WX @ x + _WP @ summary)
            keep.append(u)
            scores[i] = _V @ u
        h_sum, c_sum = np.zeros(_H), np.zeros(_H)
        if len(tape_h):
            weights = np.exp(scores - scores.max())
            weights /= weights.sum()
            for w, h, c in zip(weights, tape_h, tape_c):
                h_sum += w * h
                c_sum += w * c
        z = _W @ np.concatenate((h_sum, x))
        gates = 1.0 / (1.0 + np.exp(-z[:3 * _H]))
        c_t = gates[_H:2 * _H] * c_sum + gates[:_H] * np.tanh(z[3 * _H:])
        tape_h.append(gates[2 * _H:] * np.tanh(c_t))
        tape_c.append(c_t)
        summary = h_sum
    return tape_h[-1]


def text_unit():
    """Greedy longest-first lexicon matching over a 20-character line, in
    plain Python lists, as line preprocessing does."""
    words = sorted(_LEXICON, key=len, reverse=True)
    hits = 0
    for i in range(len(_LINE)):
        for word in words:
            if _LINE[i:i + len(word)] == list(word):
                hits += 1
    return hits


_FAULT_BYTES = 4 << 20


def fault_unit():
    """Maps 4 MB of fresh anonymous memory and writes one byte per page:
    the page faults that allocating new arrays costs."""
    region = mmap.mmap(-1, _FAULT_BYTES)
    try:
        for offset in range(0, _FAULT_BYTES, mmap.PAGESIZE):
            region[offset] = 1
    finally:
        region.close()


# Each probe's time at the reference speed, near its mean time on the
# reference machine (see README.md).
REFERENCE_S = {tape_unit: 4.4e-3, text_unit: 2.2e-3, fault_unit: 3.8e-3}


class Clock:
    """Wall times of timed operations by kind, and the probe times taken
    between them.  Probes cycle through `mix`, chosen to resemble the
    timed operations' own mix of work."""

    def __init__(self, mix=(tape_unit,)):
        self.mix = mix
        self.times = defaultdict(list)
        self.units = []        # (probe function, seconds)

    def probe(self, units):
        for _ in range(units):
            unit = self.mix[len(self.units) % len(self.mix)]
            start = time.perf_counter()
            unit()
            self.units.append((unit, time.perf_counter() - start))

    def record(self, kind, seconds, units):
        """Record an operation of `seconds` wall time that just ended,
        then probe `units` times (sized to a small share of it)."""
        self.times[kind].append(seconds)
        self.probe(units)

    def speed(self):
        """Machine speed over the run, as a share of the reference; a
        wall time times this is the time at the reference speed."""
        return (sum(REFERENCE_S[f] for f, _ in self.units)
                / sum(t for _, t in self.units))

    @staticmethod
    def speed_of(unit, *clocks):
        """The same, from the probes of one function across `clocks`."""
        times = [t for clock in clocks for f, t in clock.units if f is unit]
        return REFERENCE_S[unit] * len(times) / sum(times)
