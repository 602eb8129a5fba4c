"""Host-speed probe: times a fixed reference kernel while a job runs.

The benchmark host is a few virtual cores of a shared machine whose speed
switches, for seconds to minutes at a time, between states up to 1.8x
apart, with no steal time reported and CPU time rising with wall time. A
job's raw seconds therefore measure the host as much as the program. The
probe times a fixed kernel of the kind the solvers run (see ``kernel``)
right before a job, right after it, and every ``INTERVAL_S`` in between
from a ``SIGALRM`` handler. Each stretch of the job between two probes is divided by the mean
duration of those two probes, so the job's cost reads in probe units
(``ref``): how many reference kernels the host could have run in the same
time. The handler runs between bytecodes, touches no state of the program
and draws no random numbers, so outputs and their digests are unchanged.
"""

from __future__ import annotations

import contextlib
import signal
from time import perf_counter

import numpy as np

INTERVAL_S = 0.1

_rng = np.random.default_rng(20020)


def _hermitian(n: int, count: int) -> np.ndarray:
    a = _rng.standard_normal((count, n, n)) + 1j * _rng.standard_normal((count, n, n))
    return a + np.conj(np.transpose(a, (0, 2, 1)))


_STACK = _rng.standard_normal((8, 8, 2)) + 1j * _rng.standard_normal((8, 8, 2))
_GRAM = _rng.standard_normal((8, 2, 2)) + 1j * _rng.standard_normal((8, 2, 2))
_PHI = np.array([0.6, 0.8j])
_PARAMS = _rng.standard_normal(16)
_H8 = _hermitian(8, 4)
_H9 = _hermitian(9, 3)
_U3 = [(v * np.exp(1j * w)) @ v.conj().T for w, v in map(np.linalg.eigh, _hermitian(3, 3))]


def kernel() -> float:
    """About 1.3 ms on a calm host of the calls the three workloads make.

    A binding-style payoff of ``einsum`` calls on tiny arrays, a Hermitian
    assembled and read back entry by entry in Python loops, ``eigh`` with a
    matrix exponential, a general eigensolver, ``kron``, a spectral norm and
    dict updates. The host's slow states slow code with a wide footprint
    more than a tight loop: over 5-12 repeated passes of one seed, a probe
    of one kind (``einsum`` alone, or ``eigh`` alone) let 10-27% of the
    host's slowdown through to the probe units, and this mix no measurable
    share on any of the three workloads. Numpy only: importing scipy here
    would add its memory to ``peak_rss_mb`` on workloads whose program never
    loads it. The value is only a sink.
    """
    s = 0.0
    for _ in range(25):
        c = np.einsum("x,jxy,y->j", _PHI.conj(), _GRAM, _PHI)
        w = np.einsum("jab,b->ja", _STACK, _PHI)
        d = np.real(np.einsum("ja,ja->j", w.conj(), w))
        mask = d > 1e-12
        s += float(np.sum(np.abs(c[mask]) ** 2 / d[mask]))
    for _ in range(6):
        h = np.zeros((4, 4), dtype=complex)
        k = 4
        for i in range(4):
            for j in range(i + 1, 4):
                h[i, j] = _PARAMS[k] + 1j * _PARAMS[k + 1]
                h[j, i] = _PARAMS[k] - 1j * _PARAMS[k + 1]
                k += 2
        out = np.empty(16)
        for i in range(4):
            for j in range(i + 1, 4):
                out[4 * i + j] = 2.0 * np.real(h[j, i] + h[i, j])
        s += out[1]
    for h in _H8:
        w, v = np.linalg.eigh(h)
        s += abs(((v * np.exp(1j * w)) @ v.conj().T)[0, 0])
    for h in _H9:
        s += float(np.linalg.eigh(h)[0][-1]) + float(np.linalg.norm(h, 2))
    for u in _U3:
        s += float(np.angle(np.linalg.eigvals(u)).sum()) + float(np.abs(np.kron(u, u.conj())).max())
    counts: dict = {}
    for k in range(200):
        counts[k % 17] = counts.get(k % 17, 0.0) + k
    return s + sum(counts.values())


class Pace:
    """Probe samples of one timed job: (start, duration) pairs."""

    def __init__(self):
        self.samples: list = []

    def sample(self, *_signal_args) -> None:
        t = perf_counter()
        kernel()
        self.samples.append((t, perf_counter() - t))

    @contextlib.contextmanager
    def timing(self):
        """Probe before, during (every ``INTERVAL_S``) and after the body."""
        self.samples = []
        self.sample()
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def _stretches(self):
        """(seconds between two probes, mean duration of those two probes)."""
        pts = self.samples
        return [(b - (a + da), 0.5 * (da + db)) for (a, da), (b, db) in zip(pts, pts[1:])]

    def seconds(self) -> float:
        """Wall seconds of the body, probe time taken out."""
        return sum(gap for gap, _ in self._stretches())

    def cost(self) -> float:
        """The body's time in probe units."""
        return sum(gap / probe for gap, probe in self._stretches())
