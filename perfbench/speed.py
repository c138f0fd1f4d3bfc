"""Host speed probe: reference kernels timed during each measurement.

The test host is a shared 2-vCPU machine whose speed changes by 1.3x or more
for stretches from under a second to minutes, for reasons outside the
benchmark, and not by the same factor for every kind of code.  A timed
section is reported at a fixed reference speed: its time divided by the
host's slowdown over it.  The slowdown is read from three small components
(small-object Python, single-threaded BLAS, elementwise numpy), each timed
just before the section, just after it and every ``INTERVAL_S`` seconds
inside it from a timer signal, and weighed by the workload's mix of them.
The probes' own time is taken out of the section's wall and CPU time.  No
component calls gleak, so a change to gleak cannot change them.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# Each component's time, in seconds, on the fast mode of the 2-vCPU Xeon host
# the benchmark was written on: a probe reads as a slowdown against these.
REFERENCE_S = {"objects": 0.0012, "blas": 0.0014, "elementwise": 0.0017}
REPEATS = 2
INTERVAL_S = 0.3

_state: dict = {}


def _objects() -> None:
    # rational snapping of floats, as in preprocess.rationalize_gain
    for v in _state["floats"]:
        Fraction(v).limit_denominator(10**6)


def _blas() -> None:
    # a small single-threaded dense chain, as in an MLP step
    np, b, w = _state["np"], _state["batch"], _state["w"]
    for _ in range(8):
        b = np.tanh(b @ w)


def _elementwise() -> None:
    # a broadcast distance block and its row minima, as in kNN evaluation
    np, q, l = _state["np"], _state["queries"], _state["points"]
    np.abs(q - l).sum(axis=2).argmin(axis=1)


COMPONENTS = {"objects": _objects, "blas": _blas, "elementwise": _elementwise}


def warm_up() -> None:
    """Build the components' inputs and probe a few times (not measured)."""
    import numpy as np

    rng = np.random.default_rng(0)
    _state.update(
        np=np,
        floats=(rng.integers(1, 5000, 100) / rng.integers(1, 5000, 100)).tolist(),
        batch=rng.random((256, 100)) * 0.1,
        w=rng.random((100, 100)) * 0.1,
        queries=rng.random((250, 1, 2)),
        points=rng.random((1, 200, 2)),
    )
    for _ in range(5):
        probe()


def probe() -> dict[str, float]:
    """Each component's time now: the fastest of a few back-to-back runs, in seconds."""
    times = {}
    for name, component in COMPONENTS.items():
        best = float("inf")
        for _ in range(REPEATS):
            started = time.perf_counter()
            component()
            best = min(best, time.perf_counter() - started)
        times[name] = best
    return times


class Sampler:
    """Probes the host speed every INTERVAL_S seconds while it is active.

    ``with Sampler() as sampler:`` installs a SIGALRM handler and an interval
    timer.  Python runs the handler in the main thread between bytecodes, so
    a probe lands inside gleak's code wherever it is (a long C call delays
    it).  ``timed`` runs a callable and returns its result, its wall and CPU
    time less the probes that ran inside it, and the mean of all probes:
    one just before the call, those inside it, one just after it.
    """

    def __init__(self) -> None:
        self._ticks: list[tuple[float, float, float, float]] = []  # start, probe, wall, cpu
        self._previous = None
        self._last = 0.0

    def __enter__(self) -> Sampler:
        self._last = probe()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        w0, c0 = time.perf_counter(), time.process_time()
        value = probe()
        self._ticks.append((w0, value, time.perf_counter() - w0, time.process_time() - c0))

    def timed(self, call):
        """Returns (result, wall_s, cpu_s, mean probe per component) of ``call()``."""
        before, first = self._last, len(self._ticks)
        w0, c0 = time.perf_counter(), time.process_time()
        result = call()
        w1, c1 = time.perf_counter(), time.process_time()
        inside = [t for t in self._ticks[first:] if w0 <= t[0] < w1]
        self._last = probe()
        wall = w1 - w0 - sum(t[2] for t in inside)
        cpu = c1 - c0 - sum(t[3] for t in inside)
        probes = [before, *(t[1] for t in inside), self._last]
        return result, wall, cpu, {k: statistics.fmean(p[k] for p in probes) for k in COMPONENTS}


def slowdown(probe_s: dict[str, float], mix: dict[str, float]) -> float:
    """The host's slowdown for work made up as ``mix`` (shares summing to 1)."""
    return sum(share * probe_s[name] / REFERENCE_S[name] for name, share in mix.items())


def at_reference(elapsed: float, probe_s: dict[str, float], mix: dict[str, float]) -> float:
    """``elapsed`` scaled to the reference speed, for work made up as ``mix``."""
    return elapsed / slowdown(probe_s, mix)
