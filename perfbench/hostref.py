"""Host-speed reference: fixed slices of work, timed between trials in the
benchmark process, that rescale host time to a nominal core speed.

The 2-vCPU VM the benchmark was written on changes speed by up to 1.9x over
tens of seconds with the load of neighbouring tenants; process CPU time
slows with it and almost no steal time is reported.  A fixed slice of work
run on the same core slows by nearly the same factor, so the benchmark
times the slices every `INTERVAL_S` of trial time and reports

    nominal seconds = (elapsed - slice time) * host speed,
    host speed = number of kinds / sum over kinds of (mean slice time / nominal),

the time the work would have taken on a core at which each slice takes its
`NOMINAL_S`.  There are two kinds of slice, because the workloads mix
interpreted Python (`python`: integer arithmetic and dict stores) with
BLAS calls (`blas`: a complex matrix product of the shape of an OMP
correlation), and contention slows the two by different factors.  The
`blas` operands (1.6 MiB) are allocated once per run; the `python` slice
allocates nothing that outlives it.
"""

import functools
import time

PY_LOOPS = 100_000
BLAS_SHAPE = (512, 200, 50)        # (rows, inner, columns), complex128
BLAS_REPS = 8
NOMINAL_S = {"python": 0.0097, "blas": 0.0055}   # on an unloaded core of that VM
INTERVAL_S = 0.5                   # trial time between two rounds of slices


def python_slice() -> float:
    """Run the interpreter slice once; returns its host seconds."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(PY_LOOPS):
        table[i & 255] = acc
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - t0


def blas_slice():
    """A function that runs the BLAS slice once and returns its host seconds."""
    import numpy as np
    rows, inner, cols = BLAS_SHAPE
    rng = np.random.default_rng(0)
    a = rng.standard_normal((rows, 2 * inner)).view(np.complex128)
    b = rng.standard_normal((inner, 2 * cols)).view(np.complex128)
    out = np.empty((rows, cols), dtype=np.complex128)

    def run() -> float:
        t0 = time.perf_counter()
        for _ in range(BLAS_REPS):
            np.matmul(a, b, out=out)
        return time.perf_counter() - t0
    return run


def host_speed(times: dict[str, list[float]]) -> float:
    """Core speed relative to nominal from slice times by kind: 1 at
    nominal, below 1 on a slow core."""
    return len(times) / sum(sum(ts) / len(ts) / NOMINAL_S[kind]
                            for kind, ts in times.items())


class HostReference:
    """Context manager that runs one round of slices on entry and, by
    wrapping the per-trial entry point `owner.attr`, one more round after
    each trial for every whole `interval_s` of trial time since the last
    rounds, so that rounds sample trial time evenly however long a trial
    is.  The wrapper does not touch the trial's arguments, result or random
    state."""

    def __init__(self, owner, attr: str, slices: dict, interval_s: float = INTERVAL_S,
                 clock=time.perf_counter):
        self.owner, self.attr = owner, attr
        self.slices = slices
        self.interval_s = interval_s
        self.clock = clock
        self.times: dict[str, list[float]] = {kind: [] for kind in slices}
        self._original = None
        self._since = 0.0

    def __enter__(self) -> "HostReference":
        self._original = vars(self.owner)[self.attr]
        setattr(self.owner, self.attr, self._wrap(self._original))
        self._round()
        return self

    def __exit__(self, *exc) -> None:
        setattr(self.owner, self.attr, self._original)

    def _round(self, count: int = 1) -> None:
        for _ in range(count):
            for kind, run in self.slices.items():
                self.times[kind].append(run())
        self._since = self.clock()

    def _wrap(self, fn):
        ref = self

        @functools.wraps(fn)
        def paced(*args, **kwargs):
            ret = fn(*args, **kwargs)
            due = int((ref.clock() - ref._since) / ref.interval_s)
            if due:
                ref._round(due)
            return ret
        return paced

    @property
    def rounds(self) -> int:
        return len(next(iter(self.times.values())))

    def nominal_seconds(self, elapsed: float) -> float:
        """`elapsed` host seconds, which include the slices, as trial time at
        nominal core speed."""
        slice_s = sum(sum(ts) for ts in self.times.values())
        return (elapsed - slice_s) * host_speed(self.times)
