"""Outside-in span tracer for the secure_ura layers.

The tracer replaces the public functions of each layer at the place their
callers look them up (a module global or a class attribute) with a wrapper
that records one span per call: name, start, end, parent span and the trial
it belongs to.  Counts are taken from return values at the same boundary.
Spans stay in memory until the run ends; `layer_metrics` turns them into
per-trial figures.  Nothing inside the program is changed, and `restore`
puts every original function back.
"""

import functools
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

ROOT = "harness.run_trial"


class TraceError(RuntimeError):
    """The trace cannot be trusted: a hook is missing, unused or misnested."""


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    trial: int | None          # sequence number of the enclosing run_trial call
    start: float
    end: float = float("nan")
    counts: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


def _omp_counts(ret) -> dict:
    return {"atoms": len(ret)}


def _flag_counts(key: str):
    """Counts from a decoder that returns (bits, per-word success flags)."""
    def counts(ret) -> dict:
        flags = np.atleast_1d(ret[1])
        return {"words": int(flags.size), key: int(flags.sum())}
    return counts


def layer_targets() -> list[tuple]:
    """(owner, attribute, span name, counter) for every traced entry point."""
    from secure_ura import harness, ldpc, polar, receiver
    return [
        (harness, "run_trial", ROOT, None),
        (harness, "generate_public_params", "params.generate_public_params", None),
        (harness, "transmit", "transmitter.transmit", None),
        (harness, "uplink", "channel.uplink", None),
        (harness, "decode_frame", "receiver.decode_frame", None),
        (harness, "leakage_report", "leakage.leakage_report", None),
        (receiver, "iterative_decode", "receiver.iterative_decode", None),
        (receiver, "omp_detect", "receiver.omp_detect", _omp_counts),
        (receiver, "mmse_polar_llr", "receiver.mmse_polar_llr", None),
        (receiver, "llr_parity", "receiver.llr_parity", None),
        (receiver, "decode_keys_and_decrypt", "receiver.decode_keys_and_decrypt", None),
        (polar.PolarCode, "decode", "polar.decode", _flag_counts("crc_pass")),
        (polar.PolarCode, "encode", "polar.encode", None),
        (ldpc.LdpcCode, "decode", "ldpc.decode", _flag_counts("converged")),
    ]


class Tracer:
    """Context manager that installs the wrappers and restores the originals."""

    def __init__(self, targets, clock=time.perf_counter):
        self.targets = targets
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._trials = 0
        self._saved: list[tuple] = []

    def install(self) -> None:
        for owner, attr, name, counter in self.targets:
            try:
                original = vars(owner)[attr]
            except KeyError:
                self.restore()
                raise TraceError(f"cannot trace {name}: "
                                 f"{owner.__name__}.{attr} does not exist") from None
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _wrap(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            if name == ROOT:
                trial = tracer._trials
                tracer._trials += 1
            else:
                trial = parent.trial if parent else None
            span = Span(len(tracer.spans), name, parent.id if parent else None,
                        trial, tracer.clock())
            tracer.spans.append(span)
            tracer._stack.append(span)
            try:
                ret = fn(*args, **kwargs)
                if counter is not None:
                    span.counts = counter(ret)
                return ret
            finally:
                span.end = tracer.clock()
                tracer._stack.pop()
        return traced


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the durations of its direct children."""
    own = {s.id: s.dur for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.dur
    return own


def check_spans(spans: list[Span], rel_tol: float = 1e-9) -> None:
    """Raise TraceError unless spans nest and self times add up per trial.

    Children must lie inside their parent, must not overlap each other and
    must belong to their parent's trial; the self times of every span in a
    trial must then sum to the duration of that trial's run_trial span.
    """
    by_id = {s.id: s for s in spans}
    last_child_end: dict[int, float] = {}
    for s in sorted(spans, key=lambda s: s.start):
        if not s.end >= s.start:
            raise TraceError(f"span {s.id} ({s.name}) never ended")
        if s.parent is None:
            continue
        p = by_id[s.parent]
        if not (p.start <= s.start and s.end <= p.end):
            raise TraceError(f"span {s.id} ({s.name}) lies outside its parent {p.name}")
        if s.start < last_child_end.get(p.id, -np.inf):
            raise TraceError(f"span {s.id} ({s.name}) overlaps a sibling under {p.name}")
        if s.trial != p.trial:
            raise TraceError(f"span {s.id} ({s.name}) is in trial {s.trial}, "
                             f"its parent in trial {p.trial}")
        last_child_end[p.id] = s.end

    own = self_times(spans)
    totals: dict[int, float] = {}
    for s in spans:
        if s.trial is not None:
            totals[s.trial] = totals.get(s.trial, 0.0) + own[s.id]
    for root in (s for s in spans if s.name == ROOT):
        total = totals.get(root.trial, 0.0)
        if abs(total - root.dur) > rel_tol * max(root.dur, 1e-6):
            raise TraceError(f"trial {root.trial}: layer self times add up to "
                             f"{total:.9f} s, run_trial span is {root.dur:.9f} s")


def check_reached(spans: list[Span], targets) -> None:
    """Raise TraceError if a traced entry point was never called."""
    seen = {s.name for s in spans}
    missing = [name for _, _, name, _ in targets if name not in seen]
    if missing:
        raise TraceError("traced entry points never called: " + ", ".join(missing))


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer figures from a checked span list, as {name: (value, unit)}."""
    own = self_times(spans)
    roots = [s for s in spans if s.name == ROOT]
    n = len(roots)
    if n == 0:
        raise TraceError("no traced trials")

    def total(name, self_only=False):
        return sum(own[s.id] if self_only else s.dur for s in spans if s.name == name)

    def count(name, key=None):
        return sum(s.counts[key] if key else 1 for s in spans if s.name == name)

    def ratio(num, den):
        if den == 0:
            raise TraceError(f"ratio with an empty base ({num}/0)")
        return num / den

    def per_trial_ms(name, self_only=False):
        return 1e3 * total(name, self_only) / n, "ms"

    omp_calls, atoms = count("receiver.omp_detect"), count("receiver.omp_detect", "atoms")
    codewords = count("polar.decode", "words")
    key_words = count("ldpc.decode", "words")
    durations = sorted(1e3 * s.dur for s in roots)
    shares = self_shares(spans)
    p90 = statistics.quantiles(durations, n=10)[-1] if n > 1 else durations[0]
    params = [s for s in spans if s.name == "params.generate_public_params"]

    return {
        "receiver.omp_detect.ms_per_trial": per_trial_ms("receiver.omp_detect"),
        "receiver.omp_detect.ms_per_atom":
            (1e3 * ratio(total("receiver.omp_detect"), atoms), "ms"),
        "receiver.omp_detect.calls_per_trial": (omp_calls / n, "count"),
        "receiver.omp_detect.atoms_per_call": (ratio(atoms, omp_calls), "count"),
        "receiver.omp_detect.share": (shares["receiver.omp_detect"], "fraction"),
        "polar.decode.ms_per_trial": per_trial_ms("polar.decode"),
        "polar.decode.us_per_codeword": (1e6 * ratio(total("polar.decode"), codewords), "us"),
        "polar.decode.codewords_per_trial": (codewords / n, "count"),
        "polar.decode.crc_pass_ratio":
            (ratio(count("polar.decode", "crc_pass"), codewords), "fraction"),
        "polar.decode.share": (shares["polar.decode"], "fraction"),
        "polar.encode.ms_per_trial": per_trial_ms("polar.encode"),
        "ldpc.decode.ms_per_trial": per_trial_ms("ldpc.decode"),
        "ldpc.decode.words_per_trial": (key_words / n, "count"),
        "ldpc.decode.converged_ratio":
            (ratio(count("ldpc.decode", "converged"), key_words), "fraction"),
        "ldpc.decode.share": (shares["ldpc.decode"], "fraction"),
        "receiver.mmse_polar_llr.ms_per_trial": per_trial_ms("receiver.mmse_polar_llr"),
        "receiver.llr_parity.ms_per_trial": per_trial_ms("receiver.llr_parity"),
        "receiver.iterative_decode.self_ms_per_trial":
            per_trial_ms("receiver.iterative_decode", True),
        "receiver.decode_keys_and_decrypt.self_ms_per_trial":
            per_trial_ms("receiver.decode_keys_and_decrypt", True),
        "transmitter.transmit.ms_per_trial": per_trial_ms("transmitter.transmit"),
        "channel.uplink.ms_per_trial": per_trial_ms("channel.uplink"),
        "leakage.leakage_report.ms_per_trial": per_trial_ms("leakage.leakage_report"),
        "harness.run_trial.self_ms_per_trial": per_trial_ms(ROOT, True),
        "harness.run_trial.ms_p50": (statistics.median(durations), "ms"),
        "harness.run_trial.ms_p90": (p90, "ms"),
        "harness.run_trial.samples": (float(n), "count"),
        "params.generate_public_params.ms":
            (1e3 * ratio(sum(s.dur for s in params), len(params)), "ms"),
    }


def self_shares(spans: list[Span]) -> dict[str, float]:
    """Share of traced trial time spent in each layer's own code."""
    own = self_times(spans)
    trial_s = sum(s.dur for s in spans if s.name == ROOT)
    shares: dict[str, float] = {}
    for s in spans:
        if s.trial is not None:
            shares[s.name] = shares.get(s.name, 0.0) + own[s.id] / trial_s
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))
