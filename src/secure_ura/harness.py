"""Monte Carlo driver: trials, sweeps, CSV output and self-checks.

There is one function per level: `run_sweep` for a (Ka, split) grid,
`run_trial` for a batch of trials and `zeta_means` for the bound.  A run
(`run_point`) is the one-point sweep, at the config's own Ka and split.

Per-trial randomness comes from streams keyed by (seed, label, trial), so
any trial can be reproduced in isolation and execution order is irrelevant.
User-indexed draws are interleaved so user 0's channels do not depend on
how many further users a config asks for.  No draw depends on the power
split, a (Pa, Pk) pair that changes only the key segment, so a trial
simulates one frame for all its splits; nor on which trials are simulated
together, so `run_trial` decodes a batch of frames at once and batching
changes no output.

The eavesdropper is modelled only through the analytic leakage bound: no
eavesdropper frame is simulated.  No draw of the bound depends on Ka or on
the link, so `zeta_means` averages it apart from the frames, once per run,
sweep grid or leakage report: the one path by which the reported bound is
bit-identical across user counts and equal to the `leakage` command's.
"""

import csv
import errno
import os
from contextlib import contextmanager
from dataclasses import astuple, dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from .channel import feedback_observation, uplink
from .config import ConfigError, SystemConfig
from .crypto import encrypt, expand_key
from .keys import standardize
from .leakage import leakage_eigen, leakage_logdet, leakage_report
from .params import PublicParams, generate_public_params
from .pilots import fft_len
from .receiver import BP_ITERS, LIST_SIZE, decode_frame
from .rng import complex_normal, random_bits, stream
from .transmitter import transmit

LEAKAGE_CSV_HEADER = ["ratio", "pa", "pk", "zeta_lower_mean"]
#: the users (decoder words per pass) and the bytes of received pilot+polar
#: blocks a run_trial batch holds at most, unless one frame exceeds them
#: (frames_per_batch)
BATCH_WORDS = 100
BATCH_BLOCK_BYTES = 9 << 20             # 9 MiB


class TrialError(RuntimeError):
    """A module error that occurred inside a specific trial."""


@dataclass
class TrialReport:
    trial_id: int
    n_detected: int
    n_err: int
    pupe: float


class SentFrame(NamedTuple):
    """One trial's frame as sent and received: the users' (Ka, B) messages,
    their ciphertexts C (Ka, B) and keys S (Ka, S), the received (M, np + nc)
    pilot+polar block y and, per split, the (M, ns - S) key segment y_k."""
    messages: np.ndarray
    C: np.ndarray
    S: np.ndarray
    y: np.ndarray
    y_k: list[np.ndarray]


@dataclass(frozen=True)
class SweepResult:
    ka: int
    ratio: float
    pa: float
    pk: float
    trials: int
    pupe_mean: float
    pupe_stderr: float
    zeta_lower_mean: float
    seed: int


CSV_HEADER = [f.name for f in fields(SweepResult)]


@contextmanager
def _stage(trial_ids: list[int], name: str):
    """Run a stage of a trial: any error it raises is re-raised as
    TrialError("trial <ids>: <name>: <cause>").  The one place a failing
    stage is named."""
    try:
        yield
    except Exception as exc:
        raise TrialError(f"trial {', '.join(map(str, trial_ids))}: {name}: {exc}") from exc


def _send_frame(cfg: SystemConfig, splits, trial_id: int, params: PublicParams):
    """A trial's SentFrame, sent at every (Pa, Pk) pair of splits."""
    with _stage([trial_id], "transmit"):
        h = complex_normal(stream(cfg.seed, "bs-channel", trial_id), (cfg.Ka, cfg.M))
        messages = random_bits(stream(cfg.seed, "messages", trial_id), (cfg.Ka, cfg.B))
        Y = feedback_observation(h, params.V, cfg.sigma_u2,
                                 stream(cfg.seed, "feedback-noise", trial_id))
        X, X_k, C, S = transmit(messages, Y, cfg, splits, params)
    with _stage([trial_id], "uplink"):
        y, y_k = uplink(X, X_k, h.T, cfg.sigma_c2, stream(cfg.seed, "bs-noise", trial_id))
    return SentFrame(messages, C, S, y, y_k)


def run_trial(cfg: SystemConfig, splits, trial_ids: list[int],
              params: PublicParams) -> list[list[TrialReport]]:
    """Simulate a batch of complete frames, one per trial id: feedback,
    uplink, receiver.  The equivocation bound is evaluated apart from the
    link, by zeta_means.

    splits holds the (Pa, Pk) pairs each frame is sent at, in place of
    cfg's own; only the key segment is built per split.  Each frame is sent
    alone and the receiver decodes the batch at once.  Returns per trial one
    TrialReport per split, each the one the trial gives alone.

    A failing trial raises TrialError naming the trial and the stage
    (_stage).  When a batch fails, run_trial runs each of its trials alone:
    every draw is keyed by its trial, so the rerun is exact, and the first
    trial that fails alone is named, as in a run of one trial at a time.
    If none does, the batch's own error is raised, naming all its trials:
    "trial 4, 5: receiver: <cause>".
    """
    try:
        sent = [_send_frame(cfg, splits, t, params) for t in trial_ids]
        with _stage(trial_ids, "receiver"):
            decoded = decode_frame([s.y for s in sent], [s.y_k for s in sent],
                                   cfg, splits, params)
    except TrialError:
        if len(trial_ids) > 1:
            for t in trial_ids:
                run_trial(cfg, splits, [t], params)
        raise

    reports = []
    for trial_id, s, frame in zip(trial_ids, sent, decoded):
        n_errs = []
        for d in frame:
            recovered = {w.tobytes() for w in d.W_hat[d.valid]}
            n_errs.append(sum(1 for m in s.messages if m.tobytes() not in recovered))
        n_detected = len(frame[0].C_hat)     # the same at every split
        reports.append([TrialReport(trial_id=trial_id, n_detected=n_detected, n_err=n_err,
                                    pupe=n_err / cfg.Ka) for n_err in n_errs])
    return reports


def split_power_budget(budget: float, ratio: float) -> tuple[float, float]:
    """Split the key-segment budget into (Pa, Pk) with Pa/Pk = ratio.

    ratio = inf puts the whole budget on the mask: (budget, 0.0).  A ratio
    that is not >= 0, NaN included, or so large that its Pa overflows past
    the budget, is a ConfigError naming the ratio.
    """
    if not ratio >= 0:
        raise ConfigError(f"ratio: must be >= 0, got {ratio}")
    pa = budget if ratio == np.inf else budget * ratio / (1.0 + ratio)
    if not pa <= budget:
        raise ConfigError(f"ratio: too large to split the key budget {budget}, got {ratio}")
    return pa, budget - pa


def power_splits(cfg: SystemConfig, ratios) -> list[tuple[float, float, float]]:
    """(ratio, Pa, Pk) of every split of cfg's key-segment budget.

    Each ratio is split by split_power_budget.  ratios None is cfg's own
    split, exactly its Pa and Pk, with ratio Pa/Pk (inf when Pk is zero).
    An empty list is a ConfigError.
    """
    if ratios is None:
        return [(cfg.Pa / cfg.Pk if cfg.Pk > 0 else float("inf"), cfg.Pa, cfg.Pk)]
    if not ratios:
        raise ConfigError("ratio: at least one ratio is needed, got none")
    return [(ratio, *split_power_budget(cfg.key_budget, ratio)) for ratio in ratios]


def frames_per_batch(cfg: SystemConfig) -> int:
    """Frames per run_trial batch: as many as hold at most BATCH_WORDS users
    and BATCH_BLOCK_BYTES of received pilot+polar blocks, and at least one.

    The decoders' cost is mostly per call up to about BATCH_WORDS words, Ka
    per frame.  A frame held costs its M x (np + nc) block of 16-byte
    complex entries and the receiver state that scales with it.

    At the full-scale M = 50 (569,600 bytes a block) that is 16, 4 and 1
    frames at Ka = 1, 25 and 100; at M = 16, 51, 10 and 4 frames at Ka = 1,
    10 and 25.
    """
    block_bytes = cfg.M * (cfg.np + cfg.nc) * 16
    return max(1, min(BATCH_WORDS // cfg.Ka, BATCH_BLOCK_BYTES // block_bytes))


def zeta_means(cfg: SystemConfig, splits, params: PublicParams) -> list[float]:
    """Mean first-user equivocation lower bound over cfg.trials trials, at
    each (ratio, Pa, Pk) split.

    Trial t's eavesdropper channel g is drawn from its `eve-channel`
    stream; a failing bound raises TrialError("trial <t>: leakage: ...").
    """
    zetas = []
    for t in range(cfg.trials):
        with _stage([t], "leakage"):
            g = complex_normal(stream(cfg.seed, "eve-channel", t), (cfg.E,))
            zetas.append([leakage_report(g, params.C2, pk, pa, cfg.sigma_e2, cfg.S)
                          for _, pa, pk in splits])
    return [float(np.mean(z)) for z in zip(*zetas)]


def sweep_grid(cfg: SystemConfig, ka_list, ratio_list) -> tuple[list, list[SystemConfig]]:
    """The (ratio, Pa, Pk) splits of ratio_list (power_splits) and cfg at
    each user count of ka_list.  Every point is built, and so validated,
    here, so an invalid entry anywhere in the grid is reported before any
    work is done; an empty ka_list is a ConfigError."""
    splits = power_splits(cfg, ratio_list)
    if not ka_list:
        raise ConfigError("ka: at least one user count is needed, got none")
    return splits, [replace(cfg, Ka=ka) for ka in ka_list]


def run_point(cfg: SystemConfig) -> SweepResult:
    """Run cfg.trials trials at cfg's own Ka and split: the one-point sweep."""
    return run_sweep(cfg, [cfg.Ka], None, cfg.trials)[0]


def run_sweep(base_cfg: SystemConfig, ka_list, ratio_list,
              trials: int, progress=None) -> list[SweepResult]:
    """Grid over user counts and Pa/Pk splits of the fixed power budget;
    ratio_list None is the config's own split (power_splits).

    Walked Ka-major: each Ka runs `trials` frames in batches of
    frames_per_batch frames, every frame at every split, and the bound's
    zeta_means serve every Ka.  The grid (sweep_grid) is validated before
    the shared artifacts are built.
    """
    base_cfg = replace(base_cfg, trials=trials)
    splits, cfgs = sweep_grid(base_cfg, ka_list, ratio_list)
    # the shared artifacts do not depend on Ka, Pa or Pk, so one set serves
    # the whole grid
    params = generate_public_params(base_cfg)
    zetas = zeta_means(base_cfg, splits, params)
    pairs, ids = [(pa, pk) for _, pa, pk in splits], range(trials)
    results = []
    for cfg in cfgs:
        batch = frames_per_batch(cfg)
        reports = [r for i in range(0, trials, batch)
                   for r in run_trial(cfg, pairs, list(ids[i:i + batch]), params)]
        for (ratio, pa, pk), zeta, split_reports in zip(splits, zetas, zip(*reports)):
            pupes = np.array([r.pupe for r in split_reports])
            stderr = float(pupes.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
            res = SweepResult(ka=cfg.Ka, ratio=ratio, pa=pa, pk=pk, trials=trials,
                              pupe_mean=float(pupes.mean()), pupe_stderr=stderr,
                              zeta_lower_mean=zeta, seed=cfg.seed)
            results.append(res)
            if progress is not None:
                progress(res)
    return results


def run_leakage(cfg: SystemConfig, ratios) -> list[tuple[float, float, float, float]]:
    """(ratio, Pa, Pk, zeta_lower_mean) rows of the equivocation bound alone.

    The splits are power_splits(cfg, ratios): each ratio splits cfg's
    key-segment budget as in run_sweep, and None is cfg's own split, as in
    run_point.  The means are the zeta_means a run or sweep of cfg.trials
    trials reports, without simulating the link.
    """
    splits = power_splits(cfg, ratios)
    params = generate_public_params(cfg)
    return [(*split, zeta) for split, zeta in zip(splits, zeta_means(cfg, splits, params))]


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _cannot_write(path, exc: OSError) -> OSError:
    return OSError(f"cannot write CSV to {path}: {exc}")


def check_csv_path(path) -> None:
    """Raise the OSError write_csv would, writing nothing, if path is empty or a
    directory or stat of its directory with a trailing "/" fails: a run that
    cannot save fails early."""
    try:
        if not path:
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT))
        os.stat(os.path.join(os.path.dirname(path) or ".", ""))
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
    except OSError as exc:
        raise _cannot_write(path, OSError(exc.errno, exc.strerror, path)) from exc


def write_csv(path, header, rows) -> None:
    """Write a header and rows, floats with 12 significant digits."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows([_fmt(v) for v in row] for row in rows)
    except OSError as exc:
        raise _cannot_write(path, exc) from exc


def emit_csv(results: list[SweepResult], path) -> None:
    """Write sweep results; row order follows the result list (Ka-major)."""
    write_csv(path, CSV_HEADER, (astuple(r) for r in results))


# ---------------------------------------------------------------------------
# Self-test suites (the `selftest` CLI subcommand).  They are the one
# statement of these invariants: tests and acceptance criteria call them.
# ---------------------------------------------------------------------------


def _require(ok, invariant: str) -> None:
    """Raise naming the invariant unless ok; unlike assert, kept under -O."""
    if not ok:
        raise AssertionError(invariant)


def _near(value, target: float, tol: float) -> bool:
    """Every |value - target| < tol * target; exactly zero for a zero target."""
    if target == 0:
        return not np.any(value)
    return bool(np.all(np.abs(value - target) < tol * target))


def _check_params_invariants(cfg: SystemConfig, params: PublicParams) -> None:
    tol = 1e-10
    _require(_near(np.linalg.norm(params.V) ** 2, cfg.Pf * cfg.M * cfg.L, tol),
             "downlink energy ||V||_F^2 != Pf * M * L")
    eye = params.C1.conj().T @ params.C1
    _require(np.max(np.abs(eye - np.eye(cfg.S // 2))) < tol,
             "C1 columns are not orthonormal")
    _require(np.max(np.abs(np.linalg.norm(params.C2, axis=0) - 1.0)) < tol,
             "C2 columns are not unit-norm")
    freqs, n = params.P.freqs, fft_len(cfg.Bp, cfg.np)
    _require(freqs.shape == (cfg.np,) and freqs.dtype.kind == "i"
             and len(np.unique(freqs)) == cfg.np and 0 <= freqs.min() and freqs.max() < n,
             f"pilot frequencies are not np distinct integers in [0, {n})")
    # every row, formed as the transmitter and receiver form it, 256 at a time
    _require(all(_near(np.linalg.norm(params.P[i:i + 256], axis=1) ** 2, cfg.np * cfg.Pp, tol)
                 for i in range(0, len(params.P), 256)),
             "pilot row energy ||p_j||^2 != np * Pp")
    # the artifacts must be a pure function of cfg
    _require(generate_public_params(cfg).digest() == params.digest(),
             "regenerated artifacts differ")


def _check_ldpc(cfg: SystemConfig, params: PublicParams) -> None:
    rng = np.random.default_rng(0)
    s = rng.integers(0, 2, (200, cfg.S), dtype=np.uint8)
    cw = np.concatenate([s, params.ldpc.encode(s)], axis=1)
    _require(not params.ldpc.syndrome(cw).any(), "an LDPC codeword has a nonzero syndrome")
    s_hat, conv = params.ldpc.decode(np.where(cw == 0, 40.0, -40.0), BP_ITERS)
    _require(np.array_equal(s_hat, s) and conv.all(),
             "LDPC decoding of noiseless codewords does not return the keys")


def _check_polar(cfg: SystemConfig, params: PublicParams) -> None:
    rng = np.random.default_rng(1)
    pay = rng.integers(0, 2, (50, params.polar.payload_bits), dtype=np.uint8)
    llr = np.where(params.polar.encode(pay) == 0, 40.0, -40.0)
    # the receiver decodes at list size 1 and retries at LIST_SIZE
    for list_size in (1, LIST_SIZE):
        dec, ok = params.polar.decode(llr, list_size)
        _require(np.array_equal(dec, pay) and ok.all(),
                 f"list-{list_size} decoding of noiseless codewords does not return the payloads")


def _check_crypto(cfg: SystemConfig, params: PublicParams) -> None:
    rng = np.random.default_rng(2)
    w = rng.integers(0, 2, (500, cfg.B), dtype=np.uint8)
    k = rng.integers(0, 2, (500, cfg.B), dtype=np.uint8)
    _require(np.array_equal(encrypt(encrypt(w, k), k), w), "encryption is not an involution")
    s1 = rng.integers(0, 2, cfg.S, dtype=np.uint8)
    s2 = rng.integers(0, 2, cfg.S, dtype=np.uint8)
    _require(np.array_equal(expand_key(s1 ^ s2, params.T),
                            expand_key(s1, params.T) ^ expand_key(s2, params.T)),
             "keystream expansion is not linear over GF(2)")


def _check_standardize(cfg: SystemConfig, params: PublicParams) -> None:
    rng = np.random.default_rng(3)
    d = rng.standard_normal((16, 2, cfg.L))
    y = d[:, 0] + 1j * d[:, 1]
    z = standardize(y)[0]
    _require(np.max(np.abs(standardize(5.0 * y)[0] - z)) < 1e-10,
             "standardize is not scale invariant")
    _require(np.max(np.abs(standardize(z)[0] - z)) < 1e-10,
             "standardize is not idempotent")


def _check_leakage(cfg: SystemConfig, params: PublicParams) -> None:
    rng = np.random.default_rng(4)
    for _ in range(20):
        E, d = rng.integers(1, 5), rng.integers(1, 9)
        g = rng.standard_normal(E) + 1j * rng.standard_normal(E)
        C2 = rng.standard_normal((8, d)) + 1j * rng.standard_normal((8, d))
        C2 /= np.linalg.norm(C2, axis=0, keepdims=True)
        a = leakage_eigen(g, C2, cfg.Pk, cfg.Pa, cfg.sigma_e2)
        b = leakage_logdet(g, C2, cfg.Pk, cfg.Pa, cfg.sigma_e2)
        _require(abs(a - b) < 1e-9 * (1.0 + abs(b)),
                 f"eigen and log-det leakage differ: {a!r} != {b!r}")


def _check_end_to_end(cfg: SystemConfig, params: PublicParams) -> None:
    # a short pilot (enough for one noiseless user) keeps the trial small
    mini = replace(cfg, M=8, E=8, Ka=1, np=min(cfg.np, 16),
                   sigma_c2=1e-10, sigma_u2=1e-10, trials=1)
    pupe = run_point(mini).pupe_mean
    _require(pupe == 0.0, f"noiseless single-user trial has PUPE {pupe:g}, expected 0")


SELFTEST_SUITES = [
    ("public-params invariants", _check_params_invariants),
    ("ldpc round trip", _check_ldpc),
    ("polar round trip", _check_polar),
    ("crypto involution/linearity", _check_crypto),
    ("standardize properties", _check_standardize),
    ("leakage oracle equivalence", _check_leakage),
    ("noiseless end-to-end", _check_end_to_end),
]


def selftest(cfg: SystemConfig, out=print) -> bool:
    """Run every suite, in order, on one set of cfg's public artifacts,
    printing each line as its suite ends; True if all pass.

    A ConfigError from building the artifacts propagates.
    """
    params = generate_public_params(cfg)
    ok = True
    for name, fn in SELFTEST_SUITES:
        try:
            fn(cfg, params)
            out(f"PASS {name}")
        except Exception as exc:
            out(f"FAIL {name}: {exc}")
            ok = False
    return ok
