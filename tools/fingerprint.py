"""Behaviour fingerprint of secure_ura: one JSON object of SHA-256 hashes.

A change that claims to preserve behaviour must leave every field unchanged;
a behaviour change lists the fields it moves.

    python tools/fingerprint.py                  print the fingerprint
    python tools/fingerprint.py --compare FILE   print it, list the fields that
                                                 differ from FILE (a saved run)
                                                 and exit 3 if any does

Any other failure (a traceback, a subcommand that exits non-zero) exits 1,
so a caller can treat differing fields alone as informational.

Fields:
  golden_m16, golden_full   the sweep CSVs of `secure-ura sweep --trials 20
                            --ka 1,10,25 --ratio 1,3,7 --seed 2024` at M = E = 16
                            and of `--ka 1,25 --ratio 1,7` with the same trials
                            and seed at the defaults (M = E = 50)
  leakage_default,          the CSVs of `secure-ura leakage --ratio 0.5,1,3,7
  leakage_m16               --trials 300` at the defaults and of `--seed 9
                            --trials 100` at M = E = 16
  digest_default,           PublicParams.digest() of the defaults, of M = E = 16
  digest_m16_seed2024,      at seed 2024 and of the tests' mini config (MINI_CFG)
  digest_mini
  decode_frame              one hash over the DecodedSplits decode_frame
                            returns and the TrialReports (update_decoded,
                            update_reports) for DECODE_SET, each frame run and
                            decoded once; it reads a fixed set of fields by
                            name, so a field added to either record moves no
                            hash

The hashes are tied to the numpy/BLAS build; run with OPENBLAS_NUM_THREADS=1.
The program is imported from this checkout's src/.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from secure_ura import (SystemConfig, generate_public_params, harness,  # noqa: E402
                        run_trial, split_power_budget)
from secure_ura.cli import main as cli_main  # noqa: E402

#: the tests' mini config, which tests/helpers.make_mini_cfg(**overrides) varies
MINI_CFG = SystemConfig(M=8, E=8, Ka=2, L=8, np=32, nc=64, ns=16, B=30, Bp=5, Br=11,
                        S=8, sigma_c2=1e-9, sigma_u2=1e-9, trials=3, seed=7)

#: (config, trial ids) of the decode_frame hash; every config is sent at
#: DECODE_RATIOS
DECODE_SET = (
    [(SystemConfig(Ka=ka, seed=5), range(3)) for ka in (1, 10, 25)]
    + [(SystemConfig(M=16, E=16, Ka=ka, seed=5), range(3)) for ka in (1, 10, 25)]
    + [(SystemConfig(Ka=100, seed=5), range(2))])
DECODE_RATIOS = [1.0, 3.0, 7.0, float("inf")]


def update_decoded(h, splits) -> None:
    """Feed one frame's DecodedSplits to the hash h: the shape, dtype and
    bytes of C_hat, S_hat, W_hat, converged and valid, in that order."""
    for d in splits:
        for a in (d.C_hat, d.S_hat, d.W_hat, d.converged, d.valid):
            h.update(f"{a.shape} {a.dtype}".encode())
            h.update(np.ascontiguousarray(a).tobytes())


def update_reports(h, reports) -> None:
    """Feed a trial's TrialReports, one per split, to the hash h: the repr
    of (trial_id, n_detected, n_err, pupe)."""
    for r in reports:
        h.update(repr((r.trial_id, r.n_detected, r.n_err, r.pupe)).encode())


def decode_hash() -> str:
    """Run each trial of DECODE_SET alone through run_trial, keeping the
    decode_frame outputs it computes on the way to its TrialReports."""
    h = hashlib.sha256()
    decoded, decode = [], harness.decode_frame

    def keep(*args):
        decoded.append(decode(*args))
        return decoded[-1]

    with mock.patch.object(harness, "decode_frame", keep):
        for cfg, trials in DECODE_SET:
            splits = [split_power_budget(cfg.key_budget, r) for r in DECODE_RATIOS]
            params = generate_public_params(cfg)
            for t in trials:
                reports = run_trial(cfg, splits, [t], params)
                update_decoded(h, decoded.pop()[0])
                update_reports(h, reports[0])
    return h.hexdigest()


def cli_csv_hash(workdir: Path, config: str, args: list[str]) -> str:
    """SHA-256 of the CSV a secure-ura subcommand writes with a config file
    holding `config`; its printed lines are discarded."""
    cfg_file, out = workdir / "fp.cfg", workdir / "fp.csv"
    cfg_file.write_text(config)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main([*args, "--config", str(cfg_file), "--out", str(out)])
    if code:
        raise RuntimeError(f"secure-ura {' '.join(args)} exited {code}")
    return hashlib.sha256(out.read_bytes()).hexdigest()


def fingerprint() -> dict[str, str]:
    m16 = "M = 16\nE = 16\n"
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sweep = ["sweep", "--trials", "20", "--seed", "2024"]
        fields = {
            "golden_m16": cli_csv_hash(tmp, m16, [*sweep, "--ka", "1,10,25",
                                                  "--ratio", "1,3,7"]),
            "golden_full": cli_csv_hash(tmp, "", [*sweep, "--ka", "1,25", "--ratio", "1,7"]),
            "leakage_default": cli_csv_hash(tmp, "", ["leakage", "--ratio", "0.5,1,3,7",
                                                      "--trials", "300"]),
            "leakage_m16": cli_csv_hash(tmp, m16, ["leakage", "--seed", "9",
                                                   "--trials", "100"]),
        }
    for name, cfg in [("digest_default", SystemConfig()),
                      ("digest_m16_seed2024", SystemConfig(M=16, E=16, seed=2024)),
                      ("digest_mini", MINI_CFG)]:
        fields[name] = generate_public_params(cfg).digest()
    fields["decode_frame"] = decode_hash()
    return fields


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", metavar="FILE",
                        help="a saved fingerprint to list the differing fields against")
    args = parser.parse_args(argv)
    saved = json.loads(Path(args.compare).read_text()) if args.compare else None
    now = fingerprint()
    print(json.dumps(now, indent=2))
    if saved is None:
        return 0
    differ = [k for k in sorted(saved.keys() | now.keys()) if saved.get(k) != now.get(k)]
    for k in differ:
        print(f"differs: {k}: saved {saved.get(k)}, now {now.get(k)}")
    if not differ:
        print(f"all {len(now)} fields match {args.compare}")
    return 3 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
