import math
import re

import pytest

from secure_ura import ConfigError, SystemConfig, load_config
from secure_ura.cli import main
from secure_ura.pilots import (PILOT_GRAM_BLOCK, PILOT_POWER_RANGE, PILOT_WORK_CAP_BYTES,
                               fft_len, work_bytes)


def test_defaults_match_documented_setup():
    cfg = SystemConfig()
    assert (cfg.Pp, cfg.Pc, cfg.Pf) == (0.3, 0.3, 0.6)
    assert (cfg.Pk, cfg.Pa) == (0.15, 0.15)
    assert (cfg.L, cfg.ns, cfg.nc, cfg.np) == (20, 60, 512, 200)
    assert (cfg.B, cfg.Bp, cfg.Br, cfg.S) == (100, 12, 11, 40)
    assert cfg.M == cfg.E == 50
    assert cfg.sigma_c2 == cfg.sigma_e2 == cfg.sigma_u2 == 1.0


def test_empty_file_gives_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    assert load_config(path) == SystemConfig()


def test_no_file_gives_defaults():
    assert load_config(None) == SystemConfig()


def test_file_overrides_and_comments(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# comment\n\nKa = 3\nPp = 0.5  # trailing\nseed=9\n")
    cfg = load_config(path)
    assert cfg.Ka == 3 and cfg.Pp == 0.5 and cfg.seed == 9
    assert cfg.B == 100  # untouched default


def test_byte_order_mark_is_ignored(tmp_path):
    # a UTF-8 file saved with a BOM loads as the same file without it
    text = "M = 8\nE = 8\n"
    plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
    plain.write_bytes(text.encode("utf-8"))
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert load_config(bom) == load_config(plain) != SystemConfig()


def test_seed_env_var_is_ignored(tmp_path, monkeypatch):
    # the seed comes from the file or --seed only
    path = tmp_path / "c.cfg"
    path.write_text("M = 8\nE = 8\nKa = 1\nL = 8\nnp = 32\nnc = 64\nns = 16\n"
                    "B = 30\nBp = 5\nS = 8\nseed = 5\n")
    args = ["sweep", "--config", str(path), "--ka", "1", "--ratio", "1",
            "--trials", "1", "--out"]
    plain, with_env = tmp_path / "plain.csv", tmp_path / "env.csv"
    assert main(args + [str(plain)]) == 0
    monkeypatch.setenv("SECURE_URA_SEED", "77")
    assert load_config(path).seed == 5
    assert main(args + [str(with_env)]) == 0
    assert with_env.read_bytes() == plain.read_bytes()


def test_unknown_key_reports_line(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("Ka = 2\nbogus = 1\n")
    with pytest.raises(ConfigError, match=r":2.*bogus"):
        load_config(path)
    path.write_text("omp_batch = 4\n")  # not a setting: OMP picks up to 2 * Ka atoms
    with pytest.raises(ConfigError, match=r":1: unknown key 'omp_batch'"):
        load_config(path)
    # the polar list size is a receiver constant, and the CLI refuses the key
    # before it writes anything
    path.write_text("M = 8\nE = 8\nlist_size = 8\n")
    with pytest.raises(ConfigError, match=r":3: unknown key 'list_size'"):
        load_config(path)
    out = tmp_path / "knob.csv"
    assert main(["run", "--config", str(path), "--trials", "2", "--out", str(out)]) == 2
    assert not out.exists()


def test_duplicate_key_reports_both_lines(tmp_path):
    # a repeated key is refused rather than silently taking its last value
    path = tmp_path / "c.cfg"
    path.write_text("M = 8\nE = 8\n\nM = 9\n")
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value) == f"{path}:4: duplicate key 'M' (first set on line 1)"


def test_bad_value_reports_line_and_key(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("\nKa = soon\n")
    with pytest.raises(ConfigError, match=r":2.*Ka"):
        load_config(path)


def test_bad_value_messages_name_the_field_kind(tmp_path):
    path = tmp_path / "c.cfg"
    for line, message in [("Ka = 2.5", "Ka expects an integer, got '2.5'"),
                          ("seed = x", "seed expects an integer, got 'x'"),
                          ("Pp = high", "Pp expects a number, got 'high'"),
                          ("sigma_u2 = ", "sigma_u2 expects a number, got ''")]:
        path.write_text(line + "\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value) == f"{path}:1: {message}"


@pytest.mark.parametrize("overrides,message", [
    (dict(Ka=0, Pp=-1.0, sigma_c2=0.0), "Ka: must be a positive integer, got 0"),
    (dict(trials=0, M=-2), "M: must be a positive integer, got -2"),
    (dict(Pf=float("nan"), sigma_e2=0.0), "Pf: must be finite and >= 0, got nan"),
    (dict(Pa=-1.0, Pk=-2.0), "Pk: must be finite and >= 0, got -2.0"),
    (dict(sigma_u2=-1.0, sigma_c2=0.0), "sigma_c2: must be finite and > 0, got 0.0"),
    (dict(Pp=0.0, Pc=-1.0), "Pc: must be finite and >= 0, got -1.0"),
    (dict(Pp=0.0, Pc=0.0, sigma_c2=0.0), "sigma_c2: must be finite and > 0, got 0.0"),
    (dict(Pp=0.0, Pc=0.0, S=41), "Pc: must be > 0 when Pp = 0: with neither pilot "
                                 "nor polar power no user can be detected"),
])
def test_first_error_is_reported(overrides, message):
    # counts first, then powers, then noise variances, each in field order
    with pytest.raises(ConfigError) as err:
        SystemConfig(**overrides)
    assert str(err.value) == message


def test_missing_equals_reports_line(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("Ka 2\n")
    with pytest.raises(ConfigError, match=r":1"):
        load_config(path)


def test_odd_key_length_rejected(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("S = 41\nns = 60\n")
    with pytest.raises(ConfigError, match="S.*even"):
        load_config(path)


def test_short_feedback_rejected(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("L = 10\nS = 40\n")
    with pytest.raises(ConfigError, match="L.*S/2"):
        load_config(path)


@pytest.mark.parametrize("overrides,field", [
    (dict(S=60, ns=60), "S"),             # S < ns
    (dict(Bp=100), "Bp"),                 # Bp < B
    (dict(Bp=31, B=200), "Bp"),           # pilot working-set cap
    (dict(nc=500), "nc"),                 # power of two
    (dict(nc=64), "nc"),                  # payload must fit
    (dict(Pp=-0.1), "Pp"),
    (dict(sigma_c2=0.0), "sigma_c2"),
    (dict(sigma_u2=float("inf")), "sigma_u2"),
    (dict(trials=0), "trials"),
    (dict(Ka=0), "Ka"),
    (dict(seed=-1), "seed"),
    (dict(seed=1 << 64), "seed"),
    (dict(Bp=23), "Bp"),                  # 16 (8 x 2^23 + 200 (400 + 50)) bytes > 1 GiB
    (dict(ns=42), "ns"),                  # ns - S below the LDPC column weight
    (dict(Pp=0.0, Pc=0.0), "Pc"),         # no pilot or polar power: nothing detectable
    (dict(M=10**6), "^M:"),               # the two (np, M) arrays are 6.4 GB
    (dict(np=5763), "^np:"),              # the two (np, np) arrays are over 1 GiB
    (dict(Pp="0.3"), "^Pp:"),             # not a real number
    (dict(sigma_c2=None), "^sigma_c2:"),
    (dict(M=True), "^M:"),                # a bool is not a count
])
def test_constructor_validation(overrides, field):
    with pytest.raises(ConfigError, match=field):
        SystemConfig(**overrides)


def test_derived_quantities():
    cfg = SystemConfig()
    assert cfg.key_parity_len == 20
    assert cfg.polar_info_bits == 99
    assert cfg.key_budget == pytest.approx(0.3)


def test_pilot_codebook_cap():
    cfg = SystemConfig()  # the default 4096-point pilot detection is accepted
    assert fft_len(cfg.Bp, cfg.np) == 4096
    assert work_bytes(cfg.Bp, cfg.np, cfg.M) == 16 * (8 * 4096 + 2 * 200 * (200 + 50)
                                                      + PILOT_GRAM_BLOCK)
    assert work_bytes(cfg.Bp, cfg.np, cfg.M) <= PILOT_WORK_CAP_BYTES
    SystemConfig(Bp=22)  # largest Bp under the cap at np = 200
    with pytest.raises(ConfigError, match="Bp"):
        SystemConfig(Bp=23)
    # the picked rows and the fit's, two (np, np) arrays, cap np at Bp = 12
    SystemConfig(np=5762)
    with pytest.raises(ConfigError, match="Bp"):
        SystemConfig(np=5763)


def test_pilot_power_range():
    # the ends, 2^-256 and 2^256, are accepted, and so is Pp = 0; one ulp
    # past either end is rejected
    lo, hi = PILOT_POWER_RANGE
    assert (lo, hi) == (2.0 ** -256, 2.0 ** 256)
    for Pp in (0.0, lo, hi):
        SystemConfig(Pp=Pp)
    for Pp in (math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)):
        with pytest.raises(ConfigError, match=re.escape(f"Pp: {Pp!r} puts a pilot codebook entry")):
            SystemConfig(Pp=Pp)


@pytest.mark.parametrize("np_,Bp,n", [(200, 12, 4096), (32, 5, 32), (64, 5, 64),
                                      (33, 5, 64), (1, 1, 2), (4000, 5, 4096)])
def test_pilot_fft_len(np_, Bp, n):
    # the smallest power of two that is >= 2^Bp and >= np
    cfg = SystemConfig(np=np_, Bp=Bp)
    assert fft_len(cfg.Bp, cfg.np) == n
