import argparse
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import secure_ura
from secure_ura import harness, load_config, run_leakage, run_sweep
from secure_ura.cli import build_parser, main
from secure_ura.harness import LEAKAGE_CSV_HEADER, write_csv

from helpers import fail_bound_at, fail_receiver_at

MINI = """
M = 8
E = 8
Ka = 2
L = 8
np = 32
nc = 64
ns = 16
B = 30
Bp = 5
Br = 11
S = 8
sigma_c2 = 1e-9
sigma_u2 = 1e-9
trials = 2
seed = 7
"""


@pytest.fixture()
def mini_file(tmp_path):
    path = tmp_path / "mini.cfg"
    path.write_text(MINI)
    return str(path)


def test_run_subcommand(mini_file, tmp_path, capsys):
    out = tmp_path / "run.csv"
    assert main(["run", "--config", mini_file, "--out", str(out)]) == 0
    assert "pupe=" in capsys.readouterr().out
    assert out.read_text().startswith("ka,ratio,pa,pk,trials,")


def test_sweep_writes_deterministic_csv(mini_file, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--config", mini_file, "--ka", "1,2", "--ratio", "1,3",
            "--trials", "2"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert len(out1.read_text().splitlines()) == 5  # header + 4 grid points


def test_seed_flag_changes_output(mini_file, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["sweep", "--config", mini_file, "--ka", "1", "--ratio", "1",
            "--trials", "2"]
    assert main(base + ["--seed", "1", "--out", str(out1)]) == 0
    assert main(base + ["--seed", "2", "--out", str(out2)]) == 0
    assert out1.read_bytes() != out2.read_bytes()


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("S = 41\n")
    assert main(["run", "--config", str(bad)]) == 2


@pytest.mark.parametrize("command", ["run", "selftest"])
def test_undecodable_config_is_config_error(tmp_path, capsys, command):
    # a config that is not UTF-8 exits 2 with one line, not 1 (a selftest
    # failure) with a traceback, and writes no CSV
    bad = tmp_path / "latin1.cfg"
    bad.write_bytes(b"# r\xe9glage\nM = 8\nE = 8\n")
    out = tmp_path / "out.csv"
    argv = [command, "--config", str(bad)] + (["--out", str(out)] if command == "run" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cannot read config file ")
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "leakage", "selftest"])
def test_unbuildable_ldpc_code_is_config_error(tmp_path, capsys, command):
    # ns - S = 6 passes validation, but the (46, 40) construction is rank
    # deficient
    bad = tmp_path / "ns46.cfg"
    bad.write_text("ns = 46\n")
    assert main([command, "--config", str(bad)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("configuration error: ns: ")


def test_zero_pilot_and_polar_power_is_config_error(tmp_path, capsys):
    bad = tmp_path / "silent.cfg"
    bad.write_text("M = 8\nE = 8\nPp = 0\nPc = 0\n")
    assert main(["run", "--config", str(bad)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("configuration error: Pc: must be > 0 when Pp = 0")


@pytest.mark.parametrize("command", ["run", "selftest"])
@pytest.mark.parametrize("Pp", ["1e-80", "1e80"])
def test_unstorable_pilot_codebook_is_config_error(tmp_path, capsys, command, Pp):
    bad = tmp_path / "pp.cfg"
    bad.write_text(f"M = 8\nE = 8\nPp = {Pp}\n")
    assert main([command, "--config", str(bad)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"configuration error: Pp: {float(Pp)} puts a pilot codebook entry")


def test_zero_trials_is_config_error(mini_file, capsys):
    assert main(["run", "--config", mini_file, "--trials", "0"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["configuration error: trials: must be a positive integer, got 0"]


@pytest.mark.parametrize("argv,message", [
    (["sweep", "--ka", "1,0", "--ratio", "1"], "Ka: must be a positive integer, got 0"),
    (["sweep", "--ka", "1", "--ratio", "1,-1"], "ratio: must be >= 0, got -1.0"),
    (["leakage", "--ratio", "1,-1"], "ratio: must be >= 0, got -1.0"),
    (["sweep", "--ka", "1", "--ratio", "nan"], "ratio: must be >= 0, got nan"),
    (["leakage", "--ratio", "1,nan"], "ratio: must be >= 0, got nan"),
], ids=["sweep-ka", "sweep-ratio", "leakage-ratio", "sweep-ratio-nan", "leakage-ratio-nan"])
def test_invalid_grid_entry_is_rejected_before_any_work(mini_file, tmp_path, capsys,
                                                        monkeypatch, argv, message):
    _assert_rejected_before_any_work(argv, mini_file, message, tmp_path, capsys, monkeypatch)


def _assert_rejected_before_any_work(argv, config_file, message, tmp_path, capsys,
                                     monkeypatch):
    """argv with config_file exits 2 with one error line naming message,
    builds no public artifacts and writes no CSV."""
    def unreachable(cfg):
        raise AssertionError("public artifacts built for an invalid grid")
    monkeypatch.setattr(harness, "generate_public_params", unreachable)
    out = tmp_path / "x.csv"
    assert main(argv + ["--config", config_file, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"configuration error: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("argv", [["sweep", "--ka", "1", "--ratio", "1,1e308"],
                                  ["leakage", "--ratio", "1,1e308"]],
                         ids=["sweep", "leakage"])
def test_ratio_whose_split_overflows_is_rejected_before_any_work(tmp_path, capsys,
                                                                 monkeypatch, argv):
    # a key budget of 2 times 1e308 overflows: the ratio is named, not the
    # Pk = -inf it would give
    config_file = tmp_path / "budget2.cfg"
    config_file.write_text(MINI + "Pk = 1\nPa = 1\n")
    _assert_rejected_before_any_work(
        argv, str(config_file), "ratio: too large to split the key budget 2.0, got 1e+308",
        tmp_path, capsys, monkeypatch)


@pytest.mark.parametrize("argv,flag", [
    (["sweep", "--ka", ",", "--ratio", "1"], "--ka"),
    (["sweep", "--ka", "1,,2", "--ratio", "1"], "--ka"),
    (["sweep", "--ka", "1", "--ratio", "1,"], "--ratio"),
    (["leakage", "--ratio", ","], "--ratio"),
    (["leakage", "--ratio", ""], "--ratio"),
], ids=["sweep-ka-empty", "sweep-ka-gap", "sweep-ratio-trailing", "leakage-ratio-empty",
        "leakage-ratio-blank"])
def test_empty_grid_entry_exits_2(mini_file, tmp_path, capsys, monkeypatch, argv, flag):
    def unreachable(cfg):
        raise AssertionError("public artifacts built for an empty grid entry")
    monkeypatch.setattr(harness, "generate_public_params", unreachable)
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as err:
        main(argv + ["--config", mini_file, "--out", str(out)])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: empty entry in " in captured.err
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["sweep", "--ka", "x", "--ratio", "1"],
     "--ka: invalid entry 'x' in 'x': expected an integer"),
    (["sweep", "--ka", "1,2.5", "--ratio", "1"],
     "--ka: invalid entry '2.5' in '1,2.5': expected an integer"),
    (["sweep", "--ka", "1", "--ratio", "1,y"],
     "--ratio: invalid entry 'y' in '1,y': expected a number"),
    (["leakage", "--ratio", "one"],
     "--ratio: invalid entry 'one' in 'one': expected a number"),
], ids=["sweep-ka", "sweep-ka-float", "sweep-ratio", "leakage-ratio"])
def test_non_numeric_grid_entry_exits_2(mini_file, tmp_path, capsys, argv, message):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as err:
        main(argv + ["--config", mini_file, "--out", str(out)])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith(f"error: argument {message}")
    assert not out.exists()


def test_io_error_exit_code(mini_file, tmp_path, capsys, monkeypatch):
    # an --out in a missing directory, under a regular file, or naming a
    # directory, exits 3 with write_csv's message before any trial runs, and
    # writes nothing
    def no_trial(*args):
        raise AssertionError("a trial ran")
    monkeypatch.setattr(harness, "run_trial", no_trial)
    (tmp_path / "file").write_text("")
    before = sorted(tmp_path.rglob("*"))
    for out in (tmp_path / "nope" / "out.csv", tmp_path / "file" / "out.csv",
                tmp_path / "file" / "sub" / "out.csv", tmp_path):
        with pytest.raises(OSError) as late:
            write_csv(out, ["x"], [])
        for argv in (["run"], ["sweep", "--ka", "1,5", "--ratio", "1"],
                     ["leakage", "--ratio", "1,3"]):
            code = main(argv + ["--config", mini_file, "--trials", "10", "--out", str(out)])
            assert code == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [f"I/O error: {late.value}"]
    assert sorted(tmp_path.rglob("*")) == before


def test_empty_sweep_out_is_rejected_before_any_work(mini_file, tmp_path, capsys,
                                                     monkeypatch):
    # sweep requires a CSV, so an empty --out exits 3 with write_csv's
    # message before any artifact is built; to run and leakage it means no CSV
    with pytest.raises(OSError) as late:
        write_csv("", ["x"], [])

    def unreachable(cfg):
        raise AssertionError("public artifacts built for an unwritable --out")
    monkeypatch.setattr(harness, "generate_public_params", unreachable)
    argv = ["sweep", "--config", mini_file, "--ka", "1", "--ratio", "1", "--trials", "2"]
    assert main(argv + ["--out", ""]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"I/O error: {late.value}"]
    monkeypatch.undo()
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.iterdir())
    for argv in (["run"], ["leakage", "--ratio", "1,3"]):
        assert main(argv + ["--config", mini_file, "--trials", "2", "--out", ""]) == 0
        assert capsys.readouterr().err == ""
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("argv,message", [
    (["sweep", "--ka", "1,0", "--ratio", "1"], "configuration error: Ka: "),
    (["sweep", "--ka", "1", "--ratio", "1,-1"], "configuration error: ratio: "),
    (["leakage", "--ratio", "-1"], "configuration error: ratio: "),
    (["run", "--trials", "0"], "configuration error: trials: "),
    (["run", "--config", "no-such.cfg"], "configuration error: cannot read config file "),
], ids=["sweep-ka", "sweep-ratio", "leakage-ratio", "run-trials", "run-config"])
def test_config_error_before_io_error(mini_file, tmp_path, capsys, argv, message):
    # a run refused for its configuration and for its --out reports the
    # configuration (exit 2); a later --config replaces mini_file
    code = main(argv[:1] + ["--config", mini_file] + argv[1:]
                + ["--out", str(tmp_path / "nope" / "x.csv")])
    assert code == 2
    assert capsys.readouterr().err.startswith(message)


def test_trial_error_exit_code(tmp_path, capsys):
    # no downlink power and no feedback noise: the feedback estimate has
    # (numerically) zero variance and the key stage raises inside trial 0
    bad = tmp_path / "degenerate.cfg"
    bad.write_text("M = 8\nE = 8\nPf = 0\nsigma_u2 = 1e-40\ntrials = 1\n")
    assert main(["run", "--config", str(bad)]) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("trial error: trial 0: transmit: user 0: sample variance ")


def test_batch_failure_prints_one_line(mini_file, tmp_path, capsys, monkeypatch):
    # the receiver fails on trial 2's frame alone, inside a batch of all four
    # frames: the run exits 4 with the one line trial 2 gives alone, and
    # writes no CSV
    cfg = replace(load_config(mini_file), trials=4)
    assert harness.frames_per_batch(cfg) >= cfg.trials
    bad, _ = fail_receiver_at(monkeypatch, cfg, 2)
    out = tmp_path / "run.csv"
    assert main(["run", "--config", mini_file, "--trials", "4", "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == \
        ["trial error: trial 2: receiver: non-positive MMSE error term"]
    assert len(bad) == 2 and not out.exists()


def test_leakage_trial_error_exit_code(mini_file, capsys, monkeypatch):
    # a bound that fails at trial 5 exits 4 naming the trial and the stage
    fail_bound_at(monkeypatch, load_config(mini_file), 5)
    assert main(["leakage", "--config", mini_file, "--trials", "6"]) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["trial error: trial 5: leakage: injected fault"]


def test_unknown_flag_exits_with_usage(capsys):
    with pytest.raises(SystemExit) as err:
        main(["run", "--no-such-flag"])
    assert err.value.code == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_missing_subcommand_exits(capsys):
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_selftest_subcommand(tmp_path, capsys):
    cfg = tmp_path / "st.cfg"
    cfg.write_text(MINI.replace("1e-9", "0.01"))
    assert main(["selftest", "--config", str(cfg)]) == 0
    assert "PASS" in capsys.readouterr().out


def _package_env() -> dict:
    """The environment with this package's source tree first on PYTHONPATH."""
    src = str(Path(secure_ura.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_selftest_fails_under_optimized_python(tmp_path):
    # the suites check without assert statements, so python -O still runs
    # them; zero pilot power leaves the noiseless trial undetected
    cfg = tmp_path / "pp0.cfg"
    cfg.write_text("M = 8\nE = 8\nPp = 0\n")
    proc = subprocess.run([sys.executable, "-O", "-m", "secure_ura.cli", "selftest",
                           "--config", str(cfg)], capture_output=True, text=True,
                          env=_package_env(), timeout=300)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    fails = [l for l in proc.stdout.splitlines() if l.startswith("FAIL")]
    assert len(fails) == 1
    assert re.fullmatch(r"FAIL noiseless end-to-end: \S.*", fails[0])


def test_runs_without_scipy(tmp_path):
    # numpy is the only runtime dependency: selftest and run work in an
    # interpreter where importing scipy fails
    cfg = tmp_path / "m8.cfg"
    cfg.write_text("M = 8\nE = 8\n")
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "from secure_ura.cli import main\n"
            f"codes = [main(['selftest', '--config', {str(cfg)!r}]),\n"
            f"         main(['run', '--config', {str(cfg)!r}, '--trials', '2'])]\n"
            "print(codes)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_package_env(), timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0]", proc.stdout + proc.stderr


def test_leakage_subcommand(mini_file, tmp_path, capsys):
    out = tmp_path / "leak.csv"
    code = main(["leakage", "--config", mini_file, "--ratio", "1,3,7",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "ratio,pa,pk,zeta_lower_mean"
    assert len(lines) == 4
    zetas = [float(l.split(",")[3]) for l in lines[1:]]
    assert zetas == sorted(zetas)  # masking share raises the bound


def test_leakage_matches_sweep_equivocation(mini_file, tmp_path):
    # the leakage command averages the same first-user bounds as a sweep
    cfg = load_config(mini_file)
    rows = run_leakage(cfg, [1.0, 3.0])
    sweep = run_sweep(cfg, [cfg.Ka], [1.0, 3.0], cfg.trials)
    assert [r[3] for r in rows] == [s.zeta_lower_mean for s in sweep]  # bit for bit
    out, ref = tmp_path / "leak.csv", tmp_path / "ref.csv"
    assert main(["leakage", "--config", mini_file, "--ratio", "1,3",
                 "--out", str(out)]) == 0
    write_csv(ref, LEAKAGE_CSV_HEADER, rows)
    assert out.read_bytes() == ref.read_bytes()


def test_readme_synopsis_matches_parser():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    documented, command = {}, None
    for line in block.splitlines():
        if line.startswith("secure-ura "):
            command = line.split()[1]
        documented.setdefault(command, set()).update(re.findall(r"--[a-z-]+", line))
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    parsed = {name: {s for a in p._actions for s in a.option_strings
                     if s.startswith("--")} - {"--help"}
              for name, p in subparsers.choices.items()}
    assert documented == parsed
