"""Tests of the benchmark's own code: the wrappers, the span arithmetic, the
host-speed reference and a tiny run of every workload.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

from hostref import NOMINAL_S, HostReference
from tracer import (ROOT, Span, Tracer, TraceError, check_reached, check_spans,
                    layer_metrics, layer_targets, self_times)
from workloads import WORKLOADS, import_program

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
su = import_program()


def _originals(targets):
    return [vars(owner)[attr] for owner, attr, _, _ in targets]


def test_wrappers_install_and_restore_the_originals():
    targets = layer_targets()
    before = _originals(targets)
    with Tracer(targets):
        during = _originals(targets)
        assert all(d is not b and d.__wrapped__ is b for b, d in zip(before, during))
    assert all(a is b for a, b in zip(_originals(targets), before))


def test_missing_entry_point_fails_and_leaves_nothing_installed():
    mod = types.ModuleType("fake")
    mod.present = lambda: 1
    original = mod.present
    tracer = Tracer([(mod, "present", "fake.present", None),
                     (mod, "absent", "fake.absent", None)])
    with pytest.raises(TraceError, match="fake.absent"):
        tracer.install()
    assert mod.present is original


def test_entry_point_never_called_fails():
    mod = types.ModuleType("fake")
    mod.f = lambda: 1
    mod.g = lambda: 2
    targets = [(mod, "f", "fake.f", None), (mod, "g", "fake.g", None)]
    with Tracer(targets) as tracer:
        mod.f()
    with pytest.raises(TraceError, match="fake.g"):
        check_reached(tracer.spans, targets)


def test_wrapped_calls_nest_by_trial_and_take_counts():
    ticks = iter(range(100))
    mod = types.ModuleType("fake")
    mod.detect = lambda: [1, 2, 3]
    mod.run_trial = lambda: (mod.detect(), mod.detect())
    targets = [(mod, "run_trial", ROOT, None),
               (mod, "detect", "receiver.omp_detect", lambda ret: {"atoms": len(ret)})]
    with Tracer(targets, clock=lambda: float(next(ticks))) as tracer:
        mod.run_trial()
        mod.run_trial()
    names = [(s.name, s.trial, s.parent) for s in tracer.spans]
    assert names == [(ROOT, 0, None), ("receiver.omp_detect", 0, 0),
                     ("receiver.omp_detect", 0, 0), (ROOT, 1, None),
                     ("receiver.omp_detect", 1, 3), ("receiver.omp_detect", 1, 3)]
    assert tracer.spans[1].counts == {"atoms": 3}
    check_spans(tracer.spans)


def _tree():
    """run_trial [0, 10] with children A [1, 4] (holding A1 [2, 3]) and B [5, 9]."""
    return [Span(0, ROOT, None, 0, 0.0, 10.0),
            Span(1, "A", 0, 0, 1.0, 4.0),
            Span(2, "A1", 1, 0, 2.0, 3.0),
            Span(3, "B", 0, 0, 5.0, 9.0),
            Span(4, "setup", None, None, 20.0, 21.5)]


def test_self_time_is_duration_minus_children():
    assert self_times(_tree()) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0, 4: 1.5}
    check_spans(_tree())


@pytest.mark.parametrize("broken, message", [
    (Span(3, "B", 0, 0, 5.0, 11.0), "outside its parent"),
    (Span(3, "B", 0, 0, 3.5, 9.0), "overlaps a sibling"),
    (Span(3, "B", 0, 1, 5.0, 9.0), "in trial 1"),
])
def test_check_spans_rejects_a_misnested_tree(broken, message):
    spans = _tree()
    spans[3] = broken
    with pytest.raises(TraceError, match=message):
        check_spans(spans)


def test_layer_metrics_on_a_synthetic_trace():
    spans = [Span(0, "params.generate_public_params", None, None, 0.0, 0.1)]
    for t in range(2):
        base = 1.0 + t
        root = len(spans)
        spans += [Span(root, ROOT, None, t, base, base + 0.5),
                  Span(root + 1, "receiver.omp_detect", root, t, base + 0.1, base + 0.2,
                       {"atoms": 4}),
                  Span(root + 2, "polar.decode", root, t, base + 0.2, base + 0.3,
                       {"words": 4, "crc_pass": 1}),
                  Span(root + 3, "ldpc.decode", root, t, base + 0.3, base + 0.4,
                       {"words": 1, "converged": t})]
    m = {k: v for k, (v, _) in layer_metrics(spans).items()}
    assert m["receiver.omp_detect.calls_per_trial"] == 1.0
    assert m["receiver.omp_detect.atoms_per_call"] == 4.0
    assert m["receiver.omp_detect.ms_per_atom"] == pytest.approx(25.0)
    assert m["polar.decode.crc_pass_ratio"] == 0.25
    assert m["polar.decode.us_per_codeword"] == pytest.approx(25_000.0)
    assert m["ldpc.decode.converged_ratio"] == 0.5
    assert m["harness.run_trial.self_ms_per_trial"] == pytest.approx(200.0)
    assert m["harness.run_trial.samples"] == 2.0
    assert m["params.generate_public_params.ms"] == pytest.approx(100.0)
    assert m["receiver.omp_detect.share"] == pytest.approx(0.2)


def test_traced_run_reaches_every_layer_and_matches_untraced():
    workload = WORKLOADS["m16-grid"]
    plain = workload.run(su, 5, 1)
    targets = layer_targets()
    with Tracer(targets) as tracer:
        traced = workload.run(su, 5, 1)
    assert traced == plain
    check_reached(tracer.spans, targets)
    check_spans(tracer.spans)


def test_host_reference_times_slices_per_interval_and_restores():
    now = [0.0]
    mod = types.ModuleType("fake")

    def trial(x):
        now[0] += 0.3 if x < 4 else 1.1
        return 2 * x

    mod.run_trial = trial
    slices = {"python": lambda: 2 * NOMINAL_S["python"], "blas": lambda: NOMINAL_S["blas"]}
    ref = HostReference(mod, "run_trial", slices, interval_s=0.5, clock=lambda: now[0])
    with ref:
        assert mod.run_trial.__wrapped__ is trial
        assert [mod.run_trial(i) for i in range(5)] == [0, 2, 4, 6, 8]
    assert mod.run_trial is trial
    # a round on entry, one after the 2nd and the 4th trial (0.6 s each),
    # and two after the 5th (1.1 s)
    assert ref.rounds == 5
    assert ref.times["python"] == [2 * NOMINAL_S["python"]] * 5
    # python slices at twice their nominal time, blas at nominal: speed 2/3
    slice_s = 5 * (2 * NOMINAL_S["python"] + NOMINAL_S["blas"])
    assert ref.nominal_seconds(12.0 + slice_s) == pytest.approx(8.0)


def test_host_reference_leaves_the_rows_unchanged():
    import run
    workload = WORKLOADS["m16-grid"]
    rows, elapsed, nominal_s, ref = run.e2e_run(workload, su, 5, 1)
    assert rows == workload.run(su, 5, 1)
    assert ref.rounds >= 1 and 0.0 < nominal_s


def _run(script: Path, workload: str, trace: int):
    return subprocess.run([sys.executable, str(script), "--workload", workload,
                           "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_reports_every_declared_metric(workload, trace):
    t0 = time.perf_counter()
    done = _run(HERE / "run.py", workload, trace)
    assert done.returncode == 0, done.stderr
    assert time.perf_counter() - t0 < 60
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}


def test_exits_nonzero_without_the_program(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, copy)
    done = _run(copy / "run.py", "full-ka1", 0)
    assert done.returncode == 2
    assert done.stdout == ""


@pytest.mark.parametrize("outcome, failed", [("raise", 1), ("wrong rows", 0)])
def test_failures_print_an_incorrect_result_and_exit_1(monkeypatch, capsys,
                                                        outcome, failed):
    import run
    from workloads import Workload

    def broken(self, su, seed, trials):
        if outcome == "raise":
            raise su.TrialError("trial 0: injected")
        return []

    monkeypatch.setattr(Workload, "run", broken)
    code = run.main(["--workload", "full-ka1", "--seed", "1", "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == failed
    assert result["metrics"] == {}
