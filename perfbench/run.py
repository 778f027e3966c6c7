"""Benchmark of the secure_ura link simulator.

    python3 perfbench/run.py --workload full-ka100 --seed 7 --seconds 30 --trace 0

Both modes pin the process to one core first.  `--trace 0` runs the
self-test gate, times set-up in fresh interpreters and then runs the
workload once with no tracing; it reports the end-to-end metrics, with
times in nominal seconds (hostref.py).  `--trace 1` runs the workload
untraced, traced, traced and untraced again over a quarter of the trials
each, checks that all four give identical rows and that the spans nest, and
reports the per-layer metrics.
Informational lines come first; the last line of standard output is one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`.  Exit
codes: 0 success, 1 correctness or trace failure, 2 no program to benchmark.
See README.md beside this file.
"""

import os

# Pinned before numpy is imported here or in any child interpreter.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from hostref import HostReference, blas_slice, host_speed, python_slice  # noqa: E402
from tracer import (Tracer, TraceError, check_reached, check_spans,  # noqa: E402
                    layer_metrics, layer_targets, self_shares)
from workloads import (GOLDEN_SEED, GOLDEN_SHA256, ROOT, SRC, WORKLOADS,  # noqa: E402
                       ProgramNotFound, check_rows, import_program)

HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5


class GateFailure(RuntimeError):
    """The program's outputs failed a correctness check."""


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def machine_info() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas_name,
            "thread_env": {k: os.environ.get(k) for k in THREAD_ENV}}


def pin_to_one_core() -> int:
    """Keep this process, its BLAS and its set-up children on one core, so
    that the reference slices time the core the trials run on: the two
    vCPUs of the VM the benchmark was written on change speed separately."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def setup_seconds(workload, seed: int) -> list[float]:
    """Import plus generate_public_params, each in a fresh interpreter, in
    nominal seconds (hostref.py)."""
    cfg = json.dumps(dict(workload.config, seed=seed))
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(SRC), cfg],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout))
    return times


def e2e_run(workload, su, seed: int, trials: int):
    """The workload with host-speed reference slices between its trials;
    returns the rows, the elapsed host seconds and the nominal seconds."""
    slices = {"python": python_slice, "blas": blas_slice()}
    with HostReference(su.harness, "run_trial", slices) as ref:
        rows, elapsed = timed_run(workload, su, seed, trials)
    return rows, elapsed, ref.nominal_seconds(elapsed), ref


def timed_run(workload, su, seed: int, trials: int):
    t0 = time.perf_counter()
    rows = workload.run(su, seed, trials)
    elapsed = time.perf_counter() - t0
    problems = check_rows(rows, workload, workload.base_config(su, seed), trials)
    if problems:
        raise GateFailure("; ".join(problems))
    return rows, elapsed


def csv_sha256(su, rows, path: Path) -> str:
    su.emit_csv(rows, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def end_to_end(workload, su, args, trials: int, info: dict) -> dict:
    setups = setup_seconds(workload, args.seed)
    rows, elapsed, nominal_s, ref = e2e_run(workload, su, args.seed, trials)
    attempted = trials * workload.points
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    sha = csv_sha256(su, rows, OUT / f"{workload.name}-seed{args.seed}.csv")
    info.update(elapsed_s=elapsed, nominal_s=nominal_s, reference_rounds=ref.rounds,
                host_speed=host_speed(ref.times),
                host_speed_by_kind={k: host_speed({k: ts}) for k, ts in ref.times.items()},
                host_trials_per_s=attempted / elapsed,
                setup_s_samples=setups, csv_sha256=sha)
    if workload.name == "m16-grid" and args.seed == GOLDEN_SEED and trials == 20:
        info["golden_sha256_match"] = sha == GOLDEN_SHA256
    return {
        "trials_per_s": (attempted / nominal_s, "trials/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "pupe": (statistics.fmean(r.pupe_mean for r in rows), "fraction"),
        "zeta_lower": (statistics.fmean(r.zeta_lower_mean for r in rows), "fraction"),
    }


def per_layer(workload, su, args, trials: int, info: dict) -> dict:
    # untraced, traced, traced, untraced: a linear drift in host speed
    # cancels out of the overhead estimate
    plain, plain_s = timed_run(workload, su, args.seed, trials)
    targets = layer_targets()
    with Tracer(targets) as tracer:
        traced, traced_s = timed_run(workload, su, args.seed, trials)
        again, again_s = timed_run(workload, su, args.seed, trials)
    last, last_s = timed_run(workload, su, args.seed, trials)
    if not traced == again == last == plain:
        raise GateFailure("the untraced and traced runs gave different rows")
    plain_s += last_s
    traced_s += again_s
    spans = tracer.spans
    with open(OUT / f"spans-{workload.name}-seed{args.seed}.jsonl", "w",
              encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps({"id": s.id, "name": s.name, "parent": s.parent,
                                 "trial": s.trial, "start": s.start, "end": s.end,
                                 "counts": s.counts}) + "\n")
    check_reached(spans, targets)
    check_spans(spans)

    metrics = layer_metrics(spans)
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "fraction")
    info.update(untraced_s=plain_s, traced_s=traced_s, spans=len(spans),
                layer_self_share=self_shares(spans))
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        su = import_program()
    except ProgramNotFound as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    if not su.selftest(workload.base_config(su, args.seed),
                       out=lambda line: print(f"selftest: {line}")):
        print("perfbench: selftest failed, nothing measured", file=sys.stderr)
        return 1

    # the traced run repeats the workload four times, each in a quarter of the time
    repeats = 4 if args.trace else 1
    trials = workload.trials_per_point(args.seconds / repeats)
    attempted = trials * workload.points * repeats
    info = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "trials_per_point": trials, **machine_info()}
    info["pinned_cpu"] = pin_to_one_core()
    measure = per_layer if args.trace else end_to_end
    correct, failed = False, 0
    try:
        metrics = measure(workload, su, args, trials, info)
        correct = True
    except su.TrialError as exc:
        # the entry point stops at the first failing trial
        print(f"perfbench: a trial raised: {exc}", file=sys.stderr)
        metrics, failed = {}, 1
    except (GateFailure, TraceError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        metrics = {}

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"info": info, "result": result}, indent=1) + "\n",
                      encoding="utf-8")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
