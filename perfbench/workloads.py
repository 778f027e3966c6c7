"""The benchmark's workloads and the checks on their outputs.

Each workload is one call of a public harness entry point (`run_point` or
`run_sweep`) on a configuration built from the workload seed, which reaches
the program only as `SystemConfig.seed`.  Trial counts come from the time a
run may take and the host rate the workload was sized at, so a given seed
and duration always simulate the same trials.
"""

import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# SHA-256 of the golden sweep CSV (M=E=16, Ka 1,10,25 x ratio 1,3,7, 20 trials
# per point, seed 2024), tied to numpy 2.4 with OpenBLAS 0.3.31 on x86-64.
GOLDEN_SEED = 2024
GOLDEN_SHA256 = "bb8059798fb1fb7e76bfaf94ed82c9308a33dee4a27a7ede2b6db0f42cb6c2da"


class ProgramNotFound(RuntimeError):
    """The checkout holds no secure_ura sources next to the benchmark."""


def import_program():
    """Import secure_ura from this checkout's src/, never from elsewhere."""
    if not (SRC / "secure_ura" / "__init__.py").is_file():
        raise ProgramNotFound(f"no secure_ura package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import secure_ura
    where = Path(secure_ura.__file__).resolve()
    if SRC not in where.parents:
        raise ProgramNotFound(f"secure_ura was imported from {where}, not from {SRC}")
    return secure_ura


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict                 # SystemConfig fields besides seed, Ka and trials
    ka: tuple[int, ...]
    ratios: tuple[float, ...] | None   # None: one run_point at the config's split
    rate: float                  # trials per second of host time, BLAS on one thread
    max_trials: int | None = None      # cap on trials per grid point

    @property
    def points(self) -> int:
        return len(self.ka) * (len(self.ratios) if self.ratios else 1)

    def trials_per_point(self, seconds: float) -> int:
        n = max(1, round(seconds * self.rate / self.points))
        return min(n, self.max_trials) if self.max_trials else n

    def base_config(self, su, seed: int):
        return su.SystemConfig(**self.config, Ka=self.ka[0], seed=seed)

    def run(self, su, seed: int, trials: int) -> list:
        """Simulate the workload; returns one SweepResult per grid point."""
        cfg = replace(self.base_config(su, seed), trials=trials)
        if self.ratios is None:
            return [su.run_point(cfg)]
        return su.run_sweep(cfg, list(self.ka), list(self.ratios), trials)


WORKLOADS = {w.name: w for w in [
    Workload(
        name="full-ka100",
        why="crowded full-scale point, 3 receiver passes: per-step OMP work (up "
            "to 200 greedy steps per call) and LS/SIC over ~100 rows dominate",
        config={"max_outer_iters": 3}, ka=(100,), ratios=None, rate=0.65),
    Workload(
        name="full-ka1",
        why="full scale, one user, Pa/Pk 1 and 7: 2-step OMP bypasses per-step "
            "changes, so fixed per-call costs (polar, uplink, bookkeeping) show",
        config={}, ka=(1,), ratios=(1.0, 7.0), rate=14.0),
    Workload(
        name="m16-grid",
        why="the ROADMAP golden sweep through run_sweep: M=E=16, Ka 1,10,25 x "
            "Pa/Pk 1,3,7, one PublicParams for 9 points, LDPC at its iteration cap",
        config={"M": 16, "E": 16}, ka=(1, 10, 25), ratios=(1.0, 3.0, 7.0),
        rate=7.0, max_trials=20),
]}


def check_rows(rows, workload: Workload, cfg, trials: int) -> list[str]:
    """Problems with a workload's SweepResult rows; empty when they are sound."""
    ratios = workload.ratios or (cfg.Pa / cfg.Pk,)
    expected = [(ka, r) for ka in workload.ka for r in ratios]
    if [(r.ka, r.ratio) for r in rows] != expected:
        return [f"grid points {[(r.ka, r.ratio) for r in rows]} != {expected}"]
    problems = []
    for r in rows:
        at = f"Ka={r.ka} ratio={r.ratio:g}"
        values = (r.pa, r.pk, r.pupe_mean, r.pupe_stderr, r.zeta_lower_mean)
        if not all(math.isfinite(v) for v in values):
            problems.append(f"{at}: non-finite value in {values}")
        if r.trials != trials or r.seed != cfg.seed:
            problems.append(f"{at}: trials/seed {r.trials}/{r.seed}, "
                            f"expected {trials}/{cfg.seed}")
        if abs(r.pa + r.pk - cfg.key_budget) > 1e-12:
            problems.append(f"{at}: Pa + Pk = {r.pa + r.pk}, budget {cfg.key_budget}")
        if not 0.0 <= r.pupe_mean <= 1.0 or r.pupe_stderr < 0.0:
            problems.append(f"{at}: PUPE {r.pupe_mean} +- {r.pupe_stderr}")
        if r.zeta_lower_mean > 1.0:
            problems.append(f"{at}: equivocation bound {r.zeta_lower_mean} above 1")
    return problems
