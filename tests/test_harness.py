import csv
import dataclasses

import numpy as np
import pytest

from secure_ura import (ConfigError, PolarCode, SystemConfig, TrialError, emit_csv,
                        generate_public_params, run_leakage, run_point, run_sweep, run_trial,
                        selftest, split_power_budget)
from secure_ura.harness import CSV_HEADER, frames_per_batch, power_splits

from helpers import fail_bound_at, fail_receiver_at, make_mini_cfg, own_split


def _trial_key(report):
    return (report.trial_id, report.n_detected, report.n_err, report.pupe)


def test_trial_deterministic(mini_cfg, mini_params):
    [[a]] = run_trial(mini_cfg, own_split(mini_cfg), [4], mini_params)
    [[b]] = run_trial(mini_cfg, own_split(mini_cfg), [4], mini_params)
    assert _trial_key(a) == _trial_key(b)


def test_trials_independent_of_execution_order(mini_cfg, mini_params):
    forward = [_trial_key(run_trial(mini_cfg, own_split(mini_cfg), [t], mini_params)[0][0])
               for t in range(4)]
    backward = [_trial_key(run_trial(mini_cfg, own_split(mini_cfg), [t], mini_params)[0][0])
                for t in reversed(range(4))]
    assert forward == list(reversed(backward))
    # and of the batch a trial is simulated in
    batch = run_trial(mini_cfg, own_split(mini_cfg), [3, 1, 0, 2], mini_params)
    assert [_trial_key(r) for [r] in batch] == [forward[t] for t in (3, 1, 0, 2)]


def test_near_noiseless_trial_is_error_free(mini_cfg, mini_params):
    [[report]] = run_trial(mini_cfg, own_split(mini_cfg), [0], mini_params)
    assert report.pupe == 0.0
    assert report.n_err == 0
    assert report.n_detected == mini_cfg.Ka


def test_overwhelming_noise_gives_pupe_one():
    cfg = make_mini_cfg(sigma_c2=1e6, sigma_u2=1.0)
    [[report]] = run_trial(cfg, own_split(cfg), [0], generate_public_params(cfg))
    assert report.n_detected == 0
    assert report.pupe == 1.0


def test_pupe_bounds(mini_cfg, mini_params):
    for t in range(3):
        [[r]] = run_trial(mini_cfg, own_split(mini_cfg), [t], mini_params)
        assert 0.0 <= r.pupe <= 1.0 and r.n_err <= mini_cfg.Ka


def test_trial_error_annotated_with_id(mini_params):
    cfg = make_mini_cfg(Pf=0.0, sigma_u2=1e-40)  # degenerate feedback signal
    params = generate_public_params(cfg)
    with pytest.raises(TrialError, match="trial 3"):
        run_trial(cfg, own_split(cfg), [3], params)


_SPLIT_RATIOS = [0.0, 1.0, 7.0, float("inf")]


@pytest.mark.parametrize("cfg", [
    make_mini_cfg(sigma_c2=0.2, sigma_u2=0.05, trials=4),
    dataclasses.replace(SystemConfig(Ka=1, seed=19), trials=2)], ids=["mini", "full"])
def test_sweep_rows_equal_points_run_alone(cfg):
    # one frame per trial serves every split of a Ka: each sweep row is the
    # row run_point gives at that point alone, exact floats included
    ka_list = [1, 3] if cfg.M == 8 else [1]
    rows = run_sweep(cfg, ka_list, _SPLIT_RATIOS, cfg.trials)
    alone = []
    for ka in ka_list:
        for ratio in _SPLIT_RATIOS:
            pa, pk = split_power_budget(cfg.key_budget, ratio)
            point = run_point(dataclasses.replace(cfg, Ka=ka, Pa=pa, Pk=pk))
            # run_point reports its config's Pa/Pk, which may round away
            # from the ratio asked for
            alone.append(dataclasses.replace(point, ratio=ratio))
    assert rows == alone
    assert len({r.pupe_mean for r in rows}) > 1


def test_multi_split_trial_equals_one_trial_per_split():
    cfg = make_mini_cfg(Ka=3, sigma_c2=0.2, sigma_u2=0.05)
    params = generate_public_params(cfg)
    splits = [split_power_budget(cfg.key_budget, r) for r in _SPLIT_RATIOS]
    alone = [[run_trial(cfg, [s], [t], params)[0][0] for s in splits] for t in range(4)]
    for t in range(4):
        assert run_trial(cfg, splits, [t], params) == [alone[t]]
    # a batch of frames gives each trial what it gives alone
    assert run_trial(cfg, splits, list(range(4)), params) == alone


def _record_calls(monkeypatch, owner, name, calls):
    """Replace owner.name with a wrapper that appends each call's arguments
    to calls[name]."""
    fn = getattr(owner, name)

    def recording(*args):
        calls.setdefault(name, []).append(args)
        return fn(*args)
    monkeypatch.setattr(owner, name, recording)


def test_sweep_runs_the_iterative_stage_once_per_frame(monkeypatch):
    # R ratios x T trials x |Ka| user counts: T |Ka| frames, simulated in
    # batches of frames_per_batch frames.  At M = 40, np = 4000 the block
    # bytes bound holds 3 frames (Ka = 1, 25), and the words bound 2 (Ka = 40).
    # Each frame is decoded in exactly one iterative-stage and one key-stage
    # call, and a batch makes one LDPC run, which covers the words of all
    # its frames and R splits
    from secure_ura import LdpcCode, harness, receiver
    calls = {}
    _record_calls(monkeypatch, harness, "run_trial", calls)
    for name in ("iterative_decode", "decode_keys_and_decrypt"):
        _record_calls(monkeypatch, receiver, name, calls)
    _record_calls(monkeypatch, LdpcCode, "decode", calls)
    ratios, trials, ka_list = [1.0, 3.0, 7.0], 5, [1, 25, 40]
    run_sweep(make_mini_cfg(M=40, np=4000), ka_list, ratios, trials)

    batches = [[0, 1, 2], [3, 4], [0, 1, 2], [3, 4], [0, 1], [2, 3], [4]]
    assert [trial_ids for _, _, trial_ids, _ in calls["run_trial"]] == batches
    assert [len(ys) for ys, _, _ in calls["iterative_decode"]] == [len(b) for b in batches]
    assert [len(C_hats) for C_hats, *_ in calls["decode_keys_and_decrypt"]] == \
        [len(b) for b in batches]
    assert len(calls["decode"]) == len(batches)
    # the LDPC run of a batch decodes R words per user of each of its frames
    for (_, llr, _), (C_hats, *_) in zip(calls["decode"], calls["decode_keys_and_decrypt"]):
        assert len(llr) == len(ratios) * sum(len(C) for C in C_hats)
    assert sum(len(C) for C_hats, *_ in calls["decode_keys_and_decrypt"] for C in C_hats) > 0


@pytest.mark.parametrize("M,ka,frames", [
    (50, 1, 16), (50, 25, 4), (50, 100, 1), (16, 1, 51), (16, 10, 10), (16, 25, 4)])
def test_batch_sizes_at_the_benchmark_shapes(M, ka, frames):
    # full scale batches 16 frames of one user, 4 of 25 and a lone Ka = 100
    # frame; the M = 16 grid batches 51, 10 and 4 frames
    assert frames_per_batch(SystemConfig(M=M, E=M, Ka=ka)) == frames


def test_batch_size_counts_the_block_bytes():
    # a frame costs its pilot+polar block, not only its antenna rows: a
    # 2048-use polar segment holds 5 full-scale frames where 512 holds 16
    assert frames_per_batch(SystemConfig(Ka=1, nc=2048)) == 5


def test_failing_multi_split_frame_names_trial_and_stage(monkeypatch):
    cfg = make_mini_cfg(Pf=0.0, sigma_u2=1e-40)  # degenerate feedback signal
    params = generate_public_params(cfg)
    splits = [(pa, 0.3 - pa) for pa in (0.1, 0.2)]
    with pytest.raises(TrialError, match=r"^trial 3: transmit: user 0: "):
        run_trial(cfg, splits, [3], params)
    # a key stage that fails at the second split fails the frame's trial
    from secure_ura import receiver
    llr_parity = receiver.llr_parity
    seen = []

    def failing(Y_k_clean, H_hat, Pk, sigma2):
        seen.append(Pk)
        if len(seen) == 2:
            raise FloatingPointError("non-positive MMSE error term")
        return llr_parity(Y_k_clean, H_hat, Pk, sigma2)

    monkeypatch.setattr(receiver, "llr_parity", failing)
    cfg = make_mini_cfg()
    with pytest.raises(TrialError, match=r"^trial 1: receiver: non-positive MMSE"):
        run_trial(cfg, splits, [1], generate_public_params(cfg))
    assert seen == [pk for _, pk in splits]


def test_failure_inside_a_batch_names_its_own_trial(monkeypatch):
    # the receiver fails on the frame of trial 6, the third of a batch of
    # four: the batch fails as a whole, and the trials run again one at a
    # time find trial 6 (trials 4 and 5 decode, trial 7 is not run again)
    cfg = make_mini_cfg(Ka=1)
    params = generate_public_params(cfg)
    bad, seen = fail_receiver_at(monkeypatch, cfg, 6)
    with pytest.raises(TrialError, match=r"^trial 6: receiver: non-positive MMSE"):
        run_trial(cfg, own_split(cfg), [4, 5, 6, 7], params)
    # one batch pass over trials 4, 5 and 6, then 4, 5 and 6 alone
    assert len(bad) == 2 and len(seen) == 6
    # a transmit failure names its trial too
    cfg = make_mini_cfg(Ka=1, Pf=0.0, sigma_u2=1e-40)
    with pytest.raises(TrialError, match=r"^trial 2: transmit: user 0: "):
        run_trial(cfg, own_split(cfg), [2, 3], generate_public_params(cfg))


@pytest.mark.parametrize("target, stage", [("uplink", "uplink")])
def test_failing_stage_names_trial_and_stage(mini_cfg, mini_params, monkeypatch,
                                             target, stage):
    from secure_ura import harness

    def failing(*args):
        raise ValueError("injected fault")

    monkeypatch.setattr(harness, target, failing)
    with pytest.raises(TrialError, match=rf"^trial 3: {stage}: injected fault$"):
        run_trial(mini_cfg, own_split(mini_cfg), [3], mini_params)


@pytest.mark.parametrize("run", [
    lambda cfg: run_point(dataclasses.replace(cfg, trials=6)),
    lambda cfg: run_sweep(cfg, [1, 2], [1.0, 7.0], 6),
    lambda cfg: run_leakage(dataclasses.replace(cfg, trials=6), [1.0, 7.0])],
    ids=["run", "sweep", "leakage"])
def test_leakage_failure_names_its_own_trial(mini_cfg, monkeypatch, run):
    # the bound fails for trial 5 alone; it is evaluated before any frame,
    # so no frame is decoded
    from secure_ura import harness
    calls = {}
    _record_calls(monkeypatch, harness, "decode_frame", calls)
    fail_bound_at(monkeypatch, mini_cfg, 5)
    with pytest.raises(TrialError, match=r"^trial 5: leakage: injected fault$"):
        run(mini_cfg)
    assert calls == {}


def test_bound_is_evaluated_once_per_trial_and_split(mini_cfg, mini_params, monkeypatch):
    # no draw of the bound depends on Ka: a sweep evaluates it once for each
    # trial and split, whatever its user counts, and run_trial never does
    from secure_ura import harness
    calls = {}
    _record_calls(monkeypatch, harness, "leakage_report", calls)
    run_trial(mini_cfg, own_split(mini_cfg), [0, 1], mini_params)
    assert calls == {}
    run_sweep(mini_cfg, [1, 2, 3], [1.0, 7.0], 3)
    assert len(calls["leakage_report"]) == 3 * 2


def test_failure_only_as_a_batch_names_the_whole_batch(mini_cfg, mini_params, monkeypatch):
    # the receiver fails on any batch of two or more frames: every trial
    # decodes alone, so the batch's own error, naming all its trials, is raised
    from secure_ura import harness
    sizes = []                                   # frames per decode_frame call
    decode_frame = harness.decode_frame

    def failing(ys, *args):
        sizes.append(len(ys))
        if len(ys) > 1:
            raise ValueError("injected fault")
        return decode_frame(ys, *args)

    monkeypatch.setattr(harness, "decode_frame", failing)
    with pytest.raises(TrialError, match=r"^trial 4, 5: receiver: "):
        run_trial(mini_cfg, own_split(mini_cfg), [4, 5], mini_params)
    assert sizes == [2, 1, 1]


def test_split_power_budget():
    pa, pk = split_power_budget(0.3, 1.0)
    assert pa == pytest.approx(0.15) and pk == pytest.approx(0.15)
    pa, pk = split_power_budget(0.3, 7.0)
    assert pa == pytest.approx(0.3 * 7 / 8) and pk == pytest.approx(0.3 / 8)
    assert sum(split_power_budget(0.3, 2.5)) == pytest.approx(0.3)
    # ratio inf: the whole budget masks, no power carries the parity
    assert split_power_budget(0.3, float("inf")) == (0.3, 0.0)
    with pytest.raises(ConfigError):
        split_power_budget(0.3, -1.0)


def test_power_splits_of_the_config_itself():
    # None is the config's own split, exactly its Pa and Pk
    cfg = make_mini_cfg(Pa=0.225, Pk=0.075)
    assert power_splits(cfg, None) == [(0.225 / 0.075, 0.225, 0.075)]
    assert power_splits(make_mini_cfg(Pa=0.3, Pk=0.0), None) == [(float("inf"), 0.3, 0.0)]


def test_power_splits_of_ratios_split_the_budget():
    ratios = [0.0, 0.5, 1.0, 3.0, 7.0, float("inf")]
    splits = power_splits(make_mini_cfg(Pa=0.225, Pk=0.075), ratios)
    assert splits == [(r, *split_power_budget(0.3, r)) for r in ratios]


def test_power_splits_rejects_a_ratio_that_overflows():
    with pytest.raises(ConfigError,
                       match=r"^ratio: too large to split the key budget 2.0, got 1e\+308$"):
        power_splits(make_mini_cfg(Pa=1.0, Pk=1.0), [1.0, 1e308])


@pytest.mark.parametrize("run,field", [(lambda cfg: run_sweep(cfg, [1], [], 2), "ratio"),
                                       (lambda cfg: run_leakage(cfg, []), "ratio"),
                                       (lambda cfg: run_sweep(cfg, [], [1], 2), "ka")],
                         ids=["sweep", "leakage", "sweep-ka"])
def test_empty_ratio_list_is_rejected_before_any_work(mini_cfg, monkeypatch, run, field):
    from secure_ura import harness
    calls = []

    def counting(cfg):
        calls.append(cfg)
        return generate_public_params(cfg)
    monkeypatch.setattr(harness, "generate_public_params", counting)
    with pytest.raises(ConfigError, match=f"^{field}: at least one "):
        run(mini_cfg)
    assert calls == []


def test_leakage_without_ratios_evaluates_the_configured_split():
    # the row of the configured split is the one run reports: the same Pa
    # and Pk, not a re-split of the budget that may land an ulp away, and
    # the same equivocation bound bit for bit
    cfg = make_mini_cfg(Pa=0.225, Pk=0.075, trials=50)
    [(ratio, pa, pk, zeta)] = run_leakage(cfg, None)
    assert (pa, pk) == (cfg.Pa, cfg.Pk)
    point = run_point(cfg)
    assert (ratio, pa, pk) == (point.ratio, point.pa, point.pk)
    assert zeta == point.zeta_lower_mean


def test_sweep_at_infinite_ratio(mini_cfg):
    (res,) = run_sweep(mini_cfg, [1], [float("inf")], trials=1)
    assert res.ratio == float("inf")
    assert res.pk == 0.0 and res.pa == mini_cfg.key_budget
    assert res.zeta_lower_mean == 1.0


def test_sweep_grid_shape(mini_cfg):
    results = run_sweep(mini_cfg, [1, 2], [1.0, 3.0], trials=2)
    assert len(results) == 4
    assert [(r.ka, r.ratio) for r in results] == [(1, 1.0), (1, 3.0), (2, 1.0), (2, 3.0)]
    for r in results:
        assert r.pa + r.pk == pytest.approx(mini_cfg.key_budget)
        assert r.trials == 2 and r.seed == mini_cfg.seed


def test_sweep_rejects_zero_trials(mini_cfg):
    with pytest.raises(ConfigError, match="trials"):
        run_sweep(mini_cfg, [1], [1.0], trials=0)


def test_zeta_identical_across_user_counts(mini_cfg):
    results = run_sweep(mini_cfg, [1, 2], [1.0, 3.0], trials=3)
    by_ratio = {}
    for r in results:
        by_ratio.setdefault(r.ratio, []).append(r.zeta_lower_mean)
    for ratio, zetas in by_ratio.items():
        assert max(zetas) - min(zetas) == 0.0  # bit-identical


def test_zeta_strictly_increasing_in_ratio(mini_cfg):
    results = run_sweep(mini_cfg, [1], [0.5, 1.0, 3.0, 7.0], trials=3)
    zetas = [r.zeta_lower_mean for r in results]
    assert all(b > a for a, b in zip(zetas, zetas[1:]))


def test_aggregate_consistency(mini_cfg, mini_params):
    cfg = dataclasses.replace(mini_cfg, trials=4)
    res = run_point(cfg)
    reports = [run_trial(cfg, own_split(cfg), [t], mini_params)[0][0] for t in range(4)]
    pupes = np.array([r.pupe for r in reports])
    assert res.pupe_mean == pytest.approx(pupes.mean())
    assert res.pupe_stderr == pytest.approx(pupes.std(ddof=1) / 2.0)
    assert pupes.min() <= res.pupe_mean <= pupes.max()


def test_csv_round_trip(tmp_path, mini_cfg):
    results = run_sweep(mini_cfg, [1, 2], [1.0, 2.0], trials=2)
    path = tmp_path / "out.csv"
    emit_csv(results, path)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(CSV_HEADER)
    with open(path, newline="", encoding="utf-8") as fh:
        parsed = list(csv.DictReader(fh))
    assert len(parsed) == len(results)
    for row, res in zip(parsed, results):
        for field in ("ka", "trials", "seed"):
            assert int(row[field]) == getattr(res, field)
        for field in ("ratio", "pa", "pk", "pupe_mean", "pupe_stderr",
                      "zeta_lower_mean"):
            assert float(row[field]) == pytest.approx(getattr(res, field),
                                                      rel=1e-11, abs=1e-300)


def test_empty_csv_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], path)
    assert path.read_text() == ",".join(CSV_HEADER) + "\n"


def test_csv_write_error(tmp_path):
    with pytest.raises(OSError, match="no/such"):
        emit_csv([], tmp_path / "no" / "such" / "dir.csv")


def test_selftest_passes_on_mini_config(capsys):
    cfg = make_mini_cfg(sigma_c2=0.01, sigma_u2=0.01)
    assert selftest(cfg)
    out = capsys.readouterr().out
    assert out.count("PASS") == 7 and "FAIL" not in out


def test_selftest_generates_caller_params_once_plus_digest_check(monkeypatch):
    from secure_ura import harness
    cfg = make_mini_cfg(sigma_c2=0.01, sigma_u2=0.01)
    calls = []

    def counting(c):
        calls.append(c)
        return generate_public_params(c)

    monkeypatch.setattr(harness, "generate_public_params", counting)
    assert selftest(cfg, out=lambda line: None)
    # one set for every suite, plus the digest check's deliberate regeneration
    assert calls.count(cfg) == 2


def test_selftest_fails_when_regeneration_differs(monkeypatch):
    from secure_ura import harness
    cfg = make_mini_cfg(sigma_c2=0.01, sigma_u2=0.01)
    calls = []

    def drifting(c):
        # the held set, built first and read by every suite, comes from
        # another seed; the digest check's regeneration is the correct one
        calls.append(c)
        return generate_public_params(
            dataclasses.replace(c, seed=c.seed + 1) if len(calls) == 1 else c)

    monkeypatch.setattr(harness, "generate_public_params", drifting)
    lines = []
    assert not selftest(cfg, out=lines.append)
    assert lines[0].startswith("FAIL public-params invariants")
    assert sum(line.startswith("PASS") for line in lines[1:]) == 6


def test_selftest_fails_when_list_one_decoding_errs(monkeypatch):
    # the receiver decodes nearly every word at list size 1, so the polar
    # round trip runs _sc_decode too: one flipped codeword bit fails it
    sc_decode = PolarCode._sc_decode

    def flipping(self, chan):
        beta = sc_decode(self, chan)
        beta[:, -1] ^= 1
        return beta

    monkeypatch.setattr(PolarCode, "_sc_decode", flipping)
    lines = []
    assert not selftest(make_mini_cfg(sigma_c2=0.01, sigma_u2=0.01), out=lines.append)
    assert any(line.startswith("FAIL polar round trip") for line in lines)
