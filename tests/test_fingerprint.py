import dataclasses
import hashlib
import json
from typing import NamedTuple

import numpy as np
import pytest

from secure_ura import DecodedSplit, TrialReport, decode_frame, split_power_budget
from secure_ura.harness import _send_frame

from helpers import load_tool, own_split


def test_decode_hash_sees_every_output_element(mini_cfg, mini_params):
    fingerprint = load_tool("fingerprint")

    def decode_hash(splits):
        h = hashlib.sha256()
        fingerprint.update_decoded(h, splits)
        return h.hexdigest()

    pairs = [split_power_budget(mini_cfg.key_budget, r) for r in (1.0, 7.0)]
    sent = _send_frame(mini_cfg, pairs, 0, mini_params)
    y, y_k = sent.y, sent.y_k
    splits = decode_frame([y], [y_k], mini_cfg, pairs, mini_params)[0]
    assert decode_hash(decode_frame([y], [y_k], mini_cfg, pairs, mini_params)[0]) == \
        decode_hash(splits)
    base = decode_hash(splits)
    for i, split in enumerate(splits):
        for j, a in enumerate(split):
            for element in (0, -1):
                changed = a.copy()
                changed.reshape(-1)[element] ^= True
                moved = list(splits)
                moved[i] = split._replace(**{split._fields[j]: changed})
                assert decode_hash(moved) != base, (i, j, element)


def test_hash_reads_a_fixed_projection(mini_cfg, mini_params):
    # a field a later change adds to DecodedSplit or TrialReport moves no
    # hash; a change to a hashed report field still does
    fingerprint = load_tool("fingerprint")

    def digest(update, records):
        h = hashlib.sha256()
        update(h, records)
        return h.hexdigest()

    sent = _send_frame(mini_cfg, own_split(mini_cfg), 0, mini_params)
    [splits] = decode_frame([sent.y], [sent.y_k], mini_cfg, own_split(mini_cfg), mini_params)
    Wider = NamedTuple("Wider", [(f, np.ndarray) for f in (*DecodedSplit._fields, "extra")])
    wider = [Wider(*d, np.ones(3)) for d in splits]
    assert digest(fingerprint.update_decoded, wider) == \
        digest(fingerprint.update_decoded, splits)

    report = TrialReport(trial_id=4, n_detected=3, n_err=1, pupe=0.5)
    WiderReport = dataclasses.make_dataclass("WiderReport", [("extra", int)],
                                             bases=(TrialReport,))
    wider_report = WiderReport(**dataclasses.asdict(report), extra=7)
    assert digest(fingerprint.update_reports, [wider_report]) == \
        digest(fingerprint.update_reports, [report])
    assert digest(fingerprint.update_reports, [dataclasses.replace(report, n_err=2)]) != \
        digest(fingerprint.update_reports, [report])


_NOW = {"golden": "a1", "digest": "b2"}


@pytest.mark.parametrize("saved,differ", [
    (_NOW, []),
    ({"golden": "a1", "digest": "b3"}, ["digest"]),
    ({"golden": "a1"}, ["digest"]),
    ({**_NOW, "leakage": "c4"}, ["leakage"]),
    ({"golden": "a0", "leakage": "c4"}, ["digest", "golden", "leakage"]),
], ids=["equal", "value", "missing-saved", "missing-now", "several"])
def test_compare_exit_code_and_differing_fields(saved, differ, tmp_path, capsys, monkeypatch):
    # CI treats exit 3 alone as informational: it must mean exactly that some
    # field's value differs or is missing on one side, one line per field
    fingerprint = load_tool("fingerprint")
    monkeypatch.setattr(fingerprint, "fingerprint", lambda: dict(_NOW))
    path = tmp_path / "saved.json"
    path.write_text(json.dumps(saved))
    code = fingerprint.main(["--compare", str(path)])
    lines = capsys.readouterr().out.splitlines()
    reported = [line.split(": ")[1] for line in lines if line.startswith("differs: ")]
    assert reported == differ
    if differ:
        assert code == 3
    else:
        assert code == 0
        assert lines[-1] == f"all {len(_NOW)} fields match {path}"
