import dataclasses
import hashlib
import importlib.util
from pathlib import Path

from secure_ura import decode_frame, split_power_budget
from secure_ura.harness import _send_frame

from helpers import make_mini_cfg


def _fingerprint_module():
    path = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"
    spec = importlib.util.spec_from_file_location("fingerprint", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_decode_hash_sees_every_output_element(mini_cfg, mini_params):
    fingerprint = _fingerprint_module()

    def decode_hash(splits):
        h = hashlib.sha256()
        fingerprint.update_decoded(h, splits)
        return h.hexdigest()

    cfgs = [dataclasses.replace(mini_cfg, Pa=pa, Pk=pk)
            for pa, pk in (split_power_budget(mini_cfg.key_budget, r) for r in (1.0, 7.0))]
    _, y, y_k = _send_frame(cfgs, 0, mini_params)
    splits = decode_frame([y], [y_k], cfgs, mini_params)[0]
    assert decode_hash(decode_frame([y], [y_k], cfgs, mini_params)[0]) == decode_hash(splits)
    base = decode_hash(splits)
    for i, split in enumerate(splits):
        for j, a in enumerate(split):
            for element in (0, -1):
                changed = a.copy()
                changed.reshape(-1)[element] ^= True
                moved = [list(s) for s in splits]
                moved[i][j] = changed
                assert decode_hash(moved) != base, (i, j, element)


def test_mini_digest_is_of_the_tests_mini_config():
    assert _fingerprint_module().MINI_CFG == make_mini_cfg()
