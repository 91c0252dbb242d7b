import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "scaling_study.py"
_spec = importlib.util.spec_from_file_location("scaling_study", _PATH)
scaling_study = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scaling_study)


def test_mq_over_bound_hand_computed():
    # n = 16, d = 3: log2 n = 4, log2 log2 n = 2, bound = 16 * (4 * 2)^2 = 1024
    assert scaling_study.mq_over_bound(64, 8.0, 16, 3) == 0.5
    # n = 2^16, d = 2: bound = 65536 * 16 * 4 = 4,194,304
    assert scaling_study.mq_over_bound(105_726, 41.1, 1 << 16, 2) == pytest.approx(105_726 * 41.1 / 4_194_304)
    assert scaling_study.mq_over_bound(1024, 3.0, 256, 1) == 12.0  # d = 1: the bound is n
