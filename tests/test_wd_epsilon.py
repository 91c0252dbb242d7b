import importlib.util
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "wd_epsilon.py"
_spec = importlib.util.spec_from_file_location("wd_epsilon", _PATH)
wd_epsilon = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(wd_epsilon)


def test_prints_one_exact_epsilon_per_n(monkeypatch, capsys):
    """One row per n under the header; at n = 64 the binding constant is
    eps * n = 4.5, the ~9/(2n) decay the script reports."""
    monkeypatch.setattr(sys, "argv", ["wd_epsilon.py", "--exps", "3", "6"])
    assert wd_epsilon.main() == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header == "n epsilon_exact worst_rectangle"
    rows = [line.split(maxsplit=2) for line in lines]
    assert [r[0] for r in rows] == ["8", "64"]
    assert float(rows[1][1]) * 64 == 4.5
    assert all(r[2].startswith("Box(") for r in rows)
