"""Byte identity of the command line against the corpus in golden_cli.json.

tools/golden_cli.py defines the cases and records the corpus; see its
docstring for what the cases cover and when to record.
"""

import importlib.util
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("golden_cli", _ROOT / "tools" / "golden_cli.py")
golden_cli = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_cli)


def test_every_case_replays_byte_for_byte(monkeypatch, tmp_path):
    monkeypatch.setenv("TREELABEL_BUDGET", golden_cli.BUDGET)
    assert golden_cli.moved(tmp_path) == []
