"""Puts tests/data on the import path, for the golden set's make_golden, and
names the golden set's environment key in the pytest header."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).with_name("data")))

import make_golden  # noqa: E402


def pytest_report_header(config):
    key = make_golden.environment_key()
    if key in make_golden.load()["sets"]:
        return f"golden set: {key}, compared with tests/data/golden.json"
    return f"golden set: {key}, not in tests/data/golden.json; its three runs compared"
