import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_declared_console_scripts_import():
    tomllib = pytest.importorskip("tomllib")
    meta = tomllib.loads((ROOT / "pyproject.toml").read_text())
    for name, target in meta["project"].get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name
