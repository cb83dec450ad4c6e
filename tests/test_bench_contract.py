"""The benchmark under perfbench/ wraps package functions by name (its span
TARGETS) and samples its clock at named calls (CLOCK_CHECKPOINTS). A name
that is renamed or deleted in the package is silently skipped there, so
check here that every listed name is still bound."""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402


def test_every_wrapped_function_is_bound():
    missing = [
        f"wasnloc.{module}.{name}"
        for module, name, *_ in spans.TARGETS
        if not callable(getattr(importlib.import_module(f"wasnloc.{module}"), name, None))
    ]
    assert missing == []


def test_every_clock_checkpoint_is_bound():
    missing = [
        f"{module.__name__}.{name}"
        for module, name in workloads.CLOCK_CHECKPOINTS
        if not callable(getattr(module, name, None))
    ]
    assert missing == []
