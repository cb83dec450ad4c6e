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
from conftest import tiny_dataset_config  # noqa: E402
from wasnloc.dataset import generate_example  # noqa: E402


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


def test_one_example_makes_one_auralize_and_one_rir_call(tmp_path):
    # The per-mic layer metrics are read from these two spans; a scene that
    # stops reaching either wrapped binding would drop them from the run.
    with spans.Tracer().installed() as tracer:
        assert generate_example(tiny_dataset_config(), "test", 0, tmp_path) is not None
    names = [s.name for s in tracer.spans]
    assert names.count("signals.auralize") == 1
    assert names.count("rir.simulate_rir") == 1
