"""Smoke test of the benchmark at tiny sizes.

Run from the root of a checkout: ``python3 -m pytest perfbench``.
"""

import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run as cli  # noqa: E402
import workloads  # noqa: E402
from rebind import rebound  # noqa: E402

TINY = workloads.Sizes(
    setup_repeats=2,
    warmup_split=(1, 1, 2),
    split=(2, 1, 12),
    fill_split=(1, 1, 1),
    train_epochs=1,
    localize_passes=1,
    localize_every=1,
)
SEED = 3
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_registry_matches_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == workloads.PER_LAYER
    assert tuple(w["name"] for w in BENCH["workloads"]) == workloads.WORKLOADS == cli.WORKLOADS
    assert max(m["bound"] for m in BENCH["end_to_end"]) == next(
        m["bound"] for m in BENCH["end_to_end"] if m["name"] == "setup_s"
    )


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(tmp_path, workload, trace):
    result, tracer = workloads.run_workload(workload, tmp_path, SEED, 0.01, trace, TINY)
    assert sorted(result.metrics) == sorted(workloads.PER_LAYER if trace else workloads.END_TO_END)
    for name, (value, unit) in result.metrics.items():
        assert unit == workloads.UNITS[name]
        assert np.isfinite(value), name
    assert result.attempted >= 1
    assert result.failed == 0, result.problems
    assert "unavailable" not in result.details and result.details["missing_bindings"] == []
    assert bool(tracer.spans) == trace
    assert all(s.end >= s.start for s in tracer.spans)


def _raise(*args, **kwargs):
    raise FloatingPointError("injected failure")


def test_raising_train_fails_its_operations_and_ends(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.TRAINING, "train", _raise)
    result, _ = workloads.run_workload("dry", tmp_path, SEED, 0.5, False, TINY)
    assert result.failed >= TINY.setup_repeats + 2 and "injected failure" in result.problems[-1]
    assert not {"train_epoch_s", "gnn_error_m", "eval_gnn_scenes_per_s"} & set(result.metrics)
    assert {"train_epoch_s", "gnn_error_m"} <= set(result.details["unavailable"])
    assert {"gen_scenes_per_s", "tdoa_error_m", "localize_slf_tail_ms"} <= set(result.metrics)


def test_raising_evaluate_fails_its_operations_and_ends(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.EVALUATE, "evaluate", _raise)
    result, _ = workloads.run_workload("dry", tmp_path, SEED, 0.5, False, TINY)
    assert result.failed >= 3 and "injected failure" in result.problems[-1]
    assert not any(name.startswith("eval_") or name.endswith("error_m") for name in result.metrics)
    assert "localize_slf_mbal_median_ms" in result.metrics


def test_raising_generation_fails_every_operation_and_ends(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.DATASET, "generate_dataset", _raise)
    result, _ = workloads.run_workload("dry", tmp_path, SEED, 0.2, False, TINY)
    assert result.attempted >= 1 and result.failed == result.attempted
    assert set(result.metrics) == {"peak_rss_mb"}


def test_missing_bindings_are_skipped_and_named():
    module = types.ModuleType("gone_module")
    clock = workloads.Clock([(module, "renamed")])
    out, timing = clock.time(lambda: 42)
    clock.calibrate()
    assert out == 42 and timing.seconds > 0
    assert clock.skipped == {"gone_module.renamed"}
    assert not hasattr(module, "renamed")


def test_rebound_restores_module_and_instance_bindings():
    module = types.ModuleType("m")
    module.fn = lambda: 1
    original = module.fn
    tracer = workloads.Tracer()

    class Net:
        def forward(self):
            return 2

    net = Net()
    with rebound([(module, "fn", lambda f: lambda: f() + 10), (net, "forward", lambda f: tracer.wrap(f, "x"))]):
        assert module.fn() == 11 and net.forward() == 2
    assert module.fn is original and "forward" not in net.__dict__
    assert [s.name for s in tracer.spans] == ["x"]


def test_self_time_excludes_children():
    tracer = workloads.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    assert inner.parent == 0 and outer.parent == -1
    assert tracer.self_times()[0] == pytest.approx(outer.duration - inner.duration)


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    config = workloads.DatasetConfig(train=1, val=0, test=2, master_seed=SEED)
    workloads.DATASET.generate_dataset(config, root)
    return root, config


def _corrupted_copy(tiny_dataset, tmp_path):
    root, config = tiny_dataset
    copy = tmp_path / "copy"
    shutil.copytree(root, copy)
    entry = json.loads((copy / "manifest.json").read_text())["splits"]["test"]["examples"][0]
    return copy, config, entry


def test_checker_accepts_generated_dataset(tiny_dataset):
    assert workloads.check_dataset(*tiny_dataset) == []


def test_checker_flags_wrong_width_features(tiny_dataset, tmp_path):
    copy, config, entry = _corrupted_copy(tiny_dataset, tmp_path)
    path = copy / entry["dir"] / workloads.FEATURES_NAME
    with np.load(path) as data:
        arrays = dict(data)
    arrays["slf"] = arrays["slf"][:, :-1]
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    problems = workloads.check_dataset(copy, config)
    assert [where for where, _ in problems] == [entry["dir"]]
    assert "slf" in problems[0][1]


def test_checker_flags_missing_channel_and_bad_count(tiny_dataset, tmp_path):
    copy, config, entry = _corrupted_copy(tiny_dataset, tmp_path)
    (copy / entry["dir"] / f"ch_{entry['m'] - 1:02d}.wav").unlink()
    manifest = json.loads((copy / "manifest.json").read_text())
    manifest["splits"]["train"]["count"] += 1
    (copy / "manifest.json").write_text(json.dumps(manifest))
    where = {w for w, _ in workloads.check_dataset(copy, config)}
    assert where == {entry["dir"], "manifest"}


def test_tail_is_highest_percentile_with_ten_beyond():
    assert workloads.tail_percentile(64) == pytest.approx(84.375)
    assert workloads.tail_percentile(1000) == pytest.approx(99.0)
    assert workloads.tail_percentile(12) == 50.0


def _run_cli(cwd, env_extra):
    env = {**os.environ, **env_extra}
    args = ["--workload", "dry", "--seed", "0", "--seconds", "1", "--trace", "0"]
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


def test_unpinned_blas_threads_are_refused():
    out = _run_cli(ROOT, {"OPENBLAS_NUM_THREADS": "2"})
    assert out.returncode == 2 and out.stdout == ""
    assert "OPENBLAS_NUM_THREADS" in out.stderr


def test_checkout_without_package_fails_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _run_cli(tmp_path, {})
    assert out.returncode != 0 and out.stdout == ""
