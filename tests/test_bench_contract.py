"""The benchmark under perfbench/ wraps package functions by name (its span
TARGETS) and samples its clock at named calls (CLOCK_CHECKPOINTS). A name
that is renamed or deleted in the package is silently skipped there, so
check here that every listed name is still bound."""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import numpy as np  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from conftest import tiny_dataset_config  # noqa: E402
from wasnloc.dataset import generate_example  # noqa: E402
from wasnloc.relnet import RelNetConfig, RelNetModel  # noqa: E402
from wasnloc.training import FeatureExample, TrainConfig, train  # noqa: E402


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


def test_traced_training_emits_the_mlp_layer_spans():
    # The per-layer training metrics are read from spans around the two
    # stacks' forward and backward methods and around adam_step; a training
    # step that stopped reaching them would drop those metrics from the run.
    config = RelNetConfig(feature_kind="slf", grid_n=4, f_layer_sizes=(8, 16), g_layer_sizes=(8, 16))
    rng = np.random.default_rng(0)

    def examples(pair_counts):
        return [
            FeatureExample(rng.uniform(0, 1, (p, config.input_size)).astype(np.float32), rng.uniform(0, 1, 16))
            for p in pair_counts
        ]

    train_set, val_set = examples([3, 6, 10, 3, 6]), examples([1, 3, 6])
    model = RelNetModel.init_random(config, rng_seed=0)
    with spans.Tracer().installed(mlps={"f": model.f, "g": model.g}) as tracer:
        _, history = train(model, train_set, val_set, TrainConfig(batch_size=2, max_epochs=2, patience=2))
    assert len(history) == 2

    def mlp_spans(group_marker):
        groups = sorted({s.group for s in tracer.spans if s.name == group_marker})
        return [[s for s in tracer.spans if s.group == g and s.name.startswith("mlp.")] for g in groups]

    steps = mlp_spans("mlp.adam_step")
    assert [s.name for s in tracer.spans].count("mlp.adam_step") == len(steps) == 3 * len(history)
    for step, batch in zip(steps, [2, 2, 1] * len(history)):
        names = [s.name for s in step]
        assert names == ["mlp.forward_f", "mlp.forward_g", "mlp.backward", "mlp.backward", "mlp.adam_step"]
        forward_f, forward_g, backward_g, backward_f, _ = (s.counts for s in step)
        assert forward_g["rows"] == backward_g["rows"] == batch
        assert forward_f["rows"] == backward_f["rows"] > batch
    for epoch in range(len(history)):
        assert sum(step[0].counts["rows"] for step in steps[3 * epoch : 3 * epoch + 3]) == 28

    validations = mlp_spans("training.validation")
    assert len(validations) == len(history)
    for validation in validations:
        assert [(s.name, s.counts["rows"]) for s in validation] == [
            ("mlp.forward_f", 4), ("mlp.forward_g", 2), ("mlp.forward_f", 6), ("mlp.forward_g", 1)
        ]
