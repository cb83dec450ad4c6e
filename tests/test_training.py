import numpy as np
import pytest
from test_mlp import _reference_adam_step, _reference_backward

from wasnloc.mlp import AdamConfig, MlpSpec
from wasnloc.relnet import RelNetConfig, RelNetModel, mae_loss, relnet_forward_features
from wasnloc.training import (
    EpochStats,
    FeatureExample,
    TrainConfig,
    TrainingDivergedError,
    _batch_forward,
    _dataset_loss,
    train,
    write_history_csv,
)


def tiny_config(grid_n=4):
    n_out = grid_n * grid_n
    return RelNetConfig(
        feature_kind="slf",
        grid_n=grid_n,
        n_central=16,
        f_spec=MlpSpec((24, n_out)),
        g_spec=MlpSpec((24, n_out)),
    )


def synthetic_dataset(config, count, seed, pairs=(3, 6)):
    """Learnable toy set: target is a fixed linear image of the feature sum."""
    rng = np.random.default_rng(seed)
    n_out = config.grid_n**2
    mix = rng.uniform(0.0, 1.0, size=(config.input_size, n_out))
    examples = []
    for _ in range(count):
        p = int(rng.integers(pairs[0], pairs[1] + 1))
        feats = rng.uniform(0.0, 1.0, size=(p, config.input_size)).astype(np.float32)
        target = 1.0 / (1.0 + feats.sum(axis=0) @ mix)
        examples.append(FeatureExample(feats, target.astype(np.float32)))
    return examples


class TestTrain:
    def test_overfit_small_set_halves_loss(self):
        config = tiny_config()
        model = RelNetModel.init_random(config, rng_seed=0)
        data = synthetic_dataset(config, 10, seed=1)
        cfg = TrainConfig(lr=1e-3, batch_size=4, max_epochs=50, patience=50, seed=0)
        _, history = train(model, data, data, cfg)
        assert history[-1].train_loss <= 0.5 * history[0].train_loss

    def test_early_stopping_before_max_epochs(self):
        config = tiny_config()
        model = RelNetModel.init_random(config, rng_seed=1)
        train_set = synthetic_dataset(config, 16, seed=2)
        # unlearnable validation noise: val loss stops improving quickly
        rng = np.random.default_rng(3)
        val_set = [
            FeatureExample(
                rng.uniform(0, 1, (4, config.input_size)).astype(np.float32),
                rng.uniform(0, 1, config.grid_n**2).astype(np.float32),
            )
            for _ in range(8)
        ]
        cfg = TrainConfig(lr=5e-4, batch_size=8, max_epochs=100, patience=3, seed=0)
        best, history = train(model, train_set, val_set, cfg)
        assert len(history) < 100
        best_epoch = min(history, key=lambda h: h.val_loss).epoch
        assert best_epoch <= len(history) - cfg.patience

    def test_best_checkpoint_is_best_validation(self):
        config = tiny_config()
        model = RelNetModel.init_random(config, rng_seed=2)
        train_set = synthetic_dataset(config, 12, seed=4)
        val_set = synthetic_dataset(config, 6, seed=5)
        cfg = TrainConfig(lr=1e-3, batch_size=4, max_epochs=12, patience=12, seed=0)
        best, history = train(model, train_set, val_set, cfg)

        def val_loss(m):
            losses = []
            for ex in val_set:
                pred = relnet_forward_features(m, ex.features)
                losses.append(np.mean(np.abs(pred - ex.target)))
            return float(np.mean(losses))

        assert val_loss(best) == pytest.approx(min(h.val_loss for h in history), rel=1e-5)

    def test_same_seed_bit_identical_history(self):
        config = tiny_config()
        data = synthetic_dataset(config, 12, seed=6)
        val = synthetic_dataset(config, 6, seed=7)
        cfg = TrainConfig(lr=1e-3, batch_size=4, max_epochs=5, patience=5, seed=9)
        histories = []
        for _ in range(2):
            model = RelNetModel.init_random(config, rng_seed=3)
            _, history = train(model, data, val, cfg)
            histories.append([(h.epoch, h.train_loss, h.val_loss) for h in history])
        assert histories[0] == histories[1]

    def test_nan_features_abort(self):
        config = tiny_config()
        model = RelNetModel.init_random(config, rng_seed=4)
        data = synthetic_dataset(config, 4, seed=8)
        data[0].features[0, 0] = np.nan
        cfg = TrainConfig(max_epochs=2, seed=0)
        with pytest.raises(TrainingDivergedError):
            train(model, data, data, cfg)

    def test_empty_dataset_rejected(self):
        config = tiny_config()
        model = RelNetModel.init_random(config, rng_seed=5)
        with pytest.raises(ValueError):
            train(model, [], [], TrainConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)


def test_history_csv(tmp_path):
    history = [EpochStats(1, 0.5, 0.6), EpochStats(2, 0.4, 0.55)]
    path = tmp_path / "history.csv"
    write_history_csv(history, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss"
    assert lines[1] == "1,0.5,0.6"
    assert len(lines) == 3


def test_history_matches_per_layer_reference():
    """Criterion 8's architecture and settings on synthetic data: the loss
    history and the final weights equal those of the training loop run on
    the frozen per-layer backward pass and per-tensor Adam, bit for bit."""
    config = RelNetConfig(feature_kind="slf", grid_n=10, f_spec=MlpSpec((64, 100)), g_spec=MlpSpec((64, 100)))
    train_set = synthetic_dataset(config, 6, seed=7)
    val_set = synthetic_dataset(config, 3, seed=8)
    cfg = TrainConfig(max_epochs=4, batch_size=2, seed=5)
    model = RelNetModel.init_random(config, rng_seed=1)
    ref = model.copy()
    _, history = train(model, train_set, val_set, cfg)

    params = [p for net in (ref.f, ref.g) for layer in net.layers for p in layer]
    state = {"m": [np.zeros_like(p) for p in params], "v": [np.zeros_like(p) for p in params], "t": 0}
    adam_cfg = AdamConfig(lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps)
    rng = np.random.default_rng(cfg.seed)
    ref_history = []
    for epoch in range(1, len(history) + 1):
        order = rng.permutation(len(train_set))
        running = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch = [train_set[k] for k in order[start : start + cfg.batch_size]]
            preds, (f_cache, g_cache, counts, sizes) = _batch_forward(ref, batch)
            loss, d_preds = mae_loss(preds, np.vstack([ex.target for ex in batch]))
            running += loss * len(batch)
            g_grads, d_pooled = _reference_backward(ref.g.layers, g_cache, d_preds)
            d_relations = np.repeat(d_pooled / sizes, counts, axis=0)
            f_grads, _ = _reference_backward(ref.f.layers, f_cache, d_relations)
            grads = [p for layer in f_grads + g_grads for p in layer]
            _reference_adam_step(state, params, grads, adam_cfg)
        ref_history.append((epoch, running / len(train_set), _dataset_loss(ref, val_set, cfg.batch_size)))

    assert [(h.epoch, h.train_loss, h.val_loss) for h in history] == ref_history
    assert np.array_equal(model.f.flat, ref.f.flat) and np.array_equal(model.g.flat, ref.g.flat)
