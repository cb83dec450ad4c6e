from unittest import mock

import numpy as np
import pytest
from test_mlp import _reference_adam_step, _reference_backward, _reference_forward

from wasnloc import training
from wasnloc.relnet import (
    RelNetConfig,
    RelNetModel,
    load_checkpoint,
    mae_loss,
    relnet_forward_features,
    save_checkpoint,
)
from wasnloc.training import (
    EpochStats,
    FeatureExample,
    TrainConfig,
    TrainingDivergedError,
    train,
    write_history_csv,
)


def tiny_config(grid_n=4):
    n_out = grid_n * grid_n
    return RelNetConfig(
        feature_kind="slf",
        grid_n=grid_n,
        f_layer_sizes=(24, n_out),
        g_layer_sizes=(24, n_out),
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


def noise_dataset(config, count, seed):
    """Unlearnable validation noise: its loss stops improving quickly."""
    rng = np.random.default_rng(seed)
    return [
        FeatureExample(
            rng.uniform(0, 1, (4, config.input_size)).astype(np.float32),
            rng.uniform(0, 1, config.grid_n**2).astype(np.float32),
        )
        for _ in range(count)
    ]


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
        val_set = noise_dataset(config, 8, seed=3)
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


def _reference_forward_batch(model, features):
    """Frozen copy of relnet.forward_batch on the frozen per-layer forward."""
    counts = np.array([x.shape[0] for x in features])
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    relations, f_cache = _reference_forward(model.f.layers, np.vstack(features))
    sizes = counts[:, None].astype(relations.dtype)
    pooled = np.add.reduceat(relations, starts, axis=0) / sizes
    preds, g_cache = _reference_forward(model.g.layers, pooled)
    return preds, (f_cache, g_cache, counts, sizes)


def _reference_dataset_loss(model, dataset, batch_size):
    total = 0.0
    for start in range(0, len(dataset), batch_size):
        batch = dataset[start : start + batch_size]
        preds, _ = _reference_forward_batch(model, [ex.features for ex in batch])
        loss, _ = mae_loss(preds, np.vstack([ex.target for ex in batch]))
        total += loss * len(batch)
    return total / len(dataset)


def test_history_matches_per_layer_reference():
    """Criterion 8's architecture and settings on synthetic data: the loss
    history and the final weights equal those of the training loop run on
    the frozen per-layer forward and backward passes and per-tensor Adam,
    bit for bit."""
    config = RelNetConfig(feature_kind="slf", grid_n=10, f_layer_sizes=(64, 100), g_layer_sizes=(64, 100))
    train_set = synthetic_dataset(config, 6, seed=7)
    val_set = synthetic_dataset(config, 3, seed=8)
    cfg = TrainConfig(max_epochs=4, batch_size=2, seed=5)
    model = RelNetModel.init_random(config, rng_seed=1)
    ref = model.copy()
    _, history = train(model, train_set, val_set, cfg)

    params = [p for net in (ref.f, ref.g) for layer in net.layers for p in layer]
    state = {"m": [np.zeros_like(p) for p in params], "v": [np.zeros_like(p) for p in params], "t": 0}
    rng = np.random.default_rng(cfg.seed)
    ref_history = []
    for epoch in range(1, len(history) + 1):
        order = rng.permutation(len(train_set))
        running = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch = [train_set[k] for k in order[start : start + cfg.batch_size]]
            preds, (f_cache, g_cache, counts, sizes) = _reference_forward_batch(ref, [ex.features for ex in batch])
            loss, d_preds = mae_loss(preds, np.vstack([ex.target for ex in batch]))
            running += loss * len(batch)
            g_grads, d_pooled = _reference_backward(ref.g.layers, g_cache, d_preds)
            d_relations = np.repeat(d_pooled / sizes, counts, axis=0)
            f_grads, _ = _reference_backward(ref.f.layers, f_cache, d_relations)
            grads = [p for layer in f_grads + g_grads for p in layer]
            _reference_adam_step(state, params, grads, cfg.lr)
        ref_history.append((epoch, running / len(train_set), _reference_dataset_loss(ref, val_set, cfg.batch_size)))

    assert [(h.epoch, h.train_loss, h.val_loss) for h in history] == ref_history
    assert np.array_equal(model.f.flat, ref.f.flat) and np.array_equal(model.g.flat, ref.g.flat)


def test_best_weights_buffer_is_the_best_epochs_own():
    """The returned model holds the weights of the best validation epoch,
    not the last, in buffers shared with nothing; train copies the model
    once per call however many epochs improve."""
    config = tiny_config()
    train_set = synthetic_dataset(config, 16, seed=2)
    val_set = noise_dataset(config, 8, seed=3)
    cfg = TrainConfig(lr=1e-3, batch_size=8, max_epochs=30, patience=3, seed=0)
    model = RelNetModel.init_random(config, rng_seed=1)
    snapshots = []  # the trained weights at each epoch's validation
    real_loss = training._dataset_loss

    def loss_and_snapshot(m, *args):
        snapshots.append((m.f.flat.copy(), m.g.flat.copy()))
        return real_loss(m, *args)

    with mock.patch.object(training, "_dataset_loss", loss_and_snapshot), mock.patch.object(
        RelNetModel, "copy", autospec=True, side_effect=RelNetModel.copy
    ) as copy_spy:
        best, history = train(model, train_set, val_set, cfg)
    losses = [h.val_loss for h in history]
    best_epoch = losses.index(min(losses))
    improving = sum(loss < min(losses[:k], default=np.inf) for k, loss in enumerate(losses))
    assert best_epoch < len(history) - 1 and improving > 1  # the case the held buffer is for
    assert copy_spy.call_count == 1
    assert np.array_equal(best.f.flat, snapshots[best_epoch][0])
    assert np.array_equal(best.g.flat, snapshots[best_epoch][1])
    assert not np.array_equal(model.f.flat, best.f.flat)

    trained = model.f.flat.copy(), model.g.flat.copy()
    best.f.flat[:] = 1.0
    best.g.flat[:] = 1.0
    assert np.array_equal(model.f.flat, trained[0]) and np.array_equal(model.g.flat, trained[1])
    model.f.flat[:] = 0.0
    model.g.flat[:] = 0.0
    assert (best.f.flat == 1.0).all() and (best.g.flat == 1.0).all()


def test_loaded_checkpoint_trains_on_like_the_saved_model(tmp_path):
    """A model trained an epoch, saved, loaded and trained one more epoch
    matches the one trained on in memory, in history and weights: the
    loaded arrays are the stacks' own writable buffers, which Adam updates
    in place."""
    config = tiny_config()
    train_set = synthetic_dataset(config, 12, seed=10)
    val_set = synthetic_dataset(config, 6, seed=11)
    cfg = TrainConfig(lr=1e-3, batch_size=4, max_epochs=1, seed=2)
    trained, _ = train(RelNetModel.init_random(config, rng_seed=6), train_set, val_set, cfg)
    save_checkpoint(trained, tmp_path / "model.ckpt")
    loaded = load_checkpoint(tmp_path / "model.ckpt")
    runs = [train(model, train_set, val_set, cfg) for model in (trained, loaded)]
    (best, history), (loaded_best, loaded_history) = runs
    assert [(h.epoch, h.train_loss, h.val_loss) for h in loaded_history] == [
        (h.epoch, h.train_loss, h.val_loss) for h in history
    ]
    for a, b in ((trained, loaded), (best, loaded_best)):
        assert np.array_equal(a.f.flat, b.f.flat) and np.array_equal(a.g.flat, b.g.flat)
    assert not np.array_equal(loaded.f.flat, load_checkpoint(tmp_path / "model.ckpt").f.flat)
