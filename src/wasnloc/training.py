"""Minibatch training of the relation network with early stopping.

Examples arrive as precomputed pair-feature matrices plus target maps.
Within a batch, the pair rows of all examples are stacked into one matrix
so the relation stack runs as a single matmul; a segment mean then pools
pairs back to per-example vectors for the fusion stack. Gradients flow
through the same stacking in reverse. Each stack's backward pass writes
its gradients into the stack's flat gradient buffer (the twin of its flat
parameter buffer), and Adam updates the two parameter buffers from those
in place, so a training step allocates no per-tensor gradient arrays.
The relation stack's input gradient is never computed: nothing upstream
of the pair features is trained. Training is deterministic given the
seed: the same seed and data reproduce the loss history bit for bit.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .mlp import AdamConfig, AdamState, adam_step
from .relnet import RelNetModel, mae_loss


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite; training aborted."""


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 5e-4
    batch_size: int = 32
    max_epochs: int = 100
    patience: int = 3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        for name in ("lr", "batch_size", "max_epochs", "patience", "beta1", "beta2", "eps"):
            if not getattr(self, name) > 0:
                raise ValueError(f"TrainConfig.{name} must be positive")


@dataclass(eq=False)
class FeatureExample:
    """One precomputed training example: (P, input_size) features, (n^2,) target."""

    features: np.ndarray
    target: np.ndarray


@dataclass(eq=False)
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float


def _batch_forward(model: RelNetModel, batch: list[FeatureExample]):
    stacked = np.vstack([ex.features for ex in batch])
    counts = np.array([ex.features.shape[0] for ex in batch])
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    relations, f_cache = model.f.forward(stacked)
    # divide in the model's dtype, as the inference-time mean does; integer
    # counts would promote the fusion stack and the backward pass to float64
    sizes = counts[:, None].astype(relations.dtype)
    pooled = np.add.reduceat(relations, starts, axis=0) / sizes
    preds, g_cache = model.g.forward(pooled)
    return preds, (f_cache, g_cache, counts, sizes)


def _batch_backward(model: RelNetModel, caches, d_preds: np.ndarray) -> None:
    """Fill ``model.f.grad`` and ``model.g.grad`` for one batch."""
    f_cache, g_cache, counts, sizes = caches
    d_pooled = model.g.backward(g_cache, d_preds)
    d_relations = np.repeat(d_pooled / sizes, counts, axis=0)
    model.f.backward(f_cache, d_relations, input_grad=False)


def _dataset_loss(model: RelNetModel, dataset: list[FeatureExample], batch_size: int) -> float:
    total = 0.0
    for start in range(0, len(dataset), batch_size):
        batch = dataset[start : start + batch_size]
        preds, _ = _batch_forward(model, batch)
        targets = np.vstack([ex.target for ex in batch])
        loss, _ = mae_loss(preds, targets)
        total += loss * len(batch)
    return total / len(dataset)


def train(
    model: RelNetModel,
    train_set: list[FeatureExample],
    val_set: list[FeatureExample],
    config: TrainConfig,
) -> tuple[RelNetModel, list[EpochStats]]:
    """Adam on MAE with per-epoch validation and patience-based stopping.

    Stops once the validation loss has failed to improve for
    ``config.patience`` consecutive epochs (or at max_epochs) and returns
    the checkpoint from the best validation epoch plus the loss history.
    """
    if not train_set or not val_set:
        raise ValueError("train and validation sets must be non-empty")
    rng = np.random.default_rng(config.seed)
    adam_cfg = AdamConfig(lr=config.lr, beta1=config.beta1, beta2=config.beta2, eps=config.eps)
    params = model.parameters()
    adam = AdamState(params)

    history: list[EpochStats] = []
    best_val = np.inf
    best_model = model.copy()
    stall = 0
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(len(train_set))
        running = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = [train_set[k] for k in order[start : start + config.batch_size]]
            preds, caches = _batch_forward(model, batch)
            targets = np.vstack([ex.target for ex in batch])
            loss, d_preds = mae_loss(preds, targets)
            if not np.isfinite(loss):
                raise TrainingDivergedError(f"non-finite loss at epoch {epoch}")
            running += loss * len(batch)
            _batch_backward(model, caches, d_preds)
            adam_step(adam, params, [model.f.grad, model.g.grad], adam_cfg)
        train_loss = running / len(train_set)
        val_loss = _dataset_loss(model, val_set, config.batch_size)
        history.append(EpochStats(epoch, train_loss, val_loss))

        if val_loss < best_val:
            best_val = val_loss
            best_model = model.copy()
            stall = 0
        else:
            stall += 1
            if stall >= config.patience:
                break
    return best_model, history


def write_history_csv(history: list[EpochStats], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_loss"])
        for row in history:
            writer.writerow([row.epoch, repr(row.train_loss), repr(row.val_loss)])
