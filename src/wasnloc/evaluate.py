"""Evaluation: mean Euclidean localization error, grouped by mic count.

A report row per microphone count M gives the mean error over the split's
examples with that M. For neural methods several checkpoints may be
passed; the row then carries the mean and standard deviation of the per-
checkpoint mean errors (training-seed spread). Classical methods need no
checkpoint and leave the std column empty.

Every method reads an example's pair features from its features.bin,
which holds the float32 rows of :func:`classical.raw_pair_features`, the
rows the localizers reduce: SLF by :func:`classical.slf_result`, TDOA by
:func:`classical.tdoa_localize` with the cached ``gcc`` rows and the mics
of the example's scene.json. So a classical estimate equals the one
``localize`` computes from the WAVs bit for bit. An example whose cache is
refused (missing, damaged, stale, or built on another grid than the one
asked for) is recomputed from its WAVs.

A network evaluates many examples per forward (:func:`relnet.forward_batch`,
the forward training uses), so its heatmaps can differ from a one-example
``relnet_forward_features`` in the last float32 bits: the BLAS kernels
round a product of one row differently from one of many.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classical import LocalizationResult, pick_peak, raw_pair_features, slf_result, tdoa_localize
from .dataset import (
    FEATURES_NAME,
    example_features,
    example_scene,
    load_example,
    load_manifest,
    read_feature_cache,
    split_entries,
)
from .features import DEFAULT_GRID_N, Grid, extract_frame, heatmap_to_pgm
from .relnet import RelNetModel, forward_batch, load_checkpoint
from .typedjson import InputError

logger = logging.getLogger(__name__)

METHODS = ("tdoa", "slf", "gnn-gcc", "gnn-slf")
# Examples per network forward: their stacked pair rows (up to 21 each)
# make one relation-stack matmul that streams the weights once.
_BATCH = 32


@dataclass(frozen=True)
class EvalRow:
    m: int
    n_examples: int
    mean_error_m: float
    std_error_m: float | None


@dataclass(frozen=True)
class EvalReport:
    method: str
    rows: tuple[EvalRow, ...]

    @property
    def overall_mean(self) -> float:
        total = sum(r.mean_error_m * r.n_examples for r in self.rows)
        count = sum(r.n_examples for r in self.rows)
        return total / count


def _classical_result(method: str, data_dir, entry: dict, grid: Grid) -> LocalizationResult:
    """tdoa or slf on one example: the reduction of the one member of its
    features.bin that the method needs (TDOA then reads the mic positions
    from scene.json, refusing an entry that contradicts it), or of the rows
    :func:`classical.raw_pair_features` recomputes from its WAVs if the
    cache is refused. Either way scene.json is parsed once."""
    path = Path(data_dir) / entry["dir"] / FEATURES_NAME
    try:
        gcc, slf, _ = read_feature_cache(path, grid.n, entry, ("gcc" if method == "tdoa" else "slf",))
    except InputError as exc:
        logger.info("recomputing features: %s", exc)
        received, scene = load_example(data_dir, entry)
        gcc, slf, _ = raw_pair_features(extract_frame(received), scene, grid.n)
    else:
        scene = example_scene(data_dir, entry) if method == "tdoa" else None
    return tdoa_localize(None, scene, grid, gcc=gcc) if method == "tdoa" else slf_result(slf, grid)


def _batch_estimates(
    method: str, data_dir, batch: list[dict], grids: list[Grid], models: list[RelNetModel | None]
) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """(estimate, heatmap) per model and example of one batch. A classical
    method reads each example's cached rows (:func:`_classical_result`);
    the networks share one read of each example's pair features and each
    runs on the whole batch at once."""
    if models[0] is None:
        results = [_classical_result(method, data_dir, entry, grid) for entry, grid in zip(batch, grids)]
        return [[(r.estimate, r.heatmap) for r in results]]
    features = [example_features(data_dir, entry, models[0].config) for entry in batch]
    out = []
    for model in models:
        heatmaps, _ = forward_batch(model, features)
        out.append([(pick_peak(h, grid, "max"), h) for h, grid in zip(heatmaps, grids)])
    return out


def load_models(method: str, checkpoints: list | None) -> list[RelNetModel]:
    """The networks a gnn-* method runs, from checkpoints (paths or loaded
    RelNetModels). ValueError if there is none, if one was trained on
    another feature kind than the method's, or if they do not all share
    one ``grid_n``; the message names the checkpoint by its path, or a
    loaded one as "checkpoint k" (k counting from 1)."""
    if not checkpoints:
        raise ValueError(f"method {method!r} needs at least one checkpoint")
    kind = method.removeprefix("gnn-")
    models, names = [], []
    for k, ckpt in enumerate(checkpoints, 1):
        model = ckpt if isinstance(ckpt, RelNetModel) else load_checkpoint(ckpt)
        name = f"checkpoint {k if ckpt is model else ckpt}"
        if model.config.feature_kind != kind:
            raise ValueError(f"{name}: feature kind {model.config.feature_kind!r} does not match method {method!r}")
        if models and model.config.grid_n != models[0].config.grid_n:
            raise ValueError(
                f"{name}: grid_n {model.config.grid_n}, but {names[0]} "
                f"has {models[0].config.grid_n}; all must share one grid"
            )
        models.append(model)
        names.append(name)
    return models


def evaluate(
    method: str,
    data_dir,
    split: str = "test",
    *,
    grid_n: int = DEFAULT_GRID_N,
    checkpoints: list | None = None,
    heatmap_count: int = 0,
    heatmap_dir=None,
) -> EvalReport:
    """Run one localizer over a dataset split, grouping errors by mic count.

    ``grid_n`` is the classical methods' grid; a network uses its own.
    ``checkpoints`` is required for the gnn-* methods, read by
    :func:`load_models`, and refused for the classical ones; with several,
    per-M means are averaged across checkpoints and their spread fills the
    std column. Heatmaps of the first ``heatmap_count`` examples go to
    ``heatmap_dir``: one without the other is refused. Examples are taken
    ``_BATCH`` at a time: each example's pair features are read once and
    every network runs on the batch in one :func:`relnet.forward_batch`.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    if (heatmap_count > 0) != (heatmap_dir is not None):
        raise ValueError(f"heatmaps need a count >= 1 and a directory, got {heatmap_count} and {heatmap_dir!r}")
    if checkpoints and not method.startswith("gnn-"):
        raise ValueError(f"method {method!r} takes no checkpoint, got {len(checkpoints)}")
    entries = split_entries(data_dir, load_manifest(data_dir), split)
    if not entries:
        raise ValueError(f"split {split!r} is empty")
    if heatmap_dir is not None:
        Path(heatmap_dir).mkdir(parents=True, exist_ok=True)

    models: list[RelNetModel | None] = [None]
    if method.startswith("gnn-"):
        models = load_models(method, checkpoints)
        grid_n = models[0].config.grid_n

    errors = np.empty((len(models), len(entries)))
    for start in range(0, len(entries), _BATCH):
        batch = entries[start : start + _BATCH]
        grids = [Grid(entry["room"][0], entry["room"][1], grid_n) for entry in batch]
        for k, row in enumerate(_batch_estimates(method, data_dir, batch, grids, models)):
            for idx, entry, grid, (estimate, heatmap) in zip(range(start, len(entries)), batch, grids, row):
                errors[k, idx] = np.linalg.norm(estimate - np.asarray(entry["source_xy"], dtype=float))
                if k == 0 and heatmap_dir is not None and idx < heatmap_count:
                    name = entry["dir"].replace("/", "_")
                    heatmap_to_pgm(heatmap, grid, Path(heatmap_dir) / f"{method}_{name}.pgm")

    ms = np.array([entry["m"] for entry in entries])
    rows = []
    for m in sorted(set(ms.tolist())):
        sel = errors[:, ms == m]
        per_run_means = sel.mean(axis=1)
        std = float(np.std(per_run_means)) if len(models) > 1 else None
        rows.append(EvalRow(m, int(sel.shape[1]), float(per_run_means.mean()), std))
    return EvalReport(method=method, rows=tuple(rows))


def write_report_csv(report: EvalReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "M", "n_examples", "mean_error_m", "std_error_m"])
        for row in report.rows:
            writer.writerow(
                [
                    report.method,
                    row.m,
                    row.n_examples,
                    repr(row.mean_error_m),
                    "" if row.std_error_m is None else repr(row.std_error_m),
                ]
            )
