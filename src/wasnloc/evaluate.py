"""Evaluation: mean Euclidean localization error, grouped by mic count.

A report row per microphone count M gives the mean error over the split's
examples with that M. For neural methods several checkpoints may be
passed; the row then carries the mean and standard deviation of the per-
checkpoint mean errors (training-seed spread). Classical methods need no
checkpoint and leave the std column empty.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classical import slf_localize, tdoa_localize
from .dataset import example_features, load_example, load_manifest, split_entries
from .features import DEFAULT_FRAME_MS, Grid, extract_frame, heatmap_to_pgm
from .relnet import RelNetModel, load_checkpoint, relnet_forward_features
from .classical import pick_peak

METHODS = ("tdoa", "slf", "gnn-gcc", "gnn-slf")


@dataclass(frozen=True)
class EvalRow:
    m: int
    n_examples: int
    mean_error_m: float
    std_error_m: float | None


@dataclass(frozen=True)
class EvalReport:
    method: str
    grid_n: int
    rows: tuple[EvalRow, ...]

    @property
    def overall_mean(self) -> float:
        total = sum(r.mean_error_m * r.n_examples for r in self.rows)
        count = sum(r.n_examples for r in self.rows)
        return total / count

    def by_m(self) -> dict[int, EvalRow]:
        return {r.m: r for r in self.rows}


def mean_euclid_error(estimates, truths) -> float:
    """Mean 2-D Euclidean distance between estimates and ground truths."""
    est = np.atleast_2d(np.asarray(estimates, dtype=float))
    tru = np.atleast_2d(np.asarray(truths, dtype=float))
    if est.shape != tru.shape or est.shape[0] < 1 or est.shape[1] != 2:
        raise ValueError(f"need equal non-empty 2-D point lists, got {est.shape} vs {tru.shape}")
    return float(np.mean(np.linalg.norm(est - tru, axis=1)))


def _classical_estimate(method: str, data_dir, entry, grid_n: int, frame_ms: float):
    received, scene = load_example(data_dir, entry)
    frame = extract_frame(received, frame_ms)
    grid = Grid(scene.room.width, scene.room.length, grid_n)
    if method == "tdoa":
        return tdoa_localize(frame, scene, grid)
    return slf_localize(frame, scene, grid)


def _gnn_estimate(model: RelNetModel, data_dir, entry, frame_ms: float):
    features = example_features(data_dir, entry, model.config, frame_ms)
    heatmap = relnet_forward_features(model, features)
    width, length, _ = entry["room"]
    grid = Grid(width, length, model.config.grid_n)
    estimate = pick_peak(heatmap, grid, "max")
    return estimate, heatmap, grid


def _per_example_errors(
    method: str,
    data_dir,
    entries: list[dict],
    grid_n: int,
    model: RelNetModel | None,
    frame_ms: float,
    heatmap_count: int,
    heatmap_dir,
) -> np.ndarray:
    errors = np.empty(len(entries))
    for idx, entry in enumerate(entries):
        truth = np.asarray(entry["source_xy"], dtype=float)
        if method in ("tdoa", "slf"):
            result = _classical_estimate(method, data_dir, entry, grid_n, frame_ms)
            estimate, heatmap = result.estimate, result.heatmap
            grid = Grid(entry["room"][0], entry["room"][1], grid_n)
        else:
            estimate, heatmap, grid = _gnn_estimate(model, data_dir, entry, frame_ms)
        errors[idx] = np.linalg.norm(estimate - truth)
        if heatmap_dir is not None and idx < heatmap_count:
            name = entry["dir"].replace("/", "_")
            heatmap_to_pgm(heatmap, grid, Path(heatmap_dir) / f"{method}_{name}.pgm")
    return errors


def evaluate(
    method: str,
    data_dir,
    split: str = "test",
    *,
    grid_n: int = 25,
    checkpoints: list | None = None,
    frame_ms: float = DEFAULT_FRAME_MS,
    heatmap_count: int = 0,
    heatmap_dir=None,
) -> EvalReport:
    """Run one localizer over a dataset split, grouping errors by mic count.

    ``checkpoints`` (paths or loaded RelNetModels) is required for the
    gnn-* methods; with several, per-M means are averaged across
    checkpoints and their spread fills the std column.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    entries = split_entries(data_dir, load_manifest(data_dir), split)
    if not entries:
        raise ValueError(f"split {split!r} is empty")
    if heatmap_dir is not None:
        Path(heatmap_dir).mkdir(parents=True, exist_ok=True)

    models: list[RelNetModel | None] = [None]
    if method.startswith("gnn-"):
        if not checkpoints:
            raise ValueError(f"method {method!r} needs at least one checkpoint")
        kind = method.removeprefix("gnn-")
        models = []
        for ckpt in checkpoints:
            model = ckpt if isinstance(ckpt, RelNetModel) else load_checkpoint(ckpt)
            if model.config.feature_kind != kind:
                raise ValueError(
                    f"checkpoint feature kind {model.config.feature_kind!r} "
                    f"does not match method {method!r}"
                )
            models.append(model)
        grid_n = models[0].config.grid_n

    runs = []
    for run_idx, model in enumerate(models):
        runs.append(
            _per_example_errors(
                method,
                data_dir,
                entries,
                grid_n,
                model,
                frame_ms,
                heatmap_count if run_idx == 0 else 0,
                heatmap_dir,
            )
        )
    errors = np.vstack(runs)

    ms = np.array([entry["m"] for entry in entries])
    rows = []
    for m in sorted(set(ms.tolist())):
        sel = errors[:, ms == m]
        per_run_means = sel.mean(axis=1)
        std = float(np.std(per_run_means)) if len(models) > 1 else None
        rows.append(EvalRow(m, int(sel.shape[1]), float(per_run_means.mean()), std))
    return EvalReport(method=method, grid_n=grid_n, rows=tuple(rows))


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
