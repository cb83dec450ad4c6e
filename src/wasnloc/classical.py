"""Classical grid-based localizers: TDOA least-squares and SLF.

Both follow the same pairwise scheme: compute a per-cell map for every
unordered microphone pair, sum the maps, and pick the grid extremum. The
TDOA method scores each cell by the squared difference between its
theoretical pair TDOA and the measured GCC-PHAT peak (minimum wins); the
SLF method averages the correlation over the lags each cell's footprint
spans (maximum wins). Both run for any M >= 2 with no training or
configuration.

:func:`raw_pair_features` is the one pair step of every localizer, the
relation network's too: it picks the pairs, correlates them all in one
batched call, and returns the float32 rows features.bin stores. TDOA
reduces the ``gcc`` rows (:func:`tdoa_localize`), SLF the ``slf`` rows
(:func:`slf_result`). Evaluation runs the same reductions on the cached
rows, so an estimate from features.bin equals one from the WAVs bit for
bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .features import (
    DEFAULT_N_CENTRAL,
    Grid,
    central_lags,
    gcc_phat,
    mean_mic_height,
    slf_project,
    theoretical_tdoa_grid,
)
from .rir import DEFAULT_FS
from .scenes import Scene, pair_metadata_vector


@dataclass(eq=False)
class LocalizationResult:
    """2-D source estimate (meters) plus the aggregated heatmap behind it."""

    estimate: np.ndarray
    heatmap: np.ndarray


def enumerate_pairs(m: int) -> list[tuple[int, int]]:
    """All unordered index pairs i < j in lexicographic order."""
    if m < 2:
        raise ValueError(f"need at least 2 microphones, got {m}")
    return list(itertools.combinations(range(m), 2))


def oriented_pairs(mics: np.ndarray) -> np.ndarray:
    """The (P, 2) pairs of :func:`enumerate_pairs` for the (M, 3) mic
    positions, each pair ordered by mic position (lexicographic x, y, z)
    rather than by channel index, so relabeling the microphones only
    reorders the rows."""
    pairs = np.array(enumerate_pairs(len(mics)))
    rank = np.argsort(np.lexsort(mics.T[::-1]))  # position order; ties keep index order
    swap = rank[pairs[:, 1]] < rank[pairs[:, 0]]
    pairs[swap] = pairs[swap, ::-1]
    return pairs


def raw_pair_features(
    frame: np.ndarray, scene: Scene, grid_n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The float32 (gcc, slf, meta) rows of an (M, n) frame: (P,
    DEFAULT_N_CENTRAL), (P, grid_n^2) and (P, 9) arrays over the pairs of
    :func:`oriented_pairs`, so relabeling the microphones only reorders
    the rows.

    All pairs are correlated in one :func:`gcc_phat` call; ``gcc`` holds
    each correlation's central lags, ``slf`` its projection onto the
    grid_n grid over the room footprint in the plane of the mean mic
    height, ``meta`` the pair metadata. These are the rows features.bin
    stores; computing both feature kinds at once lets a cache serve either
    localizer and either model.
    """
    if len(frame) != scene.m:
        raise ValueError(f"frame has {len(frame)} channels but scene has {scene.m} mics")
    pairs = oriented_pairs(scene.mics)
    corr = gcc_phat(frame, pairs)
    grid = Grid(scene.room.width, scene.room.length, grid_n)
    slf = slf_project(corr, scene.mics, pairs, grid, mean_mic_height(scene.mics))
    meta = pair_metadata_vector(scene.mics[pairs[:, 0]], scene.mics[pairs[:, 1]], scene.room.dims)
    return central_lags(corr).astype(np.float32), slf.astype(np.float32), meta.astype(np.float32)


def pick_peak(heatmap: np.ndarray, grid: Grid, mode: str) -> np.ndarray:
    """Cell-center coordinates of the map's maximum (mode "max") or minimum ("min").

    Ties break to the lowest flat index (numpy argmax/argmin convention).
    """
    values = np.asarray(heatmap, dtype=float)
    if values.size != grid.n * grid.n:
        raise ValueError(f"heatmap size {values.size} does not match grid {grid.n}^2")
    if np.any(np.isnan(values)):
        raise ValueError("heatmap contains NaN")
    if mode == "max":
        idx = int(np.argmax(values))
    elif mode == "min":
        idx = int(np.argmin(values))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return grid.cell_center(idx)


def slf_result(slf: np.ndarray, grid: Grid) -> LocalizationResult:
    """Spatial-likelihood localization from the float32 (P, n^2) ``slf``
    rows of :func:`raw_pair_features`: their float64 sum is the map, its
    maximum the estimate."""
    heatmap = np.sum(slf, axis=0, dtype=np.float64)
    return LocalizationResult(pick_peak(heatmap, grid, "max"), heatmap)


def tdoa_localize(
    frame: np.ndarray | None, scene: Scene, grid: Grid, *, gcc: np.ndarray | None = None
) -> LocalizationResult:
    """Least-squares TDOA localization on the grid (minimum picks the source).

    Per pair of :func:`oriented_pairs`, the measured TDOA is the peak lag of
    its float32 central GCC-PHAT row, in seconds: the ``gcc`` rows of the
    frame's :func:`raw_pair_features`, or the cached rows passed as
    ``gcc`` in their place; each cell sums over the pairs the squared
    difference against its theoretical TDOA.
    """
    if gcc is None:
        gcc = raw_pair_features(frame, scene, grid.n)[0]
    measured = (np.argmax(gcc, axis=1) - DEFAULT_N_CENTRAL // 2) / DEFAULT_FS
    theo = theoretical_tdoa_grid(scene.mics, oriented_pairs(scene.mics), grid, mean_mic_height(scene.mics))
    total = np.sum((theo - measured[:, None]) ** 2, axis=0)
    return LocalizationResult(pick_peak(total, grid, "min"), total)


def slf_localize(frame: np.ndarray, scene: Scene, grid: Grid) -> LocalizationResult:
    """Spatial-likelihood localization on the grid over the scene's room
    (maximum picks the source): the :func:`slf_result` of the frame's
    :func:`raw_pair_features`."""
    if (grid.width, grid.length) != (scene.room.width, scene.room.length):
        raise ValueError(f"grid {grid.width} x {grid.length} m is not the room's footprint")
    return slf_result(raw_pair_features(frame, scene, grid.n)[1], grid)
