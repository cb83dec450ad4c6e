"""Classical grid-based localizers: TDOA least-squares and SLF.

Both follow the same pairwise scheme: compute a per-cell map for every
unordered microphone pair, sum the maps, and pick the grid extremum. The
TDOA method scores each cell by the squared difference between its
theoretical pair TDOA and the measured GCC-PHAT peak (minimum wins); the
SLF method averages the correlation over the lags each cell's footprint
spans (maximum wins). Both run for any M >= 2 with no training or
configuration.

:func:`pair_correlations` is the pair step they share with the relation
network's features: it picks the pairs and the grid plane once and
correlates all pairs in one batched call. Each localizer rounds its rows
to float32, as features.bin stores them, and reduces them over the pairs.
Evaluation runs the same reductions on the cached rows, so an estimate
from features.bin equals one from the WAVs bit for bit.
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
from .scenes import Scene


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


def pair_correlations(frame: np.ndarray, scene: Scene) -> tuple[np.ndarray, np.ndarray, float]:
    """The pair step every localizer shares on an (M, n) frame: (pairs,
    corr, z_plane).

    ``pairs`` is the (P, 2) array of :func:`oriented_pairs`, ``corr`` their
    (P, DEFAULT_FFT_SIZE) :func:`gcc_phat` correlations, and z_plane the
    mean mic height, the plane the search grid lies in.
    """
    if len(frame) != scene.m:
        raise ValueError(f"frame has {len(frame)} channels but scene has {scene.m} mics")
    pairs = oriented_pairs(scene.mics)
    return pairs, gcc_phat(frame, pairs), mean_mic_height(scene.mics)


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


def slf_heatmap(slf: np.ndarray) -> np.ndarray:
    """Spatial-likelihood map: the float64 sum of the float32 (P, n^2)
    :func:`slf_project` rows of the pairs."""
    return np.sum(slf, axis=0, dtype=np.float64)


def tdoa_localize(
    frame: np.ndarray | None, scene: Scene, grid: Grid, *, gcc: np.ndarray | None = None
) -> LocalizationResult:
    """Least-squares TDOA localization on the grid (minimum picks the source).

    Per pair of :func:`oriented_pairs`, the measured TDOA is the peak lag of
    its float32 central GCC-PHAT row, in seconds: the frame's rows, or the
    cached ``gcc`` rows in their place; each cell sums over the pairs the
    squared difference against its theoretical TDOA.
    """
    if gcc is None:
        gcc = central_lags(pair_correlations(frame, scene)[1]).astype(np.float32)
    measured = (np.argmax(gcc, axis=1) - DEFAULT_N_CENTRAL // 2) / DEFAULT_FS
    theo = theoretical_tdoa_grid(scene.mics, oriented_pairs(scene.mics), grid, mean_mic_height(scene.mics))
    total = np.sum((theo - measured[:, None]) ** 2, axis=0)
    return LocalizationResult(pick_peak(total, grid, "min"), total)


def slf_localize(frame: np.ndarray, scene: Scene, grid: Grid) -> LocalizationResult:
    """Spatial-likelihood localization on the grid (maximum picks the source):
    the :func:`slf_heatmap` of the frame's pairs."""
    pairs, corr, z_plane = pair_correlations(frame, scene)
    total = slf_heatmap(slf_project(corr, scene.mics, pairs, grid, z_plane).astype(np.float32))
    return LocalizationResult(pick_peak(total, grid, "max"), total)
