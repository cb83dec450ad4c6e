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
correlates all pairs in one batched call. Each localizer is a reduction
of its rows over the pairs.
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


def pair_correlations(frame: np.ndarray, scene: Scene) -> tuple[np.ndarray, np.ndarray, float]:
    """The pair step every localizer shares on an (M, n) frame: (pairs,
    corr, z_plane).

    ``pairs`` is the (P, 2) array of :func:`enumerate_pairs`, each pair
    ordered by mic position (lexicographic x, y, z) rather than by channel
    index, so relabeling the microphones only reorders the rows. ``corr``
    holds their (P, DEFAULT_FFT_SIZE) :func:`gcc_phat` correlations and
    z_plane is the mean mic height, the plane the search grid lies in.
    """
    if len(frame) != scene.m:
        raise ValueError(f"frame has {len(frame)} channels but scene has {scene.m} mics")
    pairs = np.array(enumerate_pairs(scene.m))
    rank = np.argsort(np.lexsort(scene.mics.T[::-1]))  # position order; ties keep index order
    swap = rank[pairs[:, 1]] < rank[pairs[:, 0]]
    pairs[swap] = pairs[swap, ::-1]
    return pairs, gcc_phat(frame, pairs), mean_mic_height(scene.mics)


def pick_peak(heatmap: np.ndarray, grid: Grid, mode: str = "max") -> np.ndarray:
    """Cell-center coordinates of the map extremum.

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


def tdoa_localize(frame: np.ndarray, scene: Scene, grid: Grid) -> LocalizationResult:
    """Least-squares TDOA localization on the grid (minimum picks the source).

    Per pair, the measured TDOA is the GCC-PHAT peak lag, searched over the
    central correlation bins the relation network also consumes, in
    seconds; each cell sums over the pairs the squared difference against
    its theoretical TDOA.
    """
    pairs, corr, z_plane = pair_correlations(frame, scene)
    measured = (np.argmax(central_lags(corr), axis=1) - DEFAULT_N_CENTRAL // 2) / DEFAULT_FS
    theo = theoretical_tdoa_grid(scene.mics, pairs, grid, z_plane)
    total = np.sum((theo - measured[:, None]) ** 2, axis=0)
    return LocalizationResult(pick_peak(total, grid, "min"), total)


def slf_localize(frame: np.ndarray, scene: Scene, grid: Grid) -> LocalizationResult:
    """Spatial-likelihood localization on the grid (maximum picks the source).

    Sums the :func:`slf_project` maps of all pairs.
    """
    pairs, corr, z_plane = pair_correlations(frame, scene)
    total = np.sum(slf_project(corr, scene.mics, pairs, grid, z_plane), axis=0)
    return LocalizationResult(pick_peak(total, grid, "max"), total)
