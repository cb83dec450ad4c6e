"""Pairwise signal features: frames, GCC-PHAT and grid projections.

Signals and frames are (M, n) float arrays at the package's one rate,
``rir.DEFAULT_FS``. Every localizer analyses one frame of DEFAULT_FRAME_MS,
the most energetic of the signal's non-overlapping windows
(:func:`extract_frame`).

The search grid is a flattened n x n discretization of the room footprint;
cell (u, v) is centered at ((u + 0.5) width / n, (v + 0.5) length / n) and
stored at flat index u * n + v. Heatmaps over the grid are plain 1-D numpy
arrays of length n^2 aligned to that indexing.

GCC-PHAT cross-correlations are computed Welch-style: the analysis frame is
split into 50%-overlapped DFT windows of DEFAULT_FFT_SIZE samples, each
window's cross-spectrum is whitened to unit magnitude, the whitened spectra
are averaged, and a single inverse transform yields the correlation,
circularly shifted so lag 0 sits at the center. The peak lag approximates
DEFAULT_FS * (tau_i - tau_j). GNN-GCC and the TDOA peak search read the
DEFAULT_N_CENTRAL lags around 0 (:func:`central_lags`). Like the frame
length, both sizes belong to the method and are fixed.

Each stage works on all microphone pairs of one example at once: a (P, 2)
array of channel indices selects the pairs, and every result has one row
per pair. Every row equals what the same stage computes for that pair
alone, bit for bit, so batching changes no feature. GCC-PHAT transforms
each channel once for all pairs, then whitens and averages the
cross-spectra a few pairs at a time (:data:`_TILE`), so that its working
set stays in cache however many pairs an example has.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rir import DEFAULT_FS, SPEED_OF_SOUND
from .typedjson import InputError, reading

PHAT_FLOOR = 1e-12
DEFAULT_FFT_SIZE = 1024
DEFAULT_N_CENTRAL = 200
DEFAULT_GRID_N = 25
DEFAULT_FRAME_MS = 500.0

# Pairs per GCC-PHAT tile. Two pairs' cross-spectra and magnitudes (about
# 0.35 MB for 1024-point DFTs of a 500 ms frame) stay in a core's L2 cache
# beside the channel spectra; all 21 pairs of M = 7 at once took 2.4 MB per
# temporary. Each pair's arithmetic is elementwise and its window mean runs
# in window order, so any value gives the same correlations.
_TILE = 2


@dataclass(frozen=True)
class Grid:
    """Square-count grid over a rectangular room footprint."""

    width: float
    length: float
    n: int = DEFAULT_GRID_N

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("Grid.n must be >= 2")
        if self.width <= 0 or self.length <= 0:
            raise ValueError("Grid footprint must be positive")

    def cell_centers(self) -> np.ndarray:
        """(n^2, 2) cell-center coordinates in meters, flat index u * n + v."""
        u = (np.arange(self.n) + 0.5) * self.width / self.n
        v = (np.arange(self.n) + 0.5) * self.length / self.n
        return np.column_stack([np.repeat(u, self.n), np.tile(v, self.n)])

    def cell_center(self, flat_index: int) -> np.ndarray:
        u, v = divmod(int(flat_index), self.n)
        if not 0 <= u < self.n:
            raise IndexError(f"flat index {flat_index} outside grid of {self.n * self.n} cells")
        return np.array([(u + 0.5) * self.width / self.n, (v + 0.5) * self.length / self.n])


def extract_frame(channels: np.ndarray) -> np.ndarray:
    """The (M, frame_len) DEFAULT_FRAME_MS window of the (M, n) channels
    with maximal mean energy over channels.

    Candidate windows of L samples start at 0, L, 2L, ...; a trailing
    remainder shorter than one frame is ignored. Ties go to the earliest
    window.
    """
    channels = np.asarray(channels, dtype=float)
    m, n = channels.shape
    frame_len = int(round(DEFAULT_FS * DEFAULT_FRAME_MS / 1000.0))
    n_windows = n // frame_len
    if n_windows < 1:
        raise ValueError(f"signal of {n} samples is shorter than one {frame_len}-sample frame")
    windows = channels[:, : n_windows * frame_len].reshape(m, n_windows, frame_len)
    energy = np.sum(windows**2, axis=(0, 2))
    start = int(np.argmax(energy)) * frame_len
    return channels[:, start : start + frame_len].copy()


def gcc_phat(channels: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """PHAT-weighted generalized cross-correlations of channel pairs.

    ``channels`` is an (M, N) frame and ``pairs`` a (P, 2) array of channel
    indices. Row p of the (P, DEFAULT_FFT_SIZE) result correlates channel
    pairs[p, 0] against channel pairs[p, 1] over lags -DEFAULT_FFT_SIZE/2 ..
    DEFAULT_FFT_SIZE/2 - 1, lag 0 at index DEFAULT_FFT_SIZE // 2.

    Each channel's windowed spectrum, and its conjugate, is computed once,
    however many pairs it joins. The whitened cross-spectra are then built
    and averaged over windows :data:`_TILE` pairs at a time in two scratch
    buffers, so only a few pairs' spectra are in memory at once, and one
    inverse transform turns all the averages into correlations.
    """
    channels = np.asarray(channels, dtype=float)
    if channels.shape[1] < DEFAULT_FFT_SIZE:
        raise ValueError(f"frame of {channels.shape[1]} samples shorter than fft_size {DEFAULT_FFT_SIZE}")

    half = DEFAULT_FFT_SIZE // 2
    windows = np.lib.stride_tricks.sliding_window_view(channels, DEFAULT_FFT_SIZE, axis=1)[:, ::half]
    spec = np.fft.rfft(windows, axis=-1)  # (M, windows, bins)
    conj = np.conj(spec)
    cross = np.empty((_TILE,) + spec.shape[1:], dtype=complex)
    mag = np.empty(cross.shape)
    mean = np.empty((len(pairs), spec.shape[2]), dtype=complex)
    for start in range(0, len(pairs), _TILE):
        tile = pairs[start : start + _TILE]
        c, m = cross[: len(tile)], mag[: len(tile)]
        for k, (i, j) in enumerate(tile):
            np.multiply(spec[i], conj[j], out=c[k])
        np.abs(c, out=m)
        np.maximum(m, PHAT_FLOOR, out=m)
        # numpy divides a complex by a real cast to complex as (a + b*0) * (1/m),
        # so multiplying by the reciprocal gives the same bits in less time
        np.divide(1.0, m, out=m)
        c *= m
        np.mean(c, axis=1, out=mean[start : start + len(tile)])
    cc = np.fft.irfft(mean, DEFAULT_FFT_SIZE, axis=-1)
    return np.concatenate([cc[:, -half:], cc[:, :half]], axis=1)


def central_lags(corr: np.ndarray) -> np.ndarray:
    """The DEFAULT_N_CENTRAL lags around 0 of each :func:`gcc_phat` row: the
    lags -100 .. 99."""
    c0 = corr.shape[-1] // 2 - DEFAULT_N_CENTRAL // 2
    return corr[..., c0 : c0 + DEFAULT_N_CENTRAL]


def theoretical_tdoa_grid(
    mics: np.ndarray, pairs: np.ndarray, grid: Grid, z_plane: float
) -> np.ndarray:
    """(P, n^2) theoretical TDOAs (seconds) of mic pairs, at height z_plane.

    Cell value is (|q - p_i| - |q - p_j|) / c for pair (i, j), with q the
    3-D point above the cell center, matching the sign convention of
    :func:`gcc_phat` peaks.
    """
    dist = _lattice_distances(mics, grid, z_plane, corners=False).reshape(len(mics), -1)
    return (dist[pairs[:, 0]] - dist[pairs[:, 1]]) / SPEED_OF_SOUND


def _lattice_distances(mics: np.ndarray, grid: Grid, z_plane: float, corners: bool) -> np.ndarray:
    """(M, k, k) distances of each mic to the cell corners (k = n + 1) or
    centers (k = n) at height z_plane, row u, column v, like the flat cell
    index; the squares add up in x, y, z order, as ``np.linalg.norm``'s."""
    n, mics = grid.n, np.asarray(mics, dtype=float)
    steps = np.arange(n + 1) if corners else np.arange(n) + 0.5  # centers as in Grid.cell_centers
    u, v = steps * grid.width / n, steps * grid.length / n
    return np.sqrt(
        (u[None, :, None] - mics[:, 0, None, None]) ** 2
        + (v[None, None, :] - mics[:, 1, None, None]) ** 2
        + ((z_plane - mics[:, 2]) ** 2)[:, None, None]
    )


def slf_project(
    corr: np.ndarray,
    mics: np.ndarray,
    pairs: np.ndarray,
    grid: Grid,
    z_plane: float,
) -> np.ndarray:
    """(P, n^2) spatial likelihood maps: mean correlation over each cell's
    lag interval, one row per :func:`gcc_phat` row of ``pairs``.

    A cell's footprint spans the theoretical lags between the minimum and
    maximum over its four corners (at height z_plane, same sign convention
    as :func:`theoretical_tdoa_grid`); the cell takes the mean of the full
    correlation over the integer lags from floor(min) to ceil(max). A point
    sample at the cell center would miss a PHAT peak about one lag wide
    whenever neighbouring cells lie several lags apart. Lags outside the
    correlation clamp to its edge.
    """
    dist = _lattice_distances(mics, grid, z_plane, corners=True)
    lags = (dist[pairs[:, 0]] - dist[pairs[:, 1]]) * (DEFAULT_FS / SPEED_OF_SOUND)
    lo = np.minimum(lags[:, :-1], lags[:, 1:])
    hi = np.maximum(lags[:, :-1], lags[:, 1:])
    lo = np.minimum(lo[:, :, :-1], lo[:, :, 1:]).reshape(len(pairs), -1)
    hi = np.maximum(hi[:, :, :-1], hi[:, :, 1:]).reshape(len(pairs), -1)
    fft_size = corr.shape[1]
    half = fft_size // 2
    first = np.clip(np.floor(lo).astype(int) + half, 0, fft_size - 1)
    last = np.clip(np.ceil(hi).astype(int) + half, 0, fft_size - 1)
    csum = np.zeros((len(pairs), fft_size + 1))
    np.cumsum(corr, axis=1, out=csum[:, 1:])
    total = np.take_along_axis(csum, last + 1, axis=1) - np.take_along_axis(csum, first, axis=1)
    return total / (last - first + 1)


def mean_mic_height(mic_positions: np.ndarray) -> float:
    return float(np.mean(np.asarray(mic_positions)[:, 2]))


def heatmap_to_csv(values: np.ndarray, grid: Grid, path) -> None:
    """Write a heatmap as n rows of n comma-separated values (row u per line)."""
    mat = np.asarray(values, dtype=float).reshape(grid.n, grid.n)
    with open(path, "w") as fh:
        for row in mat:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def heatmap_from_csv(path) -> np.ndarray:
    """The cells of a heatmap_to_csv file, row by row; InputError naming the
    file unless it holds a square grid of at least 2 x 2 finite numbers."""
    with reading(path), open(path) as fh:
        try:
            mat = np.array([[float(tok) for tok in line.split(",")] for line in fh if line.strip()])
        except ValueError as exc:  # a token that is not a number, a ragged row, or bytes not UTF-8
            raise InputError(str(exc)) from exc
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or len(mat) < 2:
            raise InputError(f"expected a square heatmap of at least 2 x 2 cells, got shape {mat.shape}")
        if not np.isfinite(mat).all():
            row, col = np.argwhere(~np.isfinite(mat))[0]
            raise InputError(f"cell ({row}, {col}) is {mat[row, col]}, expected a finite number")
    return mat.ravel()


def heatmap_to_pgm(values: np.ndarray, grid: Grid, path) -> None:
    """Write a heatmap as a binary 8-bit PGM, min-max normalized."""
    mat = np.asarray(values, dtype=float).reshape(grid.n, grid.n)
    lo, hi = float(mat.min()), float(mat.max())
    if hi > lo:
        scaled = np.rint((mat - lo) / (hi - lo) * 255.0)
    else:
        scaled = np.zeros_like(mat)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{grid.n} {grid.n}\n255\n".encode("ascii"))
        fh.write(scaled.astype(np.uint8).tobytes())
