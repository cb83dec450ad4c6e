"""Shoebox room impulse responses via the image source method.

Reflections are enumerated as mirror images of the source over the six
walls; each image contributes one integer-sample tap with amplitude
(-beta)^(reflection count) / (4 pi distance), where beta = sqrt(1 - alpha)
is the uniform pressure reflection magnitude derived from the requested
reverberation time through Eyring's relation. The reflection coefficient
carries a negative sign: with integer-sample taps, many images of similar
path length land on the same tap, and an all-positive convention makes
them add coherently, inflating late energy by the per-tap image count and
stretching the measured decay ~1.5x. Alternating parity restores the
incoherent energy budget so the simulated decay tracks the requested T60.

Responses are sampled at DEFAULT_FS, the package's one rate: the GCC-PHAT
front end's DFT size, lag crop and frame length are sized for it. No
fractional-delay interpolation is applied: localization here works at
grid resolution far above the ~2 cm path error of one sample at that rate.

``simulate_rir`` takes all microphones of a scene at once and returns an
(M, n_taps) array whose row k is mic k's response. The image positions,
their reflection counts and amplitude numerators depend only on the room
and the source, so they are enumerated once per call and shared; only
distances, delays and the tap sums are per microphone.
"""

from __future__ import annotations

import math

import numpy as np

from .scenes import RoomSpec

SPEED_OF_SOUND = 343.0
DEFAULT_FS = 16_000
DECAY_FIT_DB = (0.0, -10.0)  # decay-time fit window, dB below the direct sound

# RIRs are cut at this multiple of T60; the image set is enumerated out to
# the matching path length.
RIR_LENGTH_T60_FACTOR = 1.25

# Image positions per summation block (rounded to whole x-rows). Each block
# sums its taps from zero in enumeration order, then adds them to the
# response, so this partition alone fixes the floating-point summation
# order: another value moves taps by ~1e-16 and changes dataset bytes.
_CHUNK = 2_000_000

# Image positions per elementwise tile (rounded to whole x-rows, at least
# one). Numerators, distances and masks are computed a tile at a time into
# buffers reused across the call, which keeps the working set in cache;
# tiles only split a block's work, not its summation order, so any value
# gives the same taps.
_TILE = 65_536


class DegenerateGeometryError(ValueError):
    """Source and microphone coincide (or nearly so)."""


class InfeasibleRoomError(ValueError):
    """The requested T60 has no physical absorption for this room."""


def eyring_absorption(room: RoomSpec) -> float:
    """Uniform wall absorption coefficient reproducing room.t60.

    alpha = 1 - exp(-0.161 V / (S T60)) with V the room volume and S the
    total wall surface. Strictly inside (0, 1) for physical inputs; raises
    InfeasibleRoomError otherwise (defensive, e.g. degenerate dimensions).
    """
    alpha = 1.0 - math.exp(-0.161 * room.volume / (room.surface_area * room.t60))
    if not 0.0 < alpha < 1.0:
        raise InfeasibleRoomError(
            f"absorption {alpha} outside (0, 1) for room {room.width}x{room.length}"
            f"x{room.height}, T60={room.t60}"
        )
    return alpha


def _axis_images(src: float, dim: float, path_limit: float) -> tuple[np.ndarray, np.ndarray]:
    """1-D image coordinates and per-axis reflection counts.

    For wall order n in [-N, N] and parity p in {0, 1} the image sits at
    (1 - 2p) src + 2 n dim and has |n - p| + |n| reflections along this
    axis. N is the order needed to cover image paths out to path_limit.
    """
    n_max = int(math.ceil(path_limit / (2.0 * dim)))
    n = np.arange(-n_max, n_max + 1)
    coords = []
    refl = []
    for p in (0, 1):
        coords.append((1 - 2 * p) * src + 2.0 * n * dim)
        refl.append(np.abs(n - p) + np.abs(n))
    return np.concatenate(coords), np.concatenate(refl)


def simulate_rir(
    room: RoomSpec,
    source: np.ndarray,
    mics: np.ndarray,
    *,
    max_order: int | None = None,
) -> np.ndarray:
    """Image-source RIRs between one source and each of the (M, 3) mics, as
    an (M, n_taps) array of taps at DEFAULT_FS whose row k belongs to mic k.

    Each response is truncated at RIR_LENGTH_T60_FACTOR * T60 and the image
    set is enumerated (per dimension) out to the matching path length.
    ``max_order`` caps the total reflection count: 0 keeps only the direct
    path, None applies no cap beyond the length-derived enumeration. The
    image lattice and its reflection amplitudes depend only on the room and
    the source, so one pass over the lattice serves all M mics; each mic's
    taps are summed exactly as a call with that mic alone would sum them.
    """
    source = np.asarray(source, dtype=float).reshape(3)
    mics = np.asarray(mics, dtype=float).reshape(-1, 3)
    dims = room.dims
    if np.any(source <= 0) or np.any(source >= dims):
        raise ValueError("source must lie strictly inside the room")
    for k, mic in enumerate(mics):
        if np.any(mic <= 0) or np.any(mic >= dims):
            raise ValueError(f"mic {k} must lie strictly inside the room")
    direct = [float(np.linalg.norm(source - mic)) for mic in mics]
    for k, d in enumerate(direct):
        if d < 1e-9:
            raise DegenerateGeometryError(f"source coincides with mic {k}")

    alpha = eyring_absorption(room)
    beta = -math.sqrt(1.0 - alpha)  # sign alternates with parity, see module docstring
    n_taps = int(math.ceil(RIR_LENGTH_T60_FACTOR * room.t60 * DEFAULT_FS))
    path_limit = SPEED_OF_SOUND * n_taps / DEFAULT_FS
    taps = np.zeros((len(mics), n_taps))

    if max_order == 0:
        for row, d in zip(taps, direct):
            idx = int(np.rint(DEFAULT_FS * d / SPEED_OF_SOUND))
            if idx < n_taps:
                row[idx] = 1.0 / (4.0 * math.pi * d)
        return taps

    ax = [_axis_images(source[d], dims[d], path_limit) for d in range(3)]
    (cx, rx), (cy, ry), (cz, rz) = ax
    # Walk the x-axis images in blocks of _CHUNK and tiles of _TILE
    # positions (see there). Each tile's amplitude numerators, powers of
    # beta looked up by the (small-integer) reflection counts, are shared by
    # all mics; only the squared distances are per mic.
    dx2 = [(cx - mic[0]) ** 2 for mic in mics]
    dyz2 = [((cy - mic[1])[:, None] ** 2 + (cz - mic[2])[None, :] ** 2)[None, :, :] for mic in mics]
    ryz = (ry[:, None] + rz[None, :])[None, :, :]
    max_refl = int(rx.max() + ry.max() + rz.max())
    beta_pow = beta ** np.arange(max_refl + 1, dtype=float)
    limit2 = path_limit**2
    block = max(1, _CHUNK // ryz.size)
    rows = min(max(1, _TILE // ryz.size), cx.size)
    d2_buf = np.empty((rows,) + ryz.shape[1:])
    keep_buf = np.empty(d2_buf.shape, dtype=bool)
    refl_buf = np.empty(d2_buf.shape, dtype=ryz.dtype)
    num_buf = np.empty(d2_buf.shape)
    for start in range(0, cx.size, block):
        stop = min(start + block, cx.size)
        # np.add.at sums in input order, tile after tile, so the block's sum
        # order does not depend on _TILE. d2 < limit2 rounds to at most tap
        # n_taps; the extra bin absorbs the images that land there.
        partial = np.zeros((len(mics), n_taps + 1))
        for lo in range(start, stop, rows):
            hi = min(lo + rows, stop)
            refl = np.add(rx[lo:hi, None, None], ryz, out=refl_buf[: hi - lo])
            # counts index beta_pow by construction, so "clip" never clips;
            # it only spares take a buffered copy of its output
            num = beta_pow.take(refl, out=num_buf[: hi - lo], mode="clip")
            for k in range(len(mics)):
                d2 = np.add(dx2[k][lo:hi, None, None], dyz2[k], out=d2_buf[: hi - lo])
                keep = np.less(d2, limit2, out=keep_buf[: hi - lo])
                if max_order is not None:
                    keep &= refl <= max_order
                dist = d2[keep]
                if dist.size == 0:
                    continue
                np.sqrt(dist, out=dist)
                idx = dist * DEFAULT_FS
                idx /= SPEED_OF_SOUND
                np.rint(idx, out=idx)
                dist *= 4.0 * math.pi
                amp = num[keep]
                amp /= dist
                np.add.at(partial[k], idx.astype(np.intp), amp)
        taps += partial[:, :n_taps]
    return taps


def _edc_db_from_onset(taps: np.ndarray) -> np.ndarray:
    energy = np.asarray(taps, dtype=float) ** 2
    total = energy.sum()
    if total <= 0:
        raise ValueError("RIR has no energy")
    edc = np.cumsum(energy[::-1])[::-1] / total
    onset = int(np.flatnonzero(energy)[0])
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(np.maximum(edc[onset:], 1e-300))


def _fit_decay_time(db: np.ndarray) -> float:
    hi, lo = DECAY_FIT_DB
    mask = (db <= hi) & (db >= lo)
    if mask.sum() < 2:
        raise ValueError(f"decay curve never spans the {DECAY_FIT_DB} dB fit range")
    t = np.flatnonzero(mask) / DEFAULT_FS
    slope, _ = np.polyfit(t, db[mask], 1)
    if slope >= 0:
        raise ValueError("non-decaying Schroeder curve")
    return -60.0 / slope


def schroeder_decay_time(taps: np.ndarray) -> float:
    """Time to fall 60 dB, from backward integration of the squared response
    taps sampled at DEFAULT_FS.

    A line is fitted to the Schroeder curve over DECAY_FIT_DB, measured
    from the direct-sound arrival, and extrapolated to -60 dB. Deeper
    windows are unreliable on responses truncated at 1.25 T60, where the
    missing tail steepens the end of the curve.
    """
    return _fit_decay_time(_edc_db_from_onset(taps))


def average_decay_time(rirs) -> float:
    """Room decay time from several measurement positions, one response per
    row of rirs (such as simulate_rir's array), sampled at DEFAULT_FS.

    Onset-aligned, energy-normalized Schroeder curves are averaged across
    the given responses before the slope fit, the usual way a single room
    figure is measured from multiple source-microphone pairs. Steadier
    than any single response, whose early reflections are position-bound.
    """
    if len(rirs) == 0:
        raise ValueError("need at least one RIR")
    curves = [_edc_db_from_onset(taps) for taps in rirs]
    length = min(c.size for c in curves)
    mean_energy = np.mean([10.0 ** (c[:length] / 10.0) for c in curves], axis=0)
    db = 10.0 * np.log10(np.maximum(mean_energy, 1e-300))
    return _fit_decay_time(db)
