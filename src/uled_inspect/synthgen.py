"""Synthetic measurement frames with known geometry, photometry, and defects.

Layout rule (normative for all fixtures): the light-emitting surface starts
and ends with a half-gap border, the cell pitch is cell_size_px + gap_px, and
the bright interior of cell (r, c) spans

    x in [gap/2 + c*pitch, gap/2 + c*pitch + cell_size_px)

and the y-analogue.  Sub-pixel boundaries are rasterized by area-weighted
coverage, so non-integer pitches stay exact.

Randomness: SplitMix64 substreams derived from the config seed via
rng.mix(seed, k) with

    k=0 per-cell brightness normals      k=3 defect selection keys
    k=1 per-cell CIE-x normals           k=4 per-sample noise normals
    k=2 per-cell CIE-y normals

Streams k=0..2 each give one Gaussian draw per cell (_cell_draws), held
constant across the cell interior: brightness clamped >= 0, chromaticity
clipped to [0, 1].  The true brightness distribution of functional uLEDs is
unknown, so the Gaussian model is an explicit assumption of this generator.
Defective cells emit defect_residual times their drawn brightness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import geometry
from .errors import ConfigError
from .io import DefectMap, MeasurementFrame
from .rng import GOLDEN, SplitMix64, mix

LES_MARGIN_PX = 12

_STREAM_BRIGHTNESS = 0
_STREAM_CHROMA_X = 1
_STREAM_CHROMA_Y = 2
_STREAM_DEFECTS = 3
_STREAM_NOISE = 4

# The smallest w (the distortion's bottom row, 1 at the LES center) allowed at
# an LES corner.  Scale goes like 1/w, so no part of the LES is drawn at more
# than twice its center scale, and the frame stays within a few LES sizes.
_MIN_CORNER_W = 0.5


@dataclass(frozen=True)
class SynthConfig:
    grid_rows: int = 60
    grid_cols: int = 60
    cell_size_px: float = 23.0
    gap_px: float = 3.0
    lum_mean: float = 100.0
    lum_sigma: float = 5.0
    defect_fraction: float = 0.0
    defect_cells: tuple[tuple[int, int], ...] | None = None
    defect_residual: float = 0.02
    rotation_deg: float = 0.0
    perspective_strength: float = 0.0
    noise_sigma: float = 0.0
    chroma_mean_x: float = 0.31
    chroma_mean_y: float = 0.32
    chroma_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.grid_rows < 1 or self.grid_cols < 1:
            raise ConfigError(f"grid must be at least 1x1, got {self.grid_rows}x{self.grid_cols}")
        if self.gap_px < 0 or self.cell_size_px <= self.gap_px:
            raise ConfigError(
                f"need cell_size_px > gap_px >= 0, got cell={self.cell_size_px} gap={self.gap_px}"
            )
        if not 0.0 <= self.defect_fraction < 1.0:
            raise ConfigError(f"defect_fraction must lie in [0, 1), got {self.defect_fraction}")
        if not 0.0 <= self.defect_residual < 1.0:
            raise ConfigError(f"defect_residual must lie in [0, 1), got {self.defect_residual}")
        for name in ("lum_sigma", "noise_sigma", "chroma_sigma"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.lum_mean < 0:
            raise ConfigError("lum_mean must be >= 0")
        if self.perspective_strength < 0:
            raise ConfigError("perspective_strength must be >= 0")
        # w is affine and 1 at the LES center, so its values at the four LES
        # corners bound it over the LES.
        m = _distortion_matrix(self)
        corners = [(x, y) for x in (0.0, self.les_width) for y in (0.0, self.les_height)]
        corner_w = min(m[2, 0] * x + m[2, 1] * y + m[2, 2] for x, y in corners)
        if corner_w < _MIN_CORNER_W:
            raise ConfigError(
                f"perspective_strength {self.perspective_strength} with rotation_deg {self.rotation_deg} "
                f"brings an LES corner too near the horizon (w = {corner_w:.3g} < {_MIN_CORNER_W})"
            )
        for coord in (self.chroma_mean_x, self.chroma_mean_y):
            if not 0.0 <= coord <= 1.0:
                raise ConfigError(f"chroma means must lie in [0, 1], got {coord}")
        if self.defect_cells is not None:
            for r, c in self.defect_cells:
                if not (0 <= r < self.grid_rows and 0 <= c < self.grid_cols):
                    raise ConfigError(
                        f"defect cell ({r},{c}) outside {self.grid_rows}x{self.grid_cols} grid"
                    )

    @property
    def pitch(self) -> float:
        return self.cell_size_px + self.gap_px

    @property
    def les_width(self) -> float:
        return self.grid_cols * self.pitch

    @property
    def les_height(self) -> float:
        return self.grid_rows * self.pitch


def _cell_draws(config: SynthConfig, stream: int, mean: float, sigma: float) -> np.ndarray:
    """mean + sigma * z (rows x cols) for one normal z per cell from substream `stream`."""
    z = SplitMix64(mix(config.seed, stream)).normal_batch(config.grid_rows * config.grid_cols)
    return (mean + sigma * z).reshape(config.grid_rows, config.grid_cols)


def drawn_brightness(config: SynthConfig) -> np.ndarray:
    """The per-cell brightness draws (rows x cols), before any defect scaling."""
    return np.maximum(_cell_draws(config, _STREAM_BRIGHTNESS, config.lum_mean, config.lum_sigma), 0.0)


def defect_mask(config: SynthConfig) -> np.ndarray:
    """Ground-truth defect mask from the explicit list or the fraction draw."""
    n = config.grid_rows * config.grid_cols
    mask = np.zeros(n, dtype=bool)
    if config.defect_cells is not None:
        for r, c in config.defect_cells:
            mask[r * config.grid_cols + c] = True
    elif config.defect_fraction > 0.0:
        count = int(round(config.defect_fraction * n))
        if count > 0:
            keys = SplitMix64(mix(config.seed, _STREAM_DEFECTS)).uniform_batch(n)
            chosen = np.argsort(keys, kind="stable")[:count]
            mask[chosen] = True
    return mask.reshape(config.grid_rows, config.grid_cols)


def _distortion_matrix(config: SynthConfig) -> np.ndarray:
    """Rotation + perspective about the LES center, before frame placement
    (not normalized)."""
    cx, cy = config.les_width / 2.0, config.les_height / 2.0
    theta = math.radians(config.rotation_deg)
    rot = np.array(
        [
            [math.cos(theta), -math.sin(theta), 0.0],
            [math.sin(theta), math.cos(theta), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    persp = np.eye(3)
    persp[2, 0] = config.perspective_strength / config.les_width
    persp[2, 1] = -config.perspective_strength / config.les_height
    to_center = np.array([[1, 0, -cx], [0, 1, -cy], [0, 0, 1]], dtype=np.float64)
    from_center = np.array([[1, 0, cx], [0, 1, cy], [0, 0, 1]], dtype=np.float64)
    return from_center @ persp @ rot @ to_center


def _coverage_matrix(n_cells: int, pitch: float, cell: float, gap: float, n_samples: int) -> np.ndarray:
    """(n_cells, n_samples) share of each sample [i, i+1) of one axis that lies
    inside each cell's bright interior, by the layout rule above."""
    a = gap / 2.0 + np.arange(n_cells)[:, None] * pitch
    idx = np.arange(n_samples)
    # A sample outside the cell gets an overlap <= 0, which the clip makes 0.
    return np.clip(np.minimum(a + cell, idx + 1) - np.maximum(a, idx), 0.0, 1.0)


def _coverage_slots(coverage: np.ndarray):
    """(first, shares) of one axis' coverage matrix (_coverage_matrix): each
    sample's first covered cell, and the (K, n_samples) share of the sample
    inside that cell and the K - 1 cells after it, K being the most cells any
    sample overlaps.  The cells a sample overlaps are consecutive.  A sample
    near the last cell starts its K cells at n_cells - K instead, so every
    slot names a cell; the slots before its first covered cell have share 0,
    as has every slot of a sample in a gap.  K is 1 wherever the gap is 1 px
    or wider."""
    covered = coverage > 0.0
    k = int(covered.sum(axis=0).max())
    first = np.minimum(covered.argmax(axis=0), len(coverage) - k)
    return first, np.take_along_axis(coverage, first + np.arange(k)[:, None], axis=0)


def _ideal(values: np.ndarray, rows, cols) -> np.ndarray:
    """The ideal LES raster of per-cell values (grid_rows x grid_cols, finite
    and >= 0): Σ_k values.take(first + k, axis) * shares[k] over the slots
    (first, shares) of the rows, then of the columns (_coverage_slots), each
    sum formed in place in cell order.

    This is coverage_y.T @ values @ coverage_x without BLAS.  Where K is 1 on
    both axes, each sample of either product has one nonzero term and every
    other term of the matrix product is +0, so the bits are those of any
    dgemm.  Where K >= 2 (a gap under 1 px with cell edges off the sample
    grid), the cell-order sum differs from an FMA dgemm kernel's by at most
    about 4e-16 relative, and is the same on every machine."""
    for axis, (first, shares) in enumerate((rows, cols)):
        summed = values.take(first, axis=axis)
        summed *= np.expand_dims(shares[0], 1 - axis)
        for k in range(1, len(shares)):
            term = values.take(first + k, axis=axis)
            term *= np.expand_dims(shares[k], 1 - axis)
            summed += term
        values = summed
    return values


# Samples per noise chunk, even so that every chunk starts on a Box-Muller
# pair; a chunk's draws are a few small arrays, not an output-sized one.
_NOISE_CHUNK = 1 << 16


def generate(config: SynthConfig) -> tuple[MeasurementFrame, DefectMap, list[tuple[float, float]]]:
    """Render a frame, its ground-truth defect map, and the distorted LES corners.

    The ideal LES raster (`_ideal`, without BLAS) is pushed through the
    configured rotation/perspective homography (inverse mapping, bilinear, on
    two threads), placed with a fixed margin inside the output frame, then
    per-sample Gaussian noise is added and the result is clamped to >= 0.
    Deterministic for a given (config, seed).

    Returns:
        (frame, defect_map, corner_points) with corner_points the images of
        the ideal LES corners, ordered TL, TR, BR, BL.
    """
    brightness = drawn_brightness(config)
    mask = defect_mask(config)
    effective = np.where(mask, brightness * config.defect_residual, brightness)

    width0 = int(math.ceil(config.les_width - 1e-9))
    height0 = int(math.ceil(config.les_height - 1e-9))
    # Both axes' coverage and slots are made before any raster, and the
    # coverage is held to the end: with the slots made after the first
    # raster, or the coverage dropped once the slots were made, the generate
    # benchmark's peak RSS read 5-8 MiB higher (glibc malloc heap layout).
    cov_x = _coverage_matrix(config.grid_cols, config.pitch, config.cell_size_px, config.gap_px, width0)
    cov_y = _coverage_matrix(config.grid_rows, config.pitch, config.cell_size_px, config.gap_px, height0)
    rows, cols = _coverage_slots(cov_y), _coverage_slots(cov_x)

    distort = geometry.Homography(_distortion_matrix(config))
    les_corners = np.array(
        [
            [0.0, 0.0],
            [config.les_width, 0.0],
            [config.les_width, config.les_height],
            [0.0, config.les_height],
        ]
    )
    mapped = geometry.apply_homography_array(distort, les_corners)
    shift = np.array([LES_MARGIN_PX, LES_MARGIN_PX]) - mapped.min(axis=0)
    place = np.array([[1, 0, shift[0]], [0, 1, shift[1]], [0, 0, 1]], dtype=np.float64)
    h_final = geometry.Homography(place @ distort.matrix)
    corners = mapped + shift

    extent = mapped.max(axis=0) - mapped.min(axis=0)
    out_width = int(math.ceil(extent[0])) + 2 * LES_MARGIN_PX
    out_height = int(math.ceil(extent[1])) + 2 * LES_MARGIN_PX

    # Each ideal plane is built just before its warp and dropped after it, and
    # each chroma plane is float32 before the next is built, so at most one
    # ideal and two output-sized float64 planes are alive.  Each warp makes its
    # taps band by band.
    inv = h_final.inverse().matrix
    # Outside the warped ideal raster the chroma blend must stay at the mean,
    # not the warp's zero fill: `outside` is 1 - the warped support, and the
    # LES samples' share outside every cell is 1 - the product of the axes'
    # coverage sums, each blend formed in one buffer.
    outside = geometry.warp_plane(np.ones((height0, width0)), inv, out_width, out_height)
    np.subtract(1.0, outside, out=outside)
    chroma = []
    for stream, mean in ((_STREAM_CHROMA_X, config.chroma_mean_x), (_STREAM_CHROMA_Y, config.chroma_mean_y)):
        # The cells' draws, blended with the mean outside them.
        ideal = _ideal(np.clip(_cell_draws(config, stream, mean, config.chroma_sigma), 0.0, 1.0), rows, cols)
        blend = np.outer(cov_y.sum(axis=0), cov_x.sum(axis=0))
        np.subtract(1.0, blend, out=blend)
        blend *= mean
        ideal += blend
        del blend
        plane = geometry.warp_plane(ideal, inv, out_width, out_height)
        del ideal
        plane += outside * mean
        chroma.append(np.clip(plane, 0.0, 1.0, out=plane).astype(np.float32))
        del plane
    del outside
    lum = geometry.warp_plane(_ideal(effective, rows, cols), inv, out_width, out_height)

    if config.noise_sigma > 0.0:
        # Added a chunk at a time: output start + k of the noise stream is
        # output k of the stream seeded `noise_seed + start * GOLDEN`, and an
        # even start keeps the pairs, so each sample gets the normal one whole
        # batch gives it.
        noise_seed = mix(config.seed, _STREAM_NOISE)
        flat = lum.reshape(-1)
        for start in range(0, flat.size, _NOISE_CHUNK):
            z = SplitMix64(noise_seed + start * GOLDEN).normal_batch(min(_NOISE_CHUNK, flat.size - start))
            z *= config.noise_sigma
            flat[start : start + z.size] += z
    np.maximum(lum, 0.0, out=lum)

    frame = MeasurementFrame(out_width, out_height, lum.astype(np.float32), *chroma)
    defects = DefectMap(config.grid_rows, config.grid_cols, mask)
    corner_points = [(float(x), float(y)) for x, y in corners]
    return frame, defects, corner_points
