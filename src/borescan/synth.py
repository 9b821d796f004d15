"""Synthetic bore surfaces and camera-tile rendering.

Software stand-in for a machined test piece: defects of known size and
position become anti-aliased stamps on an unwrapped wall texture, and
per-tile captures are produced by the exact forward projection of the
imaging model, so every downstream measurement can be checked against
truth. A tile starts as the wall background, and each stamp that meets it
resamples only the tile pixels that read the stamp; the whole wall is
rasterized only as a test oracle.

Texture geometry: the texture is the bore's
:class:`~borescan.scanplan.WallGrid` at one pitch both ways, arc length u
in [0, circumference) by depth z' in [0, depth] from the hole bottom. A
tile reads the wall where the grid puts its rows and, through
:func:`~borescan.unwrap.tile_arc_px`, its columns.
"""

from __future__ import annotations

import functools
import math
import os
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DomainError, PlacementError
from .geometry import DefectSpec, HoleSpec, OpticsConfig
from .pgm import SAMPLE_DTYPES, write_pgm
from .pool import run_forked
from .scanplan import CaptureEvent, EffectiveRegion, ScanPlan, WallGrid
from .scanplan import _wrapped_segments, tile_shape_for
from .unwrap import (
    STRIP_ROWS,
    TileImage,
    _column_weights,
    _resample_columns,
    tile_arc_px,
)

__all__ = [
    "SurfaceTexture",
    "TileBuffers",
    "build_texture",
    "render_tile",
    "add_noise",
    "noisy_tile",
    "write_stack",
]

_SUPERSAMPLE = 4  # 4x4 subsamples per pixel for anti-aliased edges


class Stamp(NamedTuple):
    """One defect's anti-aliased footprint, ready to add onto the wall.

    Covers texture rows ``row_lo`` to ``row_hi`` (exclusive) and the
    columns from ``col_lo`` on, unwrapped: they wrap at the texture width.
    ``coverage`` is the covered fraction of each pixel in that box.
    """

    row_lo: int
    row_hi: int
    col_lo: int
    coverage: np.ndarray
    contrast: int


@dataclass(eq=False)
class SurfaceTexture:
    """Unwrapped ground-truth intensity map of the bore wall.

    Its pixels are those of ``grid``, of ``dtype``, and columns wrap. The
    wall is the background with the defect ``stamps`` added in list order.
    No raster of the whole wall is held: :meth:`window` rasterizes any part
    of it.
    """

    grid: WallGrid
    background: int
    dtype: np.dtype
    stamps: tuple[Stamp, ...]

    def __post_init__(self) -> None:
        # one row per stamp: first row, end row, first column, column count
        self._boxes = np.array(
            [(s.row_lo, s.row_hi, s.col_lo, s.coverage.shape[1]) for s in self.stamps],
            dtype=np.int64,
        ).reshape(-1, 4)

    @property
    def pixels(self) -> np.ndarray:
        """The whole wall as one raster: the test oracle for :meth:`window`.

        About 127 MB for the 4 mm x 47 mm reference bore; the render path
        never takes it.
        """
        return self.window(0, self.grid.height, 0, self.grid.width)

    def stamps_meeting(self, top: int, bottom: int, left: int, count: int) -> np.ndarray:
        """Indices, in list order, of the stamps that meet a window.

        The window is rows ``top`` to ``bottom`` (exclusive) and ``count``
        columns from ``left``, modulo the width.
        """
        row_lo, row_hi, col_lo, n_cols = self._boxes.T
        # each stamp's first column, counted from the window's along the wrap
        first = (col_lo - left) % self.grid.width
        meets = (
            (row_lo < bottom)
            & (row_hi > top)
            & ((first < count) | (first + n_cols > self.grid.width))
        )
        return np.flatnonzero(meets)

    def window(self, top: int, bottom: int, left: int, count: int) -> np.ndarray:
        """Pixels of rows ``top`` to ``bottom`` and ``count`` columns from ``left``.

        Columns wrap at the width. The window starts as the background,
        and each stamp that meets it is added in list order, clipped to the
        intensity range and rounded, as if the whole wall were rasterized.
        """
        pixels = np.full((bottom - top, count), self.background, dtype=self.dtype)
        for index in self.stamps_meeting(top, bottom, left, count):
            stamp = self.stamps[index]
            r_lo, r_hi = max(top, stamp.row_lo), min(bottom, stamp.row_hi)
            rows = slice(r_lo - top, r_hi - top)
            cover = stamp.coverage[r_lo - stamp.row_lo : r_hi - stamp.row_lo]
            # the stamp's columns counted from the window's first, along the wrap
            for dst, src in _wrapped_segments(
                stamp.col_lo - left, cover.shape[1], self.grid.width
            ):
                cols = slice(dst.start, min(dst.stop, count))
                if cols.start >= cols.stop:
                    continue
                block = pixels[rows, cols].astype(np.float64)
                block += stamp.contrast * cover[:, src][:, : cols.stop - cols.start]
                pixels[rows, cols] = np.rint(
                    np.clip(block, 0, np.iinfo(self.dtype).max)
                ).astype(self.dtype)
        return pixels


def _subsample_offsets() -> np.ndarray:
    n = _SUPERSAMPLE
    return (np.arange(n) + 0.5) / n - 0.5


def _overlaps_earlier(footprints: np.ndarray, i: int, circumference_mm: float) -> bool:
    """Whether footprint ``i`` meets any of footprints ``0..i-1``.

    Exact continuous-plane intersection with a circular u metric. Each
    row of ``footprints`` is (u mm, z mm, size mm, half u, half z, squared
    disc radius, 1 for a disc or 0 for a line), as :func:`build_texture`
    fills it.
    """
    u, z, size, half_u, half_z, r2, disc = footprints[i]
    earlier = footprints[:i].T
    du = np.abs(u - earlier[0])
    du = np.minimum(du, circumference_mm - du)
    dz = np.abs(z - earlier[1])
    if disc:
        reach = (size + earlier[2]) / 2.0
        both = du * du + dz * dz < reach * reach
    else:
        both = (du < half_u + earlier[3]) & (dz < half_z + earlier[4])
    # disc against line: distance from the disc center to the rectangle
    line_u, line_z = (earlier[3], earlier[4]) if disc else (half_u, half_z)
    gap_u = np.maximum(du - line_u, 0.0)
    gap_z = np.maximum(dz - line_z, 0.0)
    mixed = gap_u * gap_u + gap_z * gap_z < (r2 if disc else earlier[5])
    return bool(np.any(np.where(earlier[6] == disc, both, mixed)))


def build_texture(
    hole: HoleSpec,
    defects: list[DefectSpec],
    background: int = 180,
    pitch_um: float = 2.16,
    bit_depth: int = 8,
) -> SurfaceTexture:
    """Stamp anti-aliased defects onto a uniform wall texture.

    Every defect footprint must lie on the surface axially, and its stamp
    may not span more columns than the wall has (columns wrap, rows do
    not). Overlapping defects are legal but warned about, since
    overlap makes the per-defect truth areas ambiguous. Only each defect's
    coverage is computed here; :meth:`SurfaceTexture.window` rasterizes.
    """
    dtype = {d.itemsize * 8: d for d in SAMPLE_DTYPES}.get(bit_depth)
    if dtype is None:
        raise DomainError("bit depth must be 8 or 16")
    if not 0 <= background <= np.iinfo(dtype).max:
        raise DomainError("background outside intensity range")
    grid = WallGrid(hole.radius_mm, hole.depth_mm, pitch_um, pitch_um)
    width, height = grid.width, grid.height
    circumference_mm = 2.0 * math.pi * hole.radius_mm
    arc_pitch_mm = circumference_mm / width
    pitch_mm = pitch_um * 1e-3

    offsets = _subsample_offsets()
    footprints = np.empty((len(defects), 7))
    stamps: list[Stamp] = []

    for i, spec in enumerate(defects):
        half_u, half_z = spec.half_extent_mm()
        if spec.z_mm - half_z < 0.0 or spec.z_mm + half_z > hole.depth_mm:
            raise PlacementError(
                f"{spec.kind} at z'={spec.z_mm} mm spans outside the "
                f"0..{hole.depth_mm} mm surface"
            )
        u0_px = grid.column(spec.beta_deg)
        c_lo = math.floor(u0_px - half_u / arc_pitch_mm) - 1
        c_hi = math.ceil(u0_px + half_u / arc_pitch_mm) + 1
        if c_hi - c_lo >= width:  # the stamp would overlap itself round the bore
            raise PlacementError(
                f"{spec.kind} at (z'={spec.z_mm}, beta={spec.beta_deg}) spans "
                f"{c_hi - c_lo + 1} columns, more than the {width} round the wall"
            )
        disc = spec.kind == "disc"
        footprints[i] = (
            spec.beta_deg / 360.0 * circumference_mm,
            spec.z_mm,
            spec.size_mm,
            half_u,
            half_z,
            (spec.size_mm / 2.0) ** 2 if disc else 0.0,
            disc,
        )
        if i and _overlaps_earlier(footprints, i, circumference_mm):
            warnings.warn(
                f"defect at (z'={spec.z_mm}, beta={spec.beta_deg}) "
                "overlaps an earlier one; truth areas are ambiguous",
                RuntimeWarning,
                stacklevel=2,
            )

        v0_px = spec.z_mm / pitch_mm
        r_lo = max(0, math.floor(v0_px - half_z / pitch_mm) - 1)
        r_hi = min(height - 1, math.ceil(v0_px + half_z / pitch_mm) + 1)
        cols = np.arange(c_lo, c_hi + 1)  # unwrapped; wrapped on write
        rows = np.arange(r_lo, r_hi + 1)
        # physical subsample offsets from the defect center, mm
        du = (cols[:, None] + offsets - u0_px) * arc_pitch_mm  # (C, 4)
        dv = (rows[:, None] + offsets - v0_px) * pitch_mm  # (R, 4)
        if disc:
            r2 = footprints[i, 5]
            du2, dv2 = du**2, dv**2
            # rounded sums are monotone in each term: a pixel whose farthest
            # subsample is inside is covered in full, one whose nearest is
            # outside not at all, so only the rest count their 16 subsamples
            far = dv2.max(axis=1)[:, None] + du2.max(axis=1)
            near = dv2.min(axis=1)[:, None] + du2.min(axis=1)
            coverage = (far <= r2).astype(np.float64)
            edge = np.nonzero((far > r2) & (near <= r2))
            inside = dv2[edge[0], :, None] + du2[edge[1], None, :] <= r2
            coverage[edge] = inside.sum(axis=(1, 2)) / _SUPERSAMPLE**2
        else:
            cov_u = (np.abs(du) <= half_u).mean(axis=1)
            cov_v = (np.abs(dv) <= half_z).mean(axis=1)
            coverage = cov_v[:, None] * cov_u[None, :]
        stamps.append(Stamp(r_lo, r_hi + 1, c_lo, coverage, spec.contrast))

    return SurfaceTexture(grid, background, dtype, tuple(stamps))


class TileBuffers(NamedTuple):
    """The arrays one process makes its tiles in, tile after tile.

    ``pixels`` is the C-contiguous tile, and ``strips`` the float64
    scratch of a strip of rows: two rows of ``min(height, STRIP_ROWS) *
    width`` values. :func:`render_tile` resamples a stamp's tile columns
    there in row blocks that fit, and :func:`add_noise` draws there. A
    worker that reuses them allocates no tile-sized array after its first
    tile, so the heap is not trimmed and faulted back in per tile.
    """

    pixels: np.ndarray
    strips: np.ndarray

    @classmethod
    def empty(cls, shape: tuple[int, int], dtype) -> TileBuffers:
        height, width = shape
        strips = np.empty((2, min(height, STRIP_ROWS) * width))
        return cls(np.empty(shape, dtype=dtype), strips)


def _tile_out(buffers: TileBuffers, shape: tuple[int, int], dtype) -> np.ndarray:
    """``buffers.pixels``, the array a tile of ``shape`` and ``dtype`` is
    made in, which must match."""
    pixels = buffers.pixels
    if pixels.shape != shape or pixels.dtype != dtype or not pixels.flags.c_contiguous:
        raise DomainError(
            f"tile buffer of shape {pixels.shape} and dtype {pixels.dtype} "
            f"cannot hold a C-contiguous {shape} tile of {np.dtype(dtype)}"
        )
    return pixels


def render_tile(
    texture: SurfaceTexture,
    event: CaptureEvent,
    cfg: OpticsConfig,
    region: EffectiveRegion,
    buffers: TileBuffers,
) -> TileImage:
    """Render what the camera captures at one scheduled position.

    Flat-image column k samples the texture's grid at arc offset
    ``tile_arc_px(width)[k] * p_x`` from the tile center: window extraction and
    forward projection are fused, so the 360-degree seam wraps exactly and
    no sentinel columns appear. Rows outside the surface (the bottom tile
    reaches below z'=0) read as the texture background. The tile starts as
    the background, which is what a blend of background pixels rounds back
    to. Then each stamp that meets the tile, in list order, resamples the
    tile rows and columns that read one of its texture pixels, in row
    blocks that fit ``buffers.strips``, from the texture window under each
    block. A pixel that two stamps reach is computed for each, to the same
    bytes, since a window adds every stamp that meets it; a tile that no
    stamp meets is the background alone.

    The tile is rendered into ``buffers.pixels``.
    """
    height, width = tile_shape_for(cfg, region)
    grid = texture.grid
    arc_px = tile_arc_px(width, grid.radius_mm, cfg.pixel_pitch_x_um)
    u = grid.column(event.theta_deg, arc_px * cfg.pixel_pitch_x_um)

    n_rel = np.arange(height, dtype=np.float64) - (height - 1) / 2.0
    v = grid.row(event.z_mm, n_rel * cfg.pixel_pitch_y_um)
    on_surface = (v >= 0.0) & (v <= grid.height - 1)

    # the two texture rows each tile row blends, weighed as columns are
    v0, v1, w0_rows, w1_rows = _column_weights(v, grid.height)

    # texture columns under the tile, unwrapped across the seam; rows blend first
    base = math.floor(u[0])
    count = math.floor(u[-1]) + 2 - base
    # a blend of equal integers rounds back to them
    pixels = _tile_out(buffers, (height, width), texture.dtype)
    pixels.fill(texture.background)
    tile = TileImage(pixels, (event.depth_step, event.rotation_step))
    # v0 and v1 rise with the row, so the tile reads texture rows v0[0]..v1[-1]
    meeting = texture.stamps_meeting(int(v0[0]), int(v1[-1]) + 1, base, count)
    if not meeting.size:  # most tiles: spare them the column weights
        return tile
    c0, c1, w0, w1 = _column_weights(u - base, count)
    for index in meeting:
        stamp = texture.stamps[index]
        # the tile rows with v0 or v1 in the stamp's rows
        r_lo = np.searchsorted(v1, stamp.row_lo)
        r_hi = np.searchsorted(v0, stamp.row_hi)
        for dst, _ in _wrapped_segments(
            stamp.col_lo - base, stamp.coverage.shape[1], grid.width
        ):
            # the tile columns with c0 or c1 in dst: c0 rises, c1 = c0 + 1
            m_lo, m_hi = np.searchsorted(c0, (dst.start - 1, dst.stop))
            if m_lo == m_hi:
                continue
            run = slice(m_lo, m_hi)
            first = int(c0[m_lo])
            n_cols = int(c1[m_hi - 1]) + 1 - first
            step = buffers.strips.shape[1] // (m_hi - m_lo)
            for lo in range(r_lo, r_hi, step):
                rows = slice(lo, min(lo + step, r_hi))
                top, bottom = int(v0[lo]), int(v1[rows.stop - 1]) + 1
                tex = texture.window(top, bottom, base + first, n_cols)
                blend = (
                    tex[v0[rows] - top] * w0_rows[rows, None]
                    + tex[v1[rows] - top] * w1_rows[rows, None]
                )
                n = len(blend) * (m_hi - m_lo)
                sampled = _resample_columns(
                    blend,
                    (c0[run] - first, c1[run] - first, w0[run], w1[run]),
                    buffers.strips[0, :n].reshape(len(blend), -1),
                    buffers.strips[1, :n].reshape(len(blend), -1),
                )
                sampled[~on_surface[rows], :] = float(texture.background)
                pixels[rows, run] = np.rint(sampled, out=sampled)
    return tile


def add_noise(img: TileImage, sigma: float, seed: int, buffers: TileBuffers) -> TileImage:
    """Additive zero-mean Gaussian noise, rounded and clamped to the
    intensity range.

    Deterministic for a given seed; ``sigma`` is in intensity levels of
    the image's own bit depth. Each pixel becomes ``clip(p + K)``, where
    ``K`` follows the rounded Gaussian ``P(K=k) = Phi((k+1/2)/sigma) -
    Phi((k-1/2)/sigma)``: the law of ``clip(rint(p + sigma*Z))`` for an
    integer pixel ``p``. ``K`` is drawn by inverse CDF of a 32-bit
    uniform (:func:`_noise_table`), 16 bits at a time. The stream
    ``PCG64(SeedSequence(seed))`` gives every pixel, in raster order, the
    high half, four halves to each 64-bit word; the half indexes the
    table. The few pixels whose bucket a CDF step splits take their low
    half, in raster order, from a second stream, the seed sequence's first
    spawned child, and search the bounds with all 32 bits. The halves are
    independent and uniform, so ``K`` has exactly the law above.

    The result's pixels are ``buffers.pixels``, which may be ``img.pixels``
    itself, and the draw works in ``buffers.strips``. ``img`` is not
    changed unless its pixels are ``buffers.pixels``.
    """
    if not (math.isfinite(sigma) and sigma >= 0):
        raise DomainError(f"noise sigma must be finite and >= 0, got {sigma}")
    pixels = _tile_out(buffers, img.pixels.shape, img.pixels.dtype)
    if pixels is not img.pixels:
        np.copyto(pixels, img.pixels)
    if sigma > 0:
        peak = np.iinfo(img.pixels.dtype).max
        bounds, table = _noise_table(float(sigma), peak)
        seeds = np.random.SeedSequence(seed)
        stream = np.random.PCG64(seeds)
        index = buffers.strips[0].view(np.intp)
        noise = buffers.strips[1].view(table.dtype)
        flat = pixels.reshape(-1)
        # whole words per chunk, so the stream does not depend on the chunk size
        chunk = max(len(index) // 4 * 4, 4)
        step = np.iinfo(table.dtype).min
        # as numpy scalars: np.clip looks up the limits of a Python int's dtype
        limits = (table.dtype.type(0), table.dtype.type(peak))
        splits = []
        for lo in range(0, flat.size, chunk):
            split, high = _noise_chunk(
                flat[lo : lo + chunk], stream, table, step, limits, index, noise
            )
            if split.size:
                splits.append((split + lo, high))
        if splits:
            at = np.concatenate([at for at, _ in splits])
            high = np.concatenate([high for _, high in splits]).astype(np.uint32)
            low = np.random.PCG64(seeds.spawn(1)[0]).random_raw((at.size + 3) // 4)
            u = (high << 16) | low.view(np.uint16)[: at.size]
            k = np.searchsorted(bounds, u, side="right") - peak
            flat[at] = np.clip(flat[at] + k, 0, peak)
    return replace(img, pixels=pixels)


def _noise_chunk(
    pixels, stream, table, step, limits, index, noise
) -> tuple[np.ndarray, np.ndarray]:
    """Add noise in place to a run of flat pixels from their high halves.

    Draws the run's halves from ``stream``, looks ``K`` up in ``table``
    through ``index`` and ``noise``, scratch of at least the run's length,
    and clips to ``limits``. A pixel whose bucket holds the ``step``
    sentinel is left as it is; returns their offsets in the run and their
    high halves.
    """
    n = pixels.size
    high = stream.random_raw((n + 3) // 4).view(np.uint16)[:n]
    k = noise[:n]
    np.copyto(index[:n], high)
    # a 16-bit index cannot leave the 2**16-bucket table: clip skips the check
    np.take(table, index[:n], out=k, mode="clip")
    split = np.flatnonzero(k == step)
    k[split] = 0
    k += pixels
    np.clip(k, *limits, out=k)
    pixels[:] = k
    return split, high[split]


@functools.lru_cache(maxsize=16)
def _noise_table(sigma: float, max_value: int) -> tuple[np.ndarray, np.ndarray]:
    """``add_noise``'s inverse CDF of the rounded Gaussian, cached per sigma
    and bit depth and shared, read-only, by every tile and thread.

    ``bounds[i] = round(Phi((k+1/2)/sigma) * 2**32)`` for ``k = i - max``,
    ``i < 2 * max``, so ``searchsorted(bounds, u, "right") - max`` is ``K``
    for a 32-bit uniform ``u``, lumped at +-max where the output clips
    anyway. ``table[u >> 16]`` holds ``K`` for every ``u`` of a bucket
    where no bound falls inside it, and the dtype's minimum where one
    does. ``K`` lies in [-max, max], so the table is int16 for 8-bit tiles
    (minimum -32768) and int32 for 16-bit ones.
    """
    # beyond 7 sigma + 1.5 levels a bound rounds to 0 or 2**32; compare
    # before ceil, so a huge sigma cannot overflow it
    reach = max_value if 7.0 * sigma >= max_value else math.ceil(7.0 * sigma) + 2
    ks = range(max(-max_value, -reach), min(max_value - 1, reach) + 1)
    bounds = np.full(2 * max_value, 2**32, dtype=np.int64)
    bounds[: ks.start + max_value] = 0
    bounds[ks.start + max_value : ks.stop + max_value] = [
        round(0.5 * math.erfc(-(k + 0.5) / sigma / math.sqrt(2.0)) * 2**32) for k in ks
    ]
    first = np.arange(2**16, dtype=np.int64) << 16
    lo = np.searchsorted(bounds, first, side="right")
    hi = np.searchsorted(bounds, first + (2**16 - 1), side="right")
    dtype = np.int16 if max_value < 2**15 else np.int32
    table = np.where(lo == hi, lo - max_value, np.iinfo(dtype).min).astype(dtype)
    for array in (bounds, table):
        array.flags.writeable = False
    return bounds, table


def tile_noise_seed(master_seed: int, order: int) -> int:
    """Per-tile noise seed: independent stream per capture event."""
    if master_seed < 0:
        raise DomainError(f"noise seed must be >= 0, got {master_seed}")
    return int(np.random.SeedSequence([master_seed, order]).generate_state(1)[0])


def noisy_tile(
    texture: SurfaceTexture,
    event: CaptureEvent,
    cfg: OpticsConfig,
    region: EffectiveRegion,
    noise_sigma: float,
    seed: int,
    buffers: TileBuffers,
) -> TileImage:
    """The tile of one capture event, rendered and noisy: the recipe
    :func:`write_stack` makes every tile with, in ``buffers``.

    Each tile gets an independent noise stream derived from the master
    seed and its order index, so a tile does not depend on which tiles
    were made before it, or where.
    """
    # not underscore-named: the benchmark's tracer skips calls made from a
    # module's private helpers, and this is where render and noise spans start
    tile = render_tile(texture, event, cfg, region, buffers)
    return add_noise(tile, noise_sigma, tile_noise_seed(seed, event.order), buffers)


def write_stack(
    texture: SurfaceTexture,
    plan: ScanPlan,
    cfg: OpticsConfig,
    region: EffectiveRegion,
    paths: list[Path],
    noise_sigma: float = 0.0,
    seed: int = 0,
    processes: int = 1,
) -> None:
    """Render, noise and write scheduled tile i to ``paths[i]``, on
    ``processes`` processes, the caller one of them.

    Process p makes tiles p, p + processes, and so on, each written under
    its path plus ``.part`` (:func:`pool.run_forked`). Once every tile has
    been tried, the tiles before the first that failed, in plan order, are
    renamed to their paths, every other part file is removed, and that
    failure is raised. Whatever the process count, the files are the same
    bytes, and after an error the tiles before it are written and none
    after. Each process makes all its tiles in one set of
    :class:`TileBuffers`, allocated at its first tile.
    """
    parts = [path.with_name(path.name + ".part") for path in paths]
    schedule = plan.schedule
    buffers = None

    def write(i: int) -> None:
        nonlocal buffers
        if buffers is None:
            buffers = TileBuffers.empty(tile_shape_for(cfg, region), texture.dtype)
        tile = noisy_tile(texture, schedule[i], cfg, region, noise_sigma, seed, buffers)
        write_pgm(parts[i], tile.pixels)

    if noise_sigma > 0:  # built before the fork, so the workers share one table
        _noise_table(float(noise_sigma), np.iinfo(texture.dtype).max)
    try:
        failure = run_forked(write, len(schedule), processes)
        written = len(schedule) if failure is None else failure[0]
        for part, path in zip(parts[:written], paths):
            os.replace(part, path)
    finally:
        for part in parts:
            part.unlink(missing_ok=True)
    if failure is not None:
        raise failure[1]
