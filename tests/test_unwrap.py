import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borescan import unwrap
from borescan.errors import ConfigError, DomainError
from borescan.geometry import arc_expansion
from borescan.unwrap import (
    STRIP_ROWS,
    TileImage,
    _column_weights,
    _correction_weights,
    _resample_columns,
    _uint8_weights,
    bilinear_sample,
    build_remap,
    correct_tile,
    forward_project,
    tile_arc_px,
)

R = 2.0
PITCH = 2.16


def tile_from(arr):
    return TileImage(np.asarray(arr))


def random_tile(rng, width=101, height=40, dtype=np.uint8):
    hi = 256 if dtype == np.uint8 else 65536
    return tile_from(rng.integers(0, hi, size=(height, width), dtype=dtype))


def test_tile_image_validation():
    with pytest.raises(DomainError):
        tile_from(np.zeros((4, 4), dtype=np.float32))
    with pytest.raises(DomainError):
        tile_from(np.zeros(16, dtype=np.uint8))
    with pytest.raises(DomainError):
        correct_tile(tile_from(np.zeros((4, 4), np.uint8)), R, 0.0)
    img = tile_from(np.zeros((4, 6), dtype=np.uint16))
    assert (img.width, img.height) == (6, 4)


RESAMPLERS = {
    "correct_tile": lambda r, p: correct_tile(tile_from(np.zeros((4, 101), np.uint8)), r, p),
    "forward_project": lambda r, p: forward_project(
        tile_from(np.zeros((4, 101), np.uint8)), r, p
    ),
    "tile_arc_px": lambda r, p: tile_arc_px(101, r, p),
    "build_remap": lambda r, p: build_remap(101, r, p),
}


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("name", ["radius", "pixel pitch"])
@pytest.mark.parametrize("resampler", RESAMPLERS.values(), ids=RESAMPLERS.keys())
def test_radius_and_pitch_must_be_finite_and_positive(resampler, name, bad):
    # unchecked, a NaN or infinite radius or pitch resamples to an all-zero tile
    radius, pitch = (bad, PITCH) if name == "radius" else (R, bad)
    with pytest.raises(DomainError, match=f"{name} must be finite and > 0"):
        resampler(radius, pitch)


def test_tile_arc_px_reference():
    # frozen 50-digit evaluation of (r/p) asin(200 p / r): column k = 200
    arc = tile_arc_px(401, R, PITCH)
    assert arc[200] == 0.0
    assert arc[400] == pytest.approx(201.588788339, abs=1e-6)


def test_build_remap_reference():
    # frozen 50-digit evaluation of (r/p) sin(300 p / r): column m = 300
    assert build_remap(601, R, PITCH)[600] - 300.0 == pytest.approx(
        294.778681143, abs=1e-6
    )


def assert_maps_match_arc_expansion(width, radius, pitch):
    """Both column maps against the paper's chord-to-arc formula, which
    computes the wall arc a chord of the flat image spans: a column ``k``
    px from the centre sees the arc of the chord ``2|k|p``, and
    ``build_remap``'s source column that of arc ``2|m|p``."""
    p = pitch * 1e-3
    centre = (width - 1) / 2.0
    offsets = np.arange(width) - centre
    arc = tile_arc_px(width, radius, pitch)
    source = build_remap(width, radius, pitch) - centre
    for k, m, k_src in zip(offsets, arc, source):
        if k == 0:
            assert m == 0.0 and k_src == 0.0
            continue
        assert np.sign(m) == np.sign(k) and abs(m) >= abs(k)
        assert 2.0 * abs(m) * p == pytest.approx(
            arc_expansion(radius, 2.0 * abs(k) * p), rel=1e-12
        )
        assert arc_expansion(radius, 2.0 * abs(k_src) * p) == pytest.approx(
            2.0 * abs(k) * p, rel=1e-12
        )


def test_maps_match_arc_expansion_on_the_reference_tile():
    assert_maps_match_arc_expansion(695, R, PITCH)


@st.composite
def rigs(draw):
    """A tile width, bore radius and pitch whose tile fits the visible arc."""
    radius = draw(st.floats(0.3, 10.0))
    pitch = draw(st.floats(0.5, 10.0))
    # a column inside the visible arc's limit, clear of its rounding
    widest = math.ceil(2.0 * radius / (pitch * 1e-3)) - 2
    return draw(st.integers(1, min(widest, 1500))), radius, pitch


@given(rigs())
@settings(max_examples=50, deadline=None)
def test_maps_match_arc_expansion_on_drawn_rigs(rig):
    assert_maps_match_arc_expansion(*rig)


def test_bilinear_exact_at_nodes():
    rng = np.random.default_rng(3)
    img = random_tile(rng, width=9, height=7)
    for y in range(img.height):
        for x in range(img.width):
            assert bilinear_sample(img, float(x), float(y)) == float(img.pixels[y, x])


def test_bilinear_symmetric_average():
    img = tile_from(np.array([[0, 100], [0, 100]], dtype=np.uint8))
    assert bilinear_sample(img, 0.5, 0.5) == pytest.approx(50.0)


def test_bilinear_constant_image():
    img = tile_from(np.full((5, 5), 77, dtype=np.uint8))
    for x, y in [(0.3, 0.9), (2.5, 2.5), (3.99, 0.01)]:
        assert bilinear_sample(img, x, y) == pytest.approx(77.0)


def test_bilinear_out_of_bounds():
    img = tile_from(np.zeros((4, 4), dtype=np.uint8))
    for x, y in [(-0.1, 0.0), (0.0, -0.1), (3.1, 0.0), (0.0, 3.1)]:
        with pytest.raises(DomainError):
            bilinear_sample(img, x, y)


@given(
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=0.0, max_value=3.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_bilinear_stays_within_neighbors(x, y, seed):
    rng = np.random.default_rng(seed)
    img = random_tile(rng, width=4, height=4)
    x0, y0 = int(x), int(y)
    x1, y1 = min(x0 + 1, 3), min(y0 + 1, 3)
    corners = img.pixels[[y0, y0, y1, y1], [x0, x1, x0, x1]]
    value = bilinear_sample(img, x, y)
    assert corners.min() - 1e-9 <= value <= corners.max() + 1e-9


def test_build_remap_single_column():
    source = build_remap(1, R, PITCH)
    assert source.shape == (1,)
    assert source[0] == pytest.approx(0.0)


def test_build_remap_monotonic_and_odd():
    source = build_remap(695, R, PITCH)
    assert np.all(np.diff(source) > 0)
    off = source - 347.0  # the tile center, fixed by the transform
    np.testing.assert_allclose(off, -off[::-1], atol=1e-9)
    assert np.all(np.abs(off) <= np.abs(np.arange(695) - 347.0) + 1e-12)


def test_build_remap_edge_entry():
    # center-relative source of the last corrected column, m = 347:
    # (r/p) sin(347 p / r) = 338.9344414 (frozen oracle)
    source = build_remap(695, R, PITCH)
    assert source[-1] - 347.0 == pytest.approx(338.934441398, abs=1e-6)


def test_build_remap_rejects_oversized_tile():
    # 1852 px * 2.16 um = 4.0004 mm >= bore diameter
    with pytest.raises(ConfigError):
        build_remap(1852, R, PITCH)
    assert build_remap(1851, R, PITCH).shape == (1851,)


def test_correct_tile_constant_unchanged():
    img = tile_from(np.full((16, 695), 180, dtype=np.uint8))
    out = correct_tile(img, R, PITCH)
    assert np.array_equal(out.pixels, img.pixels)


def test_correct_tile_center_column_fixed():
    img = tile_from(np.full((8, 101), 10, dtype=np.uint8))
    img.pixels[:, 50] = 240
    out = correct_tile(img, R, PITCH)
    assert np.all(out.pixels[:, 50] == 240)


def test_correct_tile_matches_scalar_bilinear():
    # dual route: the vectorized remap must agree with per-pixel sampling
    rng = np.random.default_rng(11)
    img = random_tile(rng, width=61, height=9)
    source = build_remap(61, R, PITCH)
    out = correct_tile(img, R, PITCH)
    for n in range(img.height):
        for m in range(img.width):
            expected = bilinear_sample(img, float(source[m]), float(n))
            assert out.pixels[n, m] == round(expected)


def test_correct_tile_preserves_uint16():
    rng = np.random.default_rng(5)
    img = random_tile(rng, width=61, height=9, dtype=np.uint16)
    out = correct_tile(img, R, PITCH)
    assert out.pixels.dtype == np.uint16


def tied_weights():
    """The reference rig's weights with w1 = 0.5 in column 100, where p0 + p1
    odd makes a tie, so ``_uint8_weights`` refuses the rig."""
    c0, c1, w0, w1 = (array.copy() for array in _correction_weights(695, R, PITCH))
    w0[100] = w1[100] = 0.5
    return c0, c1, w0, w1


def resampled(pixels, weights):
    """``pixels`` widened to float64 and resampled as one strip."""
    rows = pixels.astype(np.float64)
    return _resample_columns(rows, weights, np.empty_like(rows), np.empty_like(rows))


@pytest.mark.parametrize(
    "dtype, refused",
    [
        pytest.param(np.uint8, False, id="uint8"),
        pytest.param(np.uint16, False, id="uint16"),
        # an 8-bit tile on a rig that takes the float64 branch
        pytest.param(np.uint8, True, id="uint8-refused"),
    ],
)
@pytest.mark.parametrize("height", [1, STRIP_ROWS, STRIP_ROWS + 1, 695])
def test_correct_tile_strips_match_whole_tile(
    monkeypatch, fresh_uint8_weights, dtype, refused, height
):
    rng = np.random.default_rng(height)
    img = random_tile(rng, width=695, height=height, dtype=dtype)
    weights = _column_weights(build_remap(695, R, PITCH), 695)
    if refused:
        weights = tied_weights()
        monkeypatch.setattr(unwrap, "_correction_weights", lambda *key: weights)
        assert _uint8_weights(695, R, PITCH) is None
    expected = np.rint(resampled(img.pixels, weights)).astype(dtype)
    out = correct_tile(img, R, PITCH)
    assert out.pixels.dtype == dtype
    assert np.array_equal(out.pixels, expected)


def corrected_by_formula(pixels, radius=R, pitch=PITCH):
    """correct_tile written out from build_remap in float64, with no strips,
    buffers or float32."""
    width = pixels.shape[1]
    source = build_remap(width, radius, pitch)
    last = width - 1
    assert 0.0 <= source.min() and source.max() <= last  # nothing to clip
    c0 = np.minimum(np.floor(source).astype(np.int64), max(last - 1, 0))
    c1 = np.minimum(c0 + 1, last)
    f = source - c0
    return np.rint(pixels[:, c0] * (1 - f) + pixels[:, c1] * f).astype(pixels.dtype)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
@pytest.mark.parametrize("height", [1, STRIP_ROWS, STRIP_ROWS + 1, 695])
@pytest.mark.parametrize("width", [1, 2, 61, 695])
def test_correct_tile_matches_formula(width, height, dtype):
    rng = np.random.default_rng([width, height])
    img = random_tile(rng, width=width, height=height, dtype=dtype)
    before = img.pixels.copy()
    expected = corrected_by_formula(img.pixels)
    _correction_weights.cache_clear()
    # the first call builds the weights, the second reuses them
    for _ in range(2):
        out = correct_tile(img, R, PITCH)
        assert out.pixels.dtype == dtype
        assert np.array_equal(out.pixels, expected)
        assert np.array_equal(img.pixels, before)


def test_correct_tile_threads_at_once_match_formula():
    # threads racing on the first, cached build of the weights and then
    # correcting at once: each must get its own tile's formula result
    rng = np.random.default_rng(17)
    tiles = [
        random_tile(rng, width=695, height=STRIP_ROWS + 1, dtype=dtype)
        for dtype in (np.uint8, np.uint16, np.uint8, np.uint16)
    ]
    expected = [corrected_by_formula(tile.pixels) for tile in tiles]
    results = [[] for _ in tiles]
    barrier = threading.Barrier(len(tiles))

    def work(n):
        barrier.wait(timeout=30)
        for _ in range(3):
            results[n].append(correct_tile(tiles[n], R, PITCH).pixels)

    _correction_weights.cache_clear()
    _uint8_weights.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(n,)) for n in range(len(tiles))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for got, want in zip(results, expected):
        assert len(got) == 3
        assert all(np.array_equal(pixels, want) for pixels in got)


def test_cached_correction_weights_are_read_only():
    correct_tile(tile_from(np.zeros((2, 695), dtype=np.uint8)), R, PITCH)
    weights = _correction_weights(695, R, PITCH)
    assert len(weights) == 4
    for array in (*weights, _uint8_weights(695, R, PITCH)):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0


def seeded_rig(seed):
    """(width, radius, pitch) of a random rig whose tile fits its bore."""
    rng = np.random.default_rng(seed)
    return (
        int(rng.integers(50, 1000)),
        float(rng.uniform(1.5, 3.5)),
        float(rng.uniform(1.0, 4.0)),
    )


def every_sample_pair(width, first):
    """Tile rows of 8 values of p (``first`` on) times every q, p in the even
    columns and q in the odd ones. A column reading (c, c + 1) sees (p, q) or
    (q, p), so rows of all 256 values of p give every column all 65,536
    ordered pairs."""
    p, q = np.divmod(np.arange(8 * 256) + 256 * first, 256)
    even = np.arange(width) % 2 == 0
    return np.where(even, p[:, None], q[:, None]).astype(np.uint8)


@pytest.fixture
def fresh_uint8_weights():
    _uint8_weights.cache_clear()
    yield
    _uint8_weights.cache_clear()


@pytest.mark.parametrize(
    "rig, proved",
    [
        ((695, R, PITCH), True),
        (seeded_rig(1), False),  # the nearest float32 misses the staircase
        (seeded_rig(6), False),
        (seeded_rig(9), True),
        (seeded_rig(11), True),
    ],
    ids=["reference", "seed-1", "seed-6", "seed-9", "seed-11"],
)
def test_uint8_correction_matches_float64_on_every_sample_pair(rig, proved):
    width, radius, pitch = rig
    w32 = _uint8_weights(*rig)
    assert (w32 is not None) == proved
    if proved:
        nearest = _correction_weights(*rig)[3].astype(np.float32)
        assert np.array_equal(w32, nearest)
    for first in range(0, 256, 8):
        pixels = every_sample_pair(width, first)
        out = correct_tile(tile_from(pixels), radius, pitch)
        assert np.array_equal(out.pixels, corrected_by_formula(pixels, radius, pitch))


def test_uint8_correction_falls_back_to_float64_on_a_half_integer(
    monkeypatch, fresh_uint8_weights
):
    rig = (695, R, PITCH)
    weights = c0, c1, _, _ = tied_weights()
    monkeypatch.setattr(unwrap, "_correction_weights", lambda *key: weights)
    assert _uint8_weights(*rig) is None
    pixels = every_sample_pair(rig[0], 0)
    expected = np.rint(resampled(pixels, weights)).astype(np.uint8)
    assert np.array_equal(correct_tile(tile_from(pixels), R, PITCH).pixels, expected)
    # the float32 formula would round the tie (1, 2) down where float64
    # rounds 1.5 to even, so the float64 path is what gives these bytes
    p0 = pixels[:, c0[100]].astype(np.float32)
    p1 = pixels[:, c1[100]].astype(np.float32)
    float32 = p0 + np.rint((p1 - p0) * np.float32(0.5))
    assert np.any(float32 != expected[:, 100])


def test_resample_columns_allocates_less_than_its_output():
    # a 64 x 695 strip gathered and weighed in out and scratch: gathering
    # into temporaries and numpy's buffered broadcast multiply once took
    # about 1.3 times the output
    rows = np.random.default_rng(3).uniform(0.0, 255.0, (STRIP_ROWS, 695))
    weights = _column_weights(build_remap(695, R, PITCH), 695)
    out, scratch = np.empty_like(rows), np.empty_like(rows)
    expected = rows[:, weights[0]] * weights[2] + rows[:, weights[1]] * weights[3]
    tracemalloc.start()
    try:
        _resample_columns(rows, weights, out, scratch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes
    assert np.array_equal(out, expected)


def test_correct_tile_row_independence():
    rng = np.random.default_rng(7)
    img = random_tile(rng, width=61, height=12)
    whole = correct_tile(img, R, PITCH)
    row = tile_from(img.pixels[7:8, :])
    alone = correct_tile(row, R, PITCH)
    assert np.array_equal(whole.pixels[7], alone.pixels[0])


def test_forward_project_constant_valid_region():
    img = tile_from(np.full((6, 695), 99, dtype=np.uint8))
    out = forward_project(img, R, PITCH)
    # the columns with no source data are written as 0, the rest keep 99
    sentinel = np.flatnonzero(out.pixels[0] == 0).tolist()
    assert sentinel, "extreme columns always fall outside the window"
    valid = np.setdiff1d(np.arange(695), sentinel)
    assert np.all(out.pixels[:, valid] == 99)
    assert np.all(out.pixels[:, sentinel] == 0)
    # columns with |center offset| >= 339 sample beyond arc offset 347
    # (its source column lies 338.93 px out): nine columns on each side
    assert sentinel == list(range(0, 9)) + list(range(686, 695))


def test_forward_project_center_column_fixed():
    img = tile_from(np.full((6, 101), 10, dtype=np.uint8))
    img.pixels[:, 50] = 250
    out = forward_project(img, R, PITCH)
    assert np.all(out.pixels[:, 50] == 250)


def test_forward_project_compresses_offaxis_band():
    # 100 px band over corrected columns [150, 250) relative to center:
    # its projected edges land at the source columns of the half-intensity
    # crossings, and the extent shrinks by ~cos(m p/r) at the band middle
    img = tile_from(np.full((4, 695), 200, dtype=np.uint8))
    c = 347
    img.pixels[:, c + 150 : c + 250] = 20
    out = forward_project(img, R, PITCH)
    row = out.pixels[0].astype(int)
    dark = np.nonzero(row < 110)[0]
    dark = dark[(dark > 8) & (dark < 686)]  # ignore sentinel zeros
    # the source columns of corrected offsets 149.5 and 249.5 from the
    # centre of a 694 px tile, 346.5
    source = build_remap(694, R, PITCH) - 346.5
    assert dark.min() == pytest.approx(c + source[496], abs=2)
    assert dark.max() == pytest.approx(c + source[596], abs=2)
    measured = dark.max() - dark.min() + 1
    predicted = 100 * math.cos(200 * PITCH * 1e-3 / R)
    assert measured == pytest.approx(predicted, abs=3)


def band_limited_texture(seed, height=32, width=695):
    # Random field with no energy above 0.25 cycles/px (half Nyquist) and a
    # Gaussian spectral envelope; resampling smooth content twice must not
    # lose more than the interpolation error budget.
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((height, width))
    spectrum = np.fft.rfft2(noise)
    fy = np.fft.fftfreq(height)[:, None]
    fx = np.fft.rfftfreq(width)[None, :]
    f2 = fy**2 + fx**2
    spectrum *= np.exp(-f2 / (2 * 0.06**2))
    spectrum[(np.abs(fy) > 0.25) | (fx > 0.25)] = 0.0
    smooth = np.fft.irfft2(spectrum, s=(height, width))
    smooth = (smooth - smooth.min()) / (smooth.max() - smooth.min())
    return tile_from((30 + smooth * 190).astype(np.uint8))


def test_round_trip_band_limited():
    texture = band_limited_texture(42)
    recovered = correct_tile(forward_project(texture, R, PITCH), R, PITCH)
    lo, hi = 35, 660  # central 90% of columns
    diff = (
        recovered.pixels[:, lo:hi].astype(float)
        - texture.pixels[:, lo:hi].astype(float)
    )
    assert np.mean(np.abs(diff)) <= 2.0
