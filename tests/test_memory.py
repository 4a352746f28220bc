"""Memory bounds of the warp, the generator and the frame writer, in bytes
per output sample.

Each bound is the sum of the arrays the code keeps alive at its peak, plus a
slack for band temporaries and allocator rounding.  The tracemalloc peak
counts only what is allocated during the call, so an input frame made before
it is not counted.  Every warp makes its taps band by band, so no bound has a
term for output-sized taps.  warp_frame also makes no float64 plane: it warps
every plane straight into a float32 array, so its bounds have no
FLOAT64_PLANE term.  The generator warps into float64 planes and draws its
noise a chunk at a time.
"""

import math
import tracemalloc

import numpy as np
import pytest

from uled_inspect import geometry, io, pipeline, synthgen
from uled_inspect.io import MeasurementFrame

from conftest import acceptance_config

# One warped plane in float64, as warp_plane returns it for a float64 plane.
FLOAT64_PLANE = 8
FLOAT32_PLANE = 4
# Band temporaries (a few arrays of _BAND_ROWS rows), the frame checks' masks
# and allocator rounding.
SLACK = 8


def traced_peak(fn, *args):
    """(result, peak bytes allocated while fn(*args) ran)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture(scope="module")
def config():
    # 44x44 cells at the acceptance pitch and the geometry of acceptance map 2:
    # a 1012 px LES, so every output below has more than 1 Mpx.
    return acceptance_config(grid_rows=44, grid_cols=44, rotation_deg=1.0, perspective_strength=0.012, seed=202)


@pytest.fixture(scope="module")
def rectify_args(config):
    """(frame, homography, out_width, out_height) of the pipeline's rectify step."""
    frame, _, corners = synthgen.generate(config)
    width, height = pipeline._quad_size(corners)
    m = pipeline.RECTIFY_MARGIN_PX
    h = geometry.estimate_homography(corners, [(m, m), (m + width, m), (m + width, m + height), (m, m + height)])
    out_w, out_h = math.ceil(width + 2 * m), math.ceil(height + 2 * m)
    assert out_w * out_h > 1_000_000
    return frame, h, out_w, out_h


def test_warp_frame_peak_is_bounded_per_output_sample(rectify_args):
    frame, h, out_w, out_h = rectify_args
    assert frame.has_chroma
    out_samples = out_w * out_h

    out, peak = traced_peak(geometry.warp_frame, frame, h, out_w, out_h)

    # At the last plane's warp: the three float32 planes and the float32
    # zero-padded source of np.pad(plane, 2).
    padded_src = (frame.height + 4) * (frame.width + 4)
    bound = (3 * FLOAT32_PLANE + SLACK) * out_samples + FLOAT32_PLANE * padded_src
    # The bound is about 24 bytes per output sample and the peak about 18; a
    # shared plan with one float64 plane on top reads about 45.
    assert peak < bound, f"{peak / out_samples:.1f} bytes per output sample"
    assert out.luminance.shape == (out_h, out_w)


def test_luminance_only_warp_frame_holds_no_plan(rectify_args):
    frame, h, out_w, out_h = rectify_args
    frame = MeasurementFrame(frame.width, frame.height, frame.luminance)
    out_samples = out_w * out_h

    out, peak = traced_peak(geometry.warp_frame, frame, h, out_w, out_h)

    # The one float32 plane and the float32 zero-padded source.
    padded_src = (frame.height + 4) * (frame.width + 4)
    bound = (FLOAT32_PLANE + SLACK) * out_samples + FLOAT32_PLANE * padded_src
    # The bound is about 16 bytes per output sample and the peak about 10; a
    # whole plan built for the one plane reads about 37, and a float64 warp
    # cast to float32 about 14.
    assert peak < bound, f"{peak / out_samples:.1f} bytes per output sample"
    assert not out.has_chroma


def test_write_frame_adds_at_most_one_plane(tmp_path):
    # A 3-plane frame of 1 Mpx per plane; the writer may copy one plane at a
    # time, not join the planes into one buffer.
    rng = np.random.default_rng(5)
    width, height = 1000, 1000
    frame = MeasurementFrame(width, height, *rng.uniform(0.0, 1.0, size=(3, height, width)).astype(np.float32))

    _, peak = traced_peak(io.write_frame, frame, tmp_path / "frame.ulf")

    # The bound is 4 bytes per sample of one plane plus 64 KiB; joining the
    # planes' bytes reads about 24 bytes per sample of one plane.
    assert peak < FLOAT32_PLANE * width * height + (64 << 10), f"{peak / (width * height):.1f} bytes per sample"
    assert io.read_frame(tmp_path / "frame.ulf") == frame


def test_generate_peak_is_bounded_per_output_sample(config):
    (frame, _, _), peak = traced_peak(synthgen.generate, config)
    out_samples = frame.width * frame.height
    assert out_samples > 1_000_000

    # At a chroma plane's warp: the warped support, that plane's float64 warp
    # and the float32 first chroma plane per output sample; the float64 ideal
    # plane and its zero-padded copy per LES sample, fewer than the output
    # samples.
    les_samples = math.ceil(config.les_width) * math.ceil(config.les_height)
    assert les_samples < out_samples
    bound = (2 * FLOAT64_PLANE + FLOAT32_PLANE + SLACK) * out_samples
    bound += 2 * FLOAT64_PLANE * les_samples
    # The bound is about 43 bytes per output sample and the peak about 37; a
    # shared 24-byte plan read about 60, and all ideal planes, their
    # coverage, a five-array plan and every warped plane held at once about
    # 125.
    assert peak < bound, f"{peak / out_samples:.1f} bytes per output sample"
