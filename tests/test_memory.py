"""Memory bounds of the warp and the generator, in bytes per output sample.

Each bound is the sum of the arrays the code keeps alive at its peak, plus a
slack for band temporaries and allocator rounding.  The tracemalloc peak
counts only what is allocated during the call, so an input frame made before
it is not counted.  A frame with chroma shares one warp plan among its three
planes and is bounded with it; a luminance-only frame holds no plan, so its
bound has no PLAN term.
"""

import math
import tracemalloc

import pytest

from uled_inspect import geometry, pipeline, synthgen
from uled_inspect.io import MeasurementFrame

from conftest import acceptance_config

# Bytes per output sample of the warp plan: int64 `base`, float64 `du` and `dv`.
PLAN = 8 + 8 + 8
# One warped plane in float64, as warp_plane returns it.
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

    # At the last plane's warp: the plan, that plane in float64, the three
    # float32 planes (the last one being cast), and the float32 zero-padded
    # source of np.pad(plane, 2).
    padded_src = (frame.height + 4) * (frame.width + 4)
    bound = (PLAN + FLOAT64_PLANE + 3 * FLOAT32_PLANE + SLACK) * out_samples + FLOAT32_PLANE * padded_src
    # The bound is about 56 bytes per output sample and the peak about 45; a
    # plan of five output-sized arrays held whole reads about 80.
    assert peak < bound, f"{peak / out_samples:.1f} bytes per output sample"
    assert out.luminance.shape == (out_h, out_w)


def test_luminance_only_warp_frame_holds_no_plan(rectify_args):
    frame, h, out_w, out_h = rectify_args
    frame = MeasurementFrame(frame.width, frame.height, frame.luminance)
    out_samples = out_w * out_h

    out, peak = traced_peak(geometry.warp_frame, frame, h, out_w, out_h)

    # At the cast of the one plane: that plane in float64 and in float32, and
    # the float32 zero-padded source.
    padded_src = (frame.height + 4) * (frame.width + 4)
    bound = (FLOAT64_PLANE + FLOAT32_PLANE + SLACK) * out_samples + FLOAT32_PLANE * padded_src
    # The bound is about 24 bytes per output sample and the peak about 14; a
    # whole plan built for the one plane reads about 37.
    assert peak < bound, f"{peak / out_samples:.1f} bytes per output sample"
    assert not out.has_chroma


def test_generate_peak_is_bounded_per_output_sample(config):
    (frame, _, _), peak = traced_peak(synthgen.generate, config)
    out_samples = frame.width * frame.height
    assert out_samples > 1_000_000

    # At a chroma plane's warp: the plan, the warped support, that plane's
    # float64 warp and the float32 first chroma plane per output sample; the
    # float64 ideal plane and its zero-padded copy per LES sample, fewer than
    # the output samples.
    les_samples = math.ceil(config.les_width) * math.ceil(config.les_height)
    assert les_samples < out_samples
    bound = (PLAN + 2 * FLOAT64_PLANE + FLOAT32_PLANE + SLACK) * out_samples
    bound += 2 * FLOAT64_PLANE * les_samples
    # The bound is about 67 bytes per output sample and the peak about 60;
    # all ideal planes, their coverage, a five-array plan and every warped
    # plane held at once read about 125.
    assert peak < bound, f"{peak / out_samples:.1f} bytes per output sample"
