"""Memory bounds of the frame reader and writer, the warp, the run up to
rectify, the generator, the feature gather and the artifact writers.

Each bound is the sum of the arrays the code keeps alive at its peak, plus a
slack for temporaries and allocator rounding; the terms are bytes per sample
of an array of the size named.  The tracemalloc peak counts only what is
allocated during the call, so an input made before it is not counted.

- FLOAT32_PLANE and FLOAT64_PLANE are one plane of the output, in float32
  (the rectified frame's planes) or float64 (the generator's warped planes).
- SLACK per output sample covers the band temporaries of a warp (a few
  arrays of _BAND_ROWS rows), the frame checks' masks and rounding.
- A warp's zero-padded source, np.pad(plane, 2), is a term per source sample,
  and only where a band of the warp has a tap outside the source: the
  rectify of a frame whose taps all stay inside makes no such copy.
- Every warp makes its taps band by band, so no bound has a term for
  output-sized taps, and warp_frame warps every plane straight into a
  float32 array, so its bounds have no FLOAT64_PLANE term.  The generator
  warps into float64 planes and draws its noise a chunk at a time.
- The run's read_frame, corners and rectify stages read the camera frame
  one plane at a time and warp each plane as it is read, so their bound has
  one FLOAT32_PLANE term per camera sample (the chroma plane being warped),
  beside the three rectified FLOAT32_PLANE terms and SLACK per output sample.
  Reading all three camera planes first would add two more camera terms.
- Readers and writers that stream hold at most one plane or one chunk of
  text, so their bounds are a plane plus 64 KiB, a fixed number of MiB, or a
  ratio between two table sizes.
"""

import math
import tracemalloc

import numpy as np
import pytest

from uled_inspect import features, geometry, grid, io, pipeline, synthgen
from uled_inspect.errors import PipelineStageError
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

    # At the last plane's warp: the three float32 planes and, where a band
    # leaves the source, the float32 zero-padded source of np.pad(plane, 2).
    padded_src = (frame.height + 4) * (frame.width + 4)
    bound = (3 * FLOAT32_PLANE + SLACK) * out_samples + FLOAT32_PLANE * padded_src
    # The bound is about 24 bytes per output sample and the peak about 14
    # (18 while every plane was padded); a shared plan with one float64 plane
    # on top reads about 45.
    assert peak < bound, f"{peak / out_samples:.1f} bytes per output sample"
    assert out.luminance.shape == (out_h, out_w)


def test_run_holds_one_camera_plane_through_rectify(rectify_args, tmp_path, monkeypatch):
    frame = rectify_args[0]
    assert frame.has_chroma
    path = tmp_path / "frame.ulf"
    io.write_frame(frame, path)
    camera_samples = frame.width * frame.height
    seen = []

    def stop_after_rectify(rectified):
        seen.append((tracemalloc.get_traced_memory()[1], rectified.width * rectified.height))
        raise RuntimeError("stopped after rectify")

    # The run's read_frame, corners and rectify stages, up to the first
    # call of the next stage.
    monkeypatch.setattr(grid, "project", stop_after_rectify)
    with pytest.raises(PipelineStageError, match="stage 'project'"):
        traced_peak(pipeline.run, pipeline.PipelineConfig(frame_path=str(path), output_dir=str(tmp_path / "out")))
    (peak, out_samples), = seen

    # At the last chroma plane's warp: that float32 camera plane and the
    # three float32 rectified planes; every tap of this frame's warp lies
    # inside the source, so no plane is padded.
    bound = FLOAT32_PLANE * camera_samples + (3 * FLOAT32_PLANE + SLACK) * out_samples
    # The bound is about 24.5 MiB and the peak about 19.3; reading the three
    # camera planes before the warps read about 27.7.
    assert peak < bound, f"{peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB"


def test_luminance_only_warp_frame_holds_no_plan(rectify_args):
    frame, h, out_w, out_h = rectify_args
    frame = MeasurementFrame(frame.width, frame.height, frame.luminance)
    out_samples = out_w * out_h

    out, peak = traced_peak(geometry.warp_frame, frame, h, out_w, out_h)

    # The one float32 plane and, where a band leaves the source, the float32
    # zero-padded source.
    padded_src = (frame.height + 4) * (frame.width + 4)
    bound = (FLOAT32_PLANE + SLACK) * out_samples + FLOAT32_PLANE * padded_src
    # The bound is about 16 bytes per output sample and the peak about 6 (10
    # while the plane was padded); a whole plan built for the one plane reads
    # about 37, and a float64 warp cast to float32 about 14.
    assert peak < bound, f"{peak / out_samples:.1f} bytes per output sample"
    assert not out.has_chroma


def test_warp_frame_with_inside_taps_pads_no_plane(rectify_args):
    frame, h, out_w, out_h = rectify_args
    # The output's sample centers pull back into the quad of its corner
    # samples' centers, so every sample's (0, 0) tap, at (floor(u - 0.5),
    # floor(v - 0.5)), lies in [0, width - 2] x [0, height - 2] when theirs do.
    centers = np.array([(0.5, 0.5), (out_w - 0.5, 0.5), (out_w - 0.5, out_h - 0.5), (0.5, out_h - 0.5)])
    u, v = (geometry.apply_homography_array(h.inverse(), centers) - 0.5).T
    assert u.min() >= 0 and u.max() < frame.width - 1 and v.min() >= 0 and v.max() < frame.height - 1

    out, peak = traced_peak(geometry.warp_frame, frame, h, out_w, out_h)

    # Every tap lies inside the source, so each band is gathered from the
    # plane itself: beyond the three float32 output planes, only band
    # temporaries, about 0.4 float32 source planes.  Padding every plane
    # before its warp read about 1.4.
    beyond = peak - 3 * FLOAT32_PLANE * out_w * out_h
    source_plane = FLOAT32_PLANE * frame.width * frame.height
    assert beyond < source_plane, f"{beyond / source_plane:.2f} source planes"
    assert out.has_chroma


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


def written_cells_peak(tmp_path, side):
    """Tracemalloc peak of writing report.json and features.csv for a
    side x side-cell table with random valid descriptors and both statuses."""
    rng = np.random.default_rng(side)
    n = side * side
    low = rng.uniform(0.0, 100.0, n)
    high = low + rng.uniform(0.0, 100.0, n)
    values = np.column_stack([
        low + rng.uniform(size=n) * (high - low), high, low,
        rng.uniform(size=n) * (high - low) / 2.0, rng.uniform(size=(n, 2)),
    ])
    cells = features.CellTable(rows=np.arange(n) // side, cols=np.arange(n) % side, values=values)
    defective = rng.uniform(size=n) < 0.05
    statuses = {"predicted": defective, "truth": defective[::-1].copy()}
    summary = {"flags": {"confusion_skipped": False}}
    with open(tmp_path / "report.json", "w", encoding="ascii") as report_file, \
            open(tmp_path / "features.csv", "w", encoding="ascii") as csv_file:
        _, peak = traced_peak(pipeline._write_cells, report_file, csv_file, summary, cells, statuses)
    assert (tmp_path / "features.csv").read_text().count("\n") == n + 1
    return peak


def test_cell_writer_peak_does_not_grow_with_the_cell_count(tmp_path):
    # 148 x 148 is the interior of a dense 150 x 150-cell frame.  Formatting
    # every cell's text before writing any read about 18.5 MiB here, and 2.8
    # MiB at 58 x 58; written a chunk of cells at a time, both read about
    # 1.7 MiB.
    small, large = (written_cells_peak(tmp_path, side) for side in (58, 148))
    assert large < 4 << 20, f"{large / 2**20:.1f} MiB"
    assert large < 1.5 * small, f"{large / 2**20:.1f} MiB at 148 x 148, {small / 2**20:.1f} MiB at 58 x 58"


def test_read_frame_reads_aligned_planes_in_place(tmp_path):
    rng = np.random.default_rng(6)
    width, height = 1000, 1000
    frame = MeasurementFrame(width, height, *rng.uniform(0.0, 1.0, size=(3, height, width)).astype(np.float32))
    io.write_frame(frame, tmp_path / "frame.ulf")

    read, peak = traced_peak(io.read_frame, tmp_path / "frame.ulf")

    # The payload, each plane read once into its own aligned array.
    # Reading the file's bytes and viewing the planes 13 bytes into them held
    # the same bytes, but left every plane misaligned.
    payload = 3 * FLOAT32_PLANE * width * height
    assert peak <= payload + (64 << 10), f"{(peak - payload) / 2**10:.0f} KiB beyond the payload"
    assert all(plane.flags.aligned for plane in read.planes)
    assert read == frame


def test_extract_peak_does_not_grow_with_the_cells_of_one_shape():
    # A 60 x 60-cell colour frame at the 23 px acceptance pitch: every one of
    # its 58 x 58 interior cells keeps a 21 x 21 block, one block shape.
    rng = np.random.default_rng(7)
    edges = 10.3 + 23.0 * np.arange(61)
    side = 1400
    planes = rng.uniform(0.0, 1.0, size=(3, side, side)).astype(np.float32)
    frame = MeasurementFrame(side, side, *planes)
    pixel_grid = grid.build_grid(edges, edges)

    cells, peak = traced_peak(features.extract, frame, pixel_grid)

    # Gathered a part of at most features._CHUNK_SAMPLES samples at a time,
    # the float32 blocks, their float64 copy and the std's float64
    # deviations read about 8.5 MiB; all cells of the shape at once read
    # about 28.7 MiB.
    assert len(cells) == 58 * 58
    assert peak < 12 << 20, f"{peak / 2**20:.1f} MiB"


def written_overlay_peak(tmp_path, side):
    """Tracemalloc peak of writing overlay.svg for a side x side-cell grid
    with random descriptors and about 5% defects."""
    rng = np.random.default_rng(side)
    n = side * side
    mean = rng.uniform(0.0, 100.0, n)
    values = np.column_stack([mean, mean, mean, np.zeros(n), np.full((n, 2), 0.5)])
    cells = features.CellTable(rows=np.arange(n) // side, cols=np.arange(n) % side, values=values)
    edges = 10.3 + 9.5 * np.arange(side + 1)
    pixel_grid = grid.PixelGrid(edges, edges, np.ones((side, side), dtype=bool))
    defective = rng.uniform(size=n) < 0.05
    with open(tmp_path / "overlay.svg", "w", encoding="ascii") as svg_file:
        _, peak = traced_peak(pipeline._write_overlay, svg_file, pixel_grid, cells, defective)
    assert (tmp_path / "overlay.svg").read_text().count("<rect") == 1 + n + defective.sum()
    return peak


def test_overlay_writer_peak_does_not_grow_with_the_cell_count(tmp_path):
    # 148 x 148 is the interior of a dense 150 x 150-cell frame.  Holding
    # every cell's <rect> string and their join read about 6.8 MiB here and
    # 1.1 MiB at 58 x 58; written a chunk of cells at a time, they read about
    # 0.35 and 0.26 MiB.
    small, large = (written_overlay_peak(tmp_path, side) for side in (58, 148))
    assert large < 1 << 20, f"{large / 2**20:.2f} MiB"
    assert large < 1.5 * small, f"{large / 2**20:.2f} MiB at 148 x 148, {small / 2**20:.2f} MiB at 58 x 58"
