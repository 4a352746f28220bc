import time

import numpy as np
import pytest

from uled_inspect import io, pipeline, synthgen


def make_frame(values, chroma_x=None, chroma_y=None):
    arr = np.asarray(values, dtype=np.float32)
    h, w = arr.shape
    return io.MeasurementFrame(w, h, arr, chroma_x, chroma_y)


def put_nan(frame_path, plane: int, index: int) -> None:
    """Overwrite sample index (flat) of plane (its number in the file) of a
    ULF1 file with a float32 NaN."""
    blob = bytearray(frame_path.read_bytes())
    width, height, channels = io._HEADER.unpack_from(blob)[1:]
    assert plane < channels
    offset = io._HEADER.size + 4 * (plane * width * height + index)
    blob[offset : offset + 4] = np.float32("nan").tobytes()
    frame_path.write_bytes(bytes(blob))


# The three benchmark pixel maps: same array, increasing rotation/perspective.
# Pitch 23 px (cell 20 + gap 3) so the reconstructed cell size matches the
# ~23 camera px per uLED of the measurement setup.
ACCEPTANCE_MAP_PARAMS = (
    dict(rotation_deg=0.0, perspective_strength=0.0, seed=101),
    dict(rotation_deg=1.0, perspective_strength=0.012, seed=202),
    dict(rotation_deg=2.5, perspective_strength=0.018, seed=303),
)


def acceptance_config(**overrides):
    base = dict(
        grid_rows=60,
        grid_cols=60,
        cell_size_px=20.0,
        gap_px=3.0,
        lum_mean=100.0,
        lum_sigma=6.0,
        defect_fraction=0.03,
        defect_residual=0.02,
        noise_sigma=0.5,
        chroma_sigma=0.005,
    )
    base.update(overrides)
    return synthgen.SynthConfig(**base)


@pytest.fixture(scope="session")
def pixel_maps(tmp_path_factory):
    """The three benchmark maps, analyzed end to end; records wall time per map."""
    root = tmp_path_factory.mktemp("pixel_maps")
    results = []
    for i, params in enumerate(ACCEPTANCE_MAP_PARAMS, start=1):
        config = acceptance_config(**params)
        frame, defects, corners = synthgen.generate(config)
        frame_path = root / f"map{i}.ulf"
        defects_path = root / f"map{i}.csv"
        io.write_frame(frame, frame_path)
        io.write_defect_map(defects, defects_path)
        started = time.perf_counter()
        result = pipeline.run(
            pipeline.PipelineConfig(
                frame_path=str(frame_path),
                output_dir=str(root / f"out{i}"),
                defects_path=str(defects_path),
            )
        )
        elapsed = time.perf_counter() - started
        results.append(
            {
                "config": config,
                "corners": corners,
                "result": result,
                "elapsed": elapsed,
                "frame_path": frame_path,
                "defects_path": defects_path,
            }
        )
    return results
