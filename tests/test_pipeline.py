import json
from pathlib import Path

import numpy as np
import pytest

from uled_inspect import grid, io, ml, pipeline, synthgen
from uled_inspect.errors import ConfigError, PipelineStageError
from uled_inspect.pipeline import ARTIFACT_NAMES, PipelineConfig, run


def small_map(tmp_path, **overrides):
    params = dict(
        grid_rows=16, grid_cols=16, cell_size_px=20, gap_px=3, lum_mean=100,
        lum_sigma=6, defect_fraction=0.05, defect_residual=0.02,
        noise_sigma=0.4, chroma_sigma=0.005, seed=42,
    )
    params.update(overrides)
    config = synthgen.SynthConfig(**params)
    frame, defects, corners = synthgen.generate(config)
    frame_path = tmp_path / "frame.ulf"
    defects_path = tmp_path / "defects.csv"
    io.write_frame(frame, frame_path)
    io.write_defect_map(defects, defects_path)
    return config, frame_path, defects_path, corners


def fast_kmeans():
    return ml.KMeansConfig(n_init=15, seed=8)


def test_run_emits_all_artifacts(tmp_path):
    _, frame_path, defects_path, _ = small_map(tmp_path)
    result = run(PipelineConfig(
        frame_path=str(frame_path), output_dir=str(tmp_path / "out"),
        defects_path=str(defects_path), kmeans=fast_kmeans(),
    ))
    for name in ARTIFACT_NAMES:
        assert (tmp_path / "out" / name).is_file()
    assert result.confusion is not None
    assert result.report["grid_metrics"]["n_rows"] == 16
    assert len(result.report["per_cell"]) == 14 * 14
    assert result.report["per_cell"][0]["truth"] in ("functional", "defect")


def test_run_is_byte_deterministic(tmp_path):
    _, frame_path, defects_path, _ = small_map(tmp_path)
    blobs = []
    for name in ("a", "b"):
        run(PipelineConfig(
            frame_path=str(frame_path), output_dir=str(tmp_path / name),
            defects_path=str(defects_path), kmeans=fast_kmeans(),
        ))
        blobs.append((tmp_path / name / "report.json").read_bytes())
    assert blobs[0] == blobs[1]


def test_zero_defect_frame(tmp_path):
    _, frame_path, defects_path, _ = small_map(tmp_path, defect_fraction=0.0)
    result = run(PipelineConfig(
        frame_path=str(frame_path), output_dir=str(tmp_path / "out"),
        defects_path=str(defects_path), kmeans=fast_kmeans(),
    ))
    assert result.confusion.false_negative_rate == 0.0
    assert result.confusion.false_positive_rate == 0.0
    assert result.les_stats.raw_mean == result.les_stats.denoised_mean
    assert result.report["flags"]["degenerate_clustering"]


def test_run_without_defect_map_skips_confusion(tmp_path):
    _, frame_path, _, _ = small_map(tmp_path)
    result = run(PipelineConfig(
        frame_path=str(frame_path), output_dir=str(tmp_path / "out"), kmeans=fast_kmeans(),
    ))
    assert result.confusion is None
    assert result.report["confusion"] is None
    assert result.report["flags"]["confusion_skipped"]
    assert "truth" not in result.report["per_cell"][0]


def test_explicit_corners_match_auto(tmp_path):
    _, frame_path, defects_path, corners = small_map(tmp_path, rotation_deg=1.0)
    auto = run(PipelineConfig(
        frame_path=str(frame_path), output_dir=str(tmp_path / "auto"),
        defects_path=str(defects_path), kmeans=fast_kmeans(),
    ))
    explicit = run(PipelineConfig(
        frame_path=str(frame_path), output_dir=str(tmp_path / "explicit"),
        defects_path=str(defects_path), corners=tuple(corners), kmeans=fast_kmeans(),
    ))
    assert explicit.confusion.accuracy == auto.confusion.accuracy
    assert abs(explicit.grid_metrics.mean_cell_width - auto.grid_metrics.mean_cell_width) < 0.05


def test_missing_frame_names_stage(tmp_path):
    with pytest.raises(PipelineStageError, match="read_frame"):
        run(PipelineConfig(frame_path=str(tmp_path / "nope.ulf"), output_dir=str(tmp_path / "out")))


def test_detected_degenerate_quad_fails_in_rectify(tmp_path, monkeypatch):
    # the same 1 px quad given as --corners is a ConfigError (exit 2)
    _, frame_path, _, _ = small_map(tmp_path)
    quad = [(10.0, 10.0), (11.0, 10.0), (11.0, 11.0), (10.0, 11.0)]
    with pytest.raises(ConfigError, match="degenerate corner quad"):
        PipelineConfig(frame_path=str(frame_path), output_dir=str(tmp_path / "out"), corners=tuple(quad))
    monkeypatch.setattr(pipeline.geometry, "detect_corners", lambda frame, rel_threshold: quad)
    with pytest.raises(PipelineStageError, match="rectify"):
        run(PipelineConfig(frame_path=str(frame_path), output_dir=str(tmp_path / "out")))


def test_grid_truth_mismatch_names_stage(tmp_path):
    _, frame_path, _, _ = small_map(tmp_path)
    wrong = tmp_path / "wrong.csv"
    io.write_defect_map(io.DefectMap.from_cells(9, 9, []), wrong)
    with pytest.raises(PipelineStageError, match="confusion"):
        run(PipelineConfig(
            frame_path=str(frame_path), output_dir=str(tmp_path / "out"),
            defects_path=str(wrong), kmeans=fast_kmeans(),
        ))


def test_failed_run_leaves_no_artifacts(tmp_path, monkeypatch):
    _, frame_path, defects_path, _ = small_map(tmp_path)
    out = tmp_path / "out"

    def boom(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(pipeline, "_overlay_svg", boom)
    with pytest.raises(PipelineStageError, match="artifacts"):
        run(PipelineConfig(
            frame_path=str(frame_path), output_dir=str(out),
            defects_path=str(defects_path), kmeans=fast_kmeans(),
        ))
    assert not list(out.iterdir())


def test_interrupt_is_not_wrapped_and_leaves_no_artifacts(tmp_path, monkeypatch):
    _, frame_path, defects_path, _ = small_map(tmp_path)
    out = tmp_path / "out"

    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(grid, "project", interrupt)
    with pytest.raises(KeyboardInterrupt):
        run(PipelineConfig(
            frame_path=str(frame_path), output_dir=str(out),
            defects_path=str(defects_path), kmeans=fast_kmeans(),
        ))
    assert not out.exists() or not list(out.iterdir())


def test_failed_rewrite_keeps_the_earlier_artifact_set(tmp_path, monkeypatch):
    _, frame_path, defects_path, _ = small_map(tmp_path)
    out = tmp_path / "out"
    config = PipelineConfig(
        frame_path=str(frame_path), output_dir=str(out),
        defects_path=str(defects_path), kmeans=fast_kmeans(),
    )
    run(config)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert set(before) == set(ARTIFACT_NAMES)

    write_text = Path.write_text
    calls = []

    def fail_third(self, *args, **kwargs):
        calls.append(self)
        if len(calls) == 3:
            raise OSError("disk full")
        return write_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", fail_third)
    with pytest.raises(PipelineStageError, match="artifacts") as info:
        run(config)
    assert info.value.stage == "artifacts"
    assert len(calls) == 3
    monkeypatch.undo()

    # Exactly the first run's six files, and no staging directory inside or
    # beside out/.
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert [p.name for p in tmp_path.iterdir() if p.is_dir()] == ["out"]


def test_report_json_schema(tmp_path):
    _, frame_path, defects_path, _ = small_map(tmp_path)
    result = run(PipelineConfig(
        frame_path=str(frame_path), output_dir=str(tmp_path / "out"),
        defects_path=str(defects_path), kmeans=fast_kmeans(),
    ))
    on_disk = json.loads((tmp_path / "out" / "report.json").read_text())
    assert set(on_disk) == {"grid_metrics", "confusion", "les_stats", "per_cell", "flags"}
    assert on_disk == result.report
    assert set(on_disk["confusion"]) == {
        "true_functional_pred_functional", "true_functional_pred_defect",
        "true_defect_pred_functional", "true_defect_pred_defect",
        "accuracy", "false_negative_rate", "false_positive_rate",
    }
    assert set(on_disk["les_stats"]) == {
        "raw_mean", "raw_sem", "denoised_mean", "denoised_sem", "raw_count", "denoised_count",
    }


def test_projection_csvs_conserve_luminance(tmp_path):
    _, frame_path, _, _ = small_map(tmp_path)
    run(PipelineConfig(
        frame_path=str(frame_path), output_dir=str(tmp_path / "out"), kmeans=fast_kmeans(),
    ))
    sums = []
    for name in ("projections_x.csv", "projections_y.csv"):
        rows = (tmp_path / "out" / name).read_text().splitlines()[1:]
        sums.append(sum(float(line.split(",")[1]) for line in rows))
    assert sums[0] == pytest.approx(sums[1], rel=1e-9)


def test_overlay_svg_marks_defects(tmp_path):
    _, frame_path, defects_path, _ = small_map(tmp_path)
    result = run(PipelineConfig(
        frame_path=str(frame_path), output_dir=str(tmp_path / "out"),
        defects_path=str(defects_path), kmeans=fast_kmeans(),
    ))
    svg = (tmp_path / "out" / "overlay.svg").read_text()
    assert svg.startswith("<svg")
    assert np.count_nonzero(result.defective) > 0
    assert svg.count('stroke="#dd2222"') == np.count_nonzero(result.defective)


def test_threads_setting():
    assert PipelineConfig(frame_path="x", output_dir="y").threads == 1
    assert PipelineConfig(frame_path="x", output_dir="y", threads=3).threads == 3
    for bad in (0, -2):
        with pytest.raises(ConfigError, match="threads must be positive"):
            PipelineConfig(frame_path="x", output_dir="y", threads=bad)


def test_invalid_pipeline_config():
    with pytest.raises(ConfigError):
        PipelineConfig(frame_path="x", output_dir="y", corners=((0, 0), (1, 0)))
    with pytest.raises(ConfigError):
        PipelineConfig(frame_path="x", output_dir="y", rel_threshold=1.5)
    with pytest.raises(ConfigError):
        PipelineConfig(frame_path="x", output_dir="y", threads=0)
