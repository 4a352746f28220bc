import json
import re
import weakref
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

from uled_inspect import features, grid, io, ml, pipeline, synthgen
from uled_inspect.errors import ConfigError, GridError, PipelineStageError
from uled_inspect.pipeline import ARTIFACT_NAMES, PipelineConfig, run

from conftest import ACCEPTANCE_MAP_PARAMS, acceptance_config, put_nan


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


SUMMARY_SECTIONS = {"grid_metrics", "confusion", "les_stats", "flags"}


def read_report(out_dir):
    return json.loads((Path(out_dir) / "report.json").read_text())


def per_cell_entries(cells, defective, truth_cells):
    """report.json's per_cell entries built one dict per cell: the reference
    the writers' text is checked against.  truth_cells is the per-cell truth
    mask, or None when no defect map was given."""
    status = ("functional", "defect")
    entries = []
    for k in range(len(cells)):
        entry = {"row": int(cells.rows[k]), "col": int(cells.cols[k])}
        entry.update(zip(features.COLUMNS, cells.values[k].tolist()))
        entry["predicted"] = status[bool(defective[k])]
        if truth_cells is not None:
            entry["truth"] = status[bool(truth_cells[k])]
        entries.append(entry)
    return entries


def test_run_releases_camera_frame_after_rectify(tmp_path, monkeypatch):
    # Past rectify only the rectified frame is needed; no camera plane may
    # stay alive through the feature and classify stages.  Within rectify the
    # planes are read one at a time, each gone before the next is read.
    _, frame_path, defects_path, _ = small_map(tmp_path)
    read_plane, extract = io.FrameReader.read_plane, features.extract
    camera = []
    alive_at_read = []
    alive_in_extract = []

    def tracked_read_plane(self):
        alive_at_read.append([ref() is not None for ref in camera])
        plane = read_plane(self)
        camera.append(weakref.ref(plane))
        return plane

    def tracked_extract(*args, **kwargs):
        alive_in_extract.append([ref() is not None for ref in camera])
        return extract(*args, **kwargs)

    monkeypatch.setattr(io.FrameReader, "read_plane", tracked_read_plane)
    monkeypatch.setattr(features, "extract", tracked_extract)
    run(PipelineConfig(
        frame_path=str(frame_path), output_dir=str(tmp_path / "out"),
        defects_path=str(defects_path),
    ))
    assert alive_at_read == [[], [False], [False, False]]
    assert alive_in_extract == [[False, False, False]]


def test_run_emits_all_artifacts(tmp_path):
    _, frame_path, defects_path, _ = small_map(tmp_path)
    result = run(PipelineConfig(
        frame_path=str(frame_path), output_dir=str(tmp_path / "out"),
        defects_path=str(defects_path),
    ))
    for name in ARTIFACT_NAMES:
        assert (tmp_path / "out" / name).is_file()
    assert result.confusion is not None
    assert result.report["grid_metrics"]["n_rows"] == 16
    assert len(result.cells) == len(result.defective) == 14 * 14
    per_cell = read_report(tmp_path / "out")["per_cell"]
    assert len(per_cell) == 14 * 14
    assert per_cell[0]["truth"] in ("functional", "defect")


def test_run_is_byte_deterministic(tmp_path):
    _, frame_path, defects_path, _ = small_map(tmp_path)
    blobs = []
    for name in ("a", "b"):
        run(PipelineConfig(
            frame_path=str(frame_path), output_dir=str(tmp_path / name),
            defects_path=str(defects_path),
        ))
        blobs.append({artifact: (tmp_path / name / artifact).read_bytes() for artifact in ARTIFACT_NAMES})
    assert blobs[0] == blobs[1]


def test_run_sweeps_100_directions_with_one_lloyd_run_each(tmp_path, monkeypatch):
    # The benchmark counts ml._lloyd calls per analyze and expects 100; a
    # change to the direction count has to change this test too.
    _, frame_path, _, _ = small_map(tmp_path)
    calls = []
    lloyd = ml._lloyd

    def counted(*args):
        calls.append(None)
        return lloyd(*args)

    monkeypatch.setattr(ml, "_lloyd", counted)
    run(PipelineConfig(frame_path=str(frame_path), output_dir=str(tmp_path / "out")))
    assert len(calls) == 100


def test_zero_defect_frame(tmp_path):
    _, frame_path, defects_path, _ = small_map(tmp_path, defect_fraction=0.0)
    result = run(PipelineConfig(
        frame_path=str(frame_path), output_dir=str(tmp_path / "out"),
        defects_path=str(defects_path),
    ))
    assert result.confusion.false_negative_rate == 0.0
    assert result.confusion.false_positive_rate == 0.0
    assert result.les_stats.raw_mean == result.les_stats.denoised_mean
    assert result.report["flags"]["degenerate_clustering"]


def test_run_without_defect_map_skips_confusion(tmp_path):
    _, frame_path, _, _ = small_map(tmp_path)
    result = run(PipelineConfig(
        frame_path=str(frame_path), output_dir=str(tmp_path / "out"),
    ))
    assert result.confusion is None
    assert result.report["confusion"] is None
    assert result.report["flags"]["confusion_skipped"]
    assert "truth" not in read_report(tmp_path / "out")["per_cell"][0]


def test_explicit_corners_match_auto(tmp_path):
    _, frame_path, defects_path, corners = small_map(tmp_path, rotation_deg=1.0)
    auto = run(PipelineConfig(
        frame_path=str(frame_path), output_dir=str(tmp_path / "auto"),
        defects_path=str(defects_path),
    ))
    explicit = run(PipelineConfig(
        frame_path=str(frame_path), output_dir=str(tmp_path / "explicit"),
        defects_path=str(defects_path), corners=tuple(corners),
    ))
    assert explicit.confusion.accuracy == auto.confusion.accuracy
    assert abs(explicit.grid_metrics.mean_cell_width - auto.grid_metrics.mean_cell_width) < 0.05


def test_missing_frame_names_stage(tmp_path):
    with pytest.raises(PipelineStageError, match="read_frame"):
        run(PipelineConfig(frame_path=str(tmp_path / "nope.ulf"), output_dir=str(tmp_path / "out")))


def test_nan_chroma_y_sample_fails_read_frame(tmp_path):
    # The chroma planes are read while the luminance is warped; a bad chroma
    # sample is still an input fault, not a rectify failure.
    _, frame_path, _, _ = small_map(tmp_path)
    put_nan(frame_path, plane=2, index=7)
    with pytest.raises(PipelineStageError, match="chroma_y sample at flat index 7") as info:
        run(PipelineConfig(frame_path=str(frame_path), output_dir=str(tmp_path / "out")))
    assert info.value.stage == "read_frame"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("damage", ["truncated payload", "bad header"])
def test_unreadable_frame_fails_read_frame_before_corners(tmp_path, monkeypatch, damage):
    _, frame_path, _, _ = small_map(tmp_path)
    blob = frame_path.read_bytes()
    frame_path.write_bytes(blob[:-8] if damage == "truncated payload" else b"NOPE" + blob[4:])
    corner_calls = []
    monkeypatch.setattr(pipeline.geometry, "detect_corners", lambda frame: corner_calls.append(frame))
    with pytest.raises(PipelineStageError, match="payload" if damage == "truncated payload" else "bad magic") as info:
        run(PipelineConfig(frame_path=str(frame_path), output_dir=str(tmp_path / "out")))
    assert info.value.stage == "read_frame"
    assert corner_calls == []


def test_detected_degenerate_quad_fails_in_rectify(tmp_path, monkeypatch):
    # the same 1 px quad given as --corners is a ConfigError (exit 2)
    _, frame_path, _, _ = small_map(tmp_path)
    quad = [(10.0, 10.0), (11.0, 10.0), (11.0, 11.0), (10.0, 11.0)]
    with pytest.raises(ConfigError, match="degenerate corner quad"):
        PipelineConfig(frame_path=str(frame_path), output_dir=str(tmp_path / "out"), corners=tuple(quad))
    monkeypatch.setattr(pipeline.geometry, "detect_corners", lambda frame: quad)
    with pytest.raises(PipelineStageError, match="rectify"):
        run(PipelineConfig(frame_path=str(frame_path), output_dir=str(tmp_path / "out")))


def test_grid_truth_mismatch_names_stage(tmp_path):
    _, frame_path, _, _ = small_map(tmp_path)
    wrong = tmp_path / "wrong.csv"
    io.write_defect_map(io.DefectMap.from_cells(9, 9, []), wrong)
    with pytest.raises(PipelineStageError, match="confusion") as info:
        run(PipelineConfig(
            frame_path=str(frame_path), output_dir=str(tmp_path / "out"),
            defects_path=str(wrong),
        ))
    assert "truth map 9x9 does not match grid 16x16" in str(info.value)


def test_failed_run_leaves_no_artifacts(tmp_path, monkeypatch):
    _, frame_path, defects_path, _ = small_map(tmp_path)
    out = tmp_path / "out"

    def boom(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(pipeline, "_write_overlay", boom)
    with pytest.raises(PipelineStageError, match="artifacts"):
        run(PipelineConfig(
            frame_path=str(frame_path), output_dir=str(out),
            defects_path=str(defects_path),
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
            defects_path=str(defects_path),
        ))
    assert not out.exists() or not list(out.iterdir())


def test_failed_rewrite_keeps_the_earlier_artifact_set(tmp_path, monkeypatch):
    _, frame_path, defects_path, _ = small_map(tmp_path)
    out = tmp_path / "out"
    config = PipelineConfig(
        frame_path=str(frame_path), output_dir=str(out),
        defects_path=str(defects_path),
    )
    run(config)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert set(before) == set(ARTIFACT_NAMES)

    path_open = Path.open
    calls = []

    def fail_third(self, mode="r", *args, **kwargs):
        if "w" in mode:
            calls.append(self)
            if len(calls) == 3:
                raise OSError("disk full")
        return path_open(self, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", fail_third)
    with pytest.raises(PipelineStageError, match="artifacts") as info:
        run(config)
    assert info.value.stage == "artifacts"
    assert len(calls) == 3
    monkeypatch.undo()

    # Exactly the first run's six files, and no staging directory inside or
    # beside out/.
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert [p.name for p in tmp_path.iterdir() if p.is_dir()] == ["out"]


def test_directory_at_an_artifact_path_fails_before_any_rewrite(tmp_path):
    # A run on another frame must not replace the five files beside a
    # directory named overlay.svg, nor leave a temporary behind.
    _, frame_path, defects_path, _ = small_map(tmp_path)
    out = tmp_path / "out"
    run(PipelineConfig(frame_path=str(frame_path), output_dir=str(out), defects_path=str(defects_path)))
    (out / "overlay.svg").unlink()
    (out / "overlay.svg").mkdir()
    before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
    (tmp_path / "other").mkdir()
    _, frame_path, defects_path, _ = small_map(tmp_path / "other", seed=43)
    with pytest.raises(PipelineStageError) as info:
        run(PipelineConfig(frame_path=str(frame_path), output_dir=str(out), defects_path=str(defects_path)))
    assert info.value.stage == "artifacts"
    assert str(out / "overlay.svg") in str(info.value)
    assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == before
    assert sorted(p.name for p in out.iterdir()) == sorted(ARTIFACT_NAMES)
    assert not list((out / "overlay.svg").iterdir())


def test_grid_running_off_the_frame_fails_in_reconstruct_grid(tmp_path):
    # At the map-202 pose with 40% defects the edge comb of a 30x30-cell
    # frame runs past the rectified frame; detect_edges rejects it, so the
    # features stage never sees it.
    frame, _, _ = synthgen.generate(acceptance_config(
        grid_rows=30, grid_cols=30, rotation_deg=1.0, perspective_strength=0.012, seed=202,
        defect_fraction=0.4,
    ))
    io.write_frame(frame, tmp_path / "frame.ulf")
    with pytest.raises(PipelineStageError, match="past the end of the") as info:
        run(PipelineConfig(frame_path=str(tmp_path / "frame.ulf"), output_dir=str(tmp_path / "out")))
    assert info.value.stage == "reconstruct_grid"


def test_gap_free_les_fails_in_reconstruct_grid(tmp_path):
    # With no dark gap between cells the projections hold no period: the
    # spectrum's peak backs no comb.  The comb contrast r(p) - r(p/2) reads at
    # most 0.174 on these frames (the upright x projection), against the 0.5
    # that a pitch needs and the 1.0 or more of a frame of cells, so the stage
    # fails instead of laying a grid; nor does a box.
    for name, pose in (("upright", dict(seed=101)),
                       ("map202", dict(rotation_deg=1.0, perspective_strength=0.012, seed=202))):
        frame, _, _ = synthgen.generate(acceptance_config(grid_rows=30, grid_cols=30, gap_px=0.0, **pose))
        io.write_frame(frame, tmp_path / f"{name}.ulf")
        with pytest.raises(PipelineStageError, match="no periodic structure") as info:
            run(PipelineConfig(frame_path=str(tmp_path / f"{name}.ulf"), output_dir=str(tmp_path / name)))
        assert info.value.stage == "reconstruct_grid"
        assert not (tmp_path / name).exists()
    box = np.zeros(1400)
    box[200:1200] = 1000.0
    with pytest.raises(GridError, match="no periodic structure"):
        grid.estimate_period(box)


def analyze_at_pitch(tmp_path, pitch, pose):
    """A 100x100-cell acceptance frame at the given pitch (75% fill) and pose,
    analyzed against its own truth."""
    config = acceptance_config(grid_rows=100, grid_cols=100, cell_size_px=0.75 * pitch, gap_px=0.25 * pitch, **pose)
    frame, defects, _ = synthgen.generate(config)
    io.write_frame(frame, tmp_path / "frame.ulf")
    io.write_defect_map(defects, tmp_path / "defects.csv")
    return run(PipelineConfig(frame_path=str(tmp_path / "frame.ulf"), output_dir=str(tmp_path / "out"),
                              defects_path=str(tmp_path / "defects.csv")))


@pytest.mark.parametrize("pitch, pose", [
    pytest.param(pitch, pose, id=f"{pitch:g}px-map{pose['seed']}")
    for pitch, pose in [(4.0, ACCEPTANCE_MAP_PARAMS[1]), (4.0, ACCEPTANCE_MAP_PARAMS[2])]
    + [(5.0, pose) for pose in ACCEPTANCE_MAP_PARAMS]
])
def test_small_pitch_reconstructs_the_full_grid(tmp_path, pitch, pose):
    # Just above the 4 px floor: the pitch reads 4.0003 to 4.0008 px at the
    # two tilted poses.
    report = analyze_at_pitch(tmp_path, pitch, pose).report
    assert (report["grid_metrics"]["n_rows"], report["grid_metrics"]["n_cols"]) == (100, 100)
    assert report["confusion"]["accuracy"] >= 0.995
    assert report["confusion"]["false_positive_rate"] == 0.0


@pytest.mark.parametrize("pitch, pose, message", [
    pytest.param(4.0, ACCEPTANCE_MAP_PARAMS[0], r"period 3\.99999\d* too small", id="4px-map101"),
    pytest.param(3.0, ACCEPTANCE_MAP_PARAMS[0], r"period 3\.0000\d* too small", id="3px-map101"),
    pytest.param(3.0, ACCEPTANCE_MAP_PARAMS[2], r"period 3\.000\d* too small", id="3px-map303"),
    pytest.param(2.5, ACCEPTANCE_MAP_PARAMS[0], r"period 2\.4999\d* too small", id="2.5px-map101"),
    pytest.param(2.5, ACCEPTANCE_MAP_PARAMS[2], "no periodic structure", id="2.5px-map303"),
])
def test_pitch_at_or_below_4px_fails_in_reconstruct_grid(tmp_path, pitch, pose, message):
    # detect_edges takes no pitch of 4 px or less, and the upright 4 px
    # frame reads just under 4.  At the map-303 pose the warp blurs a 2.5 px
    # comb to a contrast of 0.39, so it fails as no periodic structure.  No
    # run lays a grid of twice the pitch.
    with pytest.raises(PipelineStageError, match=message) as info:
        analyze_at_pitch(tmp_path, pitch, pose)
    assert info.value.stage == "reconstruct_grid"
    assert not (tmp_path / "out").exists()


def test_report_json_schema(tmp_path):
    _, frame_path, defects_path, _ = small_map(tmp_path)
    result = run(PipelineConfig(
        frame_path=str(frame_path), output_dir=str(tmp_path / "out"),
        defects_path=str(defects_path),
    ))
    on_disk = read_report(tmp_path / "out")
    assert set(result.report) == SUMMARY_SECTIONS
    assert set(on_disk) == SUMMARY_SECTIONS | {"per_cell"}
    assert {key: on_disk[key] for key in SUMMARY_SECTIONS} == result.report
    # Field by field: position, descriptors, prediction and per-cell truth.
    cells = result.cells
    truth_cells = io.read_defect_map(defects_path).defective[cells.rows, cells.cols]
    assert on_disk["per_cell"] == per_cell_entries(cells, result.defective, truth_cells)
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
        frame_path=str(frame_path), output_dir=str(tmp_path / "out"),
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
        defects_path=str(defects_path),
    ))
    svg = (tmp_path / "out" / "overlay.svg").read_text()
    assert svg.startswith("<svg")
    assert np.count_nonzero(result.defective) > 0
    assert svg.count('stroke="#dd2222"') == np.count_nonzero(result.defective)


def test_threads_setting():
    assert PipelineConfig(frame_path="x", output_dir="y").threads == 1
    assert PipelineConfig(frame_path="x", output_dir="y", threads=3).threads == 3
    for bad in (0, -2):
        with pytest.raises(ConfigError, match="threads must be a positive int"):
            PipelineConfig(frame_path="x", output_dir="y", threads=bad)


@pytest.mark.parametrize("bad", [2.0, 1.5, True, "2", None])
def test_threads_must_be_an_int(bad):
    # 2.0 used to build and then fail in stage classify; True ran 1 thread.
    with pytest.raises(ConfigError, match="threads must be a positive int"):
        PipelineConfig(frame_path="x", output_dir="y", threads=bad)


def test_invalid_pipeline_config():
    with pytest.raises(ConfigError):
        PipelineConfig(frame_path="x", output_dir="y", corners=((0, 0), (1, 0)))
    with pytest.raises(ConfigError):
        PipelineConfig(frame_path="x", output_dir="y", threads=0)


# The summary sections of a report, for the writer tests that build their
# inputs by hand.
SECTIONS = {
    "grid_metrics": {
        "mean_cell_width": 9.875, "mean_cell_height": 9.875, "std_cell_width": 0.125,
        "std_cell_height": 0.1, "n_rows": 3, "n_cols": 4,
    },
    "confusion": {
        "true_functional_pred_functional": 1, "true_functional_pred_defect": 1,
        "true_defect_pred_functional": 0, "true_defect_pred_defect": 1,
        "accuracy": 0.6666666666666666, "false_negative_rate": 0.0, "false_positive_rate": 0.5,
    },
    "les_stats": {
        "raw_mean": 101.1, "raw_sem": 56.3, "denoised_mean": 200.0, "denoised_sem": 0.0,
        "raw_count": 3, "denoised_count": 1,
    },
    "flags": {
        "degenerate_clustering": False, "confusion_skipped": False,
        "fnr_undefined": False, "fpr_undefined": False,
    },
}


def write_report(cells, defective, truth):
    """The whole report these cells stand for, per_cell included, and the
    report.json and features.csv texts the writer makes of them."""
    statuses = {"predicted": defective}
    truth_cells = None
    if truth is not None:
        statuses["truth"] = truth_cells = truth.defective[cells.rows, cells.cols]
    report = {**SECTIONS, "per_cell": per_cell_entries(cells, defective, truth_cells)}
    report_file, csv_file = StringIO(), StringIO()
    pipeline._write_cells(report_file, csv_file, SECTIONS, cells, statuses)
    return report, report_file.getvalue(), csv_file.getvalue()


def reference_csv(table):
    """features.csv written row by row, repr of every descriptor: the
    reference for the chunked writer."""
    lines = ["row,col,mean_l,max_l,min_l,std_l,mean_cx,mean_cy"]
    for row, col, cell in zip(table.rows.tolist(), table.cols.tolist(), table.values.tolist()):
        lines.append(f"{row},{col}," + ",".join(map(repr, cell)))
    return "\n".join(lines) + "\n"


def features_csv(cells):
    return write_report(cells, np.zeros(len(cells), dtype=bool), None)[2]


def oracle_json(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def assert_same_text(actual, expected):
    """Equal strings, or a failure naming the first differing line (pytest's
    own diff of two long texts can take minutes)."""
    if actual != expected:
        pairs = zip(actual.splitlines(keepends=True) + [""], expected.splitlines(keepends=True) + [""])
        line, (got, want) = next((i, pair) for i, pair in enumerate(pairs, 1) if pair[0] != pair[1])
        pytest.fail(f"texts differ first at line {line}: {got!r} != {want!r}")


@pytest.mark.parametrize("case", ["truth", "no_truth", "zero_defects"])
def test_report_json_matches_json_dumps_on_a_run(tmp_path, case):
    fraction = 0.0 if case == "zero_defects" else 0.05
    _, frame_path, defects_path, _ = small_map(tmp_path, defect_fraction=fraction)
    result = run(PipelineConfig(
        frame_path=str(frame_path), output_dir=str(tmp_path / "out"),
        defects_path=None if case == "no_truth" else str(defects_path),
    ))
    cells, truth_cells = result.cells, None
    if case != "no_truth":
        truth_cells = io.read_defect_map(defects_path).defective[cells.rows, cells.cols]
    report = {**result.report, "per_cell": per_cell_entries(cells, result.defective, truth_cells)}
    written = (tmp_path / "out" / "report.json").read_text(encoding="ascii")
    assert_same_text(written, oracle_json(report))


def test_report_json_of_an_empty_table_keeps_the_empty_list():
    no_cells = np.zeros(0, np.int64)
    empty = features.CellTable(rows=no_cells, cols=no_cells, values=np.zeros((0, 6)))
    for truth in (None, io.DefectMap.from_cells(3, 4, [])):
        report, text, _ = write_report(empty, np.zeros(0, dtype=bool), truth)
        assert_same_text(text, oracle_json(report))
        assert text.endswith('\n  "per_cell": []\n}\n')


def test_report_json_matches_json_dumps_on_awkward_floats():
    awkward = [1e-05, 1e16, 0.30000000000000004, 5e-324, 0.0]
    cells = features.CellTable(
        rows=np.array([0, 0, 1, 2]),
        cols=np.array([1, 3, 0, 2]),
        values=np.array([
            [1e-05, 1e16, 0.0, 5e-324, 0.30000000000000004, 0.0],
            [0.30000000000000004, 1e16, 1e-05, 0.0, 5e-324, 1.0],
            [5e-324, 1e-05, 0.0, 5e-324, 0.0, 0.30000000000000004],
            [0.0, 0.0, 0.0, 0.0, 0.5, 0.5],
        ]),
    )
    defective = np.array([True, False, False, True])
    for truth in (io.DefectMap.from_cells(3, 4, [(0, 3), (2, 2)]), None):
        report, text, _ = write_report(cells, defective, truth)
        assert_same_text(text, oracle_json(report))
        assert all(repr(value) in text for value in awkward)


def random_cells(rng, rows, cols):
    """A CellTable of the given cells with random valid descriptors."""
    n = len(rows)
    low = rng.uniform(0.0, 100.0, size=n)
    high = low + rng.uniform(0.0, 100.0, size=n)
    mean = low + rng.uniform(size=n) * (high - low)
    std = rng.uniform(size=n) * (high - low) / 2.0
    chroma = rng.uniform(size=(n, 2))
    return features.CellTable(rows=rows, cols=cols, values=np.column_stack([mean, high, low, std, chroma]))


@pytest.mark.parametrize("extra", [-1, 0, 1, 3])
def test_report_json_matches_json_dumps_across_chunks(extra):
    # Entry counts just below, at and just past a chunk boundary of the
    # per-cell text, and past a second one.
    n = (2 if extra == 3 else 1) * pipeline._CHUNK + extra
    rng = np.random.default_rng(31)
    cells = random_cells(rng, np.arange(n) // 40, np.arange(n) % 40)
    defective = rng.uniform(size=n) < 0.1
    truth = io.DefectMap.from_cells(n // 40 + 1, 40, [(k // 40, k % 40) for k in np.flatnonzero(defective)[::2]])
    for truth_map in (truth, None):
        report, text, csv = write_report(cells, defective, truth_map)
        assert_same_text(text, oracle_json(report))
        assert_same_text(csv, reference_csv(cells))


def test_csv_header_and_rows():
    table = features.CellTable(
        rows=np.array([1, 1]),
        cols=np.array([2, 3]),
        values=np.array([
            [10.0, 12.0, 8.0, 1.0, 0.25, 0.5],
            [0.30000000000000004, 1e16, 1e-05, 5e-324, 0.0, 1.0],
        ]),
    )
    assert features_csv(table).splitlines(keepends=True) == [
        "row,col,mean_l,max_l,min_l,std_l,mean_cx,mean_cy\n",
        "1,2,10.0,12.0,8.0,1.0,0.25,0.5\n",
        "1,3,0.30000000000000004,1e+16,1e-05,5e-324,0.0,1.0\n",
    ]


def test_csv_matches_row_wise_reference():
    rng = np.random.default_rng(5)
    n = 300
    low = rng.uniform(0, 100, n) * 10.0 ** rng.integers(-8, 9, n)
    high = low + rng.uniform(0, 50, n)
    values = np.column_stack(
        [(low + high) / 2, high, low, (high - low) / 3, rng.uniform(0, 1, n), rng.uniform(0, 1, n)]
    )
    values[::7, 4:] = 0.5
    table = features.CellTable(rows=np.arange(n) // 17, cols=np.arange(n) % 17, values=values)
    assert features_csv(table) == reference_csv(table)
    no_cells = np.zeros(0, np.int64)
    empty = features.CellTable(rows=no_cells, cols=no_cells, values=np.zeros((0, 6)))
    assert features_csv(empty) == reference_csv(empty) == "row,col,mean_l,max_l,min_l,std_l,mean_cx,mean_cy\n"


def test_projection_csv_layout():
    assert pipeline._projection_csv(np.array([1.0, 2.0])) == "coordinate,value\n0.5,1.0\n1.5,2.0\n"


def test_grid_json_round_trip(tmp_path):
    _, frame_path, _, _ = small_map(tmp_path)
    result = run(PipelineConfig(frame_path=str(frame_path), output_dir=str(tmp_path / "out")))
    edges = {"x_edges": result.pixel_grid.x_edges.tolist(), "y_edges": result.pixel_grid.y_edges.tolist()}
    text = (tmp_path / "out" / "grid.json").read_text(encoding="ascii")
    assert text == json.dumps(edges, sort_keys=True) + "\n"
    assert json.loads(text) == edges


# Hand-built writer inputs: three of the interior cells of a 3 x 4 grid, with
# no generator or warp behind them.  The expected bytes below were written by
# the writers the present ones replaced (json.dumps with indent=2, one CSV
# line and one heat colour per cell).
GOLDEN_CELLS = features.CellTable(
    rows=np.array([0, 0, 1]),
    cols=np.array([0, 2, 1]),
    values=np.array([
        [200.0, 210.5, 190.25, 4.75, 0.30000000000000004, 0.31],
        [100.0, 1e16, 1e-05, 2.5, 0.0, 5e-324],
        [3.3, 7.0, 0.1, 1.2345678901234567, 0.5, 0.5],
    ]),
)
GOLDEN_GRID = grid.PixelGrid(
    x_edges=np.array([0.5, 10.25, 20.0, 29.75, 40.0]),
    y_edges=np.array([0.5, 10.0, 19.5, 30.125]),
    interior=np.array([[True, False, True, False], [False, True, False, False], [False] * 4]),
)
GOLDEN_DEFECTIVE = np.array([False, True, True])
GOLDEN_TRUTH = io.DefectMap.from_cells(3, 4, [(0, 2)])

GOLDEN_REPORT_JSON = """\
{
  "confusion": {
    "accuracy": 0.6666666666666666,
    "false_negative_rate": 0.0,
    "false_positive_rate": 0.5,
    "true_defect_pred_defect": 1,
    "true_defect_pred_functional": 0,
    "true_functional_pred_defect": 1,
    "true_functional_pred_functional": 1
  },
  "flags": {
    "confusion_skipped": false,
    "degenerate_clustering": false,
    "fnr_undefined": false,
    "fpr_undefined": false
  },
  "grid_metrics": {
    "mean_cell_height": 9.875,
    "mean_cell_width": 9.875,
    "n_cols": 4,
    "n_rows": 3,
    "std_cell_height": 0.1,
    "std_cell_width": 0.125
  },
  "les_stats": {
    "denoised_count": 1,
    "denoised_mean": 200.0,
    "denoised_sem": 0.0,
    "raw_count": 3,
    "raw_mean": 101.1,
    "raw_sem": 56.3
  },
  "per_cell": [
    {
      "col": 0,
      "max_l": 210.5,
      "mean_cx": 0.30000000000000004,
      "mean_cy": 0.31,
      "mean_l": 200.0,
      "min_l": 190.25,
      "predicted": "functional",
      "row": 0,
      "std_l": 4.75,
      "truth": "functional"
    },
    {
      "col": 2,
      "max_l": 1e+16,
      "mean_cx": 0.0,
      "mean_cy": 5e-324,
      "mean_l": 100.0,
      "min_l": 1e-05,
      "predicted": "defect",
      "row": 0,
      "std_l": 2.5,
      "truth": "defect"
    },
    {
      "col": 1,
      "max_l": 7.0,
      "mean_cx": 0.5,
      "mean_cy": 0.5,
      "mean_l": 3.3,
      "min_l": 0.1,
      "predicted": "defect",
      "row": 1,
      "std_l": 1.2345678901234567,
      "truth": "functional"
    }
  ]
}
"""

GOLDEN_FEATURES_CSV = """\
row,col,mean_l,max_l,min_l,std_l,mean_cx,mean_cy
0,0,200.0,210.5,190.25,4.75,0.30000000000000004,0.31
0,2,100.0,1e+16,1e-05,2.5,0.0,5e-324
1,1,3.3,7.0,0.1,1.2345678901234567,0.5,0.5
"""

# mean_l / peak is exactly 0.5 in the second cell: 127.5 rounds to even, #80.
GOLDEN_OVERLAY_SVG = """\
<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 40.5 30.6">
<rect x="0" y="0" width="40.5" height="30.6" fill="black"/>
<rect x="0.50" y="0.50" width="9.75" height="9.50" fill="#ffffff"/>
<rect x="20.00" y="0.50" width="9.75" height="9.50" fill="#808080"/>
<rect x="10.25" y="10.00" width="9.75" height="9.50" fill="#040404"/>
<line x1="0.50" y1="0.50" x2="0.50" y2="30.12" stroke="#3366cc" stroke-width="0.5"/>
<line x1="10.25" y1="0.50" x2="10.25" y2="30.12" stroke="#3366cc" stroke-width="0.5"/>
<line x1="20.00" y1="0.50" x2="20.00" y2="30.12" stroke="#3366cc" stroke-width="0.5"/>
<line x1="29.75" y1="0.50" x2="29.75" y2="30.12" stroke="#3366cc" stroke-width="0.5"/>
<line x1="40.00" y1="0.50" x2="40.00" y2="30.12" stroke="#3366cc" stroke-width="0.5"/>
<line x1="0.50" y1="0.50" x2="40.00" y2="0.50" stroke="#3366cc" stroke-width="0.5"/>
<line x1="0.50" y1="10.00" x2="40.00" y2="10.00" stroke="#3366cc" stroke-width="0.5"/>
<line x1="0.50" y1="19.50" x2="40.00" y2="19.50" stroke="#3366cc" stroke-width="0.5"/>
<line x1="0.50" y1="30.12" x2="40.00" y2="30.12" stroke="#3366cc" stroke-width="0.5"/>
<rect x="20.00" y="0.50" width="9.75" height="9.50" fill="none" stroke="#dd2222" stroke-width="1.2"/>
<rect x="10.25" y="10.00" width="9.75" height="9.50" fill="none" stroke="#dd2222" stroke-width="1.2"/>
</svg>
"""


def test_writers_reproduce_golden_bytes():
    report, text, csv = write_report(GOLDEN_CELLS, GOLDEN_DEFECTIVE, GOLDEN_TRUTH)
    assert_same_text(text, GOLDEN_REPORT_JSON)
    assert_same_text(oracle_json(report), GOLDEN_REPORT_JSON)
    assert csv == GOLDEN_FEATURES_CSV
    assert overlay_text(GOLDEN_GRID, GOLDEN_CELLS, GOLDEN_DEFECTIVE) == GOLDEN_OVERLAY_SVG


def test_overlay_heat_levels_round_half_to_even_like_python():
    # 255 * (x / 510) is exactly k + 0.5 for every odd x, so each level below
    # is a tie; the writer must break it as Python's round does.
    mean_l = np.append(np.arange(1.0, 510.0, 2.0), 510.0)
    n = len(mean_l)
    cells = features.CellTable(
        rows=np.zeros(n, np.int64), cols=np.arange(n),
        values=np.column_stack([mean_l, mean_l, mean_l, np.zeros(n), np.full((n, 2), 0.5)]),
    )
    pixel_grid = grid.PixelGrid(np.arange(n + 1) * 2.0, np.array([0.0, 2.0]), np.ones((1, n), dtype=bool))
    svg = overlay_text(pixel_grid, cells, np.zeros(n, dtype=bool))
    levels = [int(level, 16) for level in re.findall(r'fill="#([0-9a-f]{2})\1\1"', svg)]
    assert levels == [int(round(255 * min(max(v, 0.0), 1.0))) for v in (mean_l / 510.0).tolist()]
    assert levels[:4] == [0, 2, 2, 4]


def overlay_text(pixel_grid, cells, defective):
    """The text pipeline._write_overlay writes."""
    svg_file = StringIO()
    pipeline._write_overlay(svg_file, pixel_grid, cells, defective)
    return svg_file.getvalue()


def overlay_svg_oracle(pixel_grid, cells, defective):
    """overlay.svg formatted cell by cell, every coordinate of every cell
    with its own f-string: the reference for pipeline._write_overlay."""
    xs, ys = pixel_grid.x_edges, pixel_grid.y_edges
    width, height = xs[-1] + xs[0], ys[-1] + ys[0]
    mean_l = cells.column("mean_l")
    peak = float(mean_l.max()) or 1.0
    heat = np.rint(255 * np.clip(mean_l / peak, 0.0, 1.0)).astype(np.int64).tolist()
    x0, x1 = xs[cells.cols], xs[cells.cols + 1]
    y0, y1 = ys[cells.rows], ys[cells.rows + 1]
    rects = [
        f'x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{h:.2f}"'
        for x, y, w, h in zip(x0.tolist(), y0.tolist(), (x1 - x0).tolist(), (y1 - y0).tolist())
    ]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width:.1f} {height:.1f}">',
        f'<rect x="0" y="0" width="{width:.1f}" height="{height:.1f}" fill="black"/>',
    ]
    parts += [f'<rect {rect} fill="#{level:02x}{level:02x}{level:02x}"/>' for rect, level in zip(rects, heat)]
    for x in xs:
        parts.append(
            f'<line x1="{x:.2f}" y1="{ys[0]:.2f}" x2="{x:.2f}" y2="{ys[-1]:.2f}" '
            'stroke="#3366cc" stroke-width="0.5"/>'
        )
    for y in ys:
        parts.append(
            f'<line x1="{xs[0]:.2f}" y1="{y:.2f}" x2="{xs[-1]:.2f}" y2="{y:.2f}" '
            'stroke="#3366cc" stroke-width="0.5"/>'
        )
    for rect, bad in zip(rects, defective.tolist()):
        if bad:
            parts.append(f'<rect {rect} fill="none" stroke="#dd2222" stroke-width="1.2"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def test_overlay_svg_matches_the_per_cell_oracle_on_an_uneven_grid(monkeypatch):
    # Edges at uneven, non-round spacings, so a column's width and a row's
    # height differ from cell to cell of the grid and round at the last
    # digit; only the interior cells are listed, and some are defects.  The
    # writer runs with its own chunk of cells and with one that splits both
    # the cells and the defects into several chunks.
    rng = np.random.default_rng(32)
    x_edges = 3.7 + np.cumsum(rng.uniform(8.0, 12.0, size=31))
    y_edges = 2.1 + np.cumsum(rng.uniform(8.0, 12.0, size=24))
    interior = rng.uniform(size=(23, 30)) < 0.9
    rows, cols = np.nonzero(interior)
    cells = random_cells(rng, rows, cols)
    defective = rng.uniform(size=len(rows)) < 0.05
    assert defective.any()
    pixel_grid = grid.PixelGrid(x_edges, y_edges, interior)
    expected = overlay_svg_oracle(pixel_grid, cells, defective)
    for chunk in (pipeline._CHUNK, 7):
        monkeypatch.setattr(pipeline, "_CHUNK", chunk)
        assert overlay_text(pixel_grid, cells, defective) == expected
    assert defective.sum() > 7


# Frames of the luminance-scaling test: a 20x20-cell colour frame at the
# acceptance pitch, rotated and with perspective, and a luminance-only frame
# at the 9.5 px dense pitch.
SCALING_FRAMES = {
    "colour_23px": dict(grid_rows=20, grid_cols=20, cell_size_px=20.0, gap_px=3.0,
                        rotation_deg=1.5, perspective_strength=0.015, seed=17),
    "luminance_9.5px": dict(grid_rows=20, grid_cols=20, cell_size_px=7.0, gap_px=2.5, seed=18),
}


@pytest.mark.parametrize("case", SCALING_FRAMES)
def test_scaling_luminance_scales_the_descriptors_and_keeps_the_classification(tmp_path, case):
    # Luminance is in cd/m^2, so a camera calibrated to other units gives the
    # same frame times c.  Corners come from a threshold relative to the peak,
    # the grid from projections of the rectified frame, and the classifier
    # sees standardized descriptors, so the grid, the defect set and the
    # flags stay; mean_l, max_l, min_l, std_l and the LES statistics scale.
    # A power of two commutes with every rounding, so for c = 2 and 0.5 all
    # of it holds bit for bit.
    config = synthgen.SynthConfig(lum_mean=100, lum_sigma=6, defect_fraction=0.05, defect_residual=0.02,
                                  noise_sigma=0.4, chroma_sigma=0.005, **SCALING_FRAMES[case])
    frame, defects, _ = synthgen.generate(config)
    if case.startswith("luminance"):
        frame = io.MeasurementFrame(frame.width, frame.height, frame.luminance)
    defects_path = tmp_path / "defects.csv"
    io.write_defect_map(defects, defects_path)

    def analyze(c):
        scaled = io.MeasurementFrame(frame.width, frame.height, frame.luminance * np.float32(c),
                                     frame.chroma_x, frame.chroma_y)
        frame_path = tmp_path / f"frame_{c}.ulf"
        io.write_frame(scaled, frame_path)
        return run(PipelineConfig(str(frame_path), str(tmp_path / f"out_{c}"), str(defects_path)))

    base = analyze(1)
    assert 0 < base.defective.sum() < len(base.defective)
    base_les = base.report["les_stats"]
    for c in (2.0, 0.5):
        scaled = analyze(c)
        for axis in ("x_edges", "y_edges"):
            assert getattr(scaled.pixel_grid, axis).tobytes() == getattr(base.pixel_grid, axis).tobytes()
        assert np.array_equal(scaled.defective, base.defective)
        assert scaled.report["flags"] == base.report["flags"]
        assert scaled.cells.values[:, :4].tobytes() == (c * base.cells.values[:, :4]).tobytes()
        assert scaled.cells.values[:, 4:].tobytes() == base.cells.values[:, 4:].tobytes()
        for key in ("raw_mean", "denoised_mean", "raw_sem", "denoised_sem"):
            assert scaled.report["les_stats"][key] == c * base_les[key], key
    scaled = analyze(3.0)
    assert np.array_equal(scaled.cells.rows, base.cells.rows) and np.array_equal(scaled.cells.cols, base.cells.cols)
    assert np.array_equal(scaled.defective, base.defective)
    assert scaled.report["flags"] == base.report["flags"]
    np.testing.assert_allclose(scaled.cells.values[:, :4], 3.0 * base.cells.values[:, :4], rtol=1e-6, atol=0)
    np.testing.assert_allclose(scaled.cells.values[:, 4:], base.cells.values[:, 4:], rtol=1e-6, atol=0)


# Frames of the transposition test: 20x20-cell colour frames at the
# acceptance pitch, one with a negative rotation, and luminance-only frames
# at the 9.5 px dense pitch, upright and posed.
TRANSPOSE_FRAMES = {
    "colour_1deg": dict(cell_size_px=20.0, gap_px=3.0, rotation_deg=1.0, perspective_strength=0.012, seed=31),
    "colour_-2.5deg": dict(cell_size_px=20.0, gap_px=3.0, rotation_deg=-2.5, perspective_strength=0.018, seed=32),
    "luminance_9.5px_0deg": dict(cell_size_px=7.0, gap_px=2.5, seed=33),
    "luminance_9.5px_1deg": dict(cell_size_px=7.0, gap_px=2.5, rotation_deg=1.0, perspective_strength=0.012, seed=34),
}


@pytest.mark.parametrize("case", TRANSPOSE_FRAMES)
def test_transposing_the_frame_swaps_the_axes(tmp_path, case):
    # Corner detection, rectification, the two axis projections and the
    # per-cell sampling treat x and y alike, so the transposed frame must
    # give the transposed grid and defect set and the same per-cell means;
    # only the order of float sums differs, hence the 1e-9 tolerances.
    config = synthgen.SynthConfig(grid_rows=20, grid_cols=20, lum_mean=100, lum_sigma=6, defect_fraction=0.05,
                                  defect_residual=0.02, noise_sigma=0.4, chroma_sigma=0.005,
                                  **TRANSPOSE_FRAMES[case])
    frame, _, _ = synthgen.generate(config)
    planes = [frame.luminance] if case.startswith("luminance") else [frame.luminance, frame.chroma_x, frame.chroma_y]

    def analyze(name, width, height, planes):
        frame_path = tmp_path / f"{name}.ulf"
        io.write_frame(io.MeasurementFrame(width, height, *planes), frame_path)
        return run(PipelineConfig(str(frame_path), str(tmp_path / name)))

    def by_cell(result, swap):
        rows, cols = result.cells.rows, result.cells.cols
        if swap:
            rows, cols = cols, rows
        order = np.lexsort((cols, rows))
        return rows[order], cols[order], result.cells.values[order, 0], result.defective[order]

    base = analyze("base", frame.width, frame.height, planes)
    swapped = analyze("transposed", frame.height, frame.width, [p.T for p in planes])
    assert 0 < base.defective.sum() < len(base.defective)
    for a, b in ((base, swapped), (swapped, base)):
        assert len(a.pixel_grid.x_edges) == len(b.pixel_grid.y_edges)
        np.testing.assert_allclose(a.pixel_grid.x_edges, b.pixel_grid.y_edges, rtol=0, atol=1e-9)
    assert np.array_equal(swapped.pixel_grid.interior, base.pixel_grid.interior.T)
    rows, cols, mean_l, defective = by_cell(base, swap=False)
    t_rows, t_cols, t_mean_l, t_defective = by_cell(swapped, swap=True)
    assert np.array_equal(t_rows, rows) and np.array_equal(t_cols, cols)
    assert np.array_equal(t_defective, defective)
    np.testing.assert_allclose(t_mean_l, mean_l, rtol=1e-9, atol=0)
    assert swapped.report["flags"] == base.report["flags"]
