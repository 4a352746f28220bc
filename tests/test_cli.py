import dataclasses
import json

import numpy as np
import pytest

from uled_inspect import cli, io, ml, synthgen
from uled_inspect.cli import main

CONFIG_TEXT = """\
# benchmark array
grid_rows = 14
grid_cols = 14
cell_size_px = 20
gap_px = 3
lum_mean = 100
lum_sigma = 6
defect_fraction = 0.05
defect_residual = 0.02
noise_sigma = 0.4
chroma_sigma = 0.005
seed = 77
"""


@pytest.fixture
def generated(tmp_path):
    config = tmp_path / "array.cfg"
    config.write_text(CONFIG_TEXT)
    frame = tmp_path / "frame.ulf"
    defects = tmp_path / "defects.csv"
    code = main([
        "generate", "--config", str(config),
        "--out-frame", str(frame), "--out-defects", str(defects),
    ])
    assert code == 0
    return config, frame, defects


def test_generate_writes_three_files(generated, tmp_path):
    _, frame, defects = generated
    assert frame.is_file() and defects.is_file()
    sidecar = tmp_path / "frame.ulf.corners.json"
    corners = json.loads(sidecar.read_text())["corners"]
    assert len(corners) == 4
    assert io.read_frame(frame).width > 0


def test_generate_failed_write_leaves_the_earlier_outputs(generated, tmp_path, capsys):
    # The defect CSV cannot be written, so the frame and its corner sidecar
    # must not be replaced either, and no temporary may stay behind.
    config, frame, _ = generated
    before = {path: path.read_bytes() for path in tmp_path.iterdir()}
    code = main([
        "generate", "--config", str(config), "--seed", "5",
        "--out-frame", str(frame), "--out-defects", str(tmp_path / "nodir" / "d.csv"),
    ])
    assert code == 1
    assert "cannot write outputs" in capsys.readouterr().err
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before
    code = main([
        "generate", "--config", str(config),
        "--out-frame", str(tmp_path / "new.ulf"), "--out-defects", str(tmp_path / "nodir" / "d.csv"),
    ])
    assert code == 1
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_generate_onto_a_directory_exits_1_and_names_it(generated, tmp_path, capsys):
    # The directory is rejected before anything is written, so the earlier
    # frame and its corner sidecar stay as they were.
    config, frame, _ = generated
    before = {path: path.read_bytes() for path in tmp_path.iterdir()}
    taken = tmp_path / "taken"
    taken.mkdir()
    code = main([
        "generate", "--config", str(config), "--seed", "5",
        "--out-frame", str(frame), "--out-defects", str(taken),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "cannot write outputs" in err and str(taken) in err and ".tmp" not in err
    assert {path: path.read_bytes() for path in tmp_path.iterdir() if path != taken} == before
    assert not list(taken.iterdir())


def test_generate_missing_config_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--out-frame", "a", "--out-defects", "b"])
    assert exc.value.code == 2


def test_generate_unreadable_config_exits_1(tmp_path, capsys):
    code = main([
        "generate", "--config", str(tmp_path / "missing.cfg"),
        "--out-frame", str(tmp_path / "f"), "--out-defects", str(tmp_path / "d"),
    ])
    assert code == 1
    assert "cannot read config" in capsys.readouterr().err


def test_generate_bad_config_exits_2(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    for text, reason in (
        ("grid_rows = sixty\n", "integer"),
        ("grid_rows = 4\ngrid_cols 4\n", "line 2: expected key=value, got 'grid_cols 4'"),
    ):
        config.write_text(text)
        code = main([
            "generate", "--config", str(config),
            "--out-frame", str(tmp_path / "f"), "--out-defects", str(tmp_path / "d"),
        ])
        assert code == 2
        assert reason in capsys.readouterr().err


def test_generate_unknown_key_exits_2(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("wibble = 3\n")
    assert main([
        "generate", "--config", str(config),
        "--out-frame", str(tmp_path / "f"), "--out-defects", str(tmp_path / "d"),
    ]) == 2


def test_generate_non_utf8_config_exits_2(tmp_path, capsys):
    config = tmp_path / "latin1.cfg"
    config.write_bytes(b"# caf\xe9\ngrid_rows = 4\n")
    out = tmp_path / "out"
    out.mkdir()
    code = main([
        "generate", "--config", str(config),
        "--out-frame", str(out / "f.ulf"), "--out-defects", str(out / "d.csv"),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and str(config) in err and "Traceback" not in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("line", [
    "lum_mean = nan",
    "noise_sigma = inf",
    "rotation_deg = nan",
    "cell_size_px = inf",
    "gap_px = nan",
    "perspective_strength = inf",
])
def test_generate_non_finite_config_exits_2(tmp_path, capsys, line):
    config = tmp_path / "bad.cfg"
    config.write_text("grid_rows = 4\ngrid_cols = 4\n" + line + "\n")
    out = tmp_path / "out"
    out.mkdir()
    code = main([
        "generate", "--config", str(config),
        "--out-frame", str(out / "f.ulf"), "--out-defects", str(out / "d.csv"),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert "must be finite" in err and "Traceback" not in err
    assert list(out.iterdir()) == []


# 0.9 leaves w = 0.1 at one LES corner; without the bound on w it would
# render a 1168 px frame for the 208 px LES.  0.99 stays out of this test:
# without the bound it would render a 10528 px frame before failing.
@pytest.mark.parametrize("strength", ["0.9", "1.0", "1.5"])
def test_generate_perspective_past_horizon_exits_2(tmp_path, capsys, strength):
    config = tmp_path / "bad.cfg"
    config.write_text(f"grid_rows = 8\ngrid_cols = 8\nperspective_strength = {strength}\n")
    out = tmp_path / "out"
    out.mkdir()
    code = main([
        "generate", "--config", str(config),
        "--out-frame", str(out / "f.ulf"), "--out-defects", str(out / "d.csv"),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert "horizon" in err and "Traceback" not in err
    assert list(out.iterdir()) == []


def test_generate_seed_override_is_deterministic(tmp_path):
    config = tmp_path / "array.cfg"
    config.write_text(CONFIG_TEXT)
    frames = []
    for name in ("one", "two"):
        frame = tmp_path / f"{name}.ulf"
        code = main([
            "generate", "--config", str(config), "--seed", "123",
            "--out-frame", str(frame), "--out-defects", str(tmp_path / f"{name}.csv"),
        ])
        assert code == 0
        frames.append(frame.read_bytes())
    assert frames[0] == frames[1]
    base = tmp_path / "base.ulf"
    main(["generate", "--config", str(config),
          "--out-frame", str(base), "--out-defects", str(tmp_path / "base.csv")])
    assert base.read_bytes() != frames[0]  # override actually changed the seed


def test_parse_synth_config_defect_cells():
    config = cli.parse_synth_config("grid_rows=8\ngrid_cols=8\ndefect_cells=1,2;3,4\n")
    assert config.defect_cells == ((1, 2), (3, 4))


def test_parse_synth_config_sets_every_field():
    # one non-default value per SynthConfig field, each given as text
    expected, lines = {}, []
    for f in dataclasses.fields(synthgen.SynthConfig):
        if f.name == "defect_cells":
            expected[f.name] = ((1, 2), (0, 3))
            lines.append("defect_cells = 1,2;0,3")
        else:
            expected[f.name] = f.default + (1 if isinstance(f.default, int) else 0.25)
            lines.append(f"{f.name} = {expected[f.name]}")
    assert cli.parse_synth_config("\n".join(lines)) == synthgen.SynthConfig(**expected)


def test_analyze_with_truth_prints_accuracy(generated, tmp_path, capsys):
    _, frame, defects = generated
    code = main([
        "analyze", "--frame", str(frame), "--defects", str(defects),
        "--out", str(tmp_path / "out"),
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "accuracy=" in captured.out
    assert "cell_size=" in captured.out
    assert captured.err == ""


def test_analyze_without_truth_omits_accuracy(generated, tmp_path, capsys):
    _, frame, _ = generated
    code = main([
        "analyze", "--frame", str(frame), "--out", str(tmp_path / "out"),
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "accuracy=" not in captured.out
    assert captured.err == ""


def test_analyze_defaults_match_paper_settings():
    # k-Means takes no setting: it sweeps 100 directions, one Lloyd run each.
    assert ml._DIRECTIONS == 100


def test_analyze_seed_flag_is_gone(capsys):
    # k-Means sweeps fixed directions and draws no random numbers.
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--frame", "f", "--out", "o", "--seed", "8"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_analyze_n_init_flag_is_gone(capsys):
    # The direction count is a constant of ml.
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--frame", "f", "--out", "o", "--n-init", "10"])
    assert exc.value.code == 2
    assert "--n-init" in capsys.readouterr().err


def test_analyze_unreadable_frame_exits_3(tmp_path, capsys):
    # A missing file, then one shorter than the frame header.
    short = tmp_path / "short.ulf"
    short.write_bytes(io.MAGIC)
    for frame in (tmp_path / "nope.ulf", short):
        code = main(["analyze", "--frame", str(frame), "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert "stage 'read_frame' failed" in err and str(frame) in err


def test_analyze_explicit_corners(generated, tmp_path, capsys):
    _, frame, defects = generated
    corners = json.loads((tmp_path / "frame.ulf.corners.json").read_text())["corners"]
    flat = ",".join(f"{v}" for point in corners for v in point)
    code = main([
        "analyze", "--frame", str(frame), "--defects", str(defects),
        "--corners", flat, "--out", str(tmp_path / "out"),
    ])
    assert code == 0
    assert "accuracy=" in capsys.readouterr().out


def test_analyze_auto_corners_flag_is_gone(capsys):
    # Corner detection is what analyze does without --corners.
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--frame", "f", "--out", "o", "--auto-corners"])
    assert exc.value.code == 2
    assert "--auto-corners" in capsys.readouterr().err


def test_analyze_bad_corners_exits_2(generated, tmp_path, capsys):
    _, frame, _ = generated
    out = tmp_path / "out"
    # too few numbers, none at all, eight non-numbers, a 1 px quad, a NaN
    # coordinate: config errors, not stage failures
    for corners in ("1,2,3", "", "a,b,c,d,e,f,g,h", "10,10,11,10,11,11,10,11", "10,10,11,10,nan,11,10,11"):
        code = main(["analyze", "--frame", str(frame), "--corners", corners, "--out", str(out)])
        assert code == 2, corners
        assert "stage" not in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


def analyze_to_report(frame, defects, out_dir):
    code = main([
        "analyze", "--frame", str(frame), "--defects", str(defects),
        "--out", str(out_dir),
    ])
    assert code == 0
    return out_dir / "report.json"


def test_evaluate_identical_reports(generated, tmp_path, capsys):
    _, frame, defects = generated
    report = analyze_to_report(frame, defects, tmp_path / "out")
    code = main(["evaluate", "--report", str(report), "--report", str(report)])
    captured = capsys.readouterr()
    assert code == 0
    assert "identical" in captured.out


def test_evaluate_accuracy_drift_exits_4(generated, tmp_path, capsys):
    _, frame, defects = generated
    report = analyze_to_report(frame, defects, tmp_path / "out")
    payload = json.loads(report.read_text())
    payload["confusion"]["accuracy"] -= 0.01
    other = tmp_path / "other.json"
    other.write_text(json.dumps(payload))
    code = main(["evaluate", "--report", str(report), "--report", str(other)])
    captured = capsys.readouterr()
    assert code == 4
    assert "confusion.accuracy" in captured.out


def test_evaluate_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["evaluate", "--report", str(bad), "--report", str(bad)])
    assert code == 2


@pytest.mark.parametrize(
    "payload, reason",
    [
        ([], "not an object"),
        ({"grid_metrics": {"mean_cell_width": "x"}}, "grid_metrics.mean_cell_width is not a number"),
        ({"les_stats": [1.0]}, "les_stats is neither an object nor null"),
    ],
    ids=["top_level_list", "string_value", "list_section"],
)
def test_evaluate_malformed_report_exits_2(tmp_path, capsys, payload, reason):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code = main(["evaluate", "--report", str(bad), "--report", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: cannot read report {bad}: ")
    assert reason in captured.err
    assert captured.out == ""


def test_evaluate_compares_every_numeric_field(generated, tmp_path, capsys):
    _, frame, defects = generated
    report = analyze_to_report(frame, defects, tmp_path / "out")
    capsys.readouterr()
    payload = json.loads(report.read_text())
    payload["grid_metrics"]["n_rows"] += 1  # ints exactly
    payload["les_stats"]["raw_sem"] *= 1.01  # other floats relatively
    payload["confusion"]["false_negative_rate"] += 5e-4  # rates absolutely, within 1e-3
    payload["grid_metrics"]["mean_cell_width"] *= 1 + 5e-4  # within 1e-3 relative
    payload["les_stats"]["extra_figure"] = 1.0  # a key only one report carries
    other = tmp_path / "other.json"
    other.write_text(json.dumps(payload))
    code = main(["evaluate", "--report", str(report), "--report", str(other)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 4
    assert sorted(line.split(":")[0] for line in lines) == [
        "grid_metrics.n_rows", "les_stats.extra_figure", "les_stats.raw_sem",
    ]


def test_evaluate_needs_two_reports(tmp_path, capsys):
    code = main(["evaluate", "--report", str(tmp_path / "only.json")])
    assert code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--frame", "f", "--out", "o", "--wibble"])
    assert exc.value.code == 2


def test_version_subcommand(capsys):
    assert main(["version"]) == 0
    from uled_inspect import __version__

    assert capsys.readouterr().out.strip() == __version__
