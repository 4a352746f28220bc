from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uled_inspect import io
from uled_inspect.errors import FrameFormatError, ValidationError

from conftest import make_frame


def test_round_trip_identity(tmp_path):
    frame = make_frame([[0.0, 1.5], [2.25, 3.125], [4.0, 5.5]])
    path = tmp_path / "frame.ulf"
    io.write_frame(frame, path)
    assert io.read_frame(path) == frame


def test_round_trip_with_chroma(tmp_path):
    lum = np.arange(6, dtype=np.float32).reshape(2, 3)
    cx = np.full((2, 3), 0.31, dtype=np.float32)
    cy = np.full((2, 3), 0.32, dtype=np.float32)
    frame = io.MeasurementFrame(3, 2, lum, cx, cy)
    path = tmp_path / "frame.ulf"
    io.write_frame(frame, path)
    back = io.read_frame(path)
    assert back == frame
    assert back.has_chroma


def test_degenerate_1x1_frame(tmp_path):
    frame = io.MeasurementFrame(1, 1, np.array([[0.0]], dtype=np.float32))
    path = tmp_path / "one.ulf"
    io.write_frame(frame, path)
    assert io.read_frame(path) == frame


def test_negative_luminance_names_first_index():
    with pytest.raises(ValidationError, match="index 0"):
        make_frame([[-1.0, 2.0]])


def test_nan_luminance_rejected():
    with pytest.raises(ValidationError, match="index 3"):
        make_frame([[1.0, 2.0], [3.0, float("nan")]])


def test_header_layout_single_channel(tmp_path):
    frame = make_frame(np.zeros((4, 4)))
    path = tmp_path / "f.ulf"
    io.write_frame(frame, path)
    blob = path.read_bytes()
    # 4 magic + 4 width + 4 height + 1 channels + 64 payload
    assert len(blob) == 13 + 64
    assert blob[:4] == b"ULF1"
    assert blob[12] == 1


def test_channel_byte_with_chroma(tmp_path):
    lum = np.zeros((2, 2), dtype=np.float32)
    chroma = np.zeros((2, 2), dtype=np.float32)
    frame = io.MeasurementFrame(2, 2, lum, chroma, chroma)
    path = tmp_path / "f.ulf"
    io.write_frame(frame, path)
    assert path.read_bytes()[12] == 3


def test_write_is_deterministic(tmp_path):
    frame = make_frame([[1.0, 2.0], [3.0, 4.0]])
    a, b = tmp_path / "a.ulf", tmp_path / "b.ulf"
    io.write_frame(frame, a)
    io.write_frame(frame, b)
    assert a.read_bytes() == b.read_bytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.ulf"
    path.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(FrameFormatError, match="magic"):
        io.read_frame(path)


def test_truncated_payload(tmp_path):
    frame = make_frame(np.ones((4, 4)))
    path = tmp_path / "f.ulf"
    io.write_frame(frame, path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(FrameFormatError, match="payload"):
        io.read_frame(path)


def test_payload_cut_after_the_size_check_is_rejected(tmp_path, monkeypatch):
    # A file that shrinks between its size check and the read of its payload.
    frame = make_frame(np.ones((4, 4)))
    path = tmp_path / "f.ulf"
    io.write_frame(frame, path)
    size = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-8])
    monkeypatch.setattr(io, "os", SimpleNamespace(fstat=lambda fd: SimpleNamespace(st_size=size)))
    with pytest.raises(FrameFormatError) as exc:
        io.read_frame(path)
    assert str(exc.value) == f"{path}: payload ended after 56 of 64 bytes"


def test_trailing_bytes_rejected(tmp_path):
    frame = make_frame(np.ones((2, 2)))
    path = tmp_path / "f.ulf"
    io.write_frame(frame, path)
    path.write_bytes(path.read_bytes() + b"\x00\x00")
    with pytest.raises(FrameFormatError):
        io.read_frame(path)


def test_negative_payload_sample_rejected_on_read(tmp_path):
    frame = make_frame(np.ones((2, 2)))
    path = tmp_path / "f.ulf"
    io.write_frame(frame, path)
    blob = bytearray(path.read_bytes())
    blob[13:17] = np.float32(-1.0).tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(ValidationError, match="index 0"):
        io.read_frame(path)


def test_chroma_out_of_range_rejected():
    lum = np.zeros((1, 2), dtype=np.float32)
    with pytest.raises(ValidationError, match="chroma_x"):
        io.MeasurementFrame(2, 1, lum, np.array([[0.5, 1.5]]), np.array([[0.5, 0.5]]))


def test_chroma_planes_all_or_nothing():
    lum = np.zeros((1, 1), dtype=np.float32)
    with pytest.raises(ValidationError, match="both"):
        io.MeasurementFrame(1, 1, lum, np.array([[0.5]]), None)


BAD_SAMPLES = [("luminance", v) for v in (-1.0, float("nan"), float("inf"), float("-inf"))] + [
    (name, v)
    for name in ("chroma_x", "chroma_y")
    for v in (-0.1, 1.5, float("nan"), float("inf"), float("-inf"))
]
RULES = {"luminance": "must be finite and >= 0", "chroma_x": "must lie in [0, 1]", "chroma_y": "must lie in [0, 1]"}


def valid_planes():
    return {
        "luminance": np.arange(6, dtype=np.float32).reshape(2, 3),
        "chroma_x": np.full((2, 3), 0.31, dtype=np.float32),
        "chroma_y": np.full((2, 3), 0.32, dtype=np.float32),
    }


@pytest.mark.parametrize("name, value", BAD_SAMPLES)
def test_bad_plane_sample_message(name, value):
    planes = valid_planes()
    planes[name][1, 1] = value
    with pytest.raises(ValidationError) as exc:
        io.MeasurementFrame(3, 2, **planes)
    assert str(exc.value) == f"{name} sample at flat index 4 is {np.float32(value)!r}; {RULES[name]}"


@pytest.mark.parametrize("name", ["luminance", "chroma_x", "chroma_y"])
def test_first_bad_sample_named_before_a_later_nan(name):
    # The plane's max is NaN, but the message names the earlier negative sample.
    planes = valid_planes()
    planes[name][0, 1] = -0.5
    planes[name][1, 0] = np.nan
    with pytest.raises(ValidationError) as exc:
        io.MeasurementFrame(3, 2, **planes)
    assert str(exc.value) == f"{name} sample at flat index 1 is {np.float32(-0.5)!r}; {RULES[name]}"


def test_plane_bounds_are_inclusive():
    planes = valid_planes()
    planes["luminance"][0, 0] = -0.0
    planes["chroma_x"][0] = 0.0
    planes["chroma_x"][1] = 1.0
    planes["chroma_y"][0] = 1.0
    planes["chroma_y"][1] = 0.0
    frame = io.MeasurementFrame(3, 2, **planes)
    assert [p.tobytes() for p in frame.planes] == [planes[n].tobytes() for n in ("luminance", "chroma_x", "chroma_y")]


@pytest.mark.parametrize("present", ["chroma_x", "chroma_y"])
def test_bad_luminance_reported_before_unpaired_chroma(present):
    planes = valid_planes()
    planes["luminance"][0, 2] = -1.0
    with pytest.raises(ValidationError) as exc:
        io.MeasurementFrame(3, 2, planes["luminance"], **{present: planes[present]})
    assert str(exc.value) == f"luminance sample at flat index 2 is {np.float32(-1.0)!r}; {RULES['luminance']}"


def test_planes_in_container_order(tmp_path):
    planes = valid_planes()
    frame = io.MeasurementFrame(3, 2, **planes)
    assert [p.tobytes() for p in frame.planes] == [planes[n].tobytes() for n in ("luminance", "chroma_x", "chroma_y")]
    (lum,) = make_frame(planes["luminance"]).planes
    assert lum.tobytes() == planes["luminance"].tobytes()
    path = tmp_path / "f.ulf"
    io.write_frame(frame, path)
    assert path.read_bytes()[13:] == b"".join(p.astype("<f4").tobytes() for p in frame.planes)


@settings(max_examples=40, deadline=None)
@given(
    width=st.integers(1, 6),
    height=st.integers(1, 6),
    with_chroma=st.booleans(),
    data=st.data(),
)
def test_round_trip_property(tmp_path_factory, width, height, with_chroma, data):
    n = width * height
    lum = data.draw(
        st.lists(st.floats(0, 1e6, allow_nan=False, width=32), min_size=n, max_size=n)
    )
    chroma = None
    if with_chroma:
        chroma = data.draw(
            st.lists(st.floats(0, 1, allow_nan=False, width=32), min_size=n, max_size=n)
        )
    frame = io.MeasurementFrame(
        width,
        height,
        np.array(lum, dtype=np.float32).reshape(height, width),
        None if chroma is None else np.array(chroma, dtype=np.float32).reshape(height, width),
        None if chroma is None else np.array(chroma, dtype=np.float32).reshape(height, width),
    )
    path = tmp_path_factory.mktemp("rt") / "frame.ulf"
    io.write_frame(frame, path)
    assert io.read_frame(path) == frame


def test_defect_map_empty(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("60,60\n")
    defects = io.read_defect_map(path)
    assert defects.rows == 60 and defects.cols == 60
    assert defects.defect_count() == 0


def test_defect_map_two_cells(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("60,60\n0,0\n59,59\n")
    defects = io.read_defect_map(path)
    assert defects.defect_count() == 2
    assert defects.defective[0, 0] and defects.defective[59, 59]
    assert not defects.defective[1, 1]


def test_defect_map_out_of_range(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("60,60\n60,0\n")
    with pytest.raises(ValidationError, match=r"\(60,0\)"):
        io.read_defect_map(path)


@pytest.mark.parametrize("header, size", [("-1,5", "-1x5"), ("3,-2", "3x-2")])
def test_defect_map_non_positive_size(tmp_path, header, size):
    path = tmp_path / "d.csv"
    path.write_text(f"{header}\n")
    with pytest.raises(ValidationError, match=f"grid dimensions must be positive, got {size}"):
        io.read_defect_map(path)


def test_defect_map_round_trip(tmp_path):
    defects = io.DefectMap.from_cells(5, 7, [(0, 1), (4, 6), (2, 3)])
    path = tmp_path / "d.csv"
    io.write_defect_map(defects, path)
    assert io.read_defect_map(path) == defects
    # row-major ordering makes the file deterministic
    assert path.read_text() == "5,7\n0,1\n2,3\n4,6\n"


@pytest.mark.parametrize("data, reason", [
    (io.MAGIC + bytes(8), "file shorter than the 13-byte header"),
    (io._HEADER.pack(io.MAGIC, 2, 2, 2) + bytes(32), "channel count 2 not in (1, 3)"),
    (io._HEADER.pack(io.MAGIC, 0, 2, 1), "zero frame dimension 0x2"),
])
def test_read_frame_bad_header_names_the_path(tmp_path, data, reason):
    path = tmp_path / "f.ulf"
    path.write_bytes(data)
    with pytest.raises(FrameFormatError) as exc:
        io.read_frame(path)
    assert str(exc.value) == f"{path}: {reason}"


@pytest.mark.parametrize("text, reason", [
    ("", "empty defect map"),
    ("a,b\n", "bad header line 'a,b'"),
    ("3,3\n1;2\n", "bad cell line '1;2'"),
])
def test_read_defect_map_malformed_names_the_path(tmp_path, text, reason):
    path = tmp_path / "d.csv"
    path.write_text(text)
    with pytest.raises(FrameFormatError) as exc:
        io.read_defect_map(path)
    assert str(exc.value) == f"{path}: {reason}"


def test_replacing_publishes_the_targets_only_when_the_body_returns(tmp_path):
    old, new = tmp_path / "old.txt", tmp_path / "sub" / "new.txt"
    new.parent.mkdir()
    old.write_text("before")
    with io.replacing([old, str(new)]) as temps:
        assert [t.parent for t in temps] == [tmp_path, new.parent]
        assert all(t.is_file() and t.stat().st_size == 0 for t in temps)
        for temp, text in zip(temps, ("after", "fresh")):
            temp.write_text(text)
        assert old.read_text() == "before" and not new.exists()
    assert (old.read_text(), new.read_text()) == ("after", "fresh")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["new.txt", "old.txt", "sub"]


def test_replacing_names_its_temporaries_per_call_with_the_mode_open_gives(tmp_path):
    target, plain = tmp_path / "a.txt", tmp_path / "plain.txt"
    plain.write_text("")
    with io.replacing([target]) as (first,), io.replacing([target]) as (second,):
        assert first != second
        assert first.stat().st_mode == second.stat().st_mode == plain.stat().st_mode
        first.write_text("first")
        second.write_text("second")
    # The inner call publishes first, so the outer one's file is what stays.
    assert target.read_text() == "first"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "plain.txt"]


@pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
def test_replacing_leaves_the_targets_when_the_body_fails(tmp_path, error):
    target = tmp_path / "a.txt"
    target.write_text("before")
    with pytest.raises(error):
        with io.replacing([target, tmp_path / "b.txt"]) as temps:
            temps[0].write_text("after")
            raise error
    assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]
    assert target.read_text() == "before"


def test_replacing_rejects_a_directory_target_before_writing(tmp_path):
    (tmp_path / "taken").mkdir()
    with pytest.raises(IsADirectoryError, match="taken"):
        with io.replacing([tmp_path / "a.txt", tmp_path / "taken"]):
            raise AssertionError("the body must not run")
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
