"""Reading and writing of measurement frames (ULF1) and defect maps (CSV).

ULF1 container layout, little-endian throughout:

    bytes 0..3   magic "ULF1"
    bytes 4..7   u32 width   (camera px)
    bytes 8..11  u32 height  (camera px)
    byte  12     u8 channel count: 1 = luminance, 3 = luminance + CIE x + CIE y
    payload      planar row-major float32, one plane per MeasurementFrame.planes
                 entry in that order: luminance[, chroma_x, chroma_y]

read_frame reads the payload into one aligned array, so no plane sits at the
header's 13-byte offset; numpy's loops and gathers on a misaligned plane fall
back to slow paths or copy the plane.

The defect map is a CSV whose first line is ``rows,cols`` followed by one
``row,col`` line per defective cell.
"""

from __future__ import annotations

import contextlib
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FrameFormatError, ValidationError

MAGIC = b"ULF1"
_HEADER = struct.Struct("<4sIIB")

# Per plane, in container order: its field name, its largest valid sample and
# the rule a bad sample breaks.  Luminance is bounded by the float32 maximum,
# so a sample passes exactly when it is finite and >= 0.
_PLANE_RULES = (
    ("luminance", float(np.finfo(np.float32).max), "must be finite and >= 0"),
    ("chroma_x", 1.0, "must lie in [0, 1]"),
    ("chroma_y", 1.0, "must lie in [0, 1]"),
)


@dataclass(frozen=True)
class MeasurementFrame:
    """A calibrated camera frame: luminance in cd/m^2, optional CIE 1931 x/y planes.

    Planes are float32 arrays of shape (height, width); the container format is
    float32, so keeping that dtype in memory makes round-trips bit-exact.
    """

    width: int
    height: int
    luminance: np.ndarray
    chroma_x: np.ndarray | None = None
    chroma_y: np.ndarray | None = None

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValidationError(f"frame dimensions must be positive, got {self.width}x{self.height}")
        for name, high, rule in _PLANE_RULES:
            if name == "chroma_x":
                if (self.chroma_x is None) != (self.chroma_y is None):
                    raise ValidationError("chroma planes must be both present or both absent")
                if self.chroma_x is None:
                    break
            plane = _as_plane(getattr(self, name), self.height, self.width, name)
            object.__setattr__(self, name, plane)
            # min and max keep a NaN, which fails both tests; the per-sample
            # mask is built only to name the first bad sample.
            if not (plane.min() >= 0 and plane.max() <= high):
                idx = int(np.argmax(~((plane >= 0) & (plane <= high))))
                raise ValidationError(f"{name} sample at flat index {idx} is {plane.flat[idx]!r}; {rule}")

    @property
    def planes(self) -> tuple[np.ndarray, ...]:
        """The frame's planes in container order: luminance, then CIE x and y when present."""
        if self.chroma_x is None:
            return (self.luminance,)
        return (self.luminance, self.chroma_x, self.chroma_y)

    @property
    def has_chroma(self) -> bool:
        return self.chroma_x is not None

    def __eq__(self, other) -> bool:
        if not isinstance(other, MeasurementFrame):
            return NotImplemented
        if (self.width, self.height, len(self.planes)) != (other.width, other.height, len(other.planes)):
            return False
        return all(np.array_equal(a, b) for a, b in zip(self.planes, other.planes))


def _as_plane(values, height: int, width: int, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float32)
    if arr.size != width * height:
        raise ValidationError(
            f"{name} has {arr.size} samples, expected {width}x{height} = {width * height}"
        )
    arr = arr.reshape(height, width)
    arr.setflags(write=False)
    return arr


def _check_grid_size(rows: int, cols: int) -> None:
    if rows <= 0 or cols <= 0:
        raise ValidationError(f"grid dimensions must be positive, got {rows}x{cols}")


@dataclass(frozen=True)
class DefectMap:
    """Immutable ground-truth defect mask over the uLED grid."""

    rows: int
    cols: int
    defective: np.ndarray = field(repr=False)

    def __post_init__(self):
        _check_grid_size(self.rows, self.cols)
        mask = np.asarray(self.defective, dtype=bool)
        if mask.size != self.rows * self.cols:
            raise ValidationError(
                f"defect mask has {mask.size} entries, expected {self.rows * self.cols}"
            )
        mask = mask.reshape(self.rows, self.cols)
        mask.setflags(write=False)
        object.__setattr__(self, "defective", mask)

    @classmethod
    def from_cells(cls, rows: int, cols: int, cells) -> "DefectMap":
        _check_grid_size(rows, cols)
        mask = np.zeros((rows, cols), dtype=bool)
        for r, c in cells:
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValidationError(f"defect cell ({r},{c}) outside {rows}x{cols} grid")
            mask[r, c] = True
        return cls(rows, cols, mask)

    def defect_count(self) -> int:
        return int(self.defective.sum())

    def __eq__(self, other) -> bool:
        if not isinstance(other, DefectMap):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and np.array_equal(self.defective, other.defective)
        )


@contextlib.contextmanager
def replacing(targets):
    """Yield one temporary path beside each target; replace the targets by
    them, in order, once the body returns.  A target that is a directory is
    rejected, by name, before anything is written.  Each temporary is made
    empty, named uniquely per call, with the mode open() gives, and unlinked
    on any exit, KeyboardInterrupt included."""
    targets = [Path(target) for target in targets]
    for target in targets:
        if target.is_dir():
            raise IsADirectoryError(f"{target} is a directory")
    temps = []
    try:
        for target in targets:
            temp = target.with_name(f".{target.name}.{os.urandom(8).hex()}.tmp")
            os.close(os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
            temps.append(temp)
        yield temps
        for temp, target in zip(temps, targets):
            os.replace(temp, target)
    finally:
        for temp in temps:
            temp.unlink(missing_ok=True)


def write_frame(frame: MeasurementFrame, path) -> None:
    """Write the header, then each plane's float32 samples straight from the
    array (a copy only when a plane is not contiguous little-endian float32),
    so writing adds no frame-sized buffer."""
    with open(path, "wb") as f:
        f.write(_HEADER.pack(MAGIC, frame.width, frame.height, len(frame.planes)))
        for plane in frame.planes:
            f.write(np.ascontiguousarray(plane, dtype="<f4"))


def read_frame(path) -> MeasurementFrame:
    """Read a ULF1 file; its payload goes straight into one aligned float32
    array, whose planes the frame keeps."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        header = f.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise FrameFormatError(f"{path}: file shorter than the {_HEADER.size}-byte header")
        magic, width, height, channels = _HEADER.unpack(header)
        if magic != MAGIC:
            raise FrameFormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        if channels not in (1, 3):
            raise FrameFormatError(f"{path}: channel count {channels} not in (1, 3)")
        if width == 0 or height == 0:
            raise FrameFormatError(f"{path}: zero frame dimension {width}x{height}")
        expected = _HEADER.size + 4 * width * height * channels
        if size != expected:
            raise FrameFormatError(
                f"{path}: payload is {size - _HEADER.size} bytes, "
                f"expected {expected - _HEADER.size} for {width}x{height}x{channels}"
            )
        payload = np.empty((channels, height, width), dtype="<f4")
        got = f.readinto(payload)
        if got != payload.nbytes:
            raise FrameFormatError(f"{path}: payload ended after {got} of {payload.nbytes} bytes")
    return MeasurementFrame(width, height, *payload)


def write_defect_map(defects: DefectMap, path) -> None:
    lines = [f"{defects.rows},{defects.cols}"]
    rows, cols = np.nonzero(defects.defective)
    lines.extend(f"{r},{c}" for r, c in zip(rows.tolist(), cols.tolist()))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_defect_map(path) -> DefectMap:
    text = Path(path).read_text(encoding="ascii")
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise FrameFormatError(f"{path}: empty defect map")
    pairs = []
    for i, line in enumerate(lines):
        try:
            r, c = (int(part) for part in line.split(","))
        except ValueError as exc:
            raise FrameFormatError(f"{path}: bad {'cell' if i else 'header'} line {line!r}") from exc
        pairs.append((r, c))
    (rows, cols), *cells = pairs
    return DefectMap.from_cells(rows, cols, cells)
