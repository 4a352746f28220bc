"""Command-line interface: generate synthetic frames, analyze frames, and
compare run reports.

Exit codes (stable contract): 0 success, 1 I/O failure, 2 usage/config error,
3 pipeline stage failure, 4 report mismatch in ``evaluate``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import __version__, io, pipeline, synthgen
from .errors import ConfigError, PipelineStageError, UledInspectError

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_STAGE = 3
EXIT_MISMATCH = 4

# evaluate compares every number in these report sections: integers exactly,
# floats in confusion (rates/accuracy) absolutely, other floats (px, cd/m^2)
# relatively.
COMPARED_SECTIONS = ("grid_metrics", "confusion", "les_stats")
RATE_ATOL = 1e-3
VALUE_RTOL = 1e-3

def _parse_defect_cells(value: str) -> tuple[tuple[int, int], ...]:
    return tuple((int(r), int(c)) for r, c in (pair.split(",") for pair in value.split(";") if pair.strip()))


# The parser of each generator config key: the type of its SynthConfig
# default, except for the one field whose default is None.
_PARSERS = {
    f.name: _parse_defect_cells if f.name == "defect_cells" else type(f.default)
    for f in dataclasses.fields(synthgen.SynthConfig)
}
_EXPECTED = {int: "an integer", float: "a number", _parse_defect_cells: "'row,col;row,col;...'"}


def parse_synth_config(text: str) -> synthgen.SynthConfig:
    """Parse the key=value generator config (one pair per line, # comments)."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        parser = _PARSERS.get(key)
        if parser is None:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            values[key] = parser(value)
        except ValueError:
            raise ConfigError(f"line {lineno}: {key} needs {_EXPECTED[parser]}, got {value!r}") from None
    return synthgen.SynthConfig(**values)


def _cmd_generate(args) -> int:
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    except UnicodeDecodeError as exc:
        print(f"error: config {args.config} is not UTF-8 text: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        config = parse_synth_config(text)
        if args.seed is not None:
            config = dataclasses.replace(config, seed=args.seed)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    frame, defects, corners = synthgen.generate(config)
    sidecar = Path(str(args.out_frame) + ".corners.json")
    try:
        with io.replacing((args.out_frame, args.out_defects, sidecar)) as temps:
            io.write_frame(frame, temps[0])
            io.write_defect_map(defects, temps[1])
            temps[2].write_text(json.dumps({"corners": corners}) + "\n", encoding="ascii")
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_IO
    print(
        f"wrote {args.out_frame} ({frame.width}x{frame.height}), "
        f"{args.out_defects} ({defects.defect_count()} defects), {sidecar}"
    )
    return EXIT_OK


def _parse_corner_list(text: str) -> tuple[tuple[float, float], ...]:
    parts = text.split(",")
    if len(parts) != 8:
        raise ConfigError(f"--corners needs 8 comma-separated numbers, got {len(parts)}")
    try:
        vals = [float(p) for p in parts]
    except ValueError:
        raise ConfigError(f"--corners needs numbers, got {text!r}") from None
    return tuple((vals[2 * i], vals[2 * i + 1]) for i in range(4))


def _cmd_analyze(args) -> int:
    try:
        corners = _parse_corner_list(args.corners) if args.corners is not None else None
        config = pipeline.PipelineConfig(
            frame_path=args.frame,
            output_dir=args.out,
            defects_path=args.defects,
            corners=corners,
        )
    except UledInspectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        result = pipeline.run(config)
    except PipelineStageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STAGE
    metrics = result.grid_metrics
    summary = f"cell_size={metrics.mean_cell_width:.2f}x{metrics.mean_cell_height:.2f}px"
    if result.confusion is not None:
        summary += f" accuracy={result.confusion.accuracy:.4f}"
    summary += f" raw={result.les_stats.raw_mean:.4f} denoised={result.les_stats.denoised_mean:.4f}"
    print(summary)
    return EXIT_OK


def _close(a: float, b: float, *, relative: bool) -> bool:
    if relative:
        return abs(a - b) <= VALUE_RTOL * max(abs(a), abs(b), 1e-12)
    return abs(a - b) <= RATE_ATOL


def _read_report_sections(path: str) -> dict[str, dict]:
    """The compared sections of a report, a null or absent one as {}.

    Raises OSError or ValueError when the file cannot be read or is not a
    report: a top level that is not an object, a section that is neither an
    object nor null, or a section value that is not a number.
    """
    report = json.loads(Path(path).read_text(encoding="ascii"))
    if not isinstance(report, dict):
        raise ValueError(f"top level is a JSON {type(report).__name__}, not an object")
    sections = {}
    for name in COMPARED_SECTIONS:
        section = report.get(name)
        if section is None:
            section = {}
        elif not isinstance(section, dict):
            raise ValueError(f"{name} is neither an object nor null")
        for key, value in section.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{name}.{key} is not a number: {value!r}")
        sections[name] = section
    return sections


def _cmd_evaluate(args) -> int:
    if len(args.report) != 2:
        print("error: evaluate needs exactly two --report arguments", file=sys.stderr)
        return EXIT_USAGE
    loaded = []
    for path in args.report:
        try:
            loaded.append(_read_report_sections(path))
        except (OSError, ValueError) as exc:
            print(f"error: cannot read report {path}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    a, b = loaded
    diffs: list[str] = []
    for name in COMPARED_SECTIONS:
        for key in dict.fromkeys([*a[name], *b[name]]):
            va, vb = a[name].get(key), b[name].get(key)
            if va is None or vb is None:
                same = False
            elif isinstance(va, int) and isinstance(vb, int):
                same = va == vb
            else:
                same = _close(float(va), float(vb), relative=name != "confusion")
            if not same:
                diffs.append(f"{name}.{key}: {va} vs {vb}")

    if diffs:
        for line in diffs:
            print(line)
        return EXIT_MISMATCH
    print("identical")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uled-inspect",
        description="uLED-array inspection: synthesize frames, reconstruct grids, classify defects.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="render a synthetic frame with ground truth")
    gen.add_argument("--config", required=True, help="key=value generator config file")
    gen.add_argument("--out-frame", required=True, help="output ULF1 frame path")
    gen.add_argument("--out-defects", required=True, help="output defect CSV path")
    gen.add_argument("--seed", type=int, default=None, help="override the config seed")
    gen.set_defaults(func=_cmd_generate)

    ana = sub.add_parser("analyze", help="run the full analysis pipeline on a frame")
    ana.add_argument("--frame", required=True, help="input ULF1 frame")
    ana.add_argument("--defects", default=None, help="optional ground-truth defect CSV")
    ana.add_argument(
        "--corners", default=None, help="x1,y1,...,x4,y4 explicit LES corners (default: detected)"
    )
    ana.add_argument("--out", required=True, help="output directory for artifacts")
    ana.set_defaults(func=_cmd_analyze)

    ev = sub.add_parser(
        "evaluate",
        help="compare two report.json files "
        f"(tolerances: {RATE_ATOL} absolute on rates/counts-derived values, "
        f"{VALUE_RTOL} relative on px and cd/m^2 figures)",
    )
    ev.add_argument("--report", action="append", default=[], help="report path (give twice)")
    ev.set_defaults(func=_cmd_evaluate)

    ver = sub.add_parser("version", help="print the toolkit version")
    ver.set_defaults(func=lambda args: (print(__version__), EXIT_OK)[1])

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
