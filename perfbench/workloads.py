"""Benchmark inputs: the frames each workload uses, made from a seed.

Run as a script, it is the set-up step of one benchmark run: a fresh
interpreter imports the package, generates the workload's frames and ground
truth into a directory, and prints one JSON line describing them.

    python3 perfbench/workloads.py --workload acceptance --seed 0 --out DIR
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

# Rotation, perspective and base seed of the three acceptance maps in
# tests/conftest.py.  Seed 0 reproduces those maps; seed n adds 1000 * n.
MAPS = ((0.0, 0.0, 101), (1.0, 0.012, 202), (2.5, 0.018, 303))

# Grid side (cells) at full size; the smoke test passes a smaller one.
GRID = {"acceptance": 60, "dense": 150, "generate": 60}

ANALYZE = ("acceptance", "dense")
WORKLOADS = ("acceptance", "dense", "generate")


def configs(workload: str, seed: int, grid: int | None = None):
    """The generator configs of a workload, one per frame."""
    from uled_inspect import SynthConfig

    side = grid or GRID[workload]
    if workload == "dense":
        # 9.5 px pitch, so per-cell work outweighs the one warped plane.
        geometry = dict(cell_size_px=7.0, gap_px=2.5)
    else:
        # The acceptance fixture: 23 px pitch, ~23 camera px per uLED.
        geometry = dict(cell_size_px=20.0, gap_px=3.0)
    return [
        SynthConfig(
            grid_rows=side,
            grid_cols=side,
            lum_mean=100.0,
            lum_sigma=6.0,
            defect_fraction=0.03,
            defect_residual=0.02,
            noise_sigma=0.5,
            chroma_sigma=0.005,
            rotation_deg=rotation,
            perspective_strength=perspective,
            seed=base + 1000 * seed,
            **geometry,
        )
        for rotation, perspective, base in MAPS
    ]


def luminance_only(workload: str) -> bool:
    return workload == "dense"


def write_inputs(config, out_dir: Path, stem: str, lum_only: bool) -> dict:
    """Generate one frame and write its frame, defect CSV and corners, the
    same files `uled-inspect generate` writes.  Returns where they went."""
    from uled_inspect import io, synthgen

    frame, defects, corners = synthgen.generate(config)
    if lum_only:
        frame = io.MeasurementFrame(frame.width, frame.height, frame.luminance)
    frame_path = out_dir / f"{stem}.ulf"
    defects_path = out_dir / f"{stem}.csv"
    io.write_frame(frame, frame_path)
    io.write_defect_map(defects, defects_path)
    Path(str(frame_path) + ".corners.json").write_text(json.dumps({"corners": corners}) + "\n", encoding="ascii")
    return {
        "frame": frame_path.name,
        "defects": defects_path.name,
        "width": frame.width,
        "height": frame.height,
        "channels": 3 if frame.has_chroma else 1,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--grid", type=int, default=None)
    args = parser.parse_args(argv)

    frames = []
    for i, config in enumerate(configs(args.workload, args.seed, args.grid)):
        entry = {"seed": config.seed, "rows": config.grid_rows, "cols": config.grid_cols, "pitch": config.pitch}
        if args.workload in ANALYZE:
            args.out.mkdir(parents=True, exist_ok=True)
            started = time.perf_counter()
            entry.update(write_inputs(config, args.out, f"frame{i}", luminance_only(args.workload)))
            entry["generate_s"] = time.perf_counter() - started
        frames.append(entry)
    print(json.dumps({"frames": frames}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
