"""Benchmark of uled-inspect: time per frame of analyze and generate.

    python3 perfbench/run.py --workload acceptance --seed 0 --seconds 16 --trace 0

Workloads (see README.md): `acceptance` and `dense` time `pipeline.run` from
frame file to written artifact set; `generate` times `synthgen.generate` plus
the `io` writers.  Each run sets up at least three times in fresh
interpreters (imports and input generation), then runs closed-loop,
round-robin over the workload's frames in this process until `--seconds` have
passed, checking every output.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (the end-to-end metrics with `--trace 0`, the per-layer metrics from
spans around each module's public functions with `--trace 1`).  A fuller
record (versions, thread caps, seeds, frame sizes, commit) goes to
perfbench/work/results/.
"""

from __future__ import annotations

import os

# Cap BLAS threads before numpy loads, here and in the set-up children.
THREADS = 2
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = str(THREADS)

# glibc malloc keeps freed arrays (all below 32 MiB here) instead of handing
# them back to the kernel, so a batch process pays first-touch page faults in
# its first op only.  On a VM each such fault can cost ~14 us and varies with
# host load; without this they were 0.5-0.8 s of system time per analysis and
# most of the run-to-run spread.  glibc reads these when a process starts, so
# main() re-executes the interpreter once with them set.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(1 << 30)}

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402

# At least three set-ups, more while they have taken under SETUP_MIN_S in
# all: a cheap set-up (interpreter start and imports) needs more samples.
SETUP_REPEATS = 3
SETUP_MIN_S = 3.0
SETUP_TIMEOUT_S = 150
MIB = float(1 << 20)

END_TO_END = {
    "analyze_s": "s",
    "generate_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
    "accuracy": "fraction",
}

PER_LAYER = {
    "geometry.warp_frame.s": "s",
    "geometry.warp_plane.s": "s",
    "geometry.warp_plane.calls": "count",
    "geometry.warp_plane.mpx": "Mpx",
    "geometry.warp_frame.peak_mib": "MiB",
    "geometry.detect_corners.s": "s",
    "io.read_frame.s": "s",
    "io.write_frame.s": "s",
    "grid.project.s": "s",
    "grid.estimate_period.s": "s",
    "grid.detect_edges.s": "s",
    "features.extract.s": "s",
    "features.cells": "count",
    "ml.standardize_fit_transform.s": "s",
    "ml.pca_fit.s": "s",
    "ml.kmeans_fit.s": "s",
    "ml.kmeans_fit.restarts": "count",
    "ml.label_clusters.s": "s",
    "evaluation.confusion.s": "s",
    "evaluation.les_statistics.s": "s",
    "pipeline.artifact_mib": "MiB",
    "rng.normal_batch.s": "s",
    **{f"{layer}.self_s": "s" for layer in tracing.LAYERS},
    "grid.cell_size_err_px": "px",
    "trace.overhead": "ratio",
}
# Per-layer metrics taken over the whole run rather than per traced op.
PER_RUN = ("grid.cell_size_err_px", "trace.overhead")

# Release gates of the acceptance suite, applied to every analysis.
MAX_CELL_ERR_PX = 0.5
MIN_ACCURACY = 0.995
MAX_FNR = 0.01


class Checks:
    """Operations attempted and the reasons any of them failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, problems: list[str], label: str):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(f"{label}: {p}" for p in problems)
            print(f"FAIL {label}: {'; '.join(problems)}", file=sys.stderr)


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_truth(path: Path):
    """Ground-truth defect mask, parsed here rather than by the package."""
    import numpy as np

    lines = path.read_text(encoding="ascii").split()
    rows, cols = (int(v) for v in lines[0].split(","))
    mask = np.zeros((rows, cols), dtype=bool)
    for line in lines[1:]:
        r, c = (int(v) for v in line.split(","))
        mask[r, c] = True
    return mask


def score(report: dict, truth, pitch: float) -> tuple[dict, list[str]]:
    """Cell-size error and confusion rates of one report against ground truth."""
    gm = report["grid_metrics"]
    if (gm["n_rows"], gm["n_cols"]) != truth.shape:
        return {}, [f"grid {gm['n_rows']}x{gm['n_cols']} != truth {truth.shape[0]}x{truth.shape[1]}"]
    err = max(abs(gm["mean_cell_width"] - pitch), abs(gm["mean_cell_height"] - pitch))
    tf_pd = td_pf = defects = 0
    cells = report["per_cell"]
    for cell in cells:
        is_defect = bool(truth[cell["row"], cell["col"]])
        pred_defect = cell["predicted"] == "defect"
        defects += is_defect
        tf_pd += pred_defect and not is_defect
        td_pf += is_defect and not pred_defect
    functional = len(cells) - defects
    s = {
        "cell_size_err_px": err,
        "accuracy": (len(cells) - tf_pd - td_pf) / len(cells),
        "fpr": td_pf / defects if defects else 0.0,
        "fnr": tf_pd / functional if functional else 0.0,
        "interior_cells": len(cells),
    }
    problems = []
    if err > MAX_CELL_ERR_PX:
        problems.append(f"cell size off pitch {pitch} by {err:.4f} px")
    if s["accuracy"] < MIN_ACCURACY:
        problems.append(f"accuracy {s['accuracy']:.4f} < {MIN_ACCURACY}")
    if s["fpr"] > 0:
        problems.append(f"FPR {s['fpr']:.4f} > 0")
    if s["fnr"] >= MAX_FNR:
        problems.append(f"FNR {s['fnr']:.4f} >= {MAX_FNR}")
    return s, problems


def set_up(workload: str, seed: int, grid: int | None, work: Path, checks: Checks):
    """Run the set-up repeatedly in fresh interpreters.  The first one's
    inputs are kept; later ones must write byte-identical files.
    Returns the set-up times, the per-frame generate times, the frames and
    the input directory."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    inputs = work / "inputs"
    times, frames = [], None
    rep = 0
    while rep < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        out = inputs if rep == 0 else work / f"inputs{rep}"
        cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload, "--seed", str(seed), "--out", str(out)]
        if grid:
            cmd += ["--grid", str(grid)]
        started = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - started)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up exited with {proc.returncode}:\n{proc.stderr}")
        described = json.loads(proc.stdout.splitlines()[-1])["frames"]
        if rep == 0:
            frames = described
            generate_times = [[] for _ in frames]
        elif out.exists():
            problems = [
                f"{p.name} differs from the first set-up"
                for p in sorted(inputs.iterdir())
                if digest(p) != digest(out / p.name)
            ]
            checks.record(problems, f"setup{rep}")
            shutil.rmtree(out)
        for i, f in enumerate(described):
            if "generate_s" in f:
                generate_times[i].append(f["generate_s"])
        rep += 1
    return times, generate_times, frames, inputs


def per_frame_median(per_frame: list[list[float]]) -> float | None:
    """Mean over frames of each frame's median time.  A workload's frames
    differ in cost, so a median over the mixed ops would jump between frames
    with the number of ops that fit in a run."""
    medians = [statistics.median(t) for t in per_frame if t]
    return statistics.fmean(medians) if medians else None


def environment(seed: int) -> dict:
    import numpy as np

    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_caps": {**{v: os.environ[v] for v in BLAS_VARS}, "pipeline_threads": THREADS},
        "malloc": {k: os.environ.get(k) for k in MALLOC_ENV},
        "seed": seed,
        "git_commit": commit,
    }


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, grid: int | None = None) -> tuple[dict, dict]:
    """One benchmark run.  Returns the result line and the fuller record."""
    import uled_inspect

    analyze_workload = workload in workloads.ANALYZE
    work = WORK / f"{workload}-seed{seed}-{os.getpid()}"
    results_dir = WORK / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results_dir.mkdir(parents=True, exist_ok=True)
    checks = Checks()
    tracer = tracing.Tracer(uled_inspect) if trace else None
    try:
        setup_times, setup_generate_times, frames, inputs = set_up(workload, seed, grid, work, checks)
        configs = workloads.configs(workload, seed, grid)
        times = {kind: [[] for _ in configs] for kind in ("analyze", "generate", "traced")}
        scores: list[dict] = []
        digests: dict[str, str] = {}
        gen_dir = work / "generated"
        gen_dir.mkdir()

        def repeats(key: str, path: Path) -> list[str]:
            d = digest(path)
            return [] if digests.setdefault(key, d) == d else [f"{path.name} differs from its first run"]

        def analyze(i: int, frame_dir: Path, op: int | None) -> float:
            out_dir = work / f"out{i}"
            config = uled_inspect.pipeline.PipelineConfig(
                frame_path=str(frame_dir / f"frame{i}.ulf"),
                output_dir=str(out_dir),
                defects_path=str(frame_dir / f"frame{i}.csv"),
                threads=THREADS,
            )
            if trace:
                tracer.op = op
            started = time.perf_counter()
            try:
                uled_inspect.pipeline.run(config)
            finally:
                elapsed = time.perf_counter() - started
                if trace:
                    tracer.op = None
            truth = read_truth(frame_dir / f"frame{i}.csv")
            s, problems = score(json.loads((out_dir / "report.json").read_bytes()), truth, configs[i].pitch)
            problems += repeats(f"report{i}", out_dir / "report.json")
            if s:
                scores.append(s)
                frames[i]["interior_cells"] = s["interior_cells"]
            if op is not None:
                size = sum(p.stat().st_size for p in out_dir.iterdir())
                tracer.counts[op, "pipeline.artifact_mib"] += size / MIB
            checks.record(problems, f"analyze{i}")
            return elapsed

        def generate(i: int, op: int | None) -> float:
            if trace:
                tracer.op = op
            started = time.perf_counter()
            try:
                written = workloads.write_inputs(configs[i], gen_dir, f"frame{i}", workloads.luminance_only(workload))
            finally:
                elapsed = time.perf_counter() - started
                if trace:
                    tracer.op = None
            frames[i].update(written)
            checks.record(repeats(f"frame{i}", gen_dir / written["frame"]), f"generate{i}")
            return elapsed

        # One untimed warm-up op fills the allocator and any lazy set-up.  Then
        # a closed loop runs round-robin over the frames until the time is up;
        # frame 0 repeats the warm-up, so its outputs can be compared.  A traced
        # run makes two full rounds, one untraced and one traced, which gives
        # the base of the tracing overhead.
        n = len(configs)
        min_ops = 2 * n if trace else n
        op = 0
        with tracer or nullcontext():
            try:
                if analyze_workload:
                    analyze(0, inputs, None)
                else:
                    generate(0, None)
                    analyze(0, gen_dir, None)
            except Exception as exc:
                checks.record([f"{type(exc).__name__}: {exc}"], "warm-up")
            started = time.perf_counter()
            while op < min_ops or time.perf_counter() - started < seconds:
                i = op % n
                traced = trace and (op // n) % 2 == 1
                kind = "traced" if traced else ("analyze" if analyze_workload else "generate")
                try:
                    if analyze_workload:
                        times[kind][i].append(analyze(i, inputs, op if traced else None))
                    else:
                        times[kind][i].append(generate(i, op if traced else None))
                        # The generated frame must analyze to its own ground
                        # truth; this also times analyze here, untraced.
                        times["analyze"][i].append(analyze(i, gen_dir, None))
                except Exception as exc:  # a failed op is counted, not fatal
                    checks.record([f"{type(exc).__name__}: {exc}"], f"op{op}")
                op += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if analyze_workload:
        times["generate"] = setup_generate_times
    if trace:
        profiles = tracing.op_profiles(tracer.spans, tracer.counts)
        values = tracing.median_profile(profiles, [k for k in PER_LAYER if k not in PER_RUN])
        primary = times["analyze" if analyze_workload else "generate"]
        if per_frame_median(times["traced"]) and per_frame_median(primary):
            values["trace.overhead"] = per_frame_median(times["traced"]) / per_frame_median(primary)
        values["grid.cell_size_err_px"] = max(s["cell_size_err_px"] for s in scores) if scores else None
        units = PER_LAYER
    else:
        values = {
            "analyze_s": per_frame_median(times["analyze"]),
            "generate_s": per_frame_median(times["generate"]),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup_times),
            "accuracy": min(s["accuracy"] for s in scores) if scores else None,
        }
        units = END_TO_END
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items() if v is not None}
    result = {
        "correct": not checks.failures and len(metrics) == len(units),
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    record = {
        "workload": workload,
        "trace": trace,
        "seconds": seconds,
        "ops": op,
        "environment": environment(seed),
        "frames": frames,
        "setup_s": setup_times,
        "times_s": times,
        "scores": scores,
        "error_rate": checks.failed / max(checks.attempted, 1),
        "failures": checks.failures,
        "result": result,
    }
    stem = results_dir / f"{workload}-seed{seed}-trace{int(trace)}"
    Path(f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="ascii")
    if trace:
        spans = {"fields": tracing.Span._fields, "spans": tracer.spans, "counts": [[*k, v] for k, v in tracer.counts.items()]}
        Path(f"{stem}-spans.json").write_text(json.dumps(spans) + "\n", encoding="ascii")
        record["spans_path"] = f"{stem}-spans.json"
    return result, record


def summarize(record: dict) -> str:
    env = record["environment"]
    lines = [
        f"workload {record['workload']}  python {env['python']}  numpy {env['numpy']}  "
        f"nproc {env['nproc']}  cpu_count {env['cpu_count']}  threads {env['thread_caps']}  commit {env['git_commit']}",
    ]
    for f in record["frames"]:
        lines.append(
            f"  frame seed {f['seed']}: {f.get('width')}x{f.get('height')} px, {f.get('channels')} ch, "
            f"{f['rows']}x{f['cols']} cells, {f.get('interior_cells')} interior"
        )
    result = record["result"]
    lines.append(f"  error_rate {record['error_rate']:.4f} ({result['failed']}/{result['attempted']})")
    for name, m in result["metrics"].items():
        lines.append(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if any(os.environ.get(k) != v for k, v in MALLOC_ENV.items()):
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **MALLOC_ENV})

    # Measure the package in this checkout, never an installed copy.
    package_dir = SRC / "uled_inspect"
    if not (package_dir / "__init__.py").is_file():
        print(f"error: no package source at {package_dir}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import uled_inspect

    if Path(uled_inspect.__file__).resolve().parent != package_dir.resolve():
        print(f"error: imported {uled_inspect.__file__}, not {package_dir}", file=sys.stderr)
        return 2

    result, record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(summarize(record), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
