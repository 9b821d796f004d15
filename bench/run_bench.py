"""End-to-end and per-layer benchmark of the borescan pipeline.

    python3 bench/run_bench.py --workload bore-reference --seed 1 \\
        --seconds 50 --trace 0

Runs from any directory of a source checkout; the program is the
``borescan`` package under ``src/``. Each run writes its inputs (a config
and a defect list made from the seed) into a fresh directory under
``.bench_work/`` and deletes it at the end.

With ``--trace 0`` the CLI runs as child processes, timed from outside:
``plan`` several times (set-up), then passes of ``synth`` and two
``inspect --threads <nproc>`` on the same seed while the run's seconds
last. With ``--trace 1`` one pass of ``synth``, ``inspect`` and ``inspect
--threads 1`` is followed by a traced pass of the same CLI calls in one
process (see tracer.py), and the per-layer metrics come from its spans.

Every run checks the outputs: exit codes, the tile count against the plan
size, the panorama's canvas shape, and identical ``report.yaml`` and
``panorama.pgm`` bytes across repeats, thread counts and tracing. The
report is scored against the planted truth (workloads.score). Human-
readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted`` (child processes), ``failed`` and
``metrics``. The benchmark exits 2 without a result when the package
source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPEC = ROOT / "BENCHMARK.json"  # metric names and units
SETUP_REPEATS = 3  # plan runs before and again after the measured passes
DEADLINE_S = 170.0  # a run stops launching work after this long
ACCURACY_UNITS = {
    "recall": "ratio",
    "precision": "ratio",
    "loc_err_max_mm": "mm",
    "size_err_max_mm": "mm",
}


@dataclass
class Invocation:
    """One CLI call: its wall time, peak RSS and whether it failed."""

    label: str
    seconds: float = 0.0
    rss_mb: float = 0.0
    stdout: str = ""
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)


def _spawn(argv: list[str], log: Path, timeout: float) -> tuple[int, float, float, bool]:
    """Run a child to completion: (exit code, wall s, peak RSS MB, timed out)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    killed = threading.Event()
    with open(log, "wb") as handle:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=handle, stderr=subprocess.STDOUT, env=env, cwd=ROOT
        )

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(max(timeout, 1.0), kill)
        timer.start()
        try:
            # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would
            # be the maximum over every child reaped so far.
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024.0, killed.is_set()


def _cli(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "borescan.cli", *args]


def _digest(out: Path) -> str:
    sha = hashlib.sha256()
    for name in ("report.yaml", "panorama.pgm"):
        with open(out / name, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                sha.update(block)
    return sha.hexdigest()


def _pgm_shape(path: Path) -> tuple[int, int]:
    with open(path, "rb") as handle:
        fields = handle.read(64).split()
    return int(fields[2]), int(fields[1])


class BenchRun:
    def __init__(self, workload, seconds: float, work: Path):
        self.workload, self.seconds, self.work = workload, seconds, work
        self.started = time.perf_counter()
        self.invocations: list[Invocation] = []
        self.threads = len(os.sched_getaffinity(0))
        self.config = work / "run.ini"
        self.defects = work / "defects.csv"
        self.config.write_text(workload.config_text(), encoding="ascii")
        self.defects.write_text(workload.defects_csv(), encoding="ascii")

    @property
    def failed(self) -> int:
        return sum(1 for inv in self.invocations if inv.problems)

    def _remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def invoke(self, label: str, argv: list[str]) -> Invocation:
        inv = Invocation(label)
        self.invocations.append(inv)
        log = self.work / f"log{len(self.invocations):03d}.txt"
        code, inv.seconds, inv.rss_mb, timed_out = _spawn(argv, log, self._remaining())
        inv.stdout = log.read_text(encoding="utf-8", errors="replace")
        inv.check(not timed_out, f"{label} timed out")
        inv.check(code == 0, f"{label} exited {code}")
        return inv

    def setup(self) -> list[float]:
        """Plan the bore several times; returns the wall times."""
        walls = []
        for _ in range(SETUP_REPEATS):
            out = self.work / f"plan{len(self.invocations)}"
            inv = self.invoke("plan", _cli(self._plan_args(out)))
            found = re.search(r"= (\d+) tiles", inv.stdout)
            inv.check(
                found is not None and int(found.group(1)) == self.workload.tiles,
                f"plan size is not {self.workload.tiles} tiles",
            )
            walls.append(inv.seconds)
        return walls

    def _plan_args(self, out: Path) -> list[str]:
        return ["plan", "--config", str(self.config), "--out", str(out)]

    def _synth_args(self, out: Path) -> list[str]:
        w = self.workload
        return ["synth", "--config", str(self.config), "--defects", str(self.defects),
                "--seed", str(w.synth_seed), "--noise-sigma", str(w.noise_sigma),
                "--out", str(out)]

    def _inspect_args(self, tiles: Path, out: Path, threads: int) -> list[str]:
        return ["inspect", "--manifest", str(tiles / "manifest.yaml"), "--out", str(out),
                "--threshold", self.workload.threshold, "--threads", str(threads)]

    def synth(self, out: Path) -> Invocation:
        inv = self.invoke("synth", _cli(self._synth_args(out)))
        tiles = len(list(out.glob("tile_*.pgm")))
        expected = self.workload.tiles
        inv.check(tiles == expected, f"synth wrote {tiles} tiles, plan has {expected}")
        return inv

    def inspect(self, tiles: Path, out: Path, threads: int) -> tuple[Invocation, str]:
        inv = self.invoke(f"inspect@{threads}", _cli(self._inspect_args(tiles, out, threads)))
        return inv, self.check_outputs(inv, out)

    def check_outputs(self, inv: Invocation, out: Path) -> str:
        """Tile count and canvas shape; returns the outputs' digest."""
        w = self.workload
        found = re.search(r"from (\d+) tiles", inv.stdout)
        inv.check(found is not None and int(found.group(1)) == w.tiles,
                  f"{inv.label} did not inspect {w.tiles} tiles")
        corrected = len(list((out / "corrected").glob("tile_*.pgm")))
        inv.check(corrected == w.tiles, f"{inv.label} wrote {corrected} corrected tiles")
        try:
            shape = _pgm_shape(out / "panorama.pgm")
            inv.check(shape == w.canvas_shape(),
                      f"panorama is {shape}, expected {w.canvas_shape()}")
            return _digest(out)
        except (OSError, ValueError, IndexError) as exc:
            inv.check(False, f"{inv.label} outputs unreadable: {exc}")
            return ""

    def measure(self, traced: bool) -> dict:
        """Passes of synth and two inspects on the seed while the seconds last.

        Before a traced run, one pass of synth, inspect and
        ``inspect --threads 1`` instead.
        """
        synths, inspects, digest, one_thread, report = [], [], None, None, None
        begin = time.perf_counter()
        while True:
            it = self.work / f"it{len(synths)}"
            synth = self.synth(it / "tiles")
            if synth.problems:
                break
            synths.append(synth)
            for out in ("out",) if traced else ("out", "again"):
                inv, found = self.inspect(it / "tiles", it / out, self.threads)
                if not (it / out / "report.yaml").is_file():
                    break
                inspects.append(inv)
                if digest is None:
                    digest = found
                    report = _read_report(it / out / "report.yaml")
                else:
                    inv.check(found == digest, "outputs differ between repeats of one seed")
            if traced and inspects:
                one_thread, found = self.inspect(it / "tiles", it / "out1", 1)
                one_thread.check(found == digest, "outputs differ from --threads "
                                 f"{self.threads} at --threads 1")
            shutil.rmtree(it)
            lap = synth.seconds + sum(inv.seconds for inv in inspects[-2:])
            if traced or not inspects or time.perf_counter() - begin + lap > self.seconds:
                break
            if self._remaining() < 2 * lap:
                break
        return {"synth": synths, "inspect": inspects, "one_thread": one_thread,
                "digest": digest, "report": report}

    def traced(self, digest: str) -> tuple[list, dict]:
        """The same CLI calls in one traced process; returns (spans, walls)."""
        t = self.work / "traced"
        t.mkdir()
        argv = [
            sys.executable, str(BENCH / "tracer.py"),
            "--spans", str(t / "spans.json"), "--walls", str(t / "walls.json"),
            "--", *self._plan_args(t / "plan"),
            "--", *self._synth_args(t / "tiles"),
            "--", *self._inspect_args(t / "tiles", t / "out", self.threads),
        ]
        inv = self.invoke("traced", argv)
        if inv.problems:
            return [], {}
        inv.check(self.check_outputs(inv, t / "out") == digest,
                  "traced outputs differ from untraced")
        with open(t / "spans.json", encoding="ascii") as handle:
            spans = json.load(handle)
        with open(t / "walls.json", encoding="ascii") as handle:
            walls = json.load(handle)
        shutil.rmtree(t)
        return spans, walls


def _read_report(path: Path) -> list[dict]:
    with open(path, encoding="ascii") as handle:
        return yaml.safe_load(handle)["records"]


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(spans: list, walls: dict, untraced: dict, threads: int) -> dict:
    """Per-layer metrics from the traced run's spans (times in ms)."""
    by = defaultdict(list)
    for name, _tid, start, end, self_ns, error, value in spans:
        by[name].append(((end - start) / 1e6, self_ns / 1e6, error, value, start, end))

    def ms(name):
        return [s[0] for s in by[name]]

    def p50(name):
        return _pct(ms(name), 50)

    def p95(name):
        return _pct(ms(name), 95)

    tiles = by["cli._inspect_tile"]
    featureless = sum(1 for s in by["detect.binarize"] if s[2] == "ThresholdError")
    blobs = [s[3] for s in by["detect.connected_components"]] + [0] * featureless
    merges = by["locate.merge_duplicates"]
    raw, merged = merges[-1][3] if merges else (0, 0)
    pool_ms = (max(s[5] for s in tiles) - min(s[4] for s in tiles)) / 1e6 if tiles else 0.0
    commands = walls["commands"]
    traced_s = (commands["synth"]["seconds"] + commands["inspect"]["seconds"]
                + 2 * walls["import_s"])
    return {
        "synth.render_tile.ms_p50": p50("synth.render_tile"),
        "synth.render_tile.ms_p95": p95("synth.render_tile"),
        "synth.add_noise.ms_p50": p50("synth.add_noise"),
        "synth.add_noise.ms_p95": p95("synth.add_noise"),
        "synth.build_texture.ms": p50("synth.build_texture"),
        "pgm.write_pgm.ms_p50": p50("pgm.write_pgm"),
        "pgm.read_pgm.ms_p50": p50("pgm.read_pgm"),
        "pgm.bytes_written": float(sum(s[3] for s in by["pgm.write_pgm"])),
        "pgm.bytes_read": float(sum(s[3] for s in by["pgm.read_pgm"])),
        "unwrap.correct_tile.ms_p50": p50("unwrap.correct_tile"),
        "unwrap.correct_tile.ms_p95": p95("unwrap.correct_tile"),
        "detect.binarize.ms_p50": p50("detect.binarize"),
        "detect.featureless_tiles": float(featureless),
        "detect.blobs_per_tile_p50": _pct(blobs, 50),
        "detect.blobs_per_tile_max": float(max(blobs, default=0)),
        "detect.label_mask.calls_per_tile": len(by["detect.label_mask"]) / max(len(tiles), 1),
        "detect.label_mask.ms_total": sum(ms("detect.label_mask")),
        "detect.connected_components.self_ms_total":
            sum(s[1] for s in by["detect.connected_components"]),
        "detect.line_width.calls": float(len(by["detect.line_width"])),
        "detect.line_width.ms_total": sum(ms("detect.line_width")),
        "locate.record_from_blob.self_ms_total":
            sum(s[1] for s in by["locate.record_from_blob"]),
        "locate.raw_records": float(raw),
        "locate.merged_records": float(merged),
        "locate.merge_yield": merged / raw if raw else 0.0,
        "locate.merge_duplicates.ms": p50("locate.merge_duplicates"),
        "locate.stitch_panorama.ms": p50("locate.stitch_panorama"),
        "locate.stitch_panorama.uncovered_px":
            float(sum(s[3] for s in by["locate.stitch_panorama"])),
        "manifest.load_manifest.ms": p50("manifest.load_manifest"),
        "manifest.save_manifest.ms": p50("manifest.save_manifest"),
        "manifest.write_report.ms": p50("manifest.write_report"),
        "config.load_config.ms": p50("config.load_config"),
        "scanplan.plan_scan.ms": p50("scanplan.plan_scan"),
        "cli.pool_busy_frac":
            sum(ms("cli._inspect_tile")) / (threads * pool_ms) if pool_ms else 0.0,
        "cli.inspect_serial_ms": sum(ms("cli.cmd_inspect")) - pool_ms,
        "cli.thread_speedup": untraced["inspect_1thread_s"] / untraced["inspect_s"],
        "trace.overhead_frac":
            traced_s / (untraced["synth_s"] + untraced["inspect_s"]) - 1.0,
    }


def machine_info() -> dict:
    import scipy

    model = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def run(workload, seconds: float, trace: bool, work: Path) -> dict | None:
    from borescan.cli import MATCH_RADIUS_MM
    from workloads import score

    bench = BenchRun(workload, seconds, work)
    # Plan runs before and after the passes sample two moments of a host
    # whose speed drifts over seconds.
    setup = bench.setup()
    if bench.failed:
        return None
    m = bench.measure(traced=trace)
    if not m["inspect"]:
        return None
    setup += bench.setup()
    e2e = {
        "setup_s": statistics.median(setup),
        "synth_s": statistics.median(i.seconds for i in m["synth"]),
        "inspect_s": statistics.median(i.seconds for i in m["inspect"]),
        "synth_peak_rss_mb": statistics.median(i.rss_mb for i in m["synth"]),
        "inspect_peak_rss_mb": statistics.median(i.rss_mb for i in m["inspect"]),
    }
    e2e["tiles_per_s"] = workload.tiles / e2e["inspect_s"]
    if m["one_thread"] is not None:
        e2e["inspect_1thread_s"] = m["one_thread"].seconds
    accuracy = score(workload, m["report"], MATCH_RADIUS_MM)
    layers = {}
    if trace:
        spans, walls = bench.traced(m["digest"])
        if spans:
            layers = layer_metrics(spans, walls, e2e, bench.threads)
    return {"bench": bench, "e2e": e2e, "accuracy": accuracy, "layers": layers,
            "iterations": len(m["synth"]), "digest": m["digest"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # exit through the cleanup below, which stops the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "borescan" / "cli.py").is_file():
        print(f"error: no borescan source under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        result = run(workload, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is still using it
    if result is None:
        print("error: the pipeline failed before it could be measured", file=sys.stderr)
        return 1
    bench = result["bench"]
    for inv in bench.invocations:
        for problem in inv.problems:
            print(f"FAILED {problem}")
    attempted, failed = len(bench.invocations), bench.failed
    with open(SPEC, encoding="ascii") as handle:
        spec = json.load(handle)
    accuracy = result["accuracy"]
    table = {**result["e2e"], **{k: accuracy[k] for k in ACCURACY_UNITS}}
    table["error_rate"] = failed / attempted
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update(ACCURACY_UNITS, error_rate="ratio", inspect_1thread_s="s")
    print(f"machine {json.dumps(machine_info())}")
    print(f"workload {workload.name} seed {args.seed}: {workload.tiles} tiles, "
          f"{len(workload.defects)} planted defects, {result['iterations']} "
          f"synth passes, {bench.threads} threads")
    for name, value in table.items():
        print(f"  {name:<24} {value:12.4f} {units[name]}")
    print(f"  matched {accuracy['matched']} of {accuracy['truth']} truth, "
          f"{accuracy['records']} records")
    print(f"  sha256(report.yaml + panorama.pgm) {result['digest']}")
    values = {**result["e2e"], **accuracy, **result["layers"]}
    values.update({f"score.{k}": v for k, v in accuracy.items()})
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    if args.trace:
        for name, metric in metrics.items():
            print(f"  {name:<44} {metric['value']:14.4f} {metric['unit']}")
    print(json.dumps({
        "correct": failed == 0 and len(metrics) == len(wanted),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
