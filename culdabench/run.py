"""Benchmark entry point: one workload, one seed, one result line.

Usage (from the root of a checkout)::

    python3 culdabench/run.py --workload culda-longdocs --seed 1 --seconds 35 --trace 0
    python3 culdabench/run.py --workload all --seed 1 --seconds 35   # every workload, a table

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Lines before it are a human-readable table with sample
counts, the output checks and host-noise diagnostics.  Workload shapes,
fixed targets and the layer predictions live in ``workloads.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run one workload in this process; returns the result object."""
    import host
    import training

    workloads = _load_json(HERE / "workloads.json")["workloads"]
    cfg = workloads[name]
    declared = _load_json(ROOT / "BENCHMARK.json")
    workdir = ROOT / ".culdabench" / f"{name}-{seed}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    shm_before = host.shm_segments()
    try:
        with host.StealMeter() as steal:
            result, tracer = training.run(cfg, seed, seconds, trace, workdir, ROOT)
        # Children first, then /dev/shm, and only then the resource
        # tracker: stopping it unlinks every segment still registered, which
        # would hide a segment the program leaked.
        tracker = host.resource_tracker_pid()
        left = host.reap_children(keep=(tracker,) if tracker else ())
        leaked = sorted(host.shm_segments() - shm_before)
        result.check("no /dev/shm segment left behind", not leaked, f"leaked: {leaked}")
        host.stop_resource_tracker()
        left = sorted(set(left) | set(host.reap_children()))
        for pid in left:
            os.kill(pid, signal.SIGKILL)
        result.check("every child process reaped", not left, f"left over: {left}")
        if tracer is not None:
            out = ROOT / ".culdabench" / "traces" / f"{name}-seed{seed}.jsonl"
            tracer.write(out)
            result.diagnostics["trace_file"] = str(out.relative_to(ROOT))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.diagnostics["host.steal_share"] = steal.share
    if trace:
        result.layer("host.steal_share", steal.share, "ratio")

    section = "per_layer" if trace else "end_to_end"
    source = result.layers if trace else {k: v[:2] for k, v in result.metrics.items()}
    metrics = {}
    for m in declared[section]:
        value, unit = source.get(m["name"], (0.0, m["unit"]))
        if unit != m["unit"]:
            raise RuntimeError(f"{m['name']}: measured in {unit}, declared in {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    _print_table(name, seed, result, trace)
    return {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }


def _print_table(name: str, seed: int, result, trace: bool) -> None:
    print(f"# workload {name}  seed {seed}  trace {int(trace)}")
    for metric, (value, unit, samples, note) in result.metrics.items():
        print(f"  {metric:<16} {value:>14.6g} {unit:<8} n={samples:<5} {note}")
    for layer, (value, unit) in sorted(result.layers.items()):
        print(f"  {layer:<34} {value:>14.6g} {unit}")
    for check, passed, detail in result.checks:
        print(f"  [{'ok' if passed else 'FAIL'}] {check}: {detail}")
    for key, value in sorted(result.diagnostics.items()):
        print(f"  diag {key} = {value}")
    print(f"  attempted={result.attempted} failed={result.failed}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
    except ImportError as exc:
        print(f"error: the program's sources are not importable from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported repro from {repro.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workloads = _load_json(HERE / "workloads.json")["workloads"]

    if args.workload == "all":
        # Each workload in its own interpreter, so memory peaks and
        # lingering state of one cannot leak into the next.
        results = {}
        for name in workloads:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
            )
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
                return 1
            results[name] = json.loads(lines[-1])
        print(json.dumps(results))
        return 0

    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}")
    # A terminated run still unwinds: trainers close their engines and the
    # server is shut down by the workloads' ``finally`` blocks.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    try:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
