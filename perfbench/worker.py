"""One workload process: imports, builds inputs, runs timed rounds, checks.

Started by ``run.py`` in a fresh interpreter with a fixed environment; it
prints one JSON object as its last line of standard output. With
``--setup-only`` it stops after set-up and reports only the set-up time.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _machine() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401  (set-up covers the numeric stack)
    import scipy.linalg  # noqa: F401
    import xyzscar

    if Path(xyzscar.__file__).resolve().parent != ROOT / "src" / "xyzscar":
        raise SystemExit(f"imported xyzscar from {xyzscar.__file__}, not from this checkout")
    import tracing
    import workloads

    reference = json.loads((HERE / "reference.json").read_text())
    out = ROOT / ".perfbench" / f"run-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](out, reference, args.tiny)
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = _measure(args, workload, tracing)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    result["setup_s"] = setup_s
    result["machine"] = _machine()
    print(json.dumps(result))
    return 0


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _round(workload, rng, errors, checks, tracer=None) -> tuple[float, float, dict]:
    """Issue every item once, in a seeded order; return wall s, CPU s and outputs.

    CPU time counts the process's threads and its reaped children, so a
    process pool (reaped when it closes, inside the call) is included.
    """
    items = list(workload.items)
    rng.shuffle(items)
    outputs: dict = {}
    if tracer is not None:
        tracer.install()
    cpu0, child0, wall0 = time.process_time(), _children_cpu(), time.perf_counter()
    for label, call in items:
        try:
            outputs[label] = call()
        except Exception as exc:  # a failing item is counted, not fatal
            errors.append(f"{label}: {exc!r}")
            checks.append((label, float("inf")))
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0 + _children_cpu() - child0
    if tracer is not None:
        tracer.uninstall()
    return wall, cpu, outputs


def _check(workload, outputs, errors, checks, extras) -> None:
    try:
        for label, value in list(outputs.items()):
            if callable(value):
                outputs[label] = value()
        checks.extend(workload.check(outputs))
    except Exception as exc:
        errors.append(f"check: {exc!r}")
        checks.append(("check", float("inf")))
    if hasattr(workload, "asymmetry"):
        extras["gate11_ratio"] = workload.asymmetry(outputs)


def _measure(args, workload, tracing) -> dict:
    rng = random.Random(args.seed)
    tracer = tracing.Tracer(args.workload, args.seed) if args.trace else None
    rounds: list[dict] = []
    checks: list[tuple[str, float]] = []
    errors: list[str] = []
    extras: dict = {}
    if tracer is not None:
        # an untimed warm-up round, so that trace.overhead_s compares warm rounds
        _check(workload, _round(workload, rng, errors, checks)[2], errors, checks, extras)
    start = time.monotonic()
    while True:
        # traced runs alternate untraced and traced rounds, starting untraced
        traced = tracer is not None and len(rounds) % 2 == 1
        wall, cpu, outputs = _round(workload, rng, errors, checks, tracer if traced else None)
        rounds.append({"traced": traced, "wall_s": wall, "cpu_s": cpu})
        _check(workload, outputs, errors, checks, extras)
        kinds = {r["traced"] for r in rounds}
        elapsed = time.monotonic() - start
        typical = statistics.median(r["wall_s"] for r in rounds)
        # stop when one more round would end past the budget by over half a round
        if (tracer is None or kinds == {True, False}) and elapsed + typical / 2 > args.seconds:
            break

    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result = {
        "rounds": rounds,
        "checks": checks,
        "errors": errors,
        "peak_rss_mb": usage / 1024.0,
        **extras,
    }
    if tracer is not None:
        plain = statistics.median(r["wall_s"] for r in rounds if not r["traced"])
        traced_walls = [r["wall_s"] for r in rounds if r["traced"]]
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [m["name"] for m in bench["per_layer"]]
        layers = tracer.layer_metrics(names, len(traced_walls))
        layers["trace.overhead_s"] = statistics.median(traced_walls) - plain
        result["layers"] = layers
        path = tracing.spans_path(ROOT, args.workload, args.seed)
        tracer.write(path)
        result["spans_file"] = str(path.relative_to(ROOT))
    return result


if __name__ == "__main__":
    sys.exit(main())
