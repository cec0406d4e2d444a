"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, never from an installed copy. The workload runs in a
fresh interpreter with ``XYZSCAR_WORKERS`` cleared and the BLAS thread count
fixed, so every run sees the same environment. Set-up time is measured in
that process and in ``SETUP_PROBES`` further fresh processes that stop after
set-up; the median is reported.

``--trace 0`` prints every end-to-end metric of BENCHMARK.json, ``--trace 1``
every per-layer metric, each tagged with the end-to-end metric and workload
it is expected to move (``layers.json``). The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``. A full record with the
machine block and every check goes to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 2
BLAS_THREADS = 1
TIME_LIMIT_S = 170.0
# answer_dev resolves deviations down to this share of their tolerance; below
# it, rounding-level differences (one ulp against two) would swing the metric
ANSWER_DEV_FLOOR = 0.01
# a failed item with no finite error (wrong class, exception) reads as this
FAILED_RATIO = 1e9


def _environment() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "XYZSCAR_WORKERS"}
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("PYTHONPATH", None)
    return env


def _source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "xyzscar").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def _worker(args, env, deadline, extra=()) -> dict:
    """Run worker.py to completion and return its JSON line."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    if args.tiny:
        cmd.append("--tiny")
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"workload {args.workload} ran past the time limit")
    if proc.returncode != 0:
        raise SystemExit(f"workload process exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="cheapest subset of each workload")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "xyzscar" / "__init__.py").is_file():
        print("error: no src/xyzscar in this checkout", file=sys.stderr)
        return 1
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    layer_map = json.loads((HERE / "layers.json").read_text())["per_layer"]
    env = _environment()

    setups = [
        _worker(args, env, deadline, ["--setup-only"])["setup_s"] for _ in range(SETUP_PROBES)
    ]
    run = _worker(args, env, deadline)
    setups.append(run["setup_s"])

    checks = run["checks"]
    attempted = len(checks)
    failed = sum(1 for _, ratio in checks if not ratio <= 1.0)
    ratios = [r if math.isfinite(r) else FAILED_RATIO for _, r in checks]
    plain = [r for r in run["rounds"] if not r["traced"]]
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "cpu_s": statistics.median(r["cpu_s"] for r in plain),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["peak_rss_mb"],
        "answer_dev": max(ANSWER_DEV_FLOOR, *ratios),
        "failed_frac": failed / attempted,
    }
    if args.trace:
        values.update(run["layers"])
        wanted = bench["per_layer"]
    else:
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": run["machine"],
        "source": _source_identity(),
        "rounds": run["rounds"],
        "setup_samples_s": setups,
        "errors": run["errors"],
        "checks": checks,
        "metrics": metrics,
    }
    for key in ("gate11_ratio", "spans_file"):
        if key in run:
            record[key] = run[key]
    results = ROOT / ".perfbench"
    results.mkdir(exist_ok=True)
    (results / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str)
    )

    print("machine " + json.dumps({**record["machine"], **record["source"]}))
    print(f"{args.workload}: {len(plain)} untraced round(s), {len(run['rounds']) - len(plain)} traced; "
          f"{attempted} checked items, {failed} failed")
    for err in run["errors"]:
        print(f"  error {err}")
    if "gate11_ratio" in run:
        print(f"  gate 11 ratio (1-D+)/(1-D-) = {run['gate11_ratio']} (recorded, not checked)")
    for name, m in metrics.items():
        tag = layer_map.get(name, "")
        print(f"  {name} = {m['value']:.6g} {m['unit']}" + (f"   [moves {tag}]" if tag else ""))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
