"""Record every workload's answers into reference.json at the current commit.

    python3 perfbench/record.py

Runs each full workload once in the benchmark's environment and stores its
parsed outputs with the commit and a hash of ``src/xyzscar``. The checks
compare against these values only where no independent route exists (scan
classes and U-cell rates, exact D(t)); the rest is kept as the record of
what the seed commit answered.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import run

if os.environ.get("PERFBENCH_RECORD") != "1":
    env = {**run._environment(), "PERFBENCH_RECORD": "1"}
    os.execve(sys.executable, [sys.executable, *sys.argv], env)

sys.path.insert(0, str(run.ROOT / "src"))
import numpy as np  # noqa: E402

import workloads  # noqa: E402


def _plain(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def _answers(workload) -> dict:
    outputs = {label: call() for label, call in workload.items}
    return {k: v() if callable(v) else v for k, v in outputs.items()}


def main() -> int:
    out = run.ROOT / ".perfbench" / "record"
    out.mkdir(parents=True, exist_ok=True)
    ref: dict = dict(run._source_identity())

    scan = workloads.Scan(out, {}, tiny=False)
    rows = _answers(scan)
    ref["scan"] = {"rows": [
        {"kappa": float(label.split("=")[1]), "cells": cells} for label, cells in rows.items()
    ]}

    bench = workloads.Benettin(out, {}, tiny=False)
    answers = _answers(bench)
    traj = answers["ll-evolve"]
    ref["benettin"] = {
        "kick_seed": bench.KICK_SEED,
        "lyapunov": answers["lyapunov"],
        "ll_evolve_final_texture": traj["omega"][-1],
        "ll_evolve_energy": traj["energy"],
    }

    exact = workloads.Exact(out, {}, tiny=False)
    answers = _answers(exact)
    ref["exact"] = {
        "sweep": [
            {"kappa": p.kappa, "gamma": p.gamma, "S": p.S, "L": p.L, "q": p.q,
             "residual": residual, "energy_per_site": e_site}
            for p, residual, e_site in answers.pop("sweep")
        ],
        **answers,
    }

    contrast = workloads.Contrast(out, {}, tiny=False)
    ref["contrast"] = _answers(contrast)

    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(_plain(ref), indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
