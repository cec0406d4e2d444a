"""Compare two source checkouts of xyzscar: benchmark pairs, CLI start-up,
spin-wave contrasts, exact quenches and CLI outputs, each measured in fresh
processes.

    python scripts/bench_compare.py pairs --parent P --change C \\
        --workloads contrast,scan --seeds 2201:2211 --seconds 25
    python scripts/bench_compare.py startup --parent P --change C --reps 9
    python scripts/bench_compare.py scale --parent P --change C \\
        --cells 0.96:60:800,0.96:61:1600 --reps 3
    python scripts/bench_compare.py peaks --parent P --change C --reps 3
    python scripts/bench_compare.py exact --parent P --change C --reps 5
    python scripts/bench_compare.py rings --parent P --change C --reps 9
    python scripts/bench_compare.py exponential --parent P --change C --reps 3
    python scripts/bench_compare.py outputs --parent P --change C --reps 2
    python scripts/bench_compare.py elliptic --parent P --change C --reps 9

P and C are checkout roots (each with src/ and perfbench/). Every mode
alternates which side runs first, the parent first in even pairs, and
prints one JSON document on standard output; progress goes to stderr.
scale, peaks, exact, rings, exponential, outputs and elliptic run this
script once per side and repetition in a fresh process whose path starts at
that side's src (_fresh_runs).

pairs    runs perfbench/run.py --trace 0 in each checkout, one seed per pair,
         and reports each end-to-end metric's quartiles per side
         (statistics.quantiles, n=4, inclusive), every run, and how many
         pairs the change read lower in.
startup  times whole `python -m xyzscar.cli` runs of subcommands that need
         numpy alone, and of contrast-sw, scar-verify and contrast-ed, which
         load scipy, and reports medians.
scale    runs bogoliubov.contrast_multiflavour on glsh cells
         (kappa:lambda:n_k, detuning +0.01, T = 200, 401 samples) and
         reports the call's wall time and the growth of peak RSS over the
         RSS before it.
peaks    traces (tracemalloc) the peak memory of the contrast workload's two
         spin-wave kernels: _power_contrast on the L = 240 transverse ring
         (T = 30, 301 samples) and bogoliubov.scaling_function on its 301
         times.
exact    runs ed_oracle.contrast_exact on the transverse rings EXACT_RINGS
         (theta = pi/4, T = 10, 201 samples, detuning +0.03 and -0.03), one fresh
         process per side and repetition after one untimed call per quench,
         and reports each quench's median wall time per side and the largest
         |D_change - D_parent|, also in units of max(1, |1 - D|). Where the
         two checkouts take different routes (whole space against the
         twisted zero-momentum space), that is the time of each route and
         their agreement.
rings    runs spinwave.contrast_sw on the rings RINGS of the contrast workload
         and of gates 06 and 07, one fresh process per side and repetition at
         one BLAS thread, each ring after one untimed call, and reports each
         ring's median wall time per side and the largest |D_change - D_parent|,
         also in units of max(1, |1 - D|). The first repetition also runs
         bogoliubov.contrast_multiflavour on BLOCH_STACKS (test_bloch_stacks)
         and reports whether D and the defect are float.hex-equal across sides,
         and the largest |D_change - D_parent| of each stack.
exponential
         times spinwave.expm on whole generators (EXPONENTIAL_RINGS: transverse
         rings at h = 0.1 with one site's V moved by 1e-9, so that no cell
         layout applies; the best of 5 calls at 2L = 480, one call at 2,400)
         and the CF4 route, contrast_sw(lambda t: coeffs, 1.0, T=10,
         n_samples=51, dt=0.02), on the transverse rings CF4_RINGS, one fresh
         process per side and repetition, at default BLAS threads and at one.
         It reports each case's median wall time per side and threads, and the
         largest |D_change - D_parent| of the CF4 runs.
outputs  runs each CLI config of OUTPUT_RUNS as `python -m xyzscar.cli`, one
         process per config, at one BLAS thread. Both sides write to the same
         --out directories in turn, because sidecars echo --out. It reports the
         bytes and a SHA-256 prefix of every file written, and of each run's
         stdout, stderr and exit code, per side, whether every repetition of
         both sides agrees, the list of those that do not, and the list of
         those whose repetitions differ within one side.
elliptic compares the elliptic functions on ELLIPTIC_KAPPAS and seven seeded
         moduli, 1,000 seeded arguments |u| <= 50 each, at one BLAS thread:
         how many sn, cn, dn and am values differ by float.hex across sides,
         the largest change of jacobi_epsilon in units of max(1, |eps|), and
         the largest relative change of scars.energy_density over the 45
         distinct (kappa, q, S) of gate 01's 135 scars. It times
         jacobi_sncndn and jacobi_epsilon on 30 arguments (best of 7 rounds
         of 2,000 calls per process) and reports each side's median.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

METRICS = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb", "answer_dev")
STARTUP_RUNS = {
    "rates": ["rates", "--q", "pi/3", "--theta", "pi/4", "--dJz", "0.03"],
    "phase-scan": ["phase-scan", "--kappa", "0.8", "--lambda", "7:12"],
    "dispersion": ["dispersion", "--q", "pi/3", "--theta", "pi/4", "--dJz", "0.03"],
    "ll-evolve": ["ll-evolve", "--kappa", "0.5", "--M", "1", "--L", "8", "--gamma", "0",
                  "--dJx", "-0.02", "--T", "1", "--max-samples", "5"],
    "contrast-sw": ["contrast-sw", "--family", "transverse", "--theta", "pi/4", "--q", "pi/3",
                    "--L", "12", "--dJz", "0.03", "--T", "5", "--n-samples", "11"],
    "scar-verify": ["scar-verify", "--kappa", "0", "--M", "1", "--L", "6", "--gamma", "0.7",
                    "--S", "0.5"],
    "contrast-ed": ["contrast-ed", "--kappa", "0", "--M", "1", "--L", "10", "--theta", "pi/4",
                    "--S", "0.5", "--delta", "0.03", "--T", "5", "--n-samples", "11"],
}


def _cli(argv, out_dir) -> list[str]:
    """The command running the CLI on argv, writing to out_dir; scar-verify
    writes no file and takes no --out."""
    out_flag = [] if argv[0] == "scar-verify" else ["--out", str(out_dir)]
    return [sys.executable, "-m", "xyzscar.cli", *argv, *out_flag]


def _ordered(i: int, parent: Path, change: Path):
    return [("parent", parent), ("change", change)][:: 1 if i % 2 == 0 else -1]


def _quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def _seeds(text: str) -> list[int]:
    lo, hi = (int(x) for x in text.split(":"))
    return list(range(lo, hi))


def pairs(args) -> dict:
    out = {}
    for workload in args.workloads.split(","):
        runs = {"parent": [], "change": []}
        for i, seed in enumerate(_seeds(args.seeds)):
            for side, root in _ordered(i, args.parent, args.change):
                cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                       "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
                proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                record = {m: result["metrics"][m]["value"] for m in METRICS}
                record.update(seed=seed, first=_ordered(i, args.parent, args.change)[0][0],
                              correct=result["correct"], attempted=result["attempted"],
                              failed=result["failed"])
                runs[side].append(record)
                print(workload, seed, side, record, file=sys.stderr)
        summary = {side: {m: _quartiles([r[m] for r in runs[side]]) for m in METRICS}
                   for side in runs}
        for m in METRICS:
            parent, change = ([r[m] for r in runs[side]] for side in ("parent", "change"))
            summary[f"{m}_change_lower"] = sum(c < p for p, c in zip(parent, change))
            p_med, c_med = summary["parent"][m]["median"], summary["change"][m]["median"]
            summary[f"{m}_median_change"] = (c_med - p_med) / p_med if p_med else None
        summary["runs"] = runs
        out[workload] = summary
    return out


def startup(args) -> dict:
    times = {side: {name: [] for name in STARTUP_RUNS} for side in ("parent", "change")}
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(args.reps):
            for name, argv in STARTUP_RUNS.items():
                for side, root in _ordered(i, args.parent, args.change):
                    env = dict(os.environ, PYTHONPATH=str(root / "src"))
                    start = time.perf_counter()
                    subprocess.run(_cli(argv, tmp), env=env, cwd=tmp, check=True,
                                   capture_output=True)
                    times[side][name].append(time.perf_counter() - start)
    return {side: {name: {"median_s": statistics.median(t), "runs_s": t}
                   for name, t in per_side.items()}
            for side, per_side in times.items()}


def _fresh_runs(args, *argv: str, first=(), one_blas=False) -> dict:
    """{side: [JSON document of each run]}: args.reps alternating pairs of fresh
    processes running this script with argv (and first, in the first pair
    only) on each side's src, at one BLAS thread where one_blas says so."""
    env = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"} if one_blas else {}
    runs = {"parent": [], "change": []}
    for i in range(args.reps):
        for side, root in _ordered(i, args.parent, args.change):
            cmd = [sys.executable, __file__, *argv, *(first if i == 0 else ())]
            proc = subprocess.run(cmd, env=dict(os.environ, PYTHONPATH=str(root / "src"), **env),
                                  capture_output=True, text=True, check=True)
            runs[side].append(json.loads(proc.stdout))
            print(*argv, i, side, file=sys.stderr)
    return runs


def _compare_series(runs, names) -> dict:
    """Per name: each side's wall times and their medians, and the largest
    |D_change - D_parent| of the first pair, also in units of max(1, |1 - D|)."""
    out = {}
    for name in names:
        parent, change = ([r[name] for r in runs[side]] for side in ("parent", "change"))
        pairs_of_D = list(zip(parent[0]["D"], change[0]["D"]))
        out[name] = {
            "parent_wall_s_median": statistics.median(r["wall_s"] for r in parent),
            "change_wall_s_median": statistics.median(r["wall_s"] for r in change),
            "max_abs_dD": max(abs(a - b) for a, b in pairs_of_D),
            "max_dD_over_max_1_1mD": max(abs(a - b) / max(1.0, abs(1.0 - a)) for a, b in pairs_of_D),
            "parent_wall_s": [r["wall_s"] for r in parent],
            "change_wall_s": [r["wall_s"] for r in change],
        }
    return out


def _rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * resource.getpagesize() / 2**20


def scale_cell(args) -> dict:
    """Run in a fresh process whose path starts at the checkout's src."""
    from xyzscar import bogoliubov as bg
    from xyzscar.elliptic import complete_K

    kappa, lam, n_k = args.cell.split(":")
    kappa, lam, n_k = float(kappa), int(lam), int(n_k)
    q = 4.0 * complete_K(kappa) / lam
    bg.contrast_multiflavour("glsh", kappa, q, 0.01, T=1.0, n_k=2, n_samples=3)
    before = _rss_mb()
    start = time.perf_counter()
    series = bg.contrast_multiflavour("glsh", kappa, q, 0.01, T=200.0, n_k=n_k, n_samples=401)
    wall = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"wall_s": wall, "rss_growth_mb": peak - before, "D_last": float(series.D[-1])}


def scale(args) -> dict:
    out = {}
    for cell in args.cells.split(","):
        runs = _fresh_runs(args, "scale-cell", "--cell", cell)
        out[cell] = {side: {"wall_s_median": statistics.median(r["wall_s"] for r in rs),
                            "rss_growth_mb_median": statistics.median(r["rss_growth_mb"] for r in rs),
                            "runs": rs}
                     for side, rs in runs.items()}
    return out


def peaks_run(args) -> dict:
    """Run in a fresh process whose path starts at the checkout's src."""
    import math
    import tracemalloc

    import numpy as np

    from xyzscar import bogoliubov as bg
    from xyzscar import rotframe
    from xyzscar import spinwave as sw

    theta, q, dJz = math.pi / 4, math.pi / 3, -0.03
    frame = rotframe.frame_transverse(theta=theta, q=q, omega=-2.0 * math.cos(theta) * dJz,
                                      L=240, dJz=dJz)
    G = sw._quadrature_generator(sw.sw_coefficients(frame, 1.0))[None]
    sw.expm(np.zeros((2, 2)))  # where expm imports scipy, outside the traced peaks
    calls = {"ring_kernel_mb": lambda: sw._power_contrast(G, 0.1, 301, 1.0),
             "integral_mb": lambda: bg.scaling_function(np.linspace(0.0, 30.0, 301), q, theta, dJz)}
    out = {}
    for name, call in calls.items():
        tracemalloc.start()
        call()
        out[name] = tracemalloc.get_traced_memory()[1] / 1e6
        tracemalloc.stop()
    return out


def peaks(args) -> dict:
    runs = _fresh_runs(args, "peaks-run")
    return {side: {"max": {k: max(r[k] for r in rs) for k in rs[0]}, "runs": rs}
            for side, rs in runs.items()}


#: transverse rings (S, L, M) of the exact mode: the exact workload's ring and
#: the largest ring at each spin length under ed_oracle.DIMENSION_CAP
EXACT_RINGS = ((0.5, 10, 1), (0.5, 12, 2), (1.0, 7, 1), (1.5, 6, 1), (2.0, 5, 1))
EXACT_DETUNINGS = (+0.03, -0.03)


def exact_run(args) -> dict:
    """Run in a fresh process whose path starts at the checkout's src."""
    import math

    from xyzscar import ed_oracle as ed
    from xyzscar import scars

    out = {}
    for S, L, M in EXACT_RINGS:
        p = scars.ScarParams.commensurate(0.0, M, L, gamma=math.cos(math.pi / 4), S=S)
        for delta in EXACT_DETUNINGS:
            ed.contrast_exact(p, delta)
            start = time.perf_counter()
            series = ed.contrast_exact(p, delta)
            out[f"{S:g}:{L}:{M}{delta:+.2f}"] = {"wall_s": time.perf_counter() - start,
                                                 "D": series.D.tolist()}
    return out


def exact(args) -> dict:
    runs = _fresh_runs(args, "exact-run")
    return _compare_series(runs, runs["parent"][0])


#: (family, L, detuning, S, T, n_samples): the contrast workload's transverse
#: ring (gate 07's) and glsh ring (kappa 0.8, lambda 7), and gate 06's pair (the
#: workload's collapse)
RINGS = {
    "transverse-240": ("transverse", 240, -0.03, 1.0, 30.0, 301),
    "glsh-140": ("glsh", 140, -0.02, 1.0, 20.0, 81),
    "transverse-120-S1": ("transverse", 120, -0.03, 1.0, 20.0, 201),
    "transverse-120-S2": ("transverse", 120, -0.03, 2.0, 10.0, 201),
}
#: (family, kappa, lambda, detuning, n_k, T, n_samples) of test_bloch_stacks
BLOCH_STACKS = (("glsh", 0.8, 7, -0.02, 400, 20.0, 81), ("gtsh", 0.9, 6, 0.02, 400, 20.0, 201),
                ("glsh", 0.8, 8, 0.03, 400, 100.0, 401), ("glsh", 0.96, 61, 0.01, 140, 20.0, 41),
                ("glsh", 0.96, 61, 0.01, 142, 20.0, 41))


def rings_run(args) -> dict:
    """Run in a fresh process whose path starts at the checkout's src."""
    import math

    from xyzscar import bogoliubov as bg
    from xyzscar import rotframe, scars
    from xyzscar import spinwave as sw
    from xyzscar.elliptic import complete_K

    out = {}
    for name, (family, L, delta, S, T, n_samples) in RINGS.items():
        if family == "transverse":
            theta, q = math.pi / 4, math.pi / 3
            omega = -2.0 * S * math.cos(theta) * delta
            frame = rotframe.frame_transverse(theta, q, omega, L, dJz=delta)
        else:
            frame = rotframe.scar_frame(scars.ScarParams.commensurate(0.8, L // 7, L, gamma=1.0), delta)
        coeffs = sw.sw_coefficients(frame, S)
        sw.contrast_sw(coeffs, S, T=T, n_samples=n_samples)
        start = time.perf_counter()
        series = sw.contrast_sw(coeffs, S, T=T, n_samples=n_samples)
        out[name] = {"wall_s": time.perf_counter() - start, "D": series.D.tolist()}
    if args.bloch:
        for family, kappa, lam, delta, n_k, T, n_samples in BLOCH_STACKS:
            q = 4.0 * complete_K(kappa) / lam
            series = bg.contrast_multiflavour(family, kappa, q, delta, 1.0, T, n_k, n_samples)
            out[f"bloch-{family}-{kappa}-{lam}-{n_k}"] = {
                "hex": [x.hex() for x in series.D] + [series.pseudo_unitarity_defect.hex()],
                "D": series.D.tolist()}
    return out


def rings(args) -> dict:
    runs = _fresh_runs(args, "rings-run", first=["--bloch"], one_blas=True)
    out = _compare_series(runs, RINGS)
    stacks = [case for case in runs["parent"][0] if case.startswith("bloch-")]
    parent, change = runs["parent"][0], runs["change"][0]
    out["bloch_hex_equal"] = {case: parent[case]["hex"] == change[case]["hex"] for case in stacks}
    out["bloch_max_abs_dD"] = {case: max(abs(a - b) for a, b in zip(parent[case]["D"], change[case]["D"]))
                               for case in stacks}
    return out


#: ring sizes L of the exponential mode's whole generators (2L = 480 and 2,400)
#: and of its CF4 runs
EXPONENTIAL_RINGS = (240, 1200)
CF4_RINGS = (48, 96)


def exponential_run(args) -> dict:
    """Run in a fresh process whose path starts at the checkout's src."""
    import math

    import numpy as np

    from xyzscar import rotframe
    from xyzscar import spinwave as sw

    def coefficients(L):
        theta, q, dJz = math.pi / 4, math.pi / 3, 0.03
        frame = rotframe.frame_transverse(theta, q, -2.0 * math.cos(theta) * dJz, L, dJz=dJz)
        return sw.sw_coefficients(frame, 1.0)

    def timed(call):
        start = time.perf_counter()
        result = call()
        return time.perf_counter() - start, result

    sw.expm(np.zeros((2, 2)))  # where expm imports scipy, before the timed calls
    out = {}
    for L in EXPONENTIAL_RINGS:
        coeffs = coefficients(L)
        coeffs.V[17] *= 1.0 + 1e-9
        A = 0.1 * sw._quadrature_generator(coeffs)
        out[f"expm-{2 * L}"] = {"wall_s": min(timed(lambda: sw.expm(A))[0]
                                              for _ in range(5 if L < 1000 else 1))}
    for L in CF4_RINGS:
        coeffs = coefficients(L)
        wall, series = timed(lambda: sw.contrast_sw(lambda t: coeffs, 1.0, T=10.0,
                                                    n_samples=51, dt=0.02))
        out[f"cf4-{L}"] = {"wall_s": wall, "D": series.D.tolist()}
    return out


def exponential(args) -> dict:
    out = {}
    for threads, one_blas in (("default", False), ("one", True)):
        runs = _fresh_runs(args, "exponential-run", one_blas=one_blas)
        out[threads] = {
            case: {**{f"{side}_wall_s_median": statistics.median(r[case]["wall_s"] for r in rs)
                      for side, rs in runs.items()},
                   **{f"{side}_wall_s": [r[case]["wall_s"] for r in rs] for side, rs in runs.items()}}
            for case in runs["parent"][0]}
        for case in out[threads]:
            if case.startswith("cf4-"):
                pairs_of_D = zip(runs["parent"][0][case]["D"], runs["change"][0][case]["D"])
                out[threads][case]["max_abs_dD"] = max(abs(a - b) for a, b in pairs_of_D)
    return out


#: CLI configs of the outputs mode: the contrast workload's two rings and a
#: gtsh ring, contrast-ed at +-0.03 (the exact workload's ring), on a gtsh
#: ring and on two glsh rings (L = 8: real H, eigh per sector; L = 11: the
#: 1,024-state parity sectors, stepped), ll-evolve on the benettin workload's
#: ring and at S = 1.5, one scan row, dispersion, rates at +-0.03 and
#: scar-verify; three take phi = 1e12, where the sites' phase steps were lost
#: before phi was reduced modulo the texture's period; the last exits 1 on a
#: precession rate -2 S gamma delta that overflows
OUTPUT_RUNS = {
    "sw-ring": ["contrast-sw", "--family", "transverse", "--theta", "pi/4", "--q", "pi/3",
                "--L", "240", "--dJz", "-0.03", "--T", "30", "--n-samples", "301"],
    "sw-glsh": ["contrast-sw", "--family", "glsh", "--kappa", "0.8", "--M", "20", "--L", "140",
                "--dJx", "-0.02", "--T", "20", "--n-samples", "81"],
    "sw-gtsh": ["contrast-sw", "--family", "gtsh", "--kappa", "0.9", "--M", "1", "--L", "12",
                "--dJz", "0.02", "--T", "4", "--n-samples", "21"],
    "ed+0.03": ["contrast-ed", "--kappa", "0", "--M", "1", "--L", "10", "--theta", "pi/4",
                "--S", "0.5", "--delta", "0.03"],
    "ed-0.03": ["contrast-ed", "--kappa", "0", "--M", "1", "--L", "10", "--theta", "pi/4",
                "--S", "0.5", "--delta", "-0.03"],
    "ed-gtsh": ["contrast-ed", "--kappa", "0.9", "--M", "1", "--L", "8", "--gamma", "0",
                "--S", "0.5", "--delta", "0.03"],
    "ed-glsh": ["contrast-ed", "--kappa", "0.8", "--M", "1", "--L", "8", "--gamma", "1",
                "--S", "0.5", "--delta", "-0.02"],
    "ed-glsh-L11": ["contrast-ed", "--kappa", "0.8", "--M", "1", "--L", "11", "--gamma", "1",
                    "--S", "0.5", "--delta", "-0.02"],
    "ll-benettin": ["ll-evolve", "--kappa", "0.9", "--M", "20", "--L", "120", "--gamma", "0",
                    "--dJz", "0.1", "--T", "20"],
    "ll-S1.5": ["ll-evolve", "--kappa", "0.9", "--M", "1", "--L", "12", "--gamma", "0",
                "--S", "1.5", "--dJz", "0.05", "--T", "5"],
    "scan": ["phase-scan", "--family", "glsh", "--dJ", "0.01", "--n-k", "400", "--kappa", "0.48",
             "--lambda", "7:21"],
    "dispersion": ["dispersion", "--q", "pi/3", "--theta", "pi/4", "--dJz", "0.03"],
    "rates+0.03": ["rates", "--q", "pi/3", "--theta", "pi/4", "--dJz", "0.03"],
    "rates-0.03": ["rates", "--q", "pi/3", "--theta", "pi/4", "--dJz", "-0.03"],
    "verify": ["scar-verify", "--kappa", "0", "--M", "1", "--L", "6", "--gamma", "0.7",
               "--S", "0.5"],
    "verify-phi": ["scar-verify", "--kappa", "0", "--M", "1", "--L", "6", "--gamma", "0.7",
                   "--S", "0.5", "--phi", "1e12"],
    "verify-glsh-phi": ["scar-verify", "--kappa", "0.5", "--M", "1", "--L", "6", "--gamma", "1",
                        "--S", "0.5", "--phi", "1e12"],
    "ed-phi": ["contrast-ed", "--kappa", "0", "--M", "1", "--L", "6", "--theta", "pi/4",
               "--S", "0.5", "--delta", "0.03", "--phi", "1e12"],
    "ed-rate-overflow": ["contrast-ed", "--kappa", "0", "--M", "1", "--L", "5", "--theta", "pi/4",
                         "--S", "1.5", "--delta", "1e308"],
}


def outputs_run(args) -> dict:
    """Run in a fresh process whose path starts at the checkout's src."""
    import hashlib
    import shutil

    def digest(data: bytes) -> str:
        return f"{len(data)} bytes, sha256 {hashlib.sha256(data).hexdigest()[:16]}"

    out = {}
    for name, argv in OUTPUT_RUNS.items():
        run_dir = args.dir / name
        shutil.rmtree(run_dir, ignore_errors=True)
        proc = subprocess.run(_cli(argv, run_dir), cwd=args.dir, capture_output=True)
        out[f"{name} exit"] = proc.returncode
        out[f"{name} stdout"] = digest(proc.stdout)
        out[f"{name} stderr"] = digest(proc.stderr)
        for path in sorted(run_dir.glob("*")):
            out[f"{name}/{path.name}"] = digest(path.read_bytes())
    return out


def outputs(args) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        runs = _fresh_runs(args, "outputs-run", "--dir", tmp, one_blas=True)
    every = [r for side in runs.values() for r in side]
    files = {key: {"parent": runs["parent"][0].get(key), "change": runs["change"][0].get(key),
                   "identical": len({r.get(key) for r in every}) == 1}
             for key in sorted(set().union(*every))}
    rerun_differ = sorted(key for side in runs.values() for key in files
                          if len({r.get(key) for r in side}) > 1)
    return {"runs": {name: " ".join(argv) for name, argv in OUTPUT_RUNS.items()},
            "files": files, "differ": [key for key, f in files.items() if not f["identical"]],
            "rerun_differ": rerun_differ}


#: fixed moduli of the elliptic mode; it adds seven seeded in (0.1, 0.999999)
ELLIPTIC_KAPPAS = (0.1, 0.5, 0.9, 0.999999)


def elliptic_run(args) -> dict:
    """Run in a fresh process whose path starts at the checkout's src."""
    import numpy as np

    from xyzscar import elliptic, scars
    from xyzscar.ed_oracle import DIMENSION_CAP

    rng = np.random.default_rng(31)
    kappas = [*ELLIPTIC_KAPPAS, *rng.uniform(0.1, 0.999999, 7)]
    out = {"hex": [], "eps": [], "energy": []}
    for kappa in kappas:
        u = rng.uniform(-50.0, 50.0, 1000)
        for values in (*elliptic.jacobi_sncndn(u, kappa), elliptic.jacobi_am(u, kappa)):
            out["hex"] += [x.hex() for x in values.tolist()]
        out["eps"] += elliptic.jacobi_epsilon(u, kappa).tolist()
    # gate 01's scars: its three gammas share each (kappa, q, S) energy
    for kappa in (0.0, 0.5, 0.9):
        for S in (0.5, 1.0):
            for L in range(2, 13):
                if (round(2 * S) + 1) ** L <= DIMENSION_CAP:
                    out["energy"] += [scars.energy_density(kappa, q, S)
                                      for _, q in scars.commensurate_q(kappa, L)]
    u30 = rng.uniform(-10.0, 10.0, 30)
    for name in ("jacobi_sncndn", "jacobi_epsilon"):
        rounds = []
        for _ in range(7):
            start = time.perf_counter()
            for _ in range(2000):
                getattr(elliptic, name)(u30, 0.9)
            rounds.append((time.perf_counter() - start) / 2000 * 1e6)
        out[f"{name}_us"] = min(rounds)
    return out


def elliptic(args) -> dict:
    runs = _fresh_runs(args, "elliptic-run", one_blas=True)
    parent, change = runs["parent"][0], runs["change"][0]
    pairs_of_e = list(zip(parent["energy"], change["energy"]))
    out = {
        "values": len(parent["hex"]),
        "hex_differences": sum(a != b for a, b in zip(parent["hex"], change["hex"])),
        "max_eps_change": max(abs(a - b) / max(1.0, abs(a))
                              for a, b in zip(parent["eps"], change["eps"])),
        "scars": len(pairs_of_e),
        "max_energy_rel_change": max(abs(a - b) / abs(a) for a, b in pairs_of_e),
    }
    for name in ("jacobi_sncndn_us", "jacobi_epsilon_us"):
        for side in ("parent", "change"):
            out[f"{side}_{name}"] = {"median": statistics.median(r[name] for r in runs[side]),
                                     "runs": [r[name] for r in runs[side]]}
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    modes = parser.add_subparsers(dest="mode", required=True)
    for name in ("pairs", "startup", "scale", "peaks", "exact", "rings", "exponential",
                 "outputs", "elliptic"):
        sub = modes.add_parser(name)
        sub.add_argument("--parent", type=Path, required=True)
        sub.add_argument("--change", type=Path, required=True)
        if name == "pairs":
            sub.add_argument("--workloads", default="scan,benettin,exact,contrast")
            sub.add_argument("--seeds", required=True, help="lo:hi, one seed per pair")
            sub.add_argument("--seconds", type=float, default=25.0)
        else:
            sub.add_argument("--reps", type=int, default=2 if name == "outputs" else 9)
        if name == "scale":
            sub.add_argument("--cells", default="0.96:60:800,0.96:61:1600")
    modes.add_parser("scale-cell").add_argument("--cell", required=True)
    modes.add_parser("peaks-run")
    modes.add_parser("exact-run")
    modes.add_parser("rings-run").add_argument("--bloch", action="store_true")
    modes.add_parser("exponential-run")
    modes.add_parser("outputs-run").add_argument("--dir", type=Path, required=True)
    modes.add_parser("elliptic-run")
    args = parser.parse_args()
    if not args.mode.endswith(("-run", "-cell")):
        args.parent, args.change = args.parent.resolve(), args.change.resolve()
    run = {"pairs": pairs, "startup": startup, "scale": scale, "peaks": peaks,
           "exact": exact, "rings": rings, "scale-cell": scale_cell, "peaks-run": peaks_run,
           "exact-run": exact_run, "rings-run": rings_run, "exponential": exponential,
           "exponential-run": exponential_run, "outputs": outputs,
           "outputs-run": outputs_run, "elliptic": elliptic, "elliptic-run": elliptic_run}[args.mode]
    json.dump(run(args), sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
