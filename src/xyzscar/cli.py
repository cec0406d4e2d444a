"""Command-line frontend for the package.

Subcommands map one-to-one onto the library surface:

  scar-verify   eigenstate check of a scar (per-site residuals + exact ED)
  dispersion    transverse spin-wave dispersion over the Brillouin zone
  contrast-sw   spin-wave contrast for any of the three helix families
  contrast-ed   exact contrast on a small periodic ring
  ll-evolve     classical Landau-Lifshitz trajectory of a detuned scar
  phase-scan    two-sided stability classification over a (kappa, lambda) grid
  rates         asymptotic decay rates of the detuned transverse helix

File-writing subcommands emit CSV plus a JSON sidecar echoing the full
parameter record (ll-evolve's energy series is the one CSV without one), all
through one writer, _write. So any run can be reproduced from its artifacts
alone, and identical configs produce byte-identical outputs. Angles accept
pi-rational strings ("pi/3", "2pi/5") as well as decimals. Exit codes:
0 success, 1 numeric failure (a floating-point overflow, invalid operation
or division by zero included) or a run out of memory, 2 usage error.
phase-scan runs one thread per CPU this process may run on;
`taskset -c 0 xyzscar phase-scan ...` runs it on one.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import bogoliubov as bg
from . import lattice_classical, rotframe, spinwave
from .scars import (
    DETUNED_COUPLING,
    EXACT_RESIDUAL_TOL,
    ScarParams,
    XYZCouplings,
    gz_condition_residuals,
    parent_couplings,
    scar_family,
    scar_texture,
    write_csv,
    write_sidecar,
    _require_commensurate,
    _twice_spin,
)

_ANGLE_RE = re.compile(r"^([+-]?\d*\.?\d*)\s*\*?\s*pi\s*(?:/\s*(\d*\.?\d+))?$")


class UsageError(ValueError):
    """Invalid flag combination; maps to exit code 2 like argparse errors."""


def parse_angle(text: str) -> float:
    """Angle as a decimal ("0.785") or a pi-rational string ("pi/4", "2pi/5")."""
    s = str(text).strip().lower()
    match = _ANGLE_RE.match(s)
    if match:
        coeff_text = match.group(1)
        if coeff_text in ("", "+"):
            coeff = 1.0
        elif coeff_text == "-":
            coeff = -1.0
        else:
            coeff = float(coeff_text)
        denom = float(match.group(2)) if match.group(2) else 1.0
        if denom == 0.0:
            raise ValueError(f"angle {text!r} divides by zero")
        return coeff * math.pi / denom
    try:
        return float(s)
    except ValueError:
        raise ValueError(f"cannot parse angle {text!r}; use a decimal or 'pi/3' style")


def parse_int_range(text: str) -> list[int]:
    """Integer list from "7", "7,10,20" or an inclusive "7:80" range."""
    s = str(text).strip()
    if ":" in s:
        lo, hi = s.split(":", 1)
        lo_i, hi_i = int(lo), int(hi)
        if hi_i < lo_i:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo_i, hi_i + 1))
    return [int(part) for part in s.split(",")]


def parse_float_grid(text: str) -> list[float]:
    """Float list from "0.8", "0.2,0.5" or a "min:max:count" grid."""
    s = str(text).strip()
    if ":" in s:
        parts = s.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid {text!r} must be min:max:count")
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ValueError(f"grid {text!r} needs at least one point")
        return [float(v) for v in np.linspace(lo, hi, count)]
    return [float(part) for part in s.split(",")]


def _write(args, name: str, header, columns, kind: str | None = None, **fields) -> None:
    """Write one table as CSV to --out/name and print its path. Given a kind,
    also write the JSON sidecar {kind, params, **fields}, params being the
    run's parameter record; every file a subcommand writes goes through here."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / name
    write_csv(path, header, columns)
    if kind is not None:
        write_sidecar(path, kind, _params_record(args), **fields)
    print(f"wrote {path}")


def _params_record(args) -> dict:
    record = {}
    for key, value in sorted(vars(args).items()):
        if key == "func":
            continue
        if isinstance(value, Path):
            value = str(value)
        record[key] = value
    return record


def _scar_params(args) -> ScarParams:
    """The CLI's one ScarParams. --theta spells gamma = cos(theta); contrast-sw's
    --family spells kappa = 0 (transverse) or gamma = 0 (gtsh) or 1 (glsh)."""
    kappa, gamma = args.kappa, getattr(args, "gamma", None)
    family = getattr(args, "family", None)
    if family == "transverse":
        kappa = 0.0
    elif family is not None:
        gamma = 0.0 if family == "gtsh" else 1.0
    theta = getattr(args, "theta", None)
    if (gamma is None) == (theta is None):
        raise UsageError("give exactly one of --gamma or --theta")
    if theta is not None:
        if not math.isfinite(theta):
            raise ValueError(f"theta must be finite, got {theta}")
        gamma = math.cos(theta)
    M, q = args.M, getattr(args, "q", None)
    if (M is None) == (q is None):
        raise UsageError("give exactly one of --M or --q")
    shape = dict(gamma=gamma, S=args.S, phi=getattr(args, "phi", 0.0))
    if M is not None:
        return ScarParams.commensurate(kappa, M, args.L, **shape)
    return ScarParams(kappa=kappa, q=q, L=args.L, **shape)


def cmd_scar_verify(args) -> int:
    from . import ed_oracle  # loads scipy.sparse, as only contrast-ed does too

    p = _scar_params(args)
    parent = parent_couplings(p.kappa, p.q)
    J = XYZCouplings(
        Jx=parent.Jx if args.Jx is None else args.Jx,
        Jy=parent.Jy if args.Jy is None else args.Jy,
        Jz=parent.Jz if args.Jz is None else args.Jz,
    )
    texture = scar_texture(p)
    r1, r2 = gz_condition_residuals(texture, J)
    print("site  r1            r2")
    for j in range(p.L):
        print(f"{j:4d}  {r1[j]:.6e}  {r2[j]:.6e}")
    ok = bool(max(r1.max(), r2.max()) <= EXACT_RESIDUAL_TOL)

    try:
        exact = ed_oracle.eigenstate_residual(p, J=J)
    except ValueError as exc:
        print(f"exact residual skipped: {exc}")
    else:
        dim = (_twice_spin(p.S) + 1) ** p.L
        print(f"exact eigenstate residual: {exact:.6e} (dimension {dim})")
        ok = ok and exact <= EXACT_RESIDUAL_TOL
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_dispersion(args) -> int:
    k = bg._momentum_grid(args.n_k)
    disp = bg.transverse_dispersion(k, args.q, args.theta, args.dJz, S=args.S)
    columns = [k, disp.omega_sw.real, disp.omega_sw.imag, disp.w_tilde.real, disp.w_tilde.imag]
    _write(args, "dispersion.csv", ["k", "omega_re", "omega_im", "wtilde_re", "wtilde_im"],
           columns, "dispersion")
    return 0


def cmd_contrast_sw(args) -> int:
    # the flags each --family spelling reads; any other given flag exits 2
    geometry = ("--theta", "--q") if args.family == "transverse" else ("--kappa", "--M")
    detuning = "--d" + DETUNED_COUPLING[args.family]
    for flag, value in (("--dJx", args.dJx), ("--dJz", args.dJz)):
        if flag != detuning and value != 0.0:
            raise UsageError(f"{args.family} family takes no {flag} detuning")
    given = {"--theta": args.theta, "--q": args.q, "--kappa": args.kappa, "--M": args.M}
    if any(given[flag] is None for flag in geometry):
        raise UsageError(f"{args.family} family needs {geometry[0]} and {geometry[1]}")
    for flag, value in given.items():
        if flag not in geometry and value is not None:
            raise UsageError(f"{args.family} family takes no {flag}")
    p = _scar_params(args)
    family = scar_family(p.kappa, p.gamma)
    if family != args.family:
        raise UsageError(f"--kappa {p.kappa} makes a {family} scar, not {args.family}")
    _require_commensurate(p)
    frame = rotframe.scar_frame(p, getattr(args, detuning[2:]))
    coeffs = spinwave.sw_coefficients(frame, args.S)
    series = spinwave.contrast_sw(coeffs, args.S, T=args.T, n_samples=args.n_samples)
    return _save_series(args, series, "contrast_sw.csv")


def cmd_contrast_ed(args) -> int:
    from . import ed_oracle

    p = _scar_params(args)
    series = ed_oracle.contrast_exact(p, args.delta, T=args.T, n_samples=args.n_samples)
    return _save_series(args, series, "contrast_ed.csv")


def _save_series(args, series, name: str) -> int:
    """Write a contrast series as (t, D, C, f) rows, C the spin contrast where
    --theta gives the polar angle (NaN otherwise). The route's measured
    pseudo-unitarity defect, norm drift or Hermiticity defect goes to the
    sidecar under "diagnostics"."""
    if args.theta is not None:
        C = spinwave.spin_contrast(series.D, args.theta)
    else:
        C = np.full_like(series.D, np.nan)
    health = ("pseudo_unitarity_defect", "max_norm_drift", "hermiticity_defect")
    diagnostics = {k: getattr(series, k) for k in health if getattr(series, k) is not None}
    extra = {"diagnostics": diagnostics} if diagnostics else {}
    _write(args, name, ["t", "D", "C", "f"], [series.times, series.D, C, series.f],
           "contrast_series", n_samples=len(series.times), **extra)
    return 0


def cmd_ll_evolve(args) -> int:
    p = _scar_params(args)
    J = parent_couplings(p.kappa, p.q).detuned(dJx=args.dJx, dJz=args.dJz)
    trajectory = lattice_classical.ll_evolve(
        scar_texture(p), J, S=args.S, dt=args.dt, T=args.T, max_samples=args.max_samples
    )
    n_t, L, _ = trajectory.textures.shape
    omega = trajectory.textures.reshape(n_t * L, 3)
    diagnostics = {
        "dt": trajectory.dt,
        "max_energy_drift": trajectory.max_energy_drift,
        "max_norm_drift": trajectory.max_norm_drift,
    }
    _write(args, "ll_trajectory.csv", ["t", "j", "Ox", "Oy", "Oz"],
           [np.repeat(trajectory.times, L), np.tile(np.arange(L), n_t), *omega.T],
           "classical_trajectory", diagnostics=diagnostics)
    _write(args, "ll_energy.csv", ["t", "energy"], [trajectory.times, trajectory.energy])
    return 0


def cmd_phase_scan(args) -> int:
    records = bg.phase_scan(
        args.kappa,
        args.lambdas,
        delta=args.dJ,
        family=args.family,
        S=args.S,
        n_k=args.n_k,
    )
    counts: dict[str, int] = {}
    for r in records:
        counts[r["class"]] = counts.get(r["class"], 0) + 1
    summary = "  ".join(f"{cls}: {n}" for cls, n in sorted(counts.items()))
    print(f"{len(records)} cells  {summary}")
    header = ["kappa", "lambda", "q", "class", "lyap_minus", "lyap_plus"]
    _write(args, "phase_scan.csv", header, [[r[key] for r in records] for key in header],
           "phase_scan", diagnostics=_scan_margins(records, args.S))
    return 0


def _scan_margins(records, S: float) -> dict:
    """How far the scan's rates landed from the class threshold: the smallest
    U rate and the largest S rate over STABILITY_THRESHOLD * S (None when the
    scan has no rate of that class)."""
    rates = {"U": [], "S": []}
    for r in records:
        minus, plus = r["class"].split("-")
        rates[minus].append(r["lyap_minus"])
        rates[plus].append(r["lyap_plus"])
    thr = bg.STABILITY_THRESHOLD * S
    return {
        "min_unstable_rate_over_threshold": min(rates["U"]) / thr if rates["U"] else None,
        "max_stable_rate_over_threshold": max(rates["S"]) / thr if rates["S"] else None,
    }


def cmd_rates(args) -> int:
    result = bg.rates(args.q, args.theta, args.dJz, S=args.S)
    print(f"branch = {result.branch}")
    names = ("gamma1", "gamma2_exact", "gamma2_perturbative")
    values = [getattr(result, name) for name in names]
    for name, value in zip(names, values):
        if value is not None:
            print(f"{name} = {value:.3e}")
    columns = [[result.branch]] + [[math.nan if v is None else v] for v in values]
    _write(args, "rates.csv", ["branch", *names], columns, "rates")
    return 0


def _add_out(sub) -> None:
    sub.add_argument("--out", default=".", help="output directory (default: .)")


def _add_scar_geometry(sub, require_gamma=True, require_M=True) -> None:
    sub.add_argument("--kappa", type=float, required=True, help="elliptic modulus in [0, 1)")
    sub.add_argument("--M", type=int, required=require_M, help="winding number (q = 4MK/L)")
    sub.add_argument("--L", type=int, required=True, help="ring size")
    if require_gamma:
        sub.add_argument("--gamma", type=float, required=True, help="texture parameter in [0, 1]")
    sub.add_argument("--S", type=float, default=1.0, help="spin per site (default 1)")
    sub.add_argument("--phi", type=parse_angle, default=0.0, help="texture phase offset")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xyzscar",
        description="Scarred XYZ chains: textures, stability theory, exact checks.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub = subparsers.add_parser("scar-verify", help="check a scar against its parent ring")
    _add_scar_geometry(sub, require_M=False)
    sub.add_argument("--q", type=parse_angle, help="wavenumber (alternative to --M)")
    sub.add_argument("--Jx", type=float, help="override parent Jx")
    sub.add_argument("--Jy", type=float, help="override parent Jy")
    sub.add_argument("--Jz", type=float, help="override parent Jz")
    sub.set_defaults(func=cmd_scar_verify)

    sub = subparsers.add_parser("dispersion", help="transverse helix spin-wave dispersion")
    sub.add_argument("--q", type=parse_angle, required=True)
    sub.add_argument("--theta", type=parse_angle, required=True)
    sub.add_argument("--dJz", type=float, required=True)
    sub.add_argument("--S", type=float, default=1.0)
    sub.add_argument("--n-k", type=int, default=512, help="momentum points (default 512)")
    _add_out(sub)
    sub.set_defaults(func=cmd_dispersion)

    sub = subparsers.add_parser("contrast-sw", help="spin-wave contrast of a detuned helix")
    sub.add_argument("--family", choices=("transverse", "gtsh", "glsh"), required=True)
    sub.add_argument("--theta", type=parse_angle, help="transverse polar angle")
    sub.add_argument("--q", type=parse_angle, help="transverse wavenumber")
    sub.add_argument("--kappa", type=float, help="elliptic modulus (gtsh/glsh)")
    sub.add_argument("--M", type=int, help="winding number (gtsh/glsh)")
    sub.add_argument("--L", type=int, required=True)
    sub.add_argument("--dJz", type=float, default=0.0)
    sub.add_argument("--dJx", type=float, default=0.0)
    sub.add_argument("--S", type=float, default=1.0)
    sub.add_argument("--T", type=float, default=30.0)
    sub.add_argument("--n-samples", type=int, default=301)
    _add_out(sub)
    sub.set_defaults(func=cmd_contrast_sw)

    sub = subparsers.add_parser("contrast-ed", help="exact small-ring contrast")
    _add_scar_geometry(sub, require_gamma=False)
    sub.add_argument("--gamma", type=float, help="texture parameter (or give --theta)")
    sub.add_argument("--theta", type=parse_angle, help="transverse polar angle (gamma = cos theta)")
    sub.add_argument("--delta", type=float, required=True, help="coupling detuning")
    sub.add_argument("--T", type=float, default=10.0)
    sub.add_argument("--n-samples", type=int, default=201)
    _add_out(sub)
    sub.set_defaults(func=cmd_contrast_ed)

    sub = subparsers.add_parser("ll-evolve", help="classical trajectory of a detuned scar")
    _add_scar_geometry(sub)
    sub.add_argument("--dJx", type=float, default=0.0)
    sub.add_argument("--dJz", type=float, default=0.0)
    sub.add_argument("--T", type=float, default=10.0, help="final time (default 10)")
    sub.add_argument("--dt", type=float, default=None,
                     help="upper bound on the RK4 step; the run takes the fewest "
                          "equal steps no longer than it (default 5e-3/S, or "
                          "T/(max-samples - 1) where that is shorter)")
    sub.add_argument("--max-samples", type=int, default=1001,
                     help="keep at most this many snapshots after t = 0 (default 1001)")
    _add_out(sub)
    sub.set_defaults(func=cmd_ll_evolve)

    sub = subparsers.add_parser("phase-scan", help="two-sided stability classification grid")
    sub.add_argument("--family", choices=("gtsh", "glsh"), default="glsh")
    sub.add_argument("--lambda", dest="lambdas", type=parse_int_range, required=True,
                     help="unit cells per winding: '7', '7,10' or '7:80'")
    sub.add_argument("--kappa", type=parse_float_grid, default="0.2:0.96:20",
                     help="kappa grid: '0.8', '0.2,0.5' or 'min:max:count'")
    sub.add_argument("--dJ", type=float, default=0.01)
    sub.add_argument("--S", type=float, default=1.0)
    sub.add_argument("--n-k", type=int, default=400)
    _add_out(sub)
    sub.set_defaults(func=cmd_phase_scan)

    sub = subparsers.add_parser("rates", help="asymptotic decay rates, transverse helix")
    sub.add_argument("--q", type=parse_angle, required=True)
    sub.add_argument("--theta", type=parse_angle, required=True)
    sub.add_argument("--dJz", type=float, required=True)
    sub.add_argument("--S", type=float, default=1.0)
    _add_out(sub)
    sub.set_defaults(func=cmd_rates)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # an overflow, invalid operation or division by zero anywhere in the
        # run is a numeric failure, reported like the others
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except OSError as exc:
        context = getattr(exc, "filename", None)
        print(f"error: {context or ''}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
