"""Jacobi elliptic functions and complete integrals built on the arithmetic-geometric mean.

All routines take the elliptic modulus ``kappa`` (not the parameter
m = kappa**2) and accept scalar or array arguments ``u``. One cached AGM
chain per modulus, stopped once c_n is within 2^-52 a_n (at most 10 entries),
gives K, E = K (1 - sum 2^(n-1) c_n^2) to a few ulps of scipy's ellipe, and
one descending Landen recursion on the real line (A&S 16.4.3): after
reduction modulo the period 4K it yields the amplitude, hence sn/cn/dn, and
the angles phi_n whose sum Z = sum c_n sin(phi_n) is the Jacobi zeta
function, so eps = (E/K) u + Z (A&S 17.6.10) needs no quadrature.

The kappa = 1 boundary degenerates to hyperbolic functions and is handled in
closed form; complete integrals reject kappa >= 1 where they diverge.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# Stop the AGM once c_n is at most this multiple of a_n. 2^-52 a_n is at
# least one ulp of a_n, and once a_n and b_n are an ulp apart the next
# c_n = (a_n - b_n)/2 is within it, so the chain always ends here; a tighter
# bound would never be met and would only add spurious terms to E. The
# convergence is quadratic: the chain (a_0 included) is at most 8 long for
# kappa <= 1 - 1e-6 and 10 long for every kappa < 1.
_AGM_RELTOL = 2.0**-52
_AGM_MAXITER = 64


def _check_modulus(kappa: float, allow_one: bool) -> float:
    kappa = float(kappa)
    if not math.isfinite(kappa) or kappa < 0.0:
        raise ValueError(f"modulus must satisfy kappa >= 0, got {kappa}")
    if kappa > 1.0 or (kappa == 1.0 and not allow_one):
        raise ValueError(f"modulus out of range: kappa = {kappa}")
    return kappa


def _check_argument(u) -> np.ndarray:
    u_arr = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u_arr)):
        raise ValueError("argument u must be finite")
    return u_arr


@functools.lru_cache(maxsize=512)
def _agm_chain(kappa: float) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
    """AGM sequences (a_n, b_n, c_n) from a0 = 1, b0 = kappa', c0 = kappa."""
    a = 1.0
    b = math.sqrt((1.0 - kappa) * (1.0 + kappa))
    c = kappa
    aa, bb, cc = [a], [b], [c]
    while abs(c) > _AGM_RELTOL * a and len(aa) < _AGM_MAXITER:
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        aa.append(a)
        bb.append(b)
        cc.append(c)
    return tuple(aa), tuple(bb), tuple(cc)


def complete_K(kappa: float) -> float:
    """Complete elliptic integral of the first kind K(kappa).

    Parameters
    ----------
    kappa : float
        Modulus, 0 <= kappa < 1.

    Returns
    -------
    float
        K(kappa) = integral of dt / sqrt(1 - kappa^2 sin^2 t) over [0, pi/2],
        computed as pi / (2 * agm(1, kappa')). Relative accuracy ~1e-15.
    """
    kappa = _check_modulus(kappa, allow_one=False)
    aa, _, _ = _agm_chain(kappa)
    return math.pi / (2.0 * aa[-1])


def complete_E(kappa: float) -> float:
    """Complete elliptic integral of the second kind E(kappa).

    Uses the AGM identity E = K * (1 - sum_n 2^(n-1) c_n^2), sharing the
    chain with :func:`complete_K`.
    """
    kappa = _check_modulus(kappa, allow_one=False)
    aa, _, cc = _agm_chain(kappa)
    s = 0.0
    for n, c in enumerate(cc):
        s += 2.0 ** (n - 1) * c * c
    return math.pi / (2.0 * aa[-1]) * (1.0 - s)


def _landen(u: np.ndarray, kappa: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """Landen descent of u modulo the period 4K, which keeps the start angle small.

    Returns (cycles, u_red, am(u_red), sines) with u = u_red + 4K cycles,
    |u_red| <= 2K, and sines = [sin(phi_N), ..., sin(phi_1)], smallest terms
    first; sum_n c_n sin(phi_n) is the Jacobi zeta Z(u_red). 0 < kappa < 1.
    """
    aa, _, cc = _agm_chain(kappa)
    K = complete_K(kappa)
    cycles = np.round(u / (4.0 * K))
    u_red = u - (4.0 * K) * cycles
    nlast = len(aa) - 1
    phi = (2.0**nlast * aa[nlast]) * u_red
    sines = []
    for n in range(nlast, 0, -1):
        sines.append(np.sin(phi))
        ratio = np.clip(cc[n] / aa[n] * sines[-1], -1.0, 1.0)
        phi = 0.5 * (phi + np.arcsin(ratio))
    return cycles, u_red, phi, sines


def _sncndn_array(u: np.ndarray, kappa: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if kappa == 0.0:
        return np.sin(u), np.cos(u), np.ones_like(u)
    if kappa == 1.0:
        sech = 1.0 / np.cosh(u)
        return np.tanh(u), sech, sech.copy()
    phi = _landen(u, kappa)[2]
    sn = np.sin(phi)
    cn = np.cos(phi)
    # dn = sqrt(cn^2 + kappa'^2 sn^2) is cancellation-free and strictly
    # positive, unlike the textbook ratio formula which is 0/0 at u = K.
    dn = np.sqrt(cn * cn + (1.0 - kappa * kappa) * sn * sn)
    return sn, cn, dn


def jacobi_sncndn(u, kappa: float):
    """Jacobi sn, cn, dn at real argument u and modulus kappa in [0, 1].

    Parameters
    ----------
    u : array_like
        Real argument(s).
    kappa : float
        Modulus. kappa = 0 gives circular functions, kappa = 1 hyperbolic.

    Returns
    -------
    (sn, cn, dn)
        Arrays with the shape of ``u`` (floats for scalar input). Absolute
        accuracy ~1e-13 on the real line after periodic reduction.
    """
    kappa = _check_modulus(kappa, allow_one=True)
    u_arr = _check_argument(u)
    sn, cn, dn = _sncndn_array(u_arr, kappa)
    if np.isscalar(u) or u_arr.ndim == 0:
        return float(sn), float(cn), float(dn)
    return sn, cn, dn


def jacobi_am(u, kappa: float):
    """Continuous Jacobi amplitude am(u, kappa) on the real line.

    Satisfies am(u + 4K) = am(u) + 2*pi with no branch jumps, am(0) = 0 and
    am(K) = pi/2. For kappa = 1 this is the Gudermannian arcsin(tanh u).
    """
    kappa = _check_modulus(kappa, allow_one=True)
    u_arr = _check_argument(u)
    if kappa == 0.0:
        out = u_arr.copy()
    elif kappa == 1.0:
        out = np.arcsin(np.tanh(u_arr))
    else:
        cycles, _, phi, _ = _landen(u_arr, kappa)
        out = phi + (2.0 * math.pi) * cycles
    if np.isscalar(u) or u_arr.ndim == 0:
        return float(out)
    return out


def jacobi_epsilon(u, kappa: float):
    """Jacobi epsilon function eps(u, kappa) = integral of dn^2 from 0 to u.

    From the Landen descent of jacobi_am: eps(u) = 4E cycles + (E/K) u_red
    + Z(u_red), with Z the Jacobi zeta sum c_n sin(phi_n). eps(K) = E(kappa).
    Within 1e-14 max(1, |eps|) of scipy's ellipeinc(am(u), kappa^2) for
    |u| <= 10K and kappa up to 1 - 1e-9.
    """
    kappa = _check_modulus(kappa, allow_one=True)
    u_arr = _check_argument(u)
    if kappa == 0.0:
        out = u_arr.copy()
    elif kappa == 1.0:
        out = np.tanh(u_arr)
    else:
        cycles, u_red, _, sines = _landen(u_arr, kappa)
        E = complete_E(kappa)
        zeta = sum(c * s for c, s in zip(reversed(_agm_chain(kappa)[2]), sines))
        out = (4.0 * E) * cycles + (E / complete_K(kappa)) * u_red + zeta
    if np.isscalar(u) or u_arr.ndim == 0:
        return float(out)
    return out
