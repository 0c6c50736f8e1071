"""Eigenbasis of -d^2/dx^2 on (0, L) with Dirichlet, Neumann, or impedance
(Robin) lateral conditions, plus quadrature transforms between grid samples
and modal coefficients, and the low cosine tables in which the inverse
solvers expand curves and impedances.

Conventions: uniform grid x_i = i*h with h = L/(N-1); all inner products are
trapezoid sums, and the stored modes are orthonormal with respect to that
discrete inner product (for sine/cosine bases this coincides with the
analytic normalization by exact trigonometric summation identities).  Each
basis also carries the exact x-derivatives of its modes on the grid: every
mode is a fixed combination of the closed-form eigenfamily, so its
derivative is the same combination of the family's derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

__all__ = [
    "LateralBC",
    "EigenBasis",
    "SpectralCoeffs",
    "build_basis",
    "analyze",
    "synthesize",
]

_KINDS = ("dirichlet", "neumann", "robin")


@dataclass(frozen=True)
class LateralBC:
    """Lateral boundary condition kind; robin_coeff is the impedance sigma in
    -phi'(0) + sigma phi(0) = 0, phi'(L) + sigma phi(L) = 0."""

    kind: str
    robin_coeff: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown lateral BC kind {self.kind!r}")
        if self.kind == "robin":
            if not (self.robin_coeff > 0.0 and math.isfinite(self.robin_coeff)):
                raise ValueError("robin_coeff must be positive and finite")


@dataclass
class EigenBasis:
    L: float
    bc: LateralBC
    J: int
    lambdas: np.ndarray  # (J,), nondecreasing
    grid: np.ndarray  # (N,)
    modes: np.ndarray  # (J, N), trapezoid-orthonormal rows
    weights: np.ndarray  # (N,) trapezoid weights
    dmodes: np.ndarray  # (J, N), exact x-derivatives of the modes' rows

    @property
    def N(self) -> int:
        return self.grid.size


@dataclass
class SpectralCoeffs:
    basis: EigenBasis
    c: np.ndarray

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        if self.c.shape != (self.basis.J,):
            raise ValueError("coefficient length does not match basis.J")


def _trapezoid_weights(N: int, h: float) -> np.ndarray:
    w = np.full(N, h)
    w[0] = w[-1] = 0.5 * h
    return w


def _cos_rows(x, L, modes):
    """Rows k < modes of cos(k pi x / L)."""
    return np.cos(np.outer(np.arange(int(modes)) * np.pi / L, x))


def _cos_tables(x, L, modes):
    """`_cos_rows` and their exact derivatives."""
    k = np.arange(int(modes)) * np.pi / L
    return _cos_rows(x, L, modes), -k[:, None] * np.sin(np.outer(k, x))


def _cos_projection(ph, w):
    """Least-squares coefficients of grid samples on the cosine rows ph under
    the trapezoid weights w, as a function of the samples; the rows' norms
    are formed once for any number of calls."""
    norms = (ph * ph * w).sum(axis=1)
    return lambda values: (ph * (w * values)).sum(axis=1) / norms


def _robin_char(k: float, sigma: float, L: float) -> float:
    """Characteristic equation for the Robin eigen-wavenumbers, scaled by
    (sigma^2 + k^2) to stay O(1) for large impedance."""
    return ((sigma - k) * (sigma + k) * math.sin(k * L) + 2.0 * sigma * k * math.cos(k * L)) / (
        sigma * sigma + k * k
    )


def _robin_wavenumbers(sigma: float, L: float, J: int) -> np.ndarray:
    """Roots k_j of the characteristic equation, one per interval
    ((j-1)pi/L, j pi/L)."""
    ks = np.empty(J)
    for j in range(1, J + 1):
        lo = (j - 1) * math.pi / L
        hi = j * math.pi / L
        if j == 1:
            lo = 1e-12 * math.pi / L
        try:
            k = brentq(_robin_char, lo, hi, args=(sigma, L), xtol=1e-15, rtol=8.9e-16)
        except ValueError as exc:
            raise RuntimeError(f"eigenvalue bracketing failed for robin mode {j}") from exc
        # one secant polish against the scaled characteristic, then verify
        dk = 1e-7 * max(k, 1.0)
        slope = (_robin_char(k + dk, sigma, L) - _robin_char(k - dk, sigma, L)) / (2.0 * dk)
        if slope != 0.0:
            k = k - _robin_char(k, sigma, L) / slope
        if abs(_robin_char(k, sigma, L)) > 1e-12:
            raise RuntimeError(f"characteristic residual too large for robin mode {j}")
        ks[j - 1] = k
    return ks


def _orthonormalize_rows(
    modes: np.ndarray, dmodes: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormalize mode rows in the weighted inner product, low modes
    first, so the leading modes are perturbed least; the derivative rows
    take the same (triangular) combination."""
    sq = np.sqrt(weights)
    q, r = np.linalg.qr((sq[:, None] * modes.T))
    sign = np.sign(np.diag(r))
    q = q * sign
    return (q / sq[:, None]).T, sign[:, None] * np.linalg.solve(r.T, dmodes)


def build_basis(L: float, bc: LateralBC, J: int, N: int) -> EigenBasis:
    """Eigenpairs of -d^2/dx^2 on (0, L) under the lateral condition bc.

    Dirichlet/Neumann are analytic sin/cos families; Robin eigenvalues come
    from the transcendental characteristic equation with bracketed roots.
    Requires N >= 4J so that the trapezoid transforms resolve every mode.
    """
    if J < 1:
        raise ValueError("J must be at least 1")
    if N < 4 * J:
        raise ValueError(f"resolution too low: need N >= 4J, got N={N}, J={J}")
    if not (L > 0.0 and math.isfinite(L)):
        raise ValueError("L must be positive")
    x = np.linspace(0.0, L, N)
    h = L / (N - 1)
    w = _trapezoid_weights(N, h)

    if bc.kind == "dirichlet":
        j = np.arange(1, J + 1)
        lambdas = (j * math.pi / L) ** 2
        jx = np.outer(j, x) * (math.pi / L)
        modes = math.sqrt(2.0 / L) * np.sin(jx)
        dmodes = math.sqrt(2.0 / L) * (j * math.pi / L)[:, None] * np.cos(jx)
    elif bc.kind == "neumann":
        j = np.arange(0, J)
        lambdas = (j * math.pi / L) ** 2
        jx = np.outer(j, x) * (math.pi / L)
        modes = math.sqrt(2.0 / L) * np.cos(jx)
        modes[0] = 1.0 / math.sqrt(L)
        dmodes = -math.sqrt(2.0 / L) * (j * math.pi / L)[:, None] * np.sin(jx)
    else:
        sigma = bc.robin_coeff
        ks = _robin_wavenumbers(sigma, L, J)
        lambdas = ks ** 2
        # phi_j = cos(k x) + (sigma/k) sin(k x) satisfies both lateral
        # conditions exactly
        kx = np.outer(ks, x)
        modes = np.cos(kx) + (sigma / ks)[:, None] * np.sin(kx)
        dmodes = -ks[:, None] * np.sin(kx) + sigma * np.cos(kx)
        norms = np.sqrt((modes * modes * w).sum(axis=1))
        modes /= norms[:, None]
        dmodes /= norms[:, None]
        modes, dmodes = _orthonormalize_rows(modes, dmodes, w)

    return EigenBasis(L=L, bc=bc, J=J, lambdas=lambdas, grid=x, modes=modes, weights=w,
                      dmodes=dmodes)


def analyze(samples: np.ndarray, basis: EigenBasis) -> SpectralCoeffs:
    """Trapezoid-quadrature modal coefficients c_j = int samples * phi_j dx."""
    s = np.asarray(samples, dtype=float)
    if s.shape != basis.grid.shape:
        raise ValueError(f"expected {basis.grid.shape[0]} samples, got {s.shape}")
    return SpectralCoeffs(basis=basis, c=basis.modes @ (basis.weights * s))


def synthesize(coeffs: SpectralCoeffs) -> np.ndarray:
    """Grid samples of sum_j c_j phi_j."""
    return coeffs.c @ coeffs.basis.modes
