"""Eigenbasis construction and quadrature transforms: closed-form spectra,
finite-difference eigenvalue oracles, orthonormality, and round trips."""

import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.special import roots_legendre

from fraccauchy.spectral import (
    EigenBasis,
    LateralBC,
    SpectralCoeffs,
    analyze,
    build_basis,
    synthesize,
)

# roots of (sigma^2-k^2) sin kL + 2 sigma k cos kL at L=1, sigma=1, squared;
# frozen from a 40-digit root solve of the characteristic equation
ROBIN_LAMBDAS_L1_S1 = (1.70705297555092248, 13.4923571465048423, 43.357221104937814)


def test_dirichlet_eigenvalues_exact():
    basis = build_basis(1.0, LateralBC("dirichlet"), 3, 16)
    assert np.allclose(basis.lambdas, [math.pi ** 2, 4 * math.pi ** 2, 9 * math.pi ** 2], rtol=1e-14)


def test_neumann_eigenvalues_exact():
    basis = build_basis(1.0, LateralBC("neumann"), 3, 16)
    assert basis.lambdas[0] == 0.0
    assert np.allclose(basis.lambdas, [0.0, math.pi ** 2, 4 * math.pi ** 2], rtol=1e-14)


def test_robin_eigenvalues_frozen():
    basis = build_basis(1.0, LateralBC("robin", 1.0), 3, 32)
    assert np.allclose(basis.lambdas, ROBIN_LAMBDAS_L1_S1, rtol=1e-12)


def _fd_robin_lambdas(sigma, L, J, n_cells):
    """P1 finite elements with lumped mass for -phi'' = lam phi and the
    impedance lateral conditions; symmetrized tridiagonal eigensolve."""
    h = L / n_cells
    n = n_cells + 1
    diag = np.full(n, 2.0 / h ** 2)
    diag[0] = diag[-1] = 2.0 / h ** 2 + 2.0 * sigma / h
    off = np.full(n - 1, -1.0 / h ** 2)
    off[0] = off[-1] = -math.sqrt(2.0) / h ** 2
    vals = eigh_tridiagonal(diag, off, select="i", select_range=(0, J - 1))[0]
    return vals


def test_robin_eigenvalues_fd_oracle():
    sigma, L, J = 2.5, 1.3, 5
    coarse = _fd_robin_lambdas(sigma, L, J, 2048)
    fine = _fd_robin_lambdas(sigma, L, J, 4096)
    richardson = (4.0 * fine - coarse) / 3.0
    basis = build_basis(L, LateralBC("robin", sigma), J, 64)
    assert np.allclose(basis.lambdas, richardson, rtol=1e-7)


@pytest.mark.parametrize(
    "bc",
    [LateralBC("dirichlet"), LateralBC("neumann"), LateralBC("robin", 1.0), LateralBC("robin", 37.0)],
)
def test_gram_identity(bc):
    basis = build_basis(1.0, bc, 64, 256)
    gram = basis.modes @ (basis.modes * basis.weights).T
    assert np.max(np.abs(gram - np.eye(64))) <= 1e-8


def test_mode_norms_unit():
    basis = build_basis(2.0, LateralBC("robin", 3.0), 16, 128)
    norms = np.sqrt(((basis.modes ** 2) * basis.weights).sum(axis=1))
    assert np.max(np.abs(norms - 1.0)) <= 1e-10


@pytest.mark.parametrize("bc", [LateralBC("dirichlet"), LateralBC("neumann"), LateralBC("robin", 1.0)])
def test_eigen_residual_second_order(bc):
    # interior second differences of each mode should reproduce -lambda phi
    # at O(h^2); measure the convergence order under grid refinement
    res = []
    for N in (81, 161, 321):
        basis = build_basis(1.0, bc, 8, N)
        h = basis.grid[1] - basis.grid[0]
        worst = 0.0
        for j in range(basis.J):
            if basis.lambdas[j] == 0.0:
                continue
            phi = basis.modes[j]
            d2 = (phi[:-2] - 2.0 * phi[1:-1] + phi[2:]) / h ** 2
            r = np.max(np.abs(d2 + basis.lambdas[j] * phi[1:-1])) / basis.lambdas[j]
            worst = max(worst, r)
        res.append(worst)
    orders = [math.log2(res[i] / res[i + 1]) for i in range(len(res) - 1)]
    assert min(orders) >= 1.9


DERIVATIVE_BCS = [LateralBC("dirichlet"), LateralBC("neumann"), LateralBC("robin", 1.0),
                  LateralBC("robin", 7.0)]


@pytest.mark.parametrize("J, N", [(4, 17), (24, 129)])
@pytest.mark.parametrize("bc", DERIVATIVE_BCS[1:], ids=["neumann", "robin1", "robin7"])
def test_mode_derivatives_meet_lateral_condition(bc, J, N):
    # -phi'(0) + sigma phi(0) = 0 and phi'(L) + sigma phi(L) = 0, sigma = 0
    # for Neumann walls
    basis = build_basis(1.0, bc, J, N)
    sigma = bc.robin_coeff if bc.kind == "robin" else 0.0
    left = -basis.dmodes[:, 0] + sigma * basis.modes[:, 0]
    right = basis.dmodes[:, -1] + sigma * basis.modes[:, -1]
    scale = np.max(np.abs(basis.dmodes)) + sigma * np.max(np.abs(basis.modes))
    assert np.max(np.abs(left)) <= 1e-12 * scale
    assert np.max(np.abs(right)) <= 1e-12 * scale


def _fourth_order_mismatch(bc, J, N):
    """Largest gap between the stored derivatives and fourth-order central
    differences of the modes at interior nodes, relative to max |phi'|."""
    basis = build_basis(1.0, bc, J, N)
    m = basis.modes
    h = basis.grid[1] - basis.grid[0]
    fd = (m[:, :-4] - 8.0 * m[:, 1:-3] + 8.0 * m[:, 3:-1] - m[:, 4:]) / (12.0 * h)
    return np.max(np.abs(fd - basis.dmodes[:, 2:-2])) / np.max(np.abs(basis.dmodes))


@pytest.mark.parametrize("J, N", [(4, 17), (24, 129)])
@pytest.mark.parametrize("bc", DERIVATIVE_BCS, ids=["dirichlet", "neumann", "robin1", "robin7"])
def test_mode_derivatives_match_fourth_order_differences(bc, J, N):
    # measured 0.0033-0.012 at these sizes, and 239-247x less at h / 4
    coarse = _fourth_order_mismatch(bc, J, N)
    fine = _fourth_order_mismatch(bc, J, 4 * N - 3)
    assert coarse <= 0.02
    assert fine < coarse / 100.0


def test_robin_approaches_dirichlet():
    robin = build_basis(1.0, LateralBC("robin", 1e4), 3, 64)
    dirich = build_basis(1.0, LateralBC("dirichlet"), 3, 64)
    assert np.all(np.abs(robin.lambdas / dirich.lambdas - 1.0) < 0.01)


@pytest.mark.parametrize("bc", [LateralBC("dirichlet"), LateralBC("robin", 1.0)])
def test_analyze_recovers_unit_mode(bc):
    basis = build_basis(1.0, bc, 12, 64)
    c = analyze(basis.modes[2], basis).c
    expected = np.zeros(12)
    expected[2] = 1.0
    assert np.max(np.abs(c - expected)) <= 1e-8


def test_analyze_zero():
    basis = build_basis(1.0, LateralBC("dirichlet"), 4, 16)
    assert np.all(analyze(np.zeros(16), basis).c == 0.0)


def test_analyze_polynomial_against_gauss_legendre():
    # trapezoid coefficients of a smooth non-periodic function vs an
    # independent high-order quadrature of the same integrals
    J = 64
    basis = build_basis(1.0, LateralBC("dirichlet"), J, 2 ** 17 + 1)
    f = 1.0 + basis.grid + basis.grid ** 2
    c = analyze(f, basis).c
    nodes, wts = roots_legendre(640)
    xg = 0.5 * (nodes + 1.0)
    wg = 0.5 * wts
    fg = 1.0 + xg + xg ** 2
    jj = np.arange(1, J + 1)
    phi_g = math.sqrt(2.0) * np.sin(np.outer(jj, xg) * math.pi)
    oracle = phi_g @ (wg * fg)
    assert np.max(np.abs(c - oracle)) <= 1e-8


@pytest.mark.parametrize("bc", [LateralBC("dirichlet"), LateralBC("neumann"), LateralBC("robin", 2.0)])
def test_round_trip_random_coefficients(bc):
    rng = np.random.default_rng(7)
    basis = build_basis(1.0, bc, 32, 256)
    c = rng.standard_normal(32)
    back = analyze(synthesize(SpectralCoeffs(basis, c)), basis).c
    assert np.max(np.abs(back - c)) <= 1e-8


def test_synthesize_unit_coordinate():
    basis = build_basis(1.0, LateralBC("neumann"), 6, 48)
    c = np.zeros(6)
    c[1] = 1.0
    assert np.allclose(synthesize(SpectralCoeffs(basis, c)), basis.modes[1])


def test_resolution_rule_enforced():
    with pytest.raises(ValueError):
        build_basis(1.0, LateralBC("dirichlet"), 16, 63)
    with pytest.raises(ValueError):
        build_basis(1.0, LateralBC("dirichlet"), 0, 64)


def test_sample_length_mismatch():
    basis = build_basis(1.0, LateralBC("dirichlet"), 4, 16)
    with pytest.raises(ValueError):
        analyze(np.zeros(17), basis)


def test_bad_bc_rejected():
    with pytest.raises(ValueError):
        LateralBC("periodic")
    with pytest.raises(ValueError):
        LateralBC("robin", 0.0)
    with pytest.raises(ValueError):
        LateralBC("robin", float("inf"))
