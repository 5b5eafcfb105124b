"""Exact spectral ground truth on intervals and rectangles.

Eigenpairs of -Δ with Dirichlet, Neumann or Robin conditions are available in
closed form (Robin frequencies via bracketed bisection of the transcendental
branch equation), which makes the solution operator diagonal and covariance
values computable to certified truncation tails.  These quantities are the
independent oracle against which the finite element path is tested.  The
bisection is scipy.optimize's and the tail integrals are scipy.integrate's
quad; each is imported by the function that calls it, so importing this
module loads neither.

Sobolev norms here are the spectrally defined ones, with weights (1 + mu_k)^s
in the eigenbasis.  On the model domains they are equivalent to the standard
norms; all internal comparisons use this one fixed convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .fem import DIRICHLET, NEUMANN, BoundaryCondition


@dataclass(frozen=True)
class Interval:
    a: float
    b: float

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError(f"interval requires a < b, got ({self.a}, {self.b})")

    dim = 1

    @property
    def length(self) -> float:
        return self.b - self.a


@dataclass(frozen=True)
class Rectangle:
    lx: float
    ly: float

    def __post_init__(self):
        if self.lx <= 0 or self.ly <= 0:
            raise ValueError(f"rectangle sides must be positive, got ({self.lx}, {self.ly})")

    dim = 2

    @property
    def measure(self) -> float:
        return self.lx * self.ly


ModelDomain = Interval | Rectangle


class TruncatedValue(NamedTuple):
    """A partial series value together with a rigorous bound on its tail."""

    value: float
    tail_bound: float


# -- 1D eigenpairs -----------------------------------------------------------


@dataclass(frozen=True)
class IntervalEigenBasis:
    """Modes e_k(x) = A_k cos(w_k (x-a)) + B_k sin(w_k (x-a)), L2-orthonormal."""

    domain: Interval
    bc: BoundaryCondition
    mu: np.ndarray
    omega: np.ndarray
    amp_cos: np.ndarray
    amp_sin: np.ndarray

    @property
    def count(self) -> int:
        return self.mu.size

    def evaluate(self, points, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Mode values, shape (stop - start, n_points)."""
        x = np.asarray(points, dtype=np.float64).reshape(-1) - self.domain.a
        sl = slice(start, stop)
        arg = self.omega[sl, None] * x[None, :]
        # Dirichlet and Neumann modes have an all-zero sine or cosine half;
        # dropping it leaves every value inside the domain unchanged.
        if self.bc.kind == NEUMANN:
            return self.amp_cos[sl, None] * np.cos(arg)
        if self.bc.kind == DIRICHLET:
            return self.amp_sin[sl, None] * np.sin(arg)
        return self.amp_cos[sl, None] * np.cos(arg) + self.amp_sin[sl, None] * np.sin(arg)

    def evaluate_deriv(self, points, start: int = 0, stop: int | None = None) -> np.ndarray:
        """First derivatives of the modes, shape (stop - start, n_points)."""
        x = np.asarray(points, dtype=np.float64).reshape(-1) - self.domain.a
        sl = slice(start, stop)
        arg = self.omega[sl, None] * x[None, :]
        w = self.omega[sl, None]
        return -self.amp_cos[sl, None] * w * np.sin(arg) + self.amp_sin[sl, None] * w * np.cos(arg)

    def sup_sq_bound(self) -> float:
        """Upper bound for sup_k ||e_k||_inf^2 over ALL modes, included or not."""
        amp_sq = self.amp_cos**2 + self.amp_sin**2
        L = self.domain.length
        # Beyond the computed modes the amplitude tends to 2/L; the 3/L margin
        # dominates the normalization wobble of any remaining low Robin mode.
        return float(max(amp_sq.max(initial=0.0), 3.0 / L))


def _robin_branch_equation(beta: float, L: float) -> Callable[[float], float]:
    # Polynomial form of tan(wL) = 2 b w / (w^2 - b^2); no poles, one root
    # per branch interval ((k-1)pi/L, k pi/L).
    def g(w: float) -> float:
        return (beta * beta - w * w) * np.sin(w * L) + 2.0 * beta * w * np.cos(w * L)

    return g


def _robin_frequencies(beta: float, L: float, count: int) -> np.ndarray:
    from scipy.optimize import bisect  # here, not at module level: scipy.optimize adds ~17 MiB RSS

    g = _robin_branch_equation(beta, L)
    roots = np.empty(count)
    step = np.pi / L
    for k in range(1, count + 1):
        lo = (k - 1) * step + (1e-9 * step if k == 1 else 0.0)
        hi = k * step
        if g(lo) == 0.0:
            roots[k - 1] = lo
            continue
        if g(lo) * g(hi) > 0:
            raise RuntimeError(f"no sign change when bracketing Robin root in [{lo}, {hi}]")
        roots[k - 1] = bisect(g, lo, hi, xtol=1e-12)
    return roots


def _interval_eigenbasis(domain: Interval, bc: BoundaryCondition, count: int) -> IntervalEigenBasis:
    L = domain.length
    if bc.kind == DIRICHLET:
        k = np.arange(1, count + 1)
        omega = k * np.pi / L
        A = np.zeros(count)
        B = np.full(count, np.sqrt(2.0 / L))
    elif bc.kind == NEUMANN:
        k = np.arange(count)
        omega = k * np.pi / L
        A = np.full(count, np.sqrt(2.0 / L))
        A[0] = np.sqrt(1.0 / L)
        B = np.zeros(count)
    else:
        beta = bc.beta
        omega = _robin_frequencies(beta, L, count)
        q = beta / omega
        # || cos(wx) + q sin(wx) ||^2 on (0, L), by the exact antiderivative.
        s2 = np.sin(2.0 * omega * L) / (4.0 * omega)
        cross = np.sin(omega * L) ** 2 / omega
        norm_sq = L / 2.0 + s2 + q * cross + q * q * (L / 2.0 - s2)
        c = 1.0 / np.sqrt(norm_sq)
        A = c
        B = c * q
    return IntervalEigenBasis(domain, bc, omega**2, omega, A, B)


# -- 2D eigenpairs (tensor products) ------------------------------------------


@dataclass(frozen=True)
class RectangleEigenBasis:
    """Tensor-product modes e(x, y) = ex_i(x) ey_j(y), mu = mu^x_i + mu^y_j."""

    domain: Rectangle
    bc: BoundaryCondition
    mu: np.ndarray
    ix: np.ndarray
    iy: np.ndarray
    basis_x: IntervalEigenBasis
    basis_y: IntervalEigenBasis

    @property
    def count(self) -> int:
        return self.mu.size

    def evaluate(self, points, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Mode values, shape (stop - start, n_points).

        The 1D modes are evaluated once per distinct coordinate and then
        gathered, which gives the same values as evaluating them at every
        point: quadrature and mesh points share few distinct coordinates.
        Each axis evaluates only the range of 1D modes that modes
        start..stop span, and gathers its factors at the points with one
        np.take along the points' axis (about 3x faster than fancy indexing
        there for 32 modes at 4,225 nodes).  np.unique still runs per call.
        """
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        sl = slice(start, stop)
        factors = []
        for basis, idx, coords in zip((self.basis_x, self.basis_y), (self.ix[sl], self.iy[sl]), pts.T):
            distinct, inverse = np.unique(coords, return_inverse=True)
            lo, hi = (idx.min(), idx.max() + 1) if idx.size else (0, 0)
            factors.append(np.take(basis.evaluate(distinct, lo, hi)[idx - lo], inverse, axis=1))
        return factors[0] * factors[1]

    def sup_sq_bound(self) -> float:
        return self.basis_x.sup_sq_bound() * self.basis_y.sup_sq_bound()


def _count_1d_upto(L: float, bc: BoundaryCondition, R: float) -> int:
    # Number of 1D modes with eigenvalue <= R (upper estimate for Robin).
    n = int(np.floor(np.sqrt(max(R, 0.0)) * L / np.pi)) + 2
    if bc.kind == DIRICHLET:
        return max(n, 1)
    return max(n + 1, 1)


def _rectangle_eigenbasis(domain: Rectangle, bc: BoundaryCondition, count: int) -> RectangleEigenBasis:
    """Every 2D eigenvalue up to R, from the 1D ones: each axis counts its
    modes up to R less the other axis's ground state.  R starts at the Weyl
    estimate and grows by 1.6, but never past row[d], the other ground state
    plus the eigenvalue of count + 2 modes along axis d; that row alone holds
    count + 2 modes, so each 1D basis stays O(count) on thin rectangles."""
    sides = (domain.lx, domain.ly)
    ground = [_interval_eigenbasis(Interval(0.0, L), bc, 1).mu[0] for L in sides]
    row = [ground[1 - d] + np.square(np.pi * (count + 2) / L) for d, L in enumerate(sides)]
    if not min(row) < np.inf:
        raise ValueError(f"the eigenvalues of the {domain.lx} x {domain.ly} rectangle overflow")
    R = min(max(4.0 * np.pi * count / domain.measure, 16.0 / domain.measure), *row)
    while True:
        # at R = row[d] axis d takes count + 3 modes even where the sum rounds to R
        nx, ny = (max(_count_1d_upto(L, bc, R - ground[1 - d]), count + 3 if R >= row[d] else 0)
                  for d, L in enumerate(sides))
        bx = _interval_eigenbasis(Interval(0.0, domain.lx), bc, nx)
        by = _interval_eigenbasis(Interval(0.0, domain.ly), bc, ny)
        mu2d = bx.mu[:, None] + by.mu[None, :]
        ii, jj = np.nonzero(mu2d <= R)
        if ii.size >= count:
            break
        R = min(1.6 * R, *row) if R > 0 else min(row)  # R is 0 when the measure overflows
    mu = mu2d[ii, jj]
    order = np.lexsort((jj, ii, mu))
    keep = order[:count]
    return RectangleEigenBasis(domain, bc, mu[keep], ii[keep], jj[keep], bx, by)


EigenBasis = IntervalEigenBasis | RectangleEigenBasis


def eigenpairs(domain: ModelDomain, bc: BoundaryCondition, count: int) -> EigenBasis:
    """First `count` eigenpairs of -Δ with the given boundary condition,
    sorted by ascending eigenvalue (ties broken by mode index)."""
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    if isinstance(domain, Interval):
        return _interval_eigenbasis(domain, bc, count)
    return _rectangle_eigenbasis(domain, bc, count)


# -- truncation tail bounds ----------------------------------------------------


def spectral_tail_bound(
    domain: ModelDomain, bc: BoundaryCondition, mu_star: float, r: float, lam: float, p: int
) -> float:
    """Rigorous upper bound for the sum of w(mu_k) = (1 + mu_k)^-r (mu_k + lam)^-p
    over all modes with mu_k >= mu_star.

    The bound compares the eigenvalue lattice against integrals over the
    frequency plane (quarter plane plus the two axis families in 2D), with
    conservative half-cell shifts that remain valid for the Robin frequency
    branches; w is nonincreasing for r, p >= 0.  When w decays too slowly for
    the eigenvalue density (r + p, the power of mu, at most dim / 2) the bound
    is infinite: the series genuinely diverges.
    """
    if r + p <= domain.dim / 2.0:
        return float("inf")
    rho = np.sqrt(max(mu_star, 0.0))

    def weight(mu):
        out = (1.0 + mu) ** -r
        if p:
            out = out * (mu + lam) ** -p
        return out

    def f_line(x):
        return weight(x * x)

    def f_radial(s):
        return weight(s * s) * s

    def integral(f, lower):
        from scipy.integrate import quad  # here, not at module level: scipy.integrate adds ~20 MiB RSS

        # relative-accuracy quadrature; the estimated error is added so the
        # result stays a valid upper bound even at tiny magnitudes
        val, err = quad(f, lower, np.inf, limit=300, epsabs=0.0, epsrel=1e-9)
        return val + abs(err)

    if isinstance(domain, Interval):
        step = np.pi / domain.length
        r0 = max(0.0, rho - step)
        return float(weight(r0 * r0) + integral(f_line, r0) / step)

    a = np.pi / domain.lx
    b = np.pi / domain.ly
    r0 = max(0.0, rho - 2.0 * np.hypot(a, b))
    interior = (np.pi / 2.0) * integral(f_radial, r0) / (a * b)
    axes = integral(f_line, r0) * (1.0 / a + 1.0 / b)
    return float(interior + axes + 3.0 * weight(r0 * r0))


# -- covariance ----------------------------------------------------------------


def covariance_function(x, y, lam: float, basis: EigenBasis) -> TruncatedValue:
    """Truncated covariance sum_k e_k(x) e_k(y) / (mu_k + lam)^2 with a tail bound.

    The tail is bounded by sup_k ||e_k||_inf^2 times the tail of
    sum (mu_k + lam)^-2 beyond the last included eigenvalue.
    """
    if not lam > 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    ex = basis.evaluate(x).ravel()
    ey = ex if _same_point(x, y, basis) else basis.evaluate(y).ravel()
    value = float(np.sum(ex * ey / (basis.mu + lam) ** 2))
    tail = basis.sup_sq_bound() * spectral_tail_bound(basis.domain, basis.bc, float(basis.mu[-1]), 0.0, lam, 2)
    return TruncatedValue(value, float(tail))


def _same_point(x, y, basis) -> bool:
    ax = np.asarray(x, dtype=np.float64).reshape(-1)
    ay = np.asarray(y, dtype=np.float64).reshape(-1)
    return ax.shape == ay.shape and bool(np.all(ax == ay))


# -- one-dimensional Green's functions ------------------------------------------


def greens_function_1d(x: float, y: float, lam: float, bc: BoundaryCondition) -> float:
    """Closed-form kernel of (-d^2/dx^2 + lam)^-1 on the unit interval.

    Dirichlet and Neumann kernels are the classical sinh/cosh products; the
    Robin kernel is built from the two one-sided solutions that satisfy
    -u'(0) + beta u(0) = 0 and u'(1) + beta u(1) = 0, normalized by their
    (constant) Wronskian.
    """
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise ValueError(f"arguments must lie in [0, 1], got ({x}, {y})")
    if not lam > 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    w = np.sqrt(lam)
    lo, hi = (x, y) if x <= y else (y, x)
    if bc.kind == DIRICHLET:
        return float(np.sinh(w * lo) * np.sinh(w * (1.0 - hi)) / (w * np.sinh(w)))
    if bc.kind == NEUMANN:
        return float(np.cosh(w * lo) * np.cosh(w * (1.0 - hi)) / (w * np.sinh(w)))
    beta = bc.beta
    u_left = w * np.cosh(w * lo) + beta * np.sinh(w * lo)
    u_right = w * np.cosh(w * (1.0 - hi)) + beta * np.sinh(w * (1.0 - hi))
    wronskian = w * ((w * w + beta * beta) * np.sinh(w) + 2.0 * beta * w * np.cosh(w))
    return float(u_left * u_right / wronskian)
