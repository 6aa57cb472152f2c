"""Complex coefficient fields L, M, their admissibility and the rotation angle.

L may be a complex scalar or a diagonal 2x2 tensor per element; M is a
complex scalar per element.  Fields are piecewise constant (sampled at
element centroids when built from spatial functions), which keeps the 2x2
Gauss quadrature used by assembly exact.

The solver requires the imaginary parts of every coefficient value to be
positive.  Values that merely lie in some open half-plane of the complex
plane become admissible after a common phase e^{i*theta}, which leaves
the PDE solution unchanged: ``admissibility`` reads a field at an angle,
``auto_rotation_angle`` picks one, and ``assemble.rotate`` applies it to
the assembled system.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Grid


class HalfPlaneError(ValueError):
    """No open half-plane holds the values; no rotation can make every
    imaginary part positive."""


@dataclass(frozen=True, eq=False)
class CoefficientField:
    """Per-element complex coefficients of ``div(L grad u) = M u``.

    ``lxx``/``lyy`` hold the diagonal of L (equal arrays when L is scalar)
    and ``m`` holds M, one value per element.  Immutable.
    """

    lxx: np.ndarray = field(repr=False)
    lyy: np.ndarray = field(repr=False)
    m: np.ndarray = field(repr=False)
    scalar_l: bool = True

    def __post_init__(self):
        if not (len(self.lxx) == len(self.lyy) == len(self.m)):
            raise ValueError("coefficient arrays must have equal length")
        if len(self.m) == 0:
            raise ValueError("empty coefficient field")

    @property
    def n_elements(self) -> int:
        return len(self.m)

    def all_values(self) -> np.ndarray:
        """Every coefficient value in the field, for half-plane analysis."""
        if self.scalar_l:
            return np.concatenate([self.lxx, self.m])
        return np.concatenate([self.lxx, self.lyy, self.m])

    def diag_values(self, element: int) -> np.ndarray:
        """Diagonal (c_1, c_2, c_3) = (Lxx, Lyy, M) on one element."""
        return np.array([self.lxx[element], self.lyy[element], self.m[element]])

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @staticmethod
    def constant(grid: Grid, L, M) -> "CoefficientField":
        """Spatially constant coefficients; L scalar or (Lxx, Lyy) pair."""
        n = grid.n_elements
        lxx, lyy, scalar = _split_l(L)
        return CoefficientField(
            lxx=np.full(n, lxx, dtype=complex),
            lyy=np.full(n, lyy, dtype=complex),
            m=np.full(n, complex(M), dtype=complex),
            scalar_l=scalar,
        )

    @staticmethod
    def two_phase(grid: Grid, indicator, inside, outside) -> "CoefficientField":
        """Piecewise-constant field: (L, M) = ``inside`` where the
        indicator holds at the element centroid, ``outside`` elsewhere."""
        cx, cy = grid.element_centroids().T
        mask = np.asarray(indicator(cx, cy), dtype=bool)
        li, mi = inside
        lo, mo = outside
        lxx = np.where(mask, complex(li), complex(lo)).astype(complex)
        mv = np.where(mask, complex(mi), complex(mo)).astype(complex)
        return CoefficientField(lxx=lxx, lyy=lxx.copy(), m=mv, scalar_l=True)

    @staticmethod
    def layered(grid: Grid, axis: str, interface: float, low, high) -> "CoefficientField":
        """Two-phase layered material split by a coordinate ``interface``
        along ``axis`` ('x' or 'y'); ``low`` applies below the interface."""
        if axis not in ("x", "y"):
            raise ValueError("axis must be 'x' or 'y'")
        coord = 0 if axis == "x" else 1
        return CoefficientField.two_phase(
            grid,
            lambda cx, cy: (cx if coord == 0 else cy) < interface,
            inside=low, outside=high,
        )

    @staticmethod
    def diagonal_bar(grid: Grid, width: float, bar, background) -> "CoefficientField":
        """Band of the given width around the diagonal running from the
        upper-left to the lower-right corner of the domain."""
        p0 = np.array([grid.x0, grid.y1])
        p1 = np.array([grid.x1, grid.y0])
        d = p1 - p0
        d = d / np.hypot(*d)

        def indicator(cx, cy):
            rx, ry = cx - p0[0], cy - p0[1]
            dist = np.abs(rx * d[1] - ry * d[0])
            return dist <= width / 2.0

        return CoefficientField.two_phase(grid, indicator, inside=bar, outside=background)

    @staticmethod
    def random(grid: Grid, lo: float, hi: float, seed: int) -> "CoefficientField":
        """Per-element L, M with real and imaginary parts drawn uniformly
        from (lo, hi).  Deterministic for a fixed seed."""
        rng = np.random.default_rng(seed)
        n = grid.n_elements
        draw = lambda: rng.uniform(lo, hi, n) + 1j * rng.uniform(lo, hi, n)
        lxx = draw()
        return CoefficientField(lxx=lxx, lyy=lxx.copy(), m=draw(), scalar_l=True)


def _split_l(L):
    if isinstance(L, (tuple, list, np.ndarray)):
        if len(L) != 2:
            raise ValueError("diagonal L must have exactly two entries")
        return complex(L[0]), complex(L[1]), False
    return complex(L), complex(L), True


# ----------------------------------------------------------------------
# Admissibility
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the positive-imaginary-part check: the smallest
    imaginary parts of L (both diagonal entries) and of M."""

    ok: bool
    min_im_l: float
    min_im_m: float


def admissibility(field: CoefficientField, theta: float = 0.0) -> AdmissibilityReport:
    """Check that Im(e^{i*theta} L) and Im(e^{i*theta} M) are strictly
    positive everywhere."""
    phase = np.exp(1j * theta)
    im_l = (np.concatenate([field.lxx, field.lyy]) * phase).imag.min()
    im_m = (field.m * phase).imag.min()
    return AdmissibilityReport(ok=bool(im_l > 0.0 and im_m > 0.0),
                               min_im_l=float(im_l), min_im_m=float(im_m))


def auto_rotation_angle(values) -> float:
    """Rotation angle that centers the arguments of the complex ``values``
    in the upper half-plane (max-margin placement).

    All values must lie within one open half-plane; the returned theta
    maximizes the smallest angular distance of any rotated value to the
    real axis.  Raises :class:`HalfPlaneError` when the values span a
    half-plane or more, or when any value is zero or not finite.
    """
    vals = np.asarray(values, dtype=complex)
    if not np.all(np.isfinite(vals)):
        raise HalfPlaneError("a non-finite value has no direction to rotate")
    if np.any(np.abs(vals) == 0.0):
        raise HalfPlaneError("a zero value cannot be rotated into the upper half-plane")
    angles = np.sort(np.angle(vals))
    # Smallest arc containing all directions: complement of the largest
    # gap between consecutive sorted angles (with wrap-around).
    gaps = np.diff(angles)
    wrap = angles[0] + 2.0 * np.pi - angles[-1]
    k = int(np.argmax(np.append(gaps, wrap)))
    if k == len(angles) - 1:
        lo, arc = angles[0], 2.0 * np.pi - wrap
    else:
        lo, arc = angles[k + 1], 2.0 * np.pi - gaps[k]
    if arc >= np.pi:
        raise HalfPlaneError(
            f"the arguments span an arc of {arc:.6f} rad (>= pi); "
            "no open half-plane contains all values"
        )
    theta = np.pi / 2.0 - (lo + arc / 2.0)
    # Report in [-pi, pi).
    return float(np.mod(theta + np.pi, 2.0 * np.pi) - np.pi)


# ----------------------------------------------------------------------
# Acoustic parametrization
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AcousticParams:
    """Acoustic material: complex density rho, complex bulk modulus kappa,
    real finite frequency omega > 0.  Calling it on a grid builds the constant
    coefficient field L = -1/rho, M = omega^2/kappa."""

    rho: complex
    kappa: complex
    omega: float

    def __post_init__(self):
        if self.rho == 0:
            raise ValueError("rho must be nonzero")
        if self.kappa == 0:
            raise ValueError("kappa must be nonzero")
        if not 0.0 < self.omega < np.inf:
            raise ValueError(f"omega must be positive and finite, got {self.omega}")

    def __call__(self, grid: Grid) -> CoefficientField:
        return CoefficientField.constant(grid, -1.0 / complex(self.rho),
                                         self.omega ** 2 / complex(self.kappa))
