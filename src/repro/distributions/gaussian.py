"""Truncated Gaussian score distribution.

The paper reports that its algorithms "work also with non-uniform tuple
score distributions"; the Gaussian is the canonical non-uniform case.  The
analytic cdf/quantile use the error function; the exact TPO engine receives
a fine histogram discretization (the same treatment the TKDE version applies
to arbitrary pdfs).

:func:`erf` and :func:`erfinv` are vectorized NumPy (no per-element Python
calls), so the package needs no special-function library.  ``erf`` is
Cody's rational approximation as cephes' ``ndtr.c`` evaluates it:
``x·T(x²)/U(x²)`` for ``|x| ≤ 1``, else ``1 − e^{−x²}·P(|x|)/Q(|x|)``; it
stays within a few ulp of the C library's ``erf``.  ``erfinv`` starts from
Wichura's AS241 ``PPND7`` rational guess (about 1e-7 relative) and takes
two Newton steps on that ``erf``, which leaves ``erf(erfinv(y))`` within
1e-15 of ``y``.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.distributions.base import ArrayLike, ScoreDistribution
from repro.distributions.histogram import Histogram
from repro.distributions.piecewise import PiecewisePolynomial

_SQRT2 = math.sqrt(2.0)
_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)

# Cody's erf coefficients as cephes' ndtr.c holds them, from the highest
# power down: P/Q in |x| for |x| > 1, T/U in x² for |x| ≤ 1.  Q and U are
# monic (their leading 1.0 is written out).
_ERF_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1,
    7.46321056442269912687e0, 4.86371970985681366614e1,
    1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_ERF_Q = (
    1.0, 1.32281951154744992508e1, 8.67072140885989742329e1,
    3.54937778887819891062e2, 9.75708501743205489753e2,
    1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1,
    2.23200534594684319226e3, 7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_ERF_U = (
    1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
    4.59432382970980127987e3, 2.26290000613890934246e4,
    4.92673942608635921086e4,
)

# AS241 PPND7 (Wichura 1988): the normal quantile of ``p`` near ½ as
# q·A(r)/B(r), r = 0.180625 − q² with q = p − ½, and in the tails as C/D
# of s − 1.6 (s ≤ 5) or E/F of s − 5, where s = √(−ln min(p, 1 − p)).
_PPND7_A = (5.9109374720e01, 1.5929113202e02, 5.0434271938e01, 3.3871327179e00)
_PPND7_B = (6.7187563600e01, 7.8757757664e01, 1.7895169469e01, 1.0)
_PPND7_C = (1.7023821103e-01, 1.3067284816e00, 2.7568153900e00, 1.4234372777e00)
_PPND7_D = (1.2021132975e-01, 7.3700164250e-01, 1.0)
_PPND7_E = (1.7337203997e-02, 4.2868294337e-01, 3.0812263860e00, 6.6579051150e00)
_PPND7_F = (1.2258202635e-02, 2.4197894225e-01, 1.0)


def _horner(x: np.ndarray, coefficients: Sequence[float]) -> np.ndarray:
    """Polynomial in ``x`` with ``coefficients`` from the highest power."""
    y = np.full_like(x, coefficients[0])
    for c in coefficients[1:]:
        y *= x
        y += c
    return y


def erf(x: ArrayLike) -> np.ndarray:
    """Error function, elementwise; NaN passes through, ``erf(±inf) = ±1``."""
    x = np.asarray(x, dtype=np.float64)
    # erfc(6) < 2⁻⁵⁴, so 1 − erfc rounds to 1 from there on.
    a = np.minimum(np.abs(x), 6.0)
    z = a * a
    small = a * _horner(z, _ERF_T) / _horner(z, _ERF_U)
    large = 1.0 - np.exp(-z) * _horner(a, _ERF_P) / _horner(a, _ERF_Q)
    return np.copysign(np.where(a <= 1.0, small, large), x)


def erfinv(y: ArrayLike) -> np.ndarray:
    """Inverse error function on ``[−1, 1]``; ±inf at ±1, NaN outside."""
    y = np.asarray(y, dtype=np.float64)
    inside = np.abs(y) < 1.0
    t = np.where(inside, y, 0.0)
    # PPND7 at p = (1 + t)/2, written in t so the tails keep 1 − |t| exact.
    q = 0.5 * t
    r = 0.180625 - q * q
    central = q * _horner(r, _PPND7_A) / _horner(r, _PPND7_B)
    s = np.sqrt(-np.log(0.5 * (1.0 - np.abs(t))))
    near = _horner(s - 1.6, _PPND7_C) / _horner(s - 1.6, _PPND7_D)
    far = _horner(s - 5.0, _PPND7_E) / _horner(s - 5.0, _PPND7_F)
    tail = np.copysign(np.where(s <= 5.0, near, far), t)
    x = np.where(np.abs(q) <= 0.425, central, tail) / _SQRT2
    for _ in range(2):
        x -= (erf(x) - t) / (_TWO_OVER_SQRT_PI * np.exp(-x * x))
    edge = np.where(np.abs(y) == 1.0, np.copysign(np.inf, y), np.nan)
    return np.where(inside, x, edge)


def _phi(z: np.ndarray) -> np.ndarray:
    """Standard normal cdf."""
    return 0.5 * (1.0 + erf(z / _SQRT2))


class TruncatedGaussian(ScoreDistribution):
    """Normal(mu, sigma²) truncated to ``[lower, upper]``.

    Defaults truncate at ``mu ± 4 sigma``, which keeps >99.99 % of the mass
    while preserving the bounded support the TPO machinery requires.
    """

    def __init__(
        self,
        mu: float,
        sigma: float,
        lower: Optional[float] = None,
        upper: Optional[float] = None,
    ) -> None:
        if sigma <= 0:
            raise ValueError(f"sigma must be positive, got {sigma!r}")
        self._mu = float(mu)
        self._sigma = float(sigma)
        self._lower = float(mu - 4.0 * sigma) if lower is None else float(lower)
        self._upper = float(mu + 4.0 * sigma) if upper is None else float(upper)
        if self._upper <= self._lower:
            raise ValueError("truncation interval must be non-degenerate")
        alpha = (self._lower - self._mu) / self._sigma
        beta = (self._upper - self._mu) / self._sigma
        cdf_alpha, cdf_beta = _phi(np.array([alpha, beta])).tolist()
        self._cdf_alpha = cdf_alpha
        self._mass = cdf_beta - cdf_alpha
        if self._mass <= 0:
            raise ValueError(
                "truncation interval carries no Gaussian mass; widen it"
            )

    @property
    def mu(self) -> float:
        """Mean of the untruncated Gaussian."""
        return self._mu

    @property
    def sigma(self) -> float:
        """Standard deviation of the untruncated Gaussian."""
        return self._sigma

    @property
    def lower(self) -> float:
        return self._lower

    @property
    def upper(self) -> float:
        return self._upper

    def pdf(self, x: ArrayLike) -> ArrayLike:
        x = np.asarray(x, dtype=float)
        z = (x - self._mu) / self._sigma
        raw = np.exp(-0.5 * z * z) / (self._sigma * math.sqrt(2.0 * math.pi))
        inside = (x >= self._lower) & (x <= self._upper)
        return np.where(inside, raw / self._mass, 0.0)

    def cdf(self, x: ArrayLike) -> ArrayLike:
        x = np.asarray(x, dtype=float)
        z = (np.clip(x, self._lower, self._upper) - self._mu) / self._sigma
        value = (_phi(z) - self._cdf_alpha) / self._mass
        value = np.where(x < self._lower, 0.0, value)
        value = np.where(x >= self._upper, 1.0, value)
        return np.clip(value, 0.0, 1.0)

    def quantile(self, p: ArrayLike) -> ArrayLike:
        p = np.asarray(p, dtype=float)
        p = np.clip(p, 0.0, 1.0)
        target = self._cdf_alpha + p * self._mass
        target = np.clip(target, 1e-15, 1.0 - 1e-15)
        z = _SQRT2 * erfinv(2.0 * target - 1.0)
        return np.clip(self._mu + self._sigma * z, self._lower, self._upper)

    def mean(self) -> float:
        a = (self._lower - self._mu) / self._sigma
        b = (self._upper - self._mu) / self._sigma
        phi = lambda z: math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        return self._mu + self._sigma * (phi(a) - phi(b)) / self._mass

    def variance(self) -> float:
        a = (self._lower - self._mu) / self._sigma
        b = (self._upper - self._mu) / self._sigma
        phi = lambda z: math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        correction = (a * phi(a) - b * phi(b)) / self._mass
        shift = (phi(a) - phi(b)) / self._mass
        return self._sigma**2 * max(1.0 + correction - shift**2, 0.0)

    def piecewise_pdf(self, resolution: Optional[int] = None) -> PiecewisePolynomial:
        bins = resolution or self.DEFAULT_RESOLUTION
        return Histogram.discretize(self, bins=bins).piecewise_pdf()

    def __repr__(self) -> str:
        return (
            f"TruncatedGaussian(mu={self._mu:.6g}, sigma={self._sigma:.6g}, "
            f"support=[{self._lower:.6g}, {self._upper:.6g}])"
        )


__all__ = ["TruncatedGaussian", "erf", "erfinv"]
