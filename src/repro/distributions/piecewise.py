"""Exact piecewise-polynomial function algebra.

This module is the numeric core of the *exact* TPO construction engine.
Score pdfs in the polynomial family (uniform, triangular, histogram, and any
discretized density) are represented as piecewise polynomials; products,
antiderivatives, and definite integrals — the only operations the ordering
probability recursion of Li & Deshpande (PVLDB'10) needs — then stay inside
the family and are computed in closed form.

Representation
--------------
A :class:`PiecewisePolynomial` is determined by

* ``breakpoints`` — a strictly increasing array ``x_0 < x_1 < … < x_m``;
* ``coefficients`` — for each piece ``[x_i, x_{i+1})`` an ascending-power
  coefficient vector in the *local* coordinate ``u = x − x_i``.

Local coordinates keep evaluation well-conditioned even when scores live far
from the origin; every piece is evaluated by Horner's rule at small ``u``.
The function is defined as 0 outside ``[x_0, x_m]``, which matches how pdfs
with bounded support behave.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Union

import numpy as np

#: Breakpoints closer than this are merged when combining functions.
MERGE_TOLERANCE = 1e-12


def _as_coeff_array(coeffs: Sequence[float]) -> np.ndarray:
    array = np.asarray(coeffs, dtype=float)
    if array.ndim != 1 or array.size == 0:
        raise ValueError(f"coefficient vector must be 1-D non-empty, got shape {array.shape}")
    # Trim trailing zero coefficients but always keep at least the constant.
    nonzero = np.nonzero(array)[0]
    if nonzero.size == 0:
        return np.zeros(1)
    return array[: nonzero[-1] + 1].copy()


def shift_coefficients(coeffs: np.ndarray, delta: float) -> np.ndarray:
    """Re-express ``p(u)`` as a polynomial in ``v = u − delta``.

    If ``p(u) = Σ c_j u^j`` then ``p(v + delta) = Σ c'_k v^k`` with
    ``c'_k = Σ_{j≥k} C(j, k) · c_j · delta^{j−k}``.  Used when a piece is
    split and its coefficients must be rebased onto the new left endpoint.
    """
    if delta == 0.0:
        return coeffs.copy()
    degree = len(coeffs) - 1
    shifted = np.zeros_like(coeffs)
    for j, c in enumerate(coeffs):
        if c == 0.0:
            continue
        power = 1.0
        for k in range(j, -1, -1):
            shifted[k] += c * math.comb(j, j - k) * power
            power *= delta
    return shifted


def _eval_horner(coeffs: np.ndarray, u: np.ndarray) -> np.ndarray:
    result = np.full_like(u, coeffs[-1], dtype=float)
    for c in coeffs[-2::-1]:
        result = result * u + c
    return result


class PiecewisePolynomial:
    """A real function that is polynomial on each piece and 0 outside.

    Instances are immutable; all operations return new objects.
    """

    __slots__ = ("breakpoints", "coefficients")

    def __init__(
        self,
        breakpoints: Sequence[float],
        coefficients: Iterable[Sequence[float]],
    ) -> None:
        xs = np.asarray(breakpoints, dtype=float)
        if xs.ndim != 1 or xs.size < 2:
            raise ValueError("breakpoints must be a 1-D array with at least two entries")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        pieces = [_as_coeff_array(c) for c in coefficients]
        if len(pieces) != xs.size - 1:
            raise ValueError(
                f"need exactly {xs.size - 1} coefficient vectors, got {len(pieces)}"
            )
        self.breakpoints = xs
        self.coefficients = pieces

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, lower: float = 0.0, upper: float = 1.0) -> "PiecewisePolynomial":
        """The zero function on ``[lower, upper]``."""
        return cls([lower, upper], [[0.0]])

    @classmethod
    def constant(cls, value: float, lower: float, upper: float) -> "PiecewisePolynomial":
        """``f(x) = value`` on ``[lower, upper]``, 0 outside."""
        return cls([lower, upper], [[value]])

    @classmethod
    def from_histogram(
        cls, edges: Sequence[float], densities: Sequence[float]
    ) -> "PiecewisePolynomial":
        """Piecewise-constant function with bin ``edges`` and ``densities``."""
        edges = np.asarray(edges, dtype=float)
        densities = np.asarray(densities, dtype=float)
        if densities.size != edges.size - 1:
            raise ValueError("need one density per bin")
        return cls(edges, [[d] for d in densities])

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------

    @property
    def lower(self) -> float:
        """Left end of the support interval."""
        return float(self.breakpoints[0])

    @property
    def upper(self) -> float:
        """Right end of the support interval."""
        return float(self.breakpoints[-1])

    @property
    def piece_count(self) -> int:
        """Number of polynomial pieces."""
        return len(self.coefficients)

    @property
    def degree(self) -> int:
        """Maximum polynomial degree over all pieces."""
        return max(len(c) - 1 for c in self.coefficients)

    def __call__(self, x: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        """Evaluate the function (vectorized); 0 outside the support."""
        scalar = np.isscalar(x)
        values = np.atleast_1d(np.asarray(x, dtype=float))
        result = np.zeros_like(values)
        xs = self.breakpoints
        inside = (values >= xs[0]) & (values <= xs[-1])
        if np.any(inside):
            idx = np.searchsorted(xs, values[inside], side="right") - 1
            idx = np.clip(idx, 0, len(self.coefficients) - 1)
            out = np.empty(idx.shape, dtype=float)
            for piece in np.unique(idx):
                mask = idx == piece
                u = values[inside][mask] - xs[piece]
                out[mask] = _eval_horner(self.coefficients[piece], u)
            result[inside] = out
        return float(result[0]) if scalar else result

    def is_zero(self, tolerance: float = 0.0) -> bool:
        """True when every coefficient is (within ``tolerance`` of) zero."""
        return all(np.all(np.abs(c) <= tolerance) for c in self.coefficients)

    # ------------------------------------------------------------------
    # Calculus
    # ------------------------------------------------------------------

    def antiderivative(self) -> "PiecewisePolynomial":
        """Return ``F`` with ``F' = f`` on the support and ``F(x_0) = 0``.

        ``F`` is continuous across pieces; note ``F`` is *not* zero to the
        right of the support — callers needing a CDF should combine this
        with :meth:`definite_integral` to extend the final value.
        """
        new_coeffs: List[np.ndarray] = []
        running = 0.0
        xs = self.breakpoints
        for i, coeffs in enumerate(self.coefficients):
            integrated = np.empty(len(coeffs) + 1)
            integrated[0] = running
            integrated[1:] = coeffs / np.arange(1, len(coeffs) + 1)
            new_coeffs.append(integrated)
            width = xs[i + 1] - xs[i]
            running = float(_eval_horner(integrated, np.array([width]))[0])
        return PiecewisePolynomial(xs, new_coeffs)

    def definite_integral(
        self, a: Optional[float] = None, b: Optional[float] = None
    ) -> float:
        """Integral of ``f`` over ``[a, b]`` (default: whole support)."""
        xs = self.breakpoints
        a = xs[0] if a is None else max(a, xs[0])
        b = xs[-1] if b is None else min(b, xs[-1])
        if b <= a:
            return 0.0
        total = 0.0
        start = int(np.searchsorted(xs, a, side="right") - 1)
        start = min(max(start, 0), len(self.coefficients) - 1)
        for i in range(start, len(self.coefficients)):
            left, right = xs[i], xs[i + 1]
            if left >= b:
                break
            lo = max(left, a) - left
            hi = min(right, b) - left
            coeffs = self.coefficients[i]
            powers = np.arange(1, len(coeffs) + 1)
            total += float(np.sum(coeffs / powers * (hi**powers - lo**powers)))
        return total

    def derivative(self) -> "PiecewisePolynomial":
        """Piecewise derivative (discontinuities at breakpoints allowed)."""
        new_coeffs = []
        for coeffs in self.coefficients:
            if len(coeffs) == 1:
                new_coeffs.append(np.zeros(1))
            else:
                new_coeffs.append(coeffs[1:] * np.arange(1, len(coeffs)))
        return PiecewisePolynomial(self.breakpoints, new_coeffs)

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------

    def _refined_coefficients(self, xs: np.ndarray) -> List[np.ndarray]:
        """Coefficients of this function on the finer grid ``xs``.

        ``xs`` must cover a sub-interval of the support and include all of
        this function's interior breakpoints that fall inside it.  Pieces of
        ``xs`` outside the support get zero coefficients.
        """
        own = self.breakpoints
        result: List[np.ndarray] = []
        for i in range(len(xs) - 1):
            left = xs[i]
            midpoint = 0.5 * (xs[i] + xs[i + 1])
            if midpoint < own[0] or midpoint > own[-1]:
                result.append(np.zeros(1))
                continue
            piece = int(np.searchsorted(own, midpoint, side="right") - 1)
            piece = min(max(piece, 0), len(self.coefficients) - 1)
            delta = left - own[piece]
            result.append(shift_coefficients(self.coefficients[piece], delta))
        return result

    @staticmethod
    def _merged_breakpoints(
        first: "PiecewisePolynomial",
        second: "PiecewisePolynomial",
        lower: float,
        upper: float,
    ) -> np.ndarray:
        points = np.concatenate([first.breakpoints, second.breakpoints])
        points = points[(points >= lower - MERGE_TOLERANCE) & (points <= upper + MERGE_TOLERANCE)]
        points = np.concatenate([points, [lower, upper]])
        points = np.unique(points)
        # Merge near-duplicates to avoid zero-width pieces.
        keep = [points[0]]
        for p in points[1:]:
            if p - keep[-1] > MERGE_TOLERANCE:
                keep.append(p)
        if len(keep) == 1:
            keep.append(keep[0] + MERGE_TOLERANCE)
        return np.asarray(keep)

    def __mul__(self, other: Union["PiecewisePolynomial", float]) -> "PiecewisePolynomial":
        if isinstance(other, (int, float)):
            return PiecewisePolynomial(
                self.breakpoints, [c * float(other) for c in self.coefficients]
            )
        lower = max(self.lower, other.lower)
        upper = min(self.upper, other.upper)
        if upper <= lower:
            return PiecewisePolynomial.zero(self.lower, self.upper)
        xs = self._merged_breakpoints(self, other, lower, upper)
        mine = self._refined_coefficients(xs)
        theirs = other._refined_coefficients(xs)
        product = [np.convolve(a, b) for a, b in zip(mine, theirs, strict=True)]
        return PiecewisePolynomial(xs, product)

    __rmul__ = __mul__

    def __add__(self, other: "PiecewisePolynomial") -> "PiecewisePolynomial":
        lower = min(self.lower, other.lower)
        upper = max(self.upper, other.upper)
        xs = self._merged_breakpoints(self, other, lower, upper)
        mine = self._refined_coefficients(xs)
        theirs = other._refined_coefficients(xs)
        summed = []
        for a, b in zip(mine, theirs, strict=True):
            size = max(len(a), len(b))
            s = np.zeros(size)
            s[: len(a)] += a
            s[: len(b)] += b
            summed.append(s)
        return PiecewisePolynomial(xs, summed)

    def __sub__(self, other: "PiecewisePolynomial") -> "PiecewisePolynomial":
        return self + (other * -1.0)

    def __neg__(self) -> "PiecewisePolynomial":
        return self * -1.0

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    def extend_right_constant(self, upper: float) -> "PiecewisePolynomial":
        """Extend with the support's right endpoint value held constant.

        Turns an antiderivative restricted to the support into a function
        usable as a CDF factor on a wider interval.
        """
        if upper <= self.upper:
            return self
        value = float(self(self.upper))
        xs = np.concatenate([self.breakpoints, [upper]])
        coeffs = [c.copy() for c in self.coefficients] + [np.array([value])]
        return PiecewisePolynomial(xs, coeffs)

    def extend_domain(self, lower: float, upper: float) -> "PiecewisePolynomial":
        """Embed into ``[lower, upper]`` padding with explicit zero pieces."""
        xs = list(self.breakpoints)
        coeffs = [c.copy() for c in self.coefficients]
        if lower < self.lower - MERGE_TOLERANCE:
            xs = [lower, *xs]
            coeffs = [np.zeros(1), *coeffs]
        if upper > self.upper + MERGE_TOLERANCE:
            xs = [*xs, upper]
            coeffs = [*coeffs, np.zeros(1)]
        return PiecewisePolynomial(np.asarray(xs), coeffs)

    def simplify(self, tolerance: float = 0.0) -> "PiecewisePolynomial":
        """Merge adjacent pieces with identical (shifted) coefficients."""
        return _simplify_rebuild(self, tolerance)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"PiecewisePolynomial(pieces={self.piece_count}, degree={self.degree}, "
            f"support=[{self.lower:.6g}, {self.upper:.6g}])"
        )


def _simplify_rebuild(func: PiecewisePolynomial, tolerance: float) -> PiecewisePolynomial:
    """Merge adjacent pieces whose polynomials agree after rebasing."""
    starts: List[float] = []
    coeffs: List[np.ndarray] = []
    ends: List[float] = []
    for i, c in enumerate(func.coefficients):
        left = float(func.breakpoints[i])
        right = float(func.breakpoints[i + 1])
        if coeffs:
            width = left - starts[-1]
            rebased = shift_coefficients(coeffs[-1], width)
            size = max(len(rebased), len(c))
            a = np.zeros(size)
            b = np.zeros(size)
            a[: len(rebased)] = rebased
            b[: len(c)] = c
            if np.all(np.abs(a - b) <= tolerance):
                ends[-1] = right
                continue
        starts.append(left)
        coeffs.append(np.asarray(c, dtype=float))
        ends.append(right)
    breakpoints = np.asarray([starts[0]] + ends)
    return PiecewisePolynomial(breakpoints, coeffs)


def product(functions: Sequence[PiecewisePolynomial]) -> PiecewisePolynomial:
    """Product of several piecewise polynomials (balanced reduction).

    Multiplying in a balanced tree keeps intermediate degrees as low as
    possible, which matters when forming ``Π_j F_j`` over many tuples.
    """
    if not functions:
        raise ValueError("product() needs at least one function")
    items = list(functions)
    while len(items) > 1:
        paired = []
        for i in range(0, len(items) - 1, 2):
            paired.append(items[i] * items[i + 1])
        if len(items) % 2:
            paired.append(items[-1])
        items = paired
    return items[0]


__all__ = [
    "PiecewisePolynomial",
    "product",
    "shift_coefficients",
    "MERGE_TOLERANCE",
]
