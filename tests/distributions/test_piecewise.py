"""Tests for the piecewise-polynomial algebra (the exact engine's core)."""

import numpy as np
import pytest

from repro.distributions.piecewise import (
    PiecewisePolynomial,
    product,
    shift_coefficients,
)


@pytest.fixture
def ramp():
    """f(x) = x on [0, 1] (degree 1, single piece)."""
    return PiecewisePolynomial([0.0, 1.0], [[0.0, 1.0]])


@pytest.fixture
def box():
    """f(x) = 2 on [0.5, 1.0]."""
    return PiecewisePolynomial.constant(2.0, 0.5, 1.0)


class TestConstruction:
    def test_requires_increasing_breakpoints(self):
        with pytest.raises(ValueError):
            PiecewisePolynomial([1.0, 0.0], [[1.0]])

    def test_requires_matching_piece_count(self):
        with pytest.raises(ValueError):
            PiecewisePolynomial([0.0, 1.0, 2.0], [[1.0]])

    def test_rejects_empty_coefficients(self):
        with pytest.raises(ValueError):
            PiecewisePolynomial([0.0, 1.0], [[]])

    def test_from_histogram(self):
        f = PiecewisePolynomial.from_histogram([0, 1, 3], [0.5, 0.25])
        assert f(0.5) == 0.5
        assert f(2.0) == 0.25
        assert f.definite_integral() == pytest.approx(1.0)

    def test_zero_and_constant(self):
        z = PiecewisePolynomial.zero(0, 2)
        assert z.is_zero()
        c = PiecewisePolynomial.constant(3.0, 0, 2)
        assert c(1.0) == 3.0
        assert not c.is_zero()


class TestEvaluation:
    def test_zero_outside_support(self, ramp):
        assert ramp(-0.5) == 0.0
        assert ramp(1.5) == 0.0

    def test_vectorized(self, ramp):
        x = np.array([-1.0, 0.25, 0.75, 2.0])
        np.testing.assert_allclose(ramp(x), [0.0, 0.25, 0.75, 0.0])

    def test_scalar_returns_float(self, ramp):
        assert isinstance(ramp(0.5), float)

    def test_multi_piece_evaluation(self):
        f = PiecewisePolynomial([0, 1, 2], [[1.0], [0.0, 1.0]])
        assert f(0.5) == 1.0
        assert f(1.5) == pytest.approx(0.5)  # local coordinate u = x − 1


class TestCalculus:
    def test_antiderivative_of_ramp(self, ramp):
        anti = ramp.antiderivative()
        assert anti(0.0) == pytest.approx(0.0)
        assert anti(1.0) == pytest.approx(0.5)
        assert anti(0.5) == pytest.approx(0.125)

    def test_antiderivative_continuous_across_pieces(self):
        f = PiecewisePolynomial([0, 1, 2], [[1.0], [3.0]])
        anti = f.antiderivative()
        assert anti(1.0) == pytest.approx(1.0)
        assert anti(2.0) == pytest.approx(4.0)

    def test_definite_integral_full_and_partial(self, ramp):
        assert ramp.definite_integral() == pytest.approx(0.5)
        assert ramp.definite_integral(0.0, 0.5) == pytest.approx(0.125)
        assert ramp.definite_integral(0.5, 2.0) == pytest.approx(0.375)
        assert ramp.definite_integral(2.0, 3.0) == 0.0

    def test_derivative_inverts_antiderivative(self, ramp):
        roundtrip = ramp.antiderivative().derivative()
        x = np.linspace(0.01, 0.99, 17)
        np.testing.assert_allclose(roundtrip(x), ramp(x), atol=1e-12)


class TestAlgebra:
    def test_scalar_multiplication(self, ramp):
        doubled = ramp * 2.0
        assert doubled(0.5) == pytest.approx(1.0)
        assert (2.0 * ramp)(0.5) == pytest.approx(1.0)

    def test_product_intersects_supports(self, ramp, box):
        prod = ramp * box
        assert prod.lower == pytest.approx(0.5)
        assert prod.upper == pytest.approx(1.0)
        assert prod(0.75) == pytest.approx(1.5)  # 0.75 · 2
        assert prod(0.25) == 0.0

    def test_product_of_disjoint_supports_is_zero(self):
        a = PiecewisePolynomial.constant(1.0, 0.0, 1.0)
        b = PiecewisePolynomial.constant(1.0, 2.0, 3.0)
        assert (a * b).is_zero()

    def test_product_integral_matches_numerics(self, ramp, box):
        prod = ramp * box
        xs = np.linspace(0.5, 1.0, 20001)
        numeric = np.trapezoid(ramp(xs) * box(xs), xs)
        assert prod.definite_integral() == pytest.approx(numeric, abs=1e-6)

    def test_addition_unions_supports(self, ramp, box):
        total = ramp + box
        assert total(0.25) == pytest.approx(0.25)
        assert total(0.75) == pytest.approx(2.75)

    def test_subtraction_and_negation(self, ramp):
        zero = ramp - ramp
        assert zero.is_zero(tolerance=1e-12)
        assert (-ramp)(0.5) == pytest.approx(-0.5)

    def test_degree_of_product_adds(self, ramp):
        quad = ramp * ramp
        assert quad.degree == 2
        assert quad(0.5) == pytest.approx(0.25)

    def test_balanced_product_helper(self):
        factors = [PiecewisePolynomial([0, 1], [[0.0, 1.0]])] * 4
        result = product(factors)
        assert result(0.5) == pytest.approx(0.5**4)
        with pytest.raises(ValueError):
            product([])


class TestTransformations:
    def test_extend_right_constant(self, ramp):
        anti = ramp.antiderivative().extend_right_constant(3.0)
        assert anti(2.5) == pytest.approx(0.5)

    def test_extend_domain_pads_zeros(self, box):
        wide = box.extend_domain(0.0, 2.0)
        assert wide(0.1) == 0.0
        assert wide(0.75) == pytest.approx(2.0)
        assert wide(1.5) == 0.0

    def test_simplify_merges_equal_pieces(self):
        f = PiecewisePolynomial([0, 1, 2], [[1.0], [1.0]])
        simplified = f.simplify()
        assert simplified.piece_count == 1
        assert simplified(1.5) == 1.0

    def test_simplify_keeps_distinct_pieces(self):
        f = PiecewisePolynomial([0, 1, 2], [[1.0], [2.0]])
        assert f.simplify().piece_count == 2

    def test_simplify_merges_continued_polynomials(self):
        # x on [0,1] and (x−1)+1 = x on [1,2]: same global polynomial.
        f = PiecewisePolynomial([0, 1, 2], [[0.0, 1.0], [1.0, 1.0]])
        assert f.simplify(tolerance=1e-12).piece_count == 1


class TestShiftCoefficients:
    def test_shift_constant_is_identity(self):
        c = np.array([5.0])
        np.testing.assert_allclose(shift_coefficients(c, 2.0), c)

    def test_shift_linear(self):
        # p(u) = 3 + 2u rebased at delta: p(v + delta) = (3 + 2·delta) + 2v
        shifted = shift_coefficients(np.array([3.0, 2.0]), 1.5)
        np.testing.assert_allclose(shifted, [6.0, 2.0])

    def test_shift_quadratic_matches_evaluation(self):
        coeffs = np.array([1.0, -2.0, 3.0])
        delta = 0.7
        shifted = shift_coefficients(coeffs, delta)
        for v in [0.0, 0.3, 1.1]:
            direct = np.polyval(coeffs[::-1], v + delta)
            rebased = np.polyval(shifted[::-1], v)
            assert rebased == pytest.approx(direct)
