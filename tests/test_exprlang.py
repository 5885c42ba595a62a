import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from navgeo import exprlang as xl
from navgeo.errors import (ArityError, DomainError, ExpressionSyntaxError,
                           NonFiniteValue, UnknownIdentifier)


def ev(text, *coords, n=None):
    expr = xl.parse(text, n if n is not None else len(coords))
    return xl.evaluate(expr, np.array(coords, dtype=float))


class TestPrecedence:
    def test_power_binds_tighter_than_unary_minus(self):
        assert ev("-2^2", 0.0) == -4.0

    def test_power_right_associative(self):
        assert ev("2^3^2", 0.0) == 512.0

    def test_subtraction_left_associative(self):
        assert ev("2-3-4", 0.0) == -5.0

    def test_division_left_associative(self):
        assert ev("8/4/2", 0.0) == 1.0

    def test_mul_over_add(self):
        assert ev("2+3*4", 0.0) == 14.0

    def test_parentheses(self):
        assert ev("(2+3)*4", 0.0) == 20.0

    def test_constants(self):
        assert ev("pi", 0.0) == pytest.approx(np.pi)
        assert ev("e", 0.0) == pytest.approx(np.e)

    def test_unary_in_product(self):
        assert ev("2*-3", 0.0) == -6.0


class TestEvaluation:
    def test_variables_and_broadcast(self):
        expr = xl.parse("x1^2 + sin(x2)", 2)
        xs = np.array([[1.0, 0.0], [2.0, np.pi / 2]])
        out = xl.evaluate(expr, xs)
        assert np.allclose(out, [1.0, 5.0])

    def test_constant_tree_broadcasts(self):
        expr = xl.parse("2*pi", 2)
        out = xl.evaluate(expr, np.zeros((5, 2)))
        assert out.shape == (5,)
        assert np.allclose(out, 2 * np.pi)

    def test_scalar_input_gives_float(self):
        out = ev("x1*2", 3.0)
        assert isinstance(out, float) and out == 6.0

    def test_named_variables(self):
        expr = xl.parse_with_names("sin(2*pi*t)", ("t",))
        assert xl.evaluate(expr, np.array([0.25])) == pytest.approx(1.0)

    def test_dual_directional_derivative(self):
        expr = xl.parse("x1^2*x2", 2)
        val, grad = xl.evaluate_dual(expr, np.array([3.0, 5.0]))
        dot = grad @ [1.0, 0.0]
        assert val == pytest.approx(45.0)
        assert dot == pytest.approx(30.0)  # d/dx1 = 2*x1*x2

    def test_dual_of_constant_tree_is_zero(self):
        expr = xl.parse("7", 2)
        val, grad = xl.evaluate_dual(expr, np.array([1.0, 2.0]))
        dot = grad @ [1.0, 0.0]
        assert val == 7.0 and dot == 0.0

    @pytest.mark.parametrize("shape", [(2,), (1, 2), (4, 2), (4, 1, 2)])
    def test_stack_stacks_single_walks(self, shape):
        texts = ("x1^2*x2", "7", "sin(x1) - x2", "x2")
        x = np.random.default_rng(3).uniform(0.1, 1.0, size=shape)
        lead = x.shape[:-1]
        stack = [xl.parse(t, 2) for t in texts]
        val = xl.evaluate(stack, x)
        dval, grad = xl.evaluate_dual(stack, x)
        assert val.shape == dval.shape == lead + (4,)
        assert grad.shape == lead + (4, 2)
        for j, e in enumerate(stack):
            np.testing.assert_array_equal(val[..., j], xl.evaluate(e, x))
            v, g = xl.evaluate_dual(e, x)
            np.testing.assert_array_equal(dval[..., j], v)
            np.testing.assert_array_equal(grad[..., j, :], g)


class TestErrors:
    def test_syntax_error_offset(self):
        with pytest.raises(ExpressionSyntaxError) as ei:
            xl.parse("x1 + * 2", 2)
        assert ei.value.offset == 5

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifier):
            xl.parse("x1 + bogus", 2)

    def test_out_of_range_variable(self):
        with pytest.raises(UnknownIdentifier):
            xl.parse("x3", 2)

    def test_bare_function_name(self):
        with pytest.raises(ArityError):
            xl.parse("sin", 1)

    def test_empty_call(self):
        with pytest.raises(ArityError):
            xl.parse("sin()", 1)

    def test_two_argument_call(self):
        with pytest.raises(ArityError):
            xl.parse("sin(x1, x1)", 1)

    def test_trailing_tokens(self):
        with pytest.raises(ExpressionSyntaxError):
            xl.parse("x1 2", 1)

    @staticmethod
    def assert_witness(error, text, bad_point):
        """Both walks name the source and the one bad point of a batch,
        alone and as the second expression of a stacked sweep."""
        batch = np.array([[0.5, 0.25], bad_point, [2.0, -1.0]])
        expr = xl.parse(text, 2)
        for walk in (xl.evaluate, xl.evaluate_dual):
            for e in (expr, (xl.parse("x1 + x2", 2), expr)):
                with pytest.raises(error) as ei:
                    walk(e, batch)
                assert repr(text) in str(ei.value)
                assert f"point {bad_point}" in str(ei.value)

    def test_log_domain(self):
        with pytest.raises(DomainError):
            ev("log(x1)", -1.0)
        self.assert_witness(DomainError, "log(x1)", [-1.0, 0.5])

    def test_sqrt_domain(self):
        with pytest.raises(DomainError):
            ev("sqrt(x1)", -4.0)
        self.assert_witness(DomainError, "sqrt(x1)", [-4.0, 0.5])

    def test_overflow_is_nonfinite(self):
        with pytest.raises(NonFiniteValue):
            ev("exp(x1)", 1e9)
        self.assert_witness(NonFiniteValue, "exp(x1)", [1e9, 0.5])

    def test_division_by_zero_nonfinite(self):
        with pytest.raises(NonFiniteValue):
            ev("1/x1", 0.0)
        self.assert_witness(NonFiniteValue, "1/x1", [0.0, 0.5])

    def test_stack_names_the_first_bad_expression(self):
        # as with one call per expression in order: a non-finite value
        # before an out-of-domain walk is the one reported
        batch = np.array([[0.5, 0.25], [0.0, -1.0]])
        stack = (xl.parse("x2 + 1", 2), xl.parse("1/x1", 2),
                 xl.parse("log(x2)", 2))
        for walk in (xl.evaluate, xl.evaluate_dual):
            with pytest.raises(NonFiniteValue) as ei:
                walk(stack, batch)
            assert "'1/x1'" in str(ei.value)
            assert "point [0.0, -1.0]" in str(ei.value)
        # a finite value with a non-finite gradient is caught as well
        with pytest.raises(NonFiniteValue) as ei:
            xl.evaluate_dual((xl.parse("x2", 2), xl.parse("sqrt(x1)", 2)), batch)
        assert "'sqrt(x1)'" in str(ei.value)
        assert "point [0.0, -1.0]" in str(ei.value)


# a recursive strategy for well-formed expression strings
_leaf = st.sampled_from(["x1", "x2", "0.5", "2", "pi", "1.25"])


def _combine(children):
    op = st.sampled_from(["+", "-", "*"])
    return st.builds(lambda a, o, b: f"({a} {o} {b})", children, op, children) \
        | st.builds(lambda f, a: f"{f}({a})",
                    st.sampled_from(["sin", "cos", "tanh"]), children)


_exprs = st.recursive(_leaf, _combine, max_leaves=12)


class TestProperties:
    @given(_exprs)
    @settings(max_examples=120, deadline=None)
    def test_parse_evaluate_total(self, text):
        expr = xl.parse(text, 2)
        out = xl.evaluate(expr, np.array([0.3, -0.7]))
        assert np.isfinite(out)

    @given(_exprs, st.integers(0, 1))
    @settings(max_examples=60, deadline=None)
    def test_dual_matches_finite_difference(self, text, axis):
        expr = xl.parse(text, 2)
        x = np.array([0.3, -0.7])
        direction = np.eye(2)[axis]
        _, grad = xl.evaluate_dual(expr, x)
        dot = grad @ direction
        eps = 1e-6
        fd = (xl.evaluate(expr, x + eps * direction)
              - xl.evaluate(expr, x - eps * direction)) / (2 * eps)
        assert dot == pytest.approx(fd, rel=2e-4, abs=2e-6)

class TestSplitComponents:
    def test_top_level_commas_only(self):
        assert xl.split_components("0.5*t, sin(t, )") == ["0.5*t", "sin(t, )"]

    def test_nested_calls_kept_whole(self):
        parts = xl.split_components("cos(2*pi*t), 0.3")
        assert parts == ["cos(2*pi*t)", "0.3"]
