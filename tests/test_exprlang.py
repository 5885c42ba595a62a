import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import Dual, walk_sweep
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

# points where every expression the strategy builds is finite
_BATCH = np.array([[0.3, -0.7], [1.1, 0.4], [-0.2, 0.05]])


def _error(sweep, e, x, dual):
    """(type, message) of the error a sweep raises, or None."""
    try:
        sweep(e, x, dual)
    except (DomainError, NonFiniteValue) as exc:
        return type(exc), str(exc)
    return None


def _compiled_sweep(e, x, dual):
    x = np.asarray(x, dtype=float)
    return xl.compile_stack(e).sweep(x, dual)


class TestCompiledAgainstWalk:
    """Compiled programs against the recursive walk of tests/helpers.py."""

    @given(_exprs, _exprs)
    @settings(max_examples=120, deadline=None)
    def test_random_stacks_match_bitwise(self, a, b):
        stack = (xl.parse(a, 2), xl.parse(b, 2), xl.parse(a, 2))
        for x in (_BATCH, _BATCH[0], _BATCH[:, None, :]):
            for dual in (False, True):
                got = _compiled_sweep(stack, x, dual)
                want = walk_sweep(stack, x, dual)
                np.testing.assert_array_equal(got[0], want[0])
                if dual:
                    np.testing.assert_array_equal(got[1], want[1])

    def test_variable_exponents_within_a_few_ulps(self):
        # values equal the value walk; the walk's dual route exp(b log a)
        # differs from a^b in the last bits, so gradients below a variable
        # exponent agree to a few ulps only (at most 4 measured here)
        x = np.random.default_rng(0).uniform(0.1, 2.0, size=(1000, 2))
        stack = [xl.parse(t, 2) for t in
                 ("2^x1", "x1^x2", "(1+x1^2)^x2", "e^(x1*x2)", "x1^(x2/3)")]
        val, grad = _compiled_sweep(stack, x, True)
        np.testing.assert_array_equal(val, walk_sweep(stack, x, False)[0])
        want = walk_sweep(stack, x, True)[1]
        ulps = np.abs(grad - want) / np.spacing(np.abs(want))
        assert ulps.max() <= 8.0

    @pytest.mark.parametrize("texts, bad", [
        (("x1 + x2", "log(x1)"), [-1.0, 0.5]),
        (("sqrt(x2) + log(x1)", "x2"), [-1.0, -0.5]),
        (("exp(log(x1)) + x2", "2*log(x1)"), [0.0, 0.5]),
        (("1/x1", "log(x2)"), [0.0, -1.0]),
        (("x2", "log(x2) + 1/x1"), [0.0, -1.0]),
        (("x2", "sqrt(x1)"), [0.0, 0.5]),
        (("x1", "log(0-1) + x1"), [1.0, 0.5]),
        (("exp(x1)", "sqrt(x1 - x1)"), [1e9, 0.5]),
    ])
    def test_errors_match_the_walk(self, texts, bad):
        batch = np.array([[0.5, 0.25], bad, [2.0, 1.0]])
        stack = tuple(xl.parse(t, 2) for t in texts)
        for dual in (False, True):
            got = _error(_compiled_sweep, stack, batch, dual)
            assert got == _error(walk_sweep, stack, batch, dual)
            assert got is not None or not dual

    @pytest.mark.parametrize("text", ["1/0", "0^-1", "10^400", "(0-8)^(1/3)"])
    def test_bad_constant_subtree_names_the_first_point(self, text):
        # constants fold in float64 arithmetic, so an overflow, a pole or a
        # complex power is a non-finite value with a witness
        batch = np.array([[0.5, 0.25], [2.0, 1.0]])
        for walk in (xl.evaluate, xl.evaluate_dual):
            with pytest.raises(NonFiniteValue) as ei:
                walk(xl.parse(f"x1 + {text}", 2), batch)
            assert "point [0.5, 0.25]" in str(ei.value)


def _float_sweep(stack, x):
    """Values and gradients of a stack at one point from its builder
    lines rendered on Python floats."""
    b = xl._Builder(2, coords=("x0", "x1"))
    refs = [b.value(e.root) for e in stack]
    refs += [d for e in stack for d in b.gradient(e.root)]
    ret = (None, "return (" + "".join(
        f"{{{i}}}, " for i in range(len(refs))) + ")",
        tuple(0.0 if r is None else r for r in refs))
    fn = xl.float_function("f", "x0, x1", b.lines + b.dlines + [ret])
    out = np.array(fn(*x))
    return out[:len(stack)], out[len(stack):].reshape(len(stack), 2)


# f, f', |f'| as the derivative line forms it with its sum over absolute
# values (tanh's line is 1 - t * t), and f'', for the functions the
# strategy draws
_CURVES = {
    "sin": (np.sin, np.cos, lambda a: np.abs(np.cos(a)), lambda a: -np.sin(a)),
    "cos": (np.cos, lambda a: -np.sin(a), lambda a: np.abs(np.sin(a)),
            lambda a: -np.cos(a)),
    "tanh": (np.tanh, lambda a: 1.0 - np.tanh(a) ** 2,
             lambda a: 1.0 + np.tanh(a) ** 2,
             lambda a: -2.0 * np.tanh(a) * (1.0 - np.tanh(a) ** 2)),
}


def _running_error(node, x):
    """(value, magnitude) of a strategy expression at one point x, each a
    Dual over the two coordinates: the value with its gradient, and the
    running-error magnitude of both.

    The float rendering and the NumPy program do the same operations in
    the same order and differ only where math.sin, math.cos or math.tanh
    and their NumPy twins differ by an ulp. A later sum can cancel such an
    ulp down to a small result. The magnitude takes every sum, of values
    and of the gradient's product-rule terms, over absolute values; a
    function passes on its argument's slack, magnitude - |value|, times
    |f'| (and |f''| times the gradient, in the gradient). Where nothing
    cancels the slack is 0 and the magnitude is |value|."""
    if isinstance(node, xl.Num):
        return Dual(node.value, np.zeros(2)), Dual(abs(node.value), np.zeros(2))
    if isinstance(node, xl.Var):
        seed = np.eye(2)[node.index]
        return Dual(x[node.index], seed), Dual(abs(x[node.index]), seed)
    if isinstance(node, xl.Binary):
        va, ma = _running_error(node.lhs, x)
        vb, mb = _running_error(node.rhs, x)
        if node.op == "*":
            return va * vb, ma * mb
        return (va + vb if node.op == "+" else va - vb), ma + mb
    f, df, df_line, ddf = _CURVES[node.fn]
    v, m = _running_error(node.arg, x)
    slack = m.val - abs(v.val)
    return (Dual(f(v.val), df(v.val) * v.dot),
            Dual(abs(f(v.val)) + abs(df(v.val)) * slack,
                 df_line(v.val) * m.dot + abs(ddf(v.val) * v.dot) * slack))


def _assert_float_code_matches_the_program(stack, x):
    """The float rendering against the NumPy program, to 1e-14 of the
    running-error magnitude of each value and 1e-14 + 1e-13 of that of
    each gradient entry: allclose(rtol=1e-14) and allclose(rtol=1e-13,
    atol=1e-14) wherever no sum cancels."""
    val, grad = _compiled_sweep(stack, x, True)
    got_val, got_grad = _float_sweep(stack, x)
    mags = [_running_error(e.root, x)[1] for e in stack]
    mag_val = np.array([m.val for m in mags])
    mag_grad = np.array([m.dot for m in mags])
    assert np.all(np.abs(got_val - val) <= 1e-14 * mag_val + 1e-300), (
        stack, x, got_val, val, mag_val)
    assert np.all(np.abs(got_grad - grad) <= 1e-13 * mag_grad + 1e-14), (
        stack, x, got_grad, grad, mag_grad)


class TestFloatRendering:
    """The builder's lines rendered on Python floats against the NumPy
    program: the same numbers, and a failure where NumPy gives inf or NaN."""

    @given(_exprs, _exprs)
    @example(a="(x1 + (x1 + tanh(x2)))", b="x2")
    @settings(max_examples=80, deadline=None)
    def test_random_stacks_match_the_program(self, a, b):
        stack = (xl.parse(a, 2), xl.parse(b, 2))
        for x in _BATCH:
            _assert_float_code_matches_the_program(stack, x)

    def test_a_sum_that_cancels_a_tanh_ulp(self):
        # math.tanh(-0.7) and np.tanh(-0.7) may differ by an ulp, and
        # x1 + (x1 + tanh(x2)) cancels at (0.3, -0.7) to -0.00437: a
        # relative difference of up to 5e-14, past rtol 1e-14, but within
        # 1e-14 of the magnitude 0.3 + 0.3 + |tanh(-0.7)|
        stack = (xl.parse("x1 + (x1 + tanh(x2))", 2),)
        x = np.array([0.3, -0.7])
        value, mag = _running_error(stack[0].root, x)
        assert abs(value.val) < 0.005
        assert mag.val == 0.3 + (0.3 + abs(np.tanh(-0.7)))
        _assert_float_code_matches_the_program(stack, x)

    @pytest.mark.parametrize("text", ["log(x1)", "sqrt(x1)", "1/x1",
                                      "x1^(1/3)", "x2^x1", "exp(x2)",
                                      "x2^2", "tanh(x2) + x1^-1"])
    def test_failures_where_numpy_is_not_finite(self, text):
        # at x1 = 0 or -8 and x2 = 800 the program raises; the float code
        # raises ValueError, ZeroDivisionError or OverflowError, or gives a
        # non-finite number, and agrees with the program elsewhere
        stack = (xl.parse(text, 2),)
        for x in ([0.0, 800.0], [-8.0, 800.0], [0.5, 1.5]):
            try:
                want = _compiled_sweep(stack, np.array(x), True)
            except (DomainError, NonFiniteValue):
                want = None
            try:
                got = _float_sweep(stack, x)
                finite = np.isfinite(np.concatenate([g.ravel() for g in got]))
            except (ValueError, ZeroDivisionError, OverflowError):
                got, finite = None, np.array([False])
            if want is None:
                assert not finite.all(), (text, x)
            else:
                assert finite.all(), (text, x)
                np.testing.assert_allclose(got[0], want[0], rtol=1e-14)
                np.testing.assert_allclose(got[1], want[1], rtol=1e-13)


class TestSplitComponents:
    def test_top_level_commas_only(self):
        assert xl.split_components("0.5*t, sin(t, )") == ["0.5*t", "sin(t, )"]

    def test_nested_calls_kept_whole(self):
        parts = xl.split_components("cos(2*pi*t), 0.3")
        assert parts == ["cos(2*pi*t)", "0.3"]
