import numpy as np
import pytest
from hypothesis import given, strategies as st

from navgeo import numkernel as nk
from navgeo import stages
from navgeo import transport as tr
from navgeo.errors import NonFiniteState
from navgeo.geometry import christoffel
from navgeo.scenarios import scenario_from_dict

import helpers as hp


finite = st.floats(min_value=-50, max_value=50,
                   allow_nan=False, allow_infinity=False)


class TestDual:
    """The dual numbers of the test oracle (tests/helpers.py)."""

    def test_arithmetic_chain(self):
        x = hp.Dual(2.0, 1.0)
        y = (x * x + 3.0 * x - 1.0) / x
        # f = (x^2 + 3x - 1)/x = x + 3 - 1/x, f' = 1 + 1/x^2
        assert y.val == pytest.approx((4.0 + 6.0 - 1.0) / 2.0)
        assert y.dot == pytest.approx(1.0 + 0.25)

    def test_reflected_ops_with_arrays(self):
        x = hp.Dual(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
        y = np.array([10.0, 20.0]) - x
        assert isinstance(y, hp.Dual)
        assert np.allclose(y.val, [9.0, 18.0])
        assert np.allclose(y.dot, [-1.0, -1.0])

    @given(finite, st.floats(min_value=0.1, max_value=4.0))
    def test_pow_matches_finite_difference(self, base_shift, p):
        x0 = 1.5 + abs(base_shift) / 25.0
        d = hp.Dual(x0, 1.0) ** p
        eps = 1e-6
        fd = ((x0 + eps) ** p - (x0 - eps) ** p) / (2 * eps)
        assert d.dot == pytest.approx(fd, rel=1e-4)

    def test_square_fast_path(self):
        d = hp.Dual(3.0, 1.0) ** 2
        assert d.val == 9.0 and d.dot == 6.0

    def test_functions_chain_rule(self):
        x = hp.Dual(0.7, 1.0)
        y = hp.sin(x) * hp.exp(x) + hp.log(hp.sqrt(x)) + hp.tanh(x)
        f = lambda t: np.sin(t) * np.exp(t) + np.log(np.sqrt(t)) + np.tanh(t)
        eps = 1e-7
        fd = (f(0.7 + eps) - f(0.7 - eps)) / (2 * eps)
        assert y.val == pytest.approx(f(0.7))
        assert y.dot == pytest.approx(fd, rel=1e-6)

    def test_value_of(self):
        assert hp.value_of(hp.Dual(2.5, 1.0)) == 2.5
        assert hp.value_of(3.25) == 3.25


class TestPositiveDefinite:
    @staticmethod
    def _spectral(rng, count, n, lo, hi):
        """Symmetric matrices Q diag(e) Q^T with |e| in [lo, hi] and random
        signs, so every eigenvalue stays clear of zero."""
        q, _ = np.linalg.qr(rng.normal(size=(count, n, n)))
        e = rng.uniform(lo, hi, size=(count, n)) * rng.choice([-1.0, 1.0],
                                                              size=(count, n))
        e[: count // 2] = np.abs(e[: count // 2])
        return np.einsum("bij,bj,bkj->bik", q, e, q)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_pivots_agree_with_eigenvalues(self, n):
        rng = np.random.default_rng(n)
        h = self._spectral(rng, 4000, n, 1e-2, 3.0)
        want = np.linalg.eigvalsh(h).min(axis=-1) > 0.0
        assert 0 < want.sum() < len(h)
        assert np.array_equal(stages.positive_definite(h), want)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_last_pivot_alone_can_fail(self, n):
        # a positive definite leading block a with the last row b and
        # corner b a^-1 b - c: the Schur complement -c is the last pivot
        rng = np.random.default_rng(10 + n)
        a = self._spectral(rng, 2000, n - 1, 0.1, 3.0)
        a = np.einsum("bij,bkj->bik", a, a)  # square the spectrum: SPD
        b = rng.normal(size=(2000, n - 1))
        c = rng.uniform(0.05, 1.0, size=2000) * rng.choice([-1.0, 1.0],
                                                           size=2000)
        h = np.empty((2000, n, n))
        h[:, :-1, :-1], h[:, :-1, -1], h[:, -1, :-1] = a, b, b
        h[:, -1, -1] = np.einsum("bi,bi->b", b, np.linalg.solve(
            a, b[..., None])[..., 0]) - c
        assert np.all(np.linalg.eigvalsh(a) > 0.0)
        want = np.linalg.eigvalsh(h).min(axis=-1) > 0.0
        assert np.array_equal(want, c < 0.0)
        assert np.array_equal(stages.positive_definite(h), want)

    def test_zero_pivot_fails_without_warnings(self):
        h = np.array([[[0.0, 1.0], [1.0, 1.0]], [[1.0, 0.0], [0.0, 0.0]],
                      [[2.0, 0.5], [0.5, 1.0]]])
        with np.errstate(all="raise"):
            assert stages.positive_definite(h).tolist() == [False, False, True]


class TestRk4:
    def test_exponential_order(self):
        # y' = y, y(0) = 1; error at t=1 scales like dt^4
        def run(dt):
            y, _, _ = nk.rk4(lambda s, v: v, np.ones((1, 1)), round(1.0 / dt),
                             dt)
            return abs(y[0, 0] - np.e)
        e1, e2 = run(0.1), run(0.05)
        assert 12.0 < e1 / e2 < 20.0

    def test_nonfinite_state_detected(self):
        with pytest.raises(NonFiniteState):
            nk.rk4(lambda s, v: v * np.inf, np.ones((1, 2)), 1, 0.1)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            nk.rk4(lambda s, v: v, np.ones((1, 1)), 1, 0.0)

    def test_step_count_is_bounded(self):
        assert nk.uniform_steps(1.0, 1.0 / nk.MAX_STEPS)[0] == nk.MAX_STEPS
        for span, dt in ((1.0, 0.9 / nk.MAX_STEPS), (1e300, 1e-300)):
            with pytest.raises(ValueError, match="MAX_STEPS"):
                nk.uniform_steps(span, dt)

    def test_row_leaving_the_predicate_freezes(self):
        # v' = 1 from 0 and 0.5 while v < 1.25: the second row stops at
        # index 7 (v = 1.2) and the first runs on to 1.0, on NumPy and on
        # floats alike, bit for bit
        runs = [nk.rk4(lambda s, v: np.ones_like(v), np.array([[0.0], [0.5]]),
                       10, 0.1, keep=True, inside=lambda v: v[:, 0] < 1.25,
                       float_run=run)
                for run in (None, hp.float_rows([lambda s, v: (1.0,)] * 2,
                                                lambda v: v[0] < 1.25))]
        for v, traj, stop in runs:
            assert stop.tolist() == [10, 7]
            assert np.allclose(v[:, 0], [1.0, 1.2], atol=1e-12)
            assert np.allclose(traj[1, 7:, 0], 1.2, atol=1e-12)
            assert traj.shape == (2, 11, 1)
        for got, want in zip(runs[1], runs[0]):
            np.testing.assert_array_equal(got, want)

    def test_nonfinite_state_names_the_row_and_step(self):
        # step 2 (half steps 2..4) is the first to read s = 4; on floats,
        # the step of row 1 gives inf there and is redone on NumPy
        def rhs(s, v):
            return np.where((s >= 4) & (v > 0), np.inf, v)

        def row(s, v):
            return (np.inf,) if s >= 4 and v[0] > 0 else v
        for run in (None, hp.float_rows([row] * 2)):
            with pytest.raises(NonFiniteState, match="row 1 .* at step 2 "):
                nk.rk4(rhs, np.array([[-1.0], [1.0]]), 5, 0.1,
                       float_run=run)

    def test_float_steps_match_numpy_steps(self):
        # the two renderings of one RK4 step: v' = (v2, -v1 v2) on tuples
        # and on arrays take the same operations in the same order
        def numpy_rhs(s, v):
            return np.stack([v[:, 1], -v[:, 0] * v[:, 1]], axis=1)
        v0 = np.array([[0.3, 1.0], [-1.2, 0.4], [2.0, -0.7]])
        want = nk.rk4(numpy_rhs, v0, 50, 0.02, keep=True)
        got = nk.rk4(numpy_rhs, v0, 50, 0.02, keep=True,
                     float_run=hp.float_rows(
                         [lambda s, v: (v[1], -v[0] * v[1])] * 3))
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)


def _smooth_tables(rng, curves, steps, m):
    """k[u, s] = C0 + C1 sin(2 pi t) + C2 cos(3 t) at the half steps
    t = s / (2 steps) of each curve u: smooth, nonsymmetric, order one."""
    t = np.linspace(0.0, 1.0, 2 * steps + 1)[None, :, None, None]
    c = rng.normal(size=(3, curves, 1, m, m))
    return c[0] + c[1] * np.sin(2 * np.pi * t) + c[2] * np.cos(3.0 * t)


def _rk4_on_tables(k, v0, rows, keep):
    steps = (k.shape[1] - 1) // 2
    return nk.rk4(lambda s, v: np.einsum("bkl,bl->bk", k[rows, s], v), v0,
                  steps, 1.0 / steps, keep)[:2]


class TestRk4Linear:
    """Linear systems tabled before the loop, as the metric transport runs
    them (`transport._run_linear`): every state from the propagators of
    the RK4 step maps, against `rk4` stepping the same tables on NumPy."""
    # row -> curve maps that share curves out of order
    ROWS = np.array([2, 0, 2, 1, 0])

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("keep", [False, True])
    def test_step_maps_match_rk4(self, m, keep):
        # endpoints and trajectories of batches of 1, SCALAR_ROWS and
        # SCALAR_ROWS + 1 rows agree with rk4 within round-off
        rng = np.random.default_rng(m)
        k = _smooth_tables(rng, 3, 150, m)
        for batch in (1, nk.SCALAR_ROWS, nk.SCALAR_ROWS + 1):
            rows = np.resize(self.ROWS, batch)
            v0 = rng.normal(size=(batch, m))
            got, got_traj = tr._run_linear(k, rows, v0, keep)
            want, want_traj = _rk4_on_tables(k, v0, rows, keep)
            scale = np.abs(want).max()
            assert np.abs(got - want).max() <= 1e-13 * scale
            if keep:
                assert got_traj.shape == want_traj.shape == (batch, 151, m)
                assert (np.abs(got_traj - want_traj).max()
                        <= 1e-13 * np.abs(want_traj).max())
            else:
                assert got_traj is None

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_propagator_is_rk4_of_the_basis(self, m):
        # entry j, column i: basis vector i after step j + 1
        rng = np.random.default_rng(10 + m)
        k = _smooth_tables(rng, 2, 101, m)
        prop = nk.rk4_propagators(k, 1.0 / 101)
        assert prop.shape == (2, 101, m, m)
        for u in range(2):
            traj = _rk4_on_tables(k, np.eye(m), np.full(m, u), True)[1]
            cols = traj[:, 1:].transpose(1, 2, 0)
            assert np.abs(prop[u] - cols).max() <= 1e-13 * np.abs(cols).max()

    @pytest.mark.parametrize("keep", [False, True])
    def test_overflow_names_the_same_row_and_step(self, keep):
        # curve 1 blows up from half step 11 on, which step 6 reads first;
        # its first row is row 1. Its propagators overflow, and the route
        # raises the NumPy lockstep loop's error.
        k = _smooth_tables(np.random.default_rng(3), 2, 20, 2)
        k[1, 11:] *= 1e200
        v0 = np.array([[1.0, 0.5], [0.3, -1.0], [-0.7, 0.2]])
        rows = np.array([0, 1, 1])
        assert not np.isfinite(nk.rk4_propagators(k, 0.05)[1]).all()
        with pytest.raises(NonFiniteState) as via_rk4:
            _rk4_on_tables(k, v0, rows, keep)
        with pytest.raises(NonFiniteState) as via_route:
            tr._run_linear(k, rows, v0, keep)
        assert "row 1 " in str(via_rk4.value) and "step 6 " in str(via_rk4.value)
        assert str(via_route.value) == str(via_rk4.value)

    def test_overflowing_propagator_names_a_basis_row(self):
        # h = diag(1, exp(2 x1)) along x1 = 1e100 t (1 - t) (2t - 1), on the
        # chart's x1 = 0 at all three samples of one step: e1 stays put,
        # while e2 meets -A^2_12 cdot^1 of order 1e100 and overflows
        nav = scenario_from_dict({
            "schema": 1, "name": "warped", "dim": 2,
            "domain": {"kind": "ball", "center": [0.0, 0.0], "radius": 0.9},
            "metric": [["1", "0"], ["exp(2*x1)"]], "wind": ["0", "0"]}).nav
        curve = tr.AnalyticCurve.from_strings(["1e100*t*(1-t)*(2*t-1)", "0"])
        pos, vel, _ = tr._sample_tables([curve], 1, nav.chart)
        k = tr._linear_rhs_tables(christoffel(nav.metric, pos), vel)
        assert not np.isfinite(nk.rk4_propagators(k, 1.0)).all()
        with pytest.raises(NonFiniteState, match="row 1 .* at step 1 "):
            tr.riemann_transport_matrix(nav.metric, curve, 1.0, nav.chart)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


class TestPropagatorsFromTheTableau:
    """rk4_propagators' step maps are the tableau's own step applied to
    the identity: bit for bit the maps written out by hand (signs of zero
    included), and so the same scan."""

    @pytest.mark.parametrize("u, n, m", [(1, 1000, 2), (1, 1000, 3),
                                         (3, 500, 4), (2, 40, 3), (1, 2, 2),
                                         (2, 1, 4)])
    def test_random_tables(self, u, n, m):
        k = np.random.default_rng(100 * m + n).normal(size=(u, 2 * n + 1, m, m))
        got = nk.rk4_propagators(k, 1.0 / n)
        assert np.array_equal(_bits(got), _bits(hp.propagators_oracle(k, 1.0 / n)))

    def test_negative_zero_table(self):
        k = np.full((2, 41, 3, 3), -0.0)
        got = nk.rk4_propagators(k, 0.05)
        assert np.array_equal(_bits(got), _bits(hp.propagators_oracle(k, 0.05)))
        assert np.array_equal(got, np.broadcast_to(np.eye(3), got.shape))

    @pytest.mark.parametrize("blow", [1e300, np.inf])
    def test_overflowing_table(self, blow):
        k = np.random.default_rng(4).normal(size=(2, 41, 3, 3))
        k[1, 11:] *= blow
        got, want = nk.rk4_propagators(k, 0.05), hp.propagators_oracle(k, 0.05)
        finite = np.isfinite(want)
        assert not finite.all()
        assert np.array_equal(np.isfinite(got), finite)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.array_equal(_bits(got[finite]), _bits(want[finite]))


def _one_rank(a, tol):
    """The rank of one matrix as numeric_rank counted it before it took
    stacks."""
    svals = np.linalg.svd(a, compute_uv=False)
    if svals[0] == 0.0:
        return 0
    return int(np.count_nonzero(svals > tol * svals[0]))


class TestNumericRank:
    def test_exact_ranks(self):
        vs = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0], [1.0, 1.0, 0, 0]])
        assert nk.numeric_rank(vs) == 2
        assert nk.numeric_rank(np.eye(4)) == 4

    def test_relative_tolerance(self):
        vs = np.array([[1e6, 0.0], [0.0, 1e-3]])
        # 1e-3 / 1e6 = 1e-9 < 1e-7 relative: counts as rank 1
        assert nk.numeric_rank(vs, tol=1e-7) == 1
        assert nk.numeric_rank(vs, tol=1e-10) == 2

    def test_degenerate_inputs(self):
        assert nk.numeric_rank(np.array([0.0, 2.0, 0.0])) == 1
        assert nk.numeric_rank(np.zeros(3)) == 0
        assert nk.numeric_rank(np.zeros((4, 3))) == 0
        assert nk.numeric_rank([]) == 0
        assert nk.numeric_rank(np.zeros((0, 3))) == 0
        assert type(nk.numeric_rank(np.eye(2))) is int

    @pytest.mark.parametrize("k, m", [(3, 3), (7, 4), (2, 5), (14, 6)])
    def test_stack_matches_each_matrix(self, k, m):
        # full-rank, rank-deficient and all-zero matrices in one stack,
        # against one SVD per matrix
        rng = np.random.default_rng(k * m)
        stack = rng.normal(size=(12, k, m))
        for i, r in enumerate(range(min(k, m) + 1)):
            stack[i] = rng.normal(size=(k, r)) @ rng.normal(size=(r, m))
        stack[-1] = 0.0
        stack[-2, :, 0] *= 1e-9
        for tol in (1e-7, 1e-12):
            got = nk.numeric_rank(stack, tol)
            want = [_one_rank(a, tol) for a in stack]
            assert got.shape == (12,)
            assert got.tolist() == want
            assert nk.numeric_rank(stack.reshape(3, 4, k, m), tol).tolist() == (
                np.reshape(want, (3, 4)).tolist())

    def test_empty_stacks(self):
        assert nk.numeric_rank(np.zeros((0, 3, 2))).shape == (0,)
        assert nk.numeric_rank(np.zeros((4, 0, 2))).tolist() == [0] * 4


class TestCentralTimeDerivative:
    def test_fifth_degree_near_exact(self):
        # the five-point stencil is exact through degree 4
        dt = 0.01
        t = np.arange(0, 1, dt)
        s = np.stack([t ** 4, np.sin(t)], axis=1)
        d = nk.central_time_derivative(s, dt)
        expect = np.stack([4 * t ** 3, np.cos(t)], axis=1)[2:-2]
        assert np.abs(d[:, 0] - expect[:, 0]).max() < 1e-12
        assert np.abs(d[:, 1] - expect[:, 1]).max() < 1e-9

    def test_alignment(self):
        dt = 0.1
        s = np.arange(10.0)[:, None]
        d = nk.central_time_derivative(s, dt)
        assert d.shape == (6, 1)
        assert np.allclose(d, 10.0)
