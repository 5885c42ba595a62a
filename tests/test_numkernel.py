import numpy as np
import pytest
from hypothesis import given, strategies as st

from navgeo import numkernel as nk
from navgeo.errors import NonFiniteState, NotPositiveDefinite


finite = st.floats(min_value=-50, max_value=50,
                   allow_nan=False, allow_infinity=False)


class TestDual:
    def test_arithmetic_chain(self):
        x = nk.Dual(2.0, 1.0)
        y = (x * x + 3.0 * x - 1.0) / x
        # f = (x^2 + 3x - 1)/x = x + 3 - 1/x, f' = 1 + 1/x^2
        assert y.val == pytest.approx((4.0 + 6.0 - 1.0) / 2.0)
        assert y.dot == pytest.approx(1.0 + 0.25)

    def test_reflected_ops_with_arrays(self):
        x = nk.Dual(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
        y = np.array([10.0, 20.0]) - x
        assert isinstance(y, nk.Dual)
        assert np.allclose(y.val, [9.0, 18.0])
        assert np.allclose(y.dot, [-1.0, -1.0])

    @given(finite, st.floats(min_value=0.1, max_value=4.0))
    def test_pow_matches_finite_difference(self, base_shift, p):
        x0 = 1.5 + abs(base_shift) / 25.0
        d = nk.Dual(x0, 1.0) ** p
        eps = 1e-6
        fd = ((x0 + eps) ** p - (x0 - eps) ** p) / (2 * eps)
        assert d.dot == pytest.approx(fd, rel=1e-4)

    def test_square_fast_path(self):
        d = nk.Dual(3.0, 1.0) ** 2
        assert d.val == 9.0 and d.dot == 6.0

    def test_functions_chain_rule(self):
        x = nk.Dual(0.7, 1.0)
        y = nk.sin(x) * nk.exp(x) + nk.log(nk.sqrt(x)) + nk.tanh(x)
        f = lambda t: np.sin(t) * np.exp(t) + np.log(np.sqrt(t)) + np.tanh(t)
        eps = 1e-7
        fd = (f(0.7 + eps) - f(0.7 - eps)) / (2 * eps)
        assert y.val == pytest.approx(f(0.7))
        assert y.dot == pytest.approx(fd, rel=1e-6)

    def test_value_of(self):
        assert nk.value_of(nk.Dual(2.5, 1.0)) == 2.5
        assert nk.value_of(3.25) == 3.25


class TestSpdSolvers:
    def test_spd_inverse_batched(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(5, 2, 2))
        ms = np.einsum("bij,bkj->bik", a, a) + 2 * np.eye(2)
        inv = nk.spd_inverse(ms)
        eye = np.einsum("bij,bjk->bik", ms, inv)
        assert np.allclose(eye, np.eye(2), atol=1e-12)

    def test_spd_inverse_rejects_indefinite_in_batch(self):
        ms = np.stack([np.eye(2), -np.eye(2)])
        with pytest.raises(NotPositiveDefinite):
            nk.spd_inverse(ms)


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
        assert np.array_equal(nk.positive_definite(h), want)

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
        assert np.array_equal(nk.positive_definite(h), want)

    def test_zero_pivot_fails_without_warnings(self):
        h = np.array([[[0.0, 1.0], [1.0, 1.0]], [[1.0, 0.0], [0.0, 0.0]],
                      [[2.0, 0.5], [0.5, 1.0]]])
        with np.errstate(all="raise"):
            assert nk.positive_definite(h).tolist() == [False, False, True]


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

    def test_row_leaving_the_predicate_freezes(self):
        # v' = 1 from 0 and 0.5 while v < 1.25: the second row stops at
        # index 7 (v = 1.2) and the first runs on to 1.0
        v, traj, stop = nk.rk4(lambda s, v: np.ones_like(v),
                               np.array([[0.0], [0.5]]), 10, 0.1, keep=True,
                               inside=lambda v: v[:, 0] < 1.25)
        assert stop.tolist() == [10, 7]
        assert np.allclose(v[:, 0], [1.0, 1.2], atol=1e-12)
        assert np.allclose(traj[1, 7:, 0], 1.2, atol=1e-12)
        assert traj.shape == (2, 11, 1)

    def test_nonfinite_state_names_the_row_and_step(self):
        # step 2 (half steps 2..4) is the first to read s = 4
        def rhs(s, v):
            return np.where((s >= 4) & (v > 0), np.inf, v)
        with pytest.raises(NonFiniteState, match="row 1 .* at step 2 "):
            nk.rk4(rhs, np.array([[-1.0], [1.0]]), 5, 0.1)


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
    # rows 0 and 2 share curve 0, row 1 runs alone on curve 1
    ROWS = np.array([0, 1, 0])

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("keep", [False, True])
    def test_step_maps_match_rk4(self, m, keep):
        rng = np.random.default_rng(m)
        k = _smooth_tables(rng, 2, 150, m)
        v0 = rng.normal(size=(3, m))
        want, want_traj = _rk4_on_tables(k, v0, self.ROWS, keep)
        got, got_traj = nk.rk4_linear(k, 1.0 / 150, v0, self.ROWS, keep)
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-13 * scale
        if keep:
            assert got_traj.shape == want_traj.shape == (3, 151, m)
            assert np.abs(got_traj - want_traj).max() <= 1e-13 * scale
        else:
            assert got_traj is None

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_propagator_is_rk4_of_the_basis(self, m):
        rng = np.random.default_rng(10 + m)
        k = _smooth_tables(rng, 2, 101, m)
        prop = nk.rk4_propagators(k, 1.0 / 101)
        for u in range(2):
            cols = _rk4_on_tables(k, np.eye(m), np.full(m, u), False)[0].T
            assert np.abs(prop[u] - cols).max() <= 1e-13 * np.abs(cols).max()

    @pytest.mark.parametrize("keep", [False, True])
    def test_overflow_names_the_same_row_and_step(self, keep):
        # curve 1 blows up from half step 11 on, which step 6 reads first;
        # its first row is row 1
        k = _smooth_tables(np.random.default_rng(3), 2, 20, 2)
        k[1, 11:] *= 1e200
        v0 = np.array([[1.0, 0.5], [0.3, -1.0], [-0.7, 0.2]])
        with pytest.raises(NonFiniteState) as via_rk4:
            _rk4_on_tables(k, v0, self.ROWS[[0, 1, 1]], keep)
        with pytest.raises(NonFiniteState) as via_maps:
            nk.rk4_linear(k, 1.0 / 20, v0, self.ROWS[[0, 1, 1]], keep)
        assert "row 1 " in str(via_rk4.value) and "step 6 " in str(via_rk4.value)
        assert str(via_maps.value) == str(via_rk4.value)

    def test_overflowing_propagator_names_a_basis_row(self):
        k = _smooth_tables(np.random.default_rng(4), 2, 20, 2)
        k[1, 11:] *= 1e200
        with pytest.raises(NonFiniteState, match="row 2 .* at step 6 "):
            nk.rk4_propagators(k, 1.0 / 20)


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
