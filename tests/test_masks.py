"""Schedule and mask construction checks, including the frozen rank trajectory
and an independent one-sided Jacobi SVD as the rank oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embedkit.masks import build_soft_mask, mask_numerical_rank, rank_trajectory, schedule_alpha

# linear schedule, n = l = 16, t/tau in {0, 1/8, ..., 1}; verified against the
# Jacobi oracle below before freezing
GOLDEN_RANKS_LINEAR_16 = [16, 14, 12, 10, 8, 6, 4, 2, 1]


def jacobi_singular_values(a, sweeps=60, tol=1e-14):
    """One-sided Jacobi SVD, independent of LAPACK."""
    u = np.array(a, dtype=np.float64)
    n = u.shape[1]
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                up, uq = u[:, p].copy(), u[:, q].copy()
                app, aqq, apq = up @ up, uq @ uq, up @ uq
                off = max(off, abs(apq))
                if abs(apq) <= tol * np.sqrt(app * aqq + 1e-300):
                    continue
                zeta = (aqq - app) / (2.0 * apq)
                if abs(zeta) > 1e150:
                    t = 1.0 / (2.0 * zeta)
                else:
                    t = np.sign(zeta) / (abs(zeta) + np.sqrt(1.0 + zeta * zeta)) if zeta != 0 else 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                u[:, p], u[:, q] = c * up - s * uq, s * up + c * uq
        if off < tol:
            break
    return np.sort(np.sqrt((u * u).sum(axis=0)))[::-1]


def jacobi_rank(a, eps=1e-8):
    sv = jacobi_singular_values(a)
    return int((sv > eps * sv[0]).sum()) if sv[0] > 0 else 0


class TestScheduleAlpha:
    @pytest.mark.parametrize("kind", ["linear", "accelerating", "decelerating"])
    def test_endpoints(self, kind):
        assert schedule_alpha(kind, 0, 100) == 0.0
        assert schedule_alpha(kind, 100, 100) == 1.0

    def test_midpoints(self):
        assert schedule_alpha("linear", 50, 100) == 0.5
        assert schedule_alpha("accelerating", 50, 100) == 0.25
        assert schedule_alpha("decelerating", 50, 100) == 0.75

    def test_zero_tau_rejected(self):
        with pytest.raises(ValueError, match="^tau_steps must be positive$"):
            schedule_alpha("linear", 0, 0)

    def test_t_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"^step t=101 outside \[0, 100\]$"):
            schedule_alpha("linear", 101, 100)
        with pytest.raises(ValueError, match=r"^step t=-1 outside \[0, 100\]$"):
            schedule_alpha("linear", -1, 100)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="^unknown schedule kind 'cubic'; expected one of "):
            schedule_alpha("cubic", 0, 10)


class TestSoftMask:
    def test_endpoints_bitwise(self):
        for n in range(1, 65):
            assert build_soft_mask(n, 0.0).tobytes() == np.tril(np.ones((n, n))).tobytes()
            assert build_soft_mask(n, 1.0).tobytes() == np.ones((n, n)).tobytes()

    @pytest.mark.parametrize("alpha", [-1e-12, -1.0, 1.0 + 1e-12, 2.0, float("nan")])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ValueError, match=r"^mask alpha .* outside \[0, 1\]$"):
            build_soft_mask(4, alpha)

    def test_t0_is_exactly_causal(self):
        for n in (1, 4, 9):
            m = build_soft_mask(n, schedule_alpha("linear", 0, 7), l=5)
            np.testing.assert_array_equal(m, np.tril(np.ones((n, n))))

    def test_t_tau_is_all_ones_when_l_equals_n(self):
        m = build_soft_mask(6, schedule_alpha("linear", 7, 7))
        np.testing.assert_array_equal(m, np.ones((6, 6)))

    def test_hand_entries_at_half_time(self):
        # n = l = 4, alpha = 1/2: entry(1,2) = min(.5*4/1, 1) = 1, entry(3,4) = 2/3
        m = build_soft_mask(4, schedule_alpha("linear", 4, 8))
        assert m[0, 1] == 1.0
        assert m[2, 3] == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_lower_triangle_always_one(self):
        m = build_soft_mask(8, schedule_alpha("accelerating", 3, 9), l=3)
        np.testing.assert_array_equal(np.tril(m), np.tril(np.ones((8, 8))))

    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(["linear", "accelerating", "decelerating"]),
           t1=st.integers(0, 64), t2=st.integers(0, 64),
           i=st.integers(0, 15), j=st.integers(0, 15),
           l=st.integers(1, 24))
    def test_entries_monotone_in_t(self, kind, t1, t2, i, j, l):
        if t1 > t2:
            t1, t2 = t2, t1
        m1 = build_soft_mask(16, schedule_alpha(kind, t1, 64), l)
        m2 = build_soft_mask(16, schedule_alpha(kind, t2, 64), l)
        assert m1[i, j] <= m2[i, j]

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 24), alpha=st.floats(0.0, 1.0), l=st.integers(1, 24))
    def test_entries_in_unit_interval_with_ones_below_diagonal(self, n, alpha, l):
        m = build_soft_mask(n, alpha, l)
        assert m.shape == (n, n) and np.isfinite(m).all()
        assert m.min() >= 0.0 and m.max() <= 1.0
        np.testing.assert_array_equal(np.tril(m), np.tril(np.ones((n, n))))

    def test_earlier_rows_saturate_no_later(self):
        # first t at which a row's upper entries hit 1 is non-decreasing in the row
        n = 12
        first_sat = []
        for i in range(n - 1):   # last row has no upper entries
            for t in range(0, 65):
                m = build_soft_mask(n, schedule_alpha("linear", t, 64))
                if np.all(m[i, i + 1:] == 1.0):
                    first_sat.append(t)
                    break
        assert first_sat == sorted(first_sat)


class TestNumericalRank:
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_causal_full_rank(self, n):
        assert mask_numerical_rank(build_soft_mask(n, 0.0)) == n

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_all_ones_rank_one(self, n):
        assert mask_numerical_rank(build_soft_mask(n, 1.0)) == 1

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            mask_numerical_rank(np.array([[1.0, np.inf], [0.0, 1.0]]))

    def test_golden_trajectory_linear_16(self):
        traj = rank_trajectory("linear", 16, samples=9)
        assert [r for _, r in traj] == GOLDEN_RANKS_LINEAR_16

    def test_trajectory_non_increasing_all_kinds(self):
        for kind in ("linear", "accelerating", "decelerating"):
            ranks = [r for _, r in rank_trajectory(kind, 16, samples=9)]
            assert all(a >= b for a, b in zip(ranks, ranks[1:]))

    def test_rank_agrees_with_jacobi_oracle(self):
        for t in range(9):
            m = build_soft_mask(16, schedule_alpha("linear", t, 8))
            assert mask_numerical_rank(m) == jacobi_rank(m)

    def test_midpoint_rank_fixed_by_oracle(self):
        m = build_soft_mask(16, schedule_alpha("linear", 4, 8))
        assert mask_numerical_rank(m) == 8
        assert jacobi_rank(m) == 8
