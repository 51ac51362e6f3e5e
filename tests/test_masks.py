"""Schedule and mask construction checks, including the frozen rank trajectory
and an independent one-sided Jacobi SVD as the rank oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embedkit.masks import (AttentionMask, ScheduleState, bidirectional_mask, build_soft_mask,
                            causal_mask, mask_numerical_rank, rank_trajectory, schedule_alpha)

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
        assert schedule_alpha(ScheduleState(kind, 0, 100)) == 0.0
        assert schedule_alpha(ScheduleState(kind, 100, 100)) == 1.0

    def test_midpoints(self):
        assert schedule_alpha(ScheduleState("linear", 50, 100)) == 0.5
        assert schedule_alpha(ScheduleState("accelerating", 50, 100)) == 0.25
        assert schedule_alpha(ScheduleState("decelerating", 50, 100)) == 0.75

    def test_zero_tau_rejected(self):
        with pytest.raises(ValueError):
            ScheduleState("linear", 0, 0)

    def test_t_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ScheduleState("linear", 101, 100)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            ScheduleState("cubic", 0, 10)


class TestSoftMask:
    def test_t0_is_exactly_causal(self):
        for n in (1, 4, 9):
            m = build_soft_mask(ScheduleState("linear", 0, 7), n, l=5)
            np.testing.assert_array_equal(m.entries, causal_mask(n).entries)

    def test_t_tau_is_all_ones_when_l_equals_n(self):
        m = build_soft_mask(ScheduleState("linear", 7, 7), 6)
        np.testing.assert_array_equal(m.entries, np.ones((6, 6)))

    def test_hand_entries_at_half_time(self):
        # n = l = 4, alpha = 1/2: entry(1,2) = min(.5*4/1, 1) = 1, entry(3,4) = 2/3
        m = build_soft_mask(ScheduleState("linear", 4, 8), 4)
        assert m.entries[0, 1] == 1.0
        assert m.entries[2, 3] == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_lower_triangle_always_one(self):
        m = build_soft_mask(ScheduleState("accelerating", 3, 9), 8, l=3)
        np.testing.assert_array_equal(np.tril(m.entries), np.tril(np.ones((8, 8))))

    def test_invalid_entries_rejected(self):
        with pytest.raises(ValueError):
            AttentionMask(n=2, l=2, entries=np.array([[1.0, 2.0], [1.0, 1.0]]))
        with pytest.raises(ValueError):
            AttentionMask(n=2, l=2, entries=np.array([[1.0, 0.0], [0.5, 1.0]]))

    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(["linear", "accelerating", "decelerating"]),
           t1=st.integers(0, 64), t2=st.integers(0, 64),
           i=st.integers(0, 15), j=st.integers(0, 15),
           l=st.integers(1, 24))
    def test_entries_monotone_in_t(self, kind, t1, t2, i, j, l):
        if t1 > t2:
            t1, t2 = t2, t1
        m1 = build_soft_mask(ScheduleState(kind, t1, 64), 16, l)
        m2 = build_soft_mask(ScheduleState(kind, t2, 64), 16, l)
        assert m1.entries[i, j] <= m2.entries[i, j]

    def test_earlier_rows_saturate_no_later(self):
        # first t at which a row's upper entries hit 1 is non-decreasing in the row
        n = 12
        first_sat = []
        for i in range(n - 1):   # last row has no upper entries
            for t in range(0, 65):
                m = build_soft_mask(ScheduleState("linear", t, 64), n)
                if np.all(m.entries[i, i + 1:] == 1.0):
                    first_sat.append(t)
                    break
        assert first_sat == sorted(first_sat)


class TestNumericalRank:
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_causal_full_rank(self, n):
        assert mask_numerical_rank(causal_mask(n)) == n

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_all_ones_rank_one(self, n):
        assert mask_numerical_rank(bidirectional_mask(n)) == 1

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
            m = build_soft_mask(ScheduleState("linear", t, 8), 16)
            assert mask_numerical_rank(m) == jacobi_rank(m.entries)

    def test_midpoint_rank_fixed_by_oracle(self):
        m = build_soft_mask(ScheduleState("linear", 4, 8), 16)
        assert mask_numerical_rank(m) == 8
        assert jacobi_rank(m.entries) == 8
