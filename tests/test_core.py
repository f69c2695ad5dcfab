import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfsim.core import (ConstantSchedule, InverseSchedule, ProblemConstants,
                          RngStream, as_param, check_schedule)


def make_constants(mu=1.0, lipschitz=1.0, sensitivity=0.1, sigma_noise=0.0):
    return ProblemConstants(mu=mu, lipschitz=lipschitz, sensitivity=sensitivity,
                            sigma_noise=sigma_noise)


class TestStepAt:
    """The step size gamma_k of a schedule at iteration k."""

    def test_inverse_first_step(self):
        assert InverseSchedule(c0=6.0, c1=2.0).gamma(1) == 2.0

    def test_constant_any_k(self):
        assert ConstantSchedule(0.01).gamma(999) == 0.01

    def test_gaussian_preset_first_step(self):
        # mu = 1, L = 1, eps = 0.1 -> mu_tilde = 0.9; c0 = 500/0.9, c1 = 800/0.81
        mu_tilde = 0.9
        sched = InverseSchedule(c0=500.0 / mu_tilde, c1=800.0 / mu_tilde ** 2)
        expected = (500.0 / 0.9) / (800.0 / 0.81 + 1.0)
        assert sched.gamma(1) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(0.562, abs=1e-3)

    @given(c0=st.floats(0.01, 1e3), c1=st.floats(0.0, 1e4),
           k=st.integers(1, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_inverse_positive_and_non_increasing(self, c0, c1, k):
        sched = InverseSchedule(c0=c0, c1=c1)
        g1 = sched.gamma(k)
        g2 = sched.gamma(k + 1)
        assert g1 > 0
        assert g2 <= g1

    def test_vectorized_matches_scalar(self):
        for sched in (InverseSchedule(c0=3.0, c1=7.0), ConstantSchedule(0.25)):
            ks = np.arange(1, 50)
            gv = sched.gamma(ks)
            assert np.array_equal(gv, np.array([sched.gamma(int(k)) for k in ks]))


class TestScheduleValidation:
    def test_constant_requires_positive(self):
        with pytest.raises(ValueError):
            ConstantSchedule(0.0)

    def test_inverse_requires_positive_c0(self):
        with pytest.raises(ValueError):
            InverseSchedule(c0=0.0, c1=1.0)


class TestCheckSchedule:
    def test_constant_always_passes_ratio(self):
        report = check_schedule(ConstantSchedule(0.3), make_constants(), 1000)
        assert report.ratio_ok.all()
        assert report.first_ratio_violation is None

    def test_inverse_preset_passes_full_scan(self):
        # The checker itself is the oracle: a direct inequality scan over
        # k = 1..1e6 for c0 = 500/mu_tilde with c1 >= 1.
        mu_tilde = 0.9
        for c1 in (1.0, 800.0 / mu_tilde ** 2):
            sched = InverseSchedule(c0=500.0 / mu_tilde, c1=c1)
            report = check_schedule(sched, make_constants(), 1_000_000)
            assert report.ratio_ok.all()

    def test_inverse_without_offset_fails_ratio_at_one(self):
        constants = make_constants(mu=1.0, lipschitz=1.0, sensitivity=0.99)
        assert constants.mu_tilde == pytest.approx(0.01)
        report = check_schedule(InverseSchedule(c0=1.0, c1=0.0), constants, 10)
        assert report.first_ratio_violation == 1

    def test_strong_contraction_passes_ratio(self):
        report = check_schedule(InverseSchedule(c0=6.0, c1=2.0), make_constants(mu=4.0), 10)
        assert report.ratio_ok.all()  # mu_tilde = 3.9 keeps the ratio bound loose

    def test_increasing_schedule_rejected(self):
        class Increasing:
            def gamma(self, k):
                return 0.1 * (1.0 + np.asarray(k, dtype=float))

        with pytest.raises(ValueError, match="increasing"):
            check_schedule(Increasing(), make_constants(), 10)

    def test_requires_contraction_regime(self):
        bad = make_constants(mu=1.0, lipschitz=2.0, sensitivity=0.6)
        with pytest.raises(ValueError, match="mu_tilde"):
            check_schedule(ConstantSchedule(0.1), bad, 10)


class TestProblemConstants:
    def test_mu_tilde_is_derived_exactly(self):
        c = make_constants(mu=2.0, lipschitz=3.0, sensitivity=0.25)
        assert c.mu_tilde == 2.0 - 3.0 * 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            ProblemConstants(mu=0.0, lipschitz=1.0, sensitivity=0.1)
        with pytest.raises(ValueError):
            ProblemConstants(mu=1.0, lipschitz=-1.0, sensitivity=0.1)


class TestRngStream:
    def test_equal_seeds_replay_bit_exactly(self):
        a = RngStream(123).generator().standard_normal(10_000)
        b = RngStream(123).generator().standard_normal(10_000)
        assert np.array_equal(a, b)

    def test_substreams_are_distinct_and_reproducible(self):
        root = RngStream(9)
        s0 = root.substream(0).generator().standard_normal(100)
        s1 = root.substream(1).generator().standard_normal(100)
        assert not np.array_equal(s0, s1)
        assert np.array_equal(s0, RngStream(9).substream(0).generator().standard_normal(100))

    def test_nested_paths(self):
        assert RngStream(5).substream(2).substream(3).path == (2, 3)


class TestAsParam:
    def test_scalar_becomes_vector(self):
        assert as_param(3.0).shape == (1,)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            as_param([1.0, np.nan])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            as_param([1.0, 2.0], d=3)
