import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfsim.agents import AgentPool, LogisticUtility, QuadraticUtility
from perfsim.core import ConstantSchedule, InverseSchedule, as_param, check_schedule
from perfsim.harness import PRESETS, ExperimentSpec, resolve_points
from perfsim.losses import LogisticLoss

# mu = 1, L = 1, eps = 0.1
MU_TILDE = 1.0 - 1.0 * 0.1


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
        # the solver reads scalar step sizes and some tests' reference recursions
        # read arrays: they agree bit for bit over a run's range, for each
        # preset's schedule and for c1 = 0
        presets = [resolve_points(ExperimentSpec(preset=name))[0].config.schedule
                   for name in PRESETS]
        assert all(isinstance(sched, InverseSchedule) for sched in presets)
        windows = (range(1, 300_001), range(10**7 - 1000, 10**7 + 1000))
        for sched in (InverseSchedule(c0=3.0, c1=7.0), InverseSchedule(c0=3.0, c1=0.0),
                      *presets):
            for ks in windows:
                gv = sched.gamma(np.arange(ks.start, ks.stop))
                assert np.array_equal(gv, np.array([sched.gamma(k) for k in ks]))


class TestScheduleValidation:
    def test_constant_requires_positive(self):
        with pytest.raises(ValueError):
            ConstantSchedule(0.0)

    def test_inverse_requires_positive_c0(self):
        with pytest.raises(ValueError):
            InverseSchedule(c0=0.0, c1=1.0)


NAN, INF = float("nan"), float("inf")
NON_FINITE_CALLS = {
    "LogisticLoss(nan)": lambda: LogisticLoss(NAN),
    "LogisticLoss(inf)": lambda: LogisticLoss(INF),
    "InverseSchedule(c1=nan)": lambda: InverseSchedule(c0=1.0, c1=NAN),
    "InverseSchedule(c0=inf)": lambda: InverseSchedule(c0=INF, c1=1.0),
    "InverseSchedule(c1=inf)": lambda: InverseSchedule(c0=1.0, c1=INF),
    "ConstantSchedule(inf)": lambda: ConstantSchedule(INF),
    "QuadraticUtility(inf)": lambda: QuadraticUtility(INF),
    "LogisticUtility(inf)": lambda: LogisticUtility(INF),
    "AgentPool(alpha=inf)": lambda: AgentPool(np.zeros((2, 1)), [0.0, 1.0], QuadraticUtility(0.1),
                                              alpha=INF, participation=1),
}


@pytest.mark.parametrize("call", NON_FINITE_CALLS.values(), ids=NON_FINITE_CALLS.keys())
def test_constructors_reject_non_finite_numbers(call):
    with pytest.raises(ValueError, match="finite"):
        call()


class TestCheckSchedule:
    def test_constant_always_passes_ratio(self):
        assert check_schedule(ConstantSchedule(0.3), MU_TILDE, 1000) is None

    def test_inverse_preset_passes_full_scan(self):
        # c0 mu_tilde = 500 with c1 >= 1 meets c1 (c0 mu_tilde - 4) >= 4; the
        # closed form is checked against a direct scan in
        # test_closed_form_matches_direct_scan.
        mu_tilde = 0.9
        for c1 in (1.0, 800.0 / mu_tilde ** 2):
            sched = InverseSchedule(c0=500.0 / mu_tilde, c1=c1)
            assert check_schedule(sched, MU_TILDE, 1_000_000) is None

    def test_inverse_without_offset_fails_ratio_at_one(self):
        mu_tilde = 1.0 - 1.0 * 0.99
        assert mu_tilde == pytest.approx(0.01)
        assert check_schedule(InverseSchedule(c0=1.0, c1=0.0), mu_tilde, 10) == 1

    def test_strong_contraction_passes_ratio(self):
        # mu_tilde = 3.9 keeps the ratio bound loose
        assert check_schedule(InverseSchedule(c0=6.0, c1=2.0), 4.0 - 1.0 * 0.1, 10) is None

    def test_requires_contraction_regime(self):
        bad = 1.0 - 2.0 * 0.6  # mu = 1, L = 2, eps = 0.6
        with pytest.raises(ValueError, match="mu_tilde"):
            check_schedule(ConstantSchedule(0.1), bad, 10)

    @pytest.mark.parametrize("preset", ["gaussian_ar", "strat_class_linear",
                                        "strat_class_logistic"])
    def test_presets_pass_ratio(self, preset):
        # each preset's own schedule and mu_tilde, as the harness resolves them
        spec = ExperimentSpec.from_dict({"preset": preset, "horizon": 10, "trials": 1})
        (point,) = resolve_points(spec)
        desc = point.problem_desc
        mu_tilde = desc["mu_tilde"] if "mu_tilde" in desc else desc["mu_tilde_est"]
        for horizon in (10 ** 5, 10 ** 6):
            assert check_schedule(point.config.schedule, mu_tilde, horizon) is None

    def test_negative_control_fails_at_one(self):
        # c0 mu_tilde = 0.25 < 1/2, whose error decays slower than O(1/k)
        sched = InverseSchedule(c0=0.25 / MU_TILDE, c1=10.0)
        assert check_schedule(sched, MU_TILDE, 10 ** 5) == 1

    def test_closed_form_matches_direct_scan(self):
        # an independent reference: scan k = 1..200 in plain floats, with
        # gamma_0 = inf when c1 = 0, for the first k that breaks the condition
        rng = np.random.default_rng(31)
        outcomes, skipped = [], 0
        for _ in range(400):
            c0 = float(10.0 ** rng.uniform(-2, 3))
            mu_tilde = float(10.0 ** rng.uniform(-2, 1))
            c1 = 0.0 if rng.random() < 0.25 else float(10.0 ** rng.uniform(-3, 4))
            if abs(c1 * (c0 * mu_tilde - 4.0) - 4.0) <= 1e-9 * (4.0 + c1 * c0 * mu_tilde):
                skipped += 1  # a rounding tie: the scan and the closed form may differ
                continue
            gamma = [math.inf if c1 == 0.0 else c0 / c1] + [c0 / (c1 + k) for k in range(1, 201)]
            reference = next((k for k in range(1, 201)
                              if not gamma[k - 1] / gamma[k] <= 1.0 + gamma[k] * mu_tilde / 4.0),
                             None)
            assert check_schedule(InverseSchedule(c0=c0, c1=c1), mu_tilde, 200) == reference
            outcomes.append(reference)
        print(f"closed form vs direct scan: {len(outcomes)} draws agree "
              f"({outcomes.count(None)} pass, {outcomes.count(1)} fail at k = 1), "
              f"{skipped} rounding ties skipped")
        assert len(outcomes) >= 390 and {None, 1} <= set(outcomes)

    def test_memory_does_not_grow_with_the_horizon(self):
        # a horizon-sized evaluation peaked at 23.8 MiB for K = 1e6
        sched = InverseSchedule(c0=500.0 / MU_TILDE, c1=800.0 / MU_TILDE ** 2)
        tracemalloc.start()
        try:
            assert check_schedule(sched, MU_TILDE, 10 ** 6) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


class TestAsParam:
    def test_scalar_becomes_vector(self):
        assert as_param(3.0).shape == (1,)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            as_param([1.0, np.nan])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            as_param([1.0, 2.0], d=3)
