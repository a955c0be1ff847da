import pytest

from isingspec.model import (
    L_MAX,
    L_MIN,
    ModelParams,
    QuenchPlan,
)


def test_validate_accepts_the_reference_point():
    p = ModelParams(12, 0.5, 0.3)  # raises nothing
    assert (p.L, p.g, p.h) == (12, 0.5, 0.3)


def test_validate_rejects_sizes_the_engine_cannot_hold():
    with pytest.raises(ValueError, match=rf"L={L_MIN - 1} outside supported range \[{L_MIN}, {L_MAX}\]"):
        ModelParams(L_MIN - 1, 0.5, 0.3)
    with pytest.raises(ValueError, match=rf"L={L_MAX + 1} outside supported range \[{L_MIN}, {L_MAX}\]"):
        ModelParams(L_MAX + 1, 0.5, 0.3)


def test_validate_rejects_fractional_length():
    with pytest.raises(ValueError, match="L=8.5 is not an integer"):
        ModelParams(8.5, 0.5, 0.3)


def test_params_reject_bad_length():
    with pytest.raises(ValueError):
        ModelParams(1, 0.5, 0.3)
    with pytest.raises(ValueError):
        ModelParams(L_MAX + 2, 0.5, 0.3)


def test_plan_validates_step_and_count():
    with pytest.raises(ValueError):
        QuenchPlan(dt=0.0, n_steps=10)
    with pytest.raises(ValueError):
        QuenchPlan(dt=0.1, n_steps=0)


def test_plan_defaults():
    plan = QuenchPlan(dt=0.4, n_steps=100)
    assert plan.shots == 0
    assert plan.seed == 0
    assert plan.noise is None
    assert tuple(plan.measured_axes) == ("x", "y")


def test_validate_rejects_non_finite_couplings():
    for g, h in ((float("nan"), 0.3), (0.5, float("inf")), (-float("inf"), 0.3)):
        with pytest.raises(ValueError, match=f"couplings must be finite, got g={g}, h={h}"):
            ModelParams(12, g, h)


def test_plan_requires_a_finite_step():
    for dt in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            QuenchPlan(dt=dt, n_steps=10)
