import numpy as np
import pytest

from diracsea.errors import IntegrationFailure
from diracsea.evolution import Transport, cointegrate
from diracsea.model import constant_scale
from diracsea.stepper import StepStats, integrate


def test_linear_decay_accuracy():
    rhs = lambda t, y: -y
    y = integrate(rhs, 0.0, 2.0, np.array([1.0 + 0j]), rtol=1e-10, atol=1e-12)
    assert abs(y[0] - np.exp(-2.0)) < 1e-9


def test_harmonic_oscillator_phase():
    omega = 5.0
    rhs = lambda t, y: np.array([y[1], -omega ** 2 * y[0]])
    y = integrate(rhs, 0.0, 3.0, np.array([1.0 + 0j, 0.0 + 0j]),
                  rtol=1e-11, atol=1e-13)
    assert abs(y[0] - np.cos(omega * 3.0)) < 1e-8
    assert abs(y[1] + omega * np.sin(omega * 3.0)) < 1e-7


def test_backward_integration():
    rhs = lambda t, y: np.array([2 * t + 0j])
    y = integrate(rhs, 1.0, -1.0, np.array([1.0 + 0j]), rtol=1e-12, atol=1e-14)
    assert abs(y[0] - 1.0) < 1e-10  # t^2 from 1 to 1


def test_max_step_ceiling_respected():
    stats = StepStats()
    rhs = lambda t, y: np.array([1.0 + 0j])
    integrate(rhs, 0.0, 1.0, np.array([0.0 + 0j]), rtol=1e-6, atol=1e-9,
              max_step=lambda t: 0.01, stats=stats)
    assert stats.accepted >= 100


def test_post_accept_hook_applied():
    # keep the state on the unit circle; the hook renormalizes
    rhs = lambda t, y: np.array([1j * y[0]])

    def post(t, y):
        return y / np.abs(y[0])

    y = integrate(rhs, 0.0, 50.0, np.array([1.0 + 0j]), rtol=1e-8, atol=1e-10,
                  post_accept=post)
    assert abs(abs(y[0]) - 1.0) < 1e-12


def test_nonfinite_state_raises():
    rhs = lambda t, y: y ** 2
    with pytest.raises(IntegrationFailure):
        integrate(rhs, 0.0, 10.0, np.array([1.0 + 0j]), rtol=1e-8, atol=1e-10)


def test_checkpoints_match_single_shot():
    # cointegrate runs the stops, one stepper call each (atol = tol / 100)
    decay = Transport(constant_scale(1.0), 0.0, np.array([2.0 + 0j]),
                      lambda t, r, x: -0.7 * x, None, lambda r: 0.0)
    grid = [0.5, 1.0, 2.0, 2.0, 3.0]
    states = cointegrate(decay, None, 0, 0.0, grid, 1e-11)
    for t, (y, _) in zip(grid, states):
        assert abs(y[0] - 2.0 * np.exp(-0.7 * t)) < 1e-9


def test_zero_span_returns_initial():
    rhs = lambda t, y: y
    y0 = np.array([3.0 + 1j])
    y = integrate(rhs, 1.0, 1.0, y0, rtol=1e-10, atol=1e-12)
    assert np.array_equal(y, y0)


def test_seven_rhs_calls_per_attempt_and_one_hook_call_per_accepted_step():
    calls = {"rhs": 0, "hook": 0}

    def rhs(t, y):
        calls["rhs"] += 1
        return np.array([1j * 40.0 * y[0]])

    def post(t, y):
        calls["hook"] += 1
        return y / abs(y[0])

    stats = StepStats()
    integrate(rhs, 0.0, 5.0, np.array([1.0 + 0j]), rtol=1e-10, atol=1e-12,
              post_accept=post, stats=stats)
    assert stats.rejected > 0
    assert stats.rhs_evaluations == 7 * (stats.accepted + stats.rejected)
    assert calls == {"rhs": stats.rhs_evaluations, "hook": stats.accepted}


def test_rhs_may_return_a_reused_buffer():
    # each stage is copied into the stage buffer, so an rhs that overwrites
    # and returns one array gives the same steps and state as a fresh one
    omega = 5.0
    buf = np.empty(2, dtype=complex)

    def fresh(t, y):
        return np.array([y[1], -omega ** 2 * y[0]])

    def reused(t, y):
        buf[0], buf[1] = y[1], -omega ** 2 * y[0]
        return buf

    runs = []
    for rhs in (fresh, reused):
        stats = StepStats()
        y = integrate(rhs, 0.0, 3.0, np.array([1.0 + 0j, 0.0 + 0j]),
                      rtol=1e-11, atol=1e-13, stats=stats)
        runs.append((y, stats))
    (y_fresh, s_fresh), (y_reused, s_reused) = runs
    assert s_reused == s_fresh
    assert np.array_equal(y_reused, y_fresh)
