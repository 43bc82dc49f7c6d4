"""The scale owns where tau may go.

``ScaleFunction.check_domain`` is the one domain rule: tau0, the stops
and a probe's support lie in the closed [0, tau_end] of a piecewise scale
or the open (0, tau_end) of a smooth one.  ``Mode`` and ``TestFunction``
know no upper bound of their own, so probes and tau0 reach past pi on
long piecewise scales, and every entry point rejects them past the end of
a smooth one with ``DomainError``.  ``ScaleFunction.window`` is the one
lifetime window on both kinds: the whole closed lifetime of a piecewise
scale, the tail-bounded cutoffs of a smooth one.
"""

import json

import numpy as np
import pytest

from diracsea import bloch, cfs, evolution, projector
from diracsea.bloch import build_six_segment
from diracsea.cli import main
from diracsea.errors import DomainError, InvalidParameter
from diracsea.evolution import accumulated_phase, evolve_grid
from diracsea.model import (Mode, PiecewiseConstantScale, SIGMA3, bump,
                            dust_scale)

DUST = dust_scale(5.0)
LONG = PiecewiseConstantScale((0.0, 2.0, 5.0), (1.0, 2.0))
GOOD_MODE = Mode(1.5, 1.0, np.pi / 2)
LATE_MODE = Mode(1.5, 1.0, float(np.pi))
GOOD_PHI = bump((1.0, 2.0), np.array([1.0, 0.5j]))
LATE_PHI = bump((1.0, float(np.pi)), np.array([1.0, 0.5j]))


def k_by_gauss_legendre(mode, scale, phi, nodes=80):
    """1/(2 pi) times the support integral of U* sigma3 phi R: a Gauss-Legendre
    rule on each piece of the support, over the closed-form propagators."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    total = np.zeros(2, dtype=complex)
    for a, b, r in scale.pieces(*phi.support):
        ts = 0.5 * (b - a) * x + 0.5 * (a + b)
        us = np.array(evolve_grid(mode, scale, mode.tau0, ts))
        vals = np.einsum("nji,jk,nk->ni", us.conj(), SIGMA3, phi(ts[:, None]))
        total += 0.5 * (b - a) * (w @ vals) * r / (2.0 * np.pi)
    return total


class TestPastPi:
    def test_probe_past_pi_on_the_six_segment_universe(self):
        scen = build_six_segment()
        assert scen.tau_end > 6.0
        phi = bump((4.0, 6.0), np.array([1.0, 0.5j]))
        got = projector.k_m_apply(scen.mode, scen, phi).value
        want = k_by_gauss_legendre(scen.mode, scen, phi)
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)
        p = projector.fermionic_projector_apply(scen.mode, scen, phi)
        assert np.all(np.isfinite(p.value))

    def test_tau0_past_pi_on_a_long_piecewise_scale(self):
        mode = Mode(1.5, 1.0, 4.0)
        taus = np.linspace(0.0, 5.0, 11)
        states = bloch.propagate_bloch(mode, LONG, taus)
        assert np.allclose(states[8].w, np.eye(3), atol=1e-14)  # tau = 4.0 = tau0
        sig = projector.signature_operator(mode, LONG)
        assert sig.mu_minus < 0 < sig.mu_plus

    def test_probe_over_the_whole_long_lifetime(self):
        mode = Mode(1.5, 1.0, 4.0)
        phi = bump((0.5, 4.9), np.array([1.0, 0.0]))
        got = projector.k_m_apply(mode, LONG, phi).value
        want = k_by_gauss_legendre(mode, LONG, phi)
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


class TestNoExtrapolation:
    @pytest.mark.parametrize("ends", [(0.5, 4.0), (4.0, 0.5), (-0.1, 1.0),
                                      (1.0, -0.1), (0.0, 1.0), (1.0, float(np.pi))])
    def test_accumulated_phase_on_a_smooth_scale(self, ends):
        with pytest.raises(DomainError):
            accumulated_phase(GOOD_MODE, dust_scale(10.0), *ends)

    @pytest.mark.parametrize("ends", [(0.0, 5.0), (-0.1, 1.0), (2.0, 2.5)])
    def test_accumulated_phase_on_a_piecewise_scale(self, ends):
        scale = PiecewiseConstantScale((0.0, 1.0, 2.0), (1.0, 2.0))
        with pytest.raises(DomainError):
            accumulated_phase(GOOD_MODE, scale, *ends)

    def test_accumulated_phase_reaches_both_closed_ends(self):
        scale = PiecewiseConstantScale((0.0, 1.0, 2.0), (1.0, 2.0))
        mode = Mode(1.5, 1.0, 0.0)
        want = np.hypot(1.5, 1.0) + np.hypot(1.5, 2.0)
        assert accumulated_phase(mode, scale, 0.0, 2.0) == pytest.approx(want, rel=1e-15)

    def test_generator_route_checks_its_end(self):
        with pytest.raises(DomainError):
            evolution.wkb_deviation_by_generator(GOOD_MODE, DUST, 3.5)


def _family(mode):
    return cfs.build_family((mode,), DUST, [(0, (1.0, 0.0))],
                            require_negative_subspace=False)


#: Every entry point reading a mode's tau0, as f(mode, phi).
MODE_ENTRY_POINTS = {
    "signature_operator": lambda m, phi: projector.signature_operator(m, DUST),
    "signature_operator_wkb": lambda m, phi: projector.signature_operator_wkb(m, DUST),
    "wkb_scalar_integrals": lambda m, phi: projector.wkb_scalar_integrals(m, DUST),
    "wkb_eigenvalues_closed_form":
        lambda m, phi: projector.wkb_eigenvalues_closed_form(m, DUST),
    "wkb_signature_leading_term":
        lambda m, phi: projector.wkb_signature_leading_term(m, DUST),
    "wkb_propagators": lambda m, phi: evolution.wkb_propagators(m, DUST, 1.0, [2.0]),
    "wkb_deviation": lambda m, phi: evolution.wkb_deviation(m, DUST, 1.0),
    "wkb_deviations": lambda m, phi: evolution.wkb_deviations(m, DUST, [1.0]),
    "wkb_deviation_by_generator":
        lambda m, phi: evolution.wkb_deviation_by_generator(m, DUST, 1.0),
    "propagate_bloch": lambda m, phi: bloch.propagate_bloch(m, DUST, [1.0]),
    "v_trace_formula": lambda m, phi: bloch.v_trace_formula(m, DUST, [1.0]),
    "v_components": lambda m, phi: bloch.v_components(m, DUST, [1.0]),
    "v_rows_with_cumulative":
        lambda m, phi: bloch.v_rows_with_cumulative(m, DUST, [1.0]),
    "negative_subspace_family": lambda m, phi: cfs.negative_subspace_family((m,), DUST),
    "local_correlation": lambda m, phi: cfs.local_correlation(_family(m), 1.0),
    "correlation_trace_lifetime_integral":
        lambda m, phi: cfs.correlation_trace_lifetime_integral(_family(m)),
}

#: Every entry point taking a probe, as f(mode, phi).
PROBE_ENTRY_POINTS = {
    "k_m_apply": lambda m, phi: projector.k_m_apply(m, DUST, phi),
    "k_wkb_apply": lambda m, phi: projector.k_wkb_apply(m, DUST, phi),
    "p_wkb_leading_apply": lambda m, phi: projector.p_wkb_leading_apply(m, DUST, phi),
    "fermionic_projector_apply":
        lambda m, phi: projector.fermionic_projector_apply(m, DUST, phi),
    "p_wkb_apply": lambda m, phi: projector.p_wkb_apply(m, DUST, phi),
    "kernel_apply": lambda m, phi: cfs.kernel_apply(_family(m), 1.0, phi, 0),
}


class TestEveryEntryPointChecksTheScale:
    @pytest.mark.parametrize("name", sorted({**MODE_ENTRY_POINTS, **PROBE_ENTRY_POINTS}))
    def test_tau0_at_pi_on_dust(self, name):
        with pytest.raises(DomainError):
            {**MODE_ENTRY_POINTS, **PROBE_ENTRY_POINTS}[name](LATE_MODE, GOOD_PHI)

    @pytest.mark.parametrize("name", sorted(PROBE_ENTRY_POINTS))
    def test_probe_ending_at_pi_on_dust(self, name):
        with pytest.raises(DomainError):
            PROBE_ENTRY_POINTS[name](GOOD_MODE, LATE_PHI)


class TestWindow:
    def test_cutoffs_and_tails(self):
        lo, hi, tail = DUST.window(1e-9)
        assert 0.0 < lo < hi < DUST.tau_end
        below, above = DUST.tail_below(lo), DUST.tail_above(DUST.tau_end - hi)
        assert below <= 0.5e-9 and above <= 0.5e-9
        assert tail == pytest.approx(below + above, rel=1e-12)

    def test_piecewise_window_is_the_whole_closed_lifetime(self):
        assert LONG.window(1e-9) == (0.0, LONG.tau_end, 0.0)

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("scale", [DUST, LONG], ids=["dust", "piecewise"])
    def test_rejects_a_tolerance_that_is_not_finite_and_positive(self, scale, tol):
        with pytest.raises(InvalidParameter, match="quadrature tolerance"):
            scale.window(tol)
        with pytest.raises(InvalidParameter, match="quadrature tolerance"):
            projector.signature_operator(GOOD_MODE, scale, tol=tol)


def _run(tmp_path, command, doc):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.txt"
    code = main([command, "--scenario", str(path), "--out", str(out)])
    return code, out.read_text() if out.exists() else ""


class TestCli:
    def test_tau0_at_pi_on_dust_is_a_domain_error(self, tmp_path, capsys):
        doc = {"mode": {"lambda": 1.5, "mass": 1.0, "tau0": float(np.pi)},
               "scale": {"kind": "dust", "r_max": 5.0}}
        code, text = _run(tmp_path, "signature", doc)
        assert code == 1 and text == ""
        assert json.loads(capsys.readouterr().err)["error"] == "domain_error"

    def test_tau0_past_pi_on_a_long_piecewise_scale(self, tmp_path):
        doc = {"mode": {"lambda": 1.5, "mass": 1.0, "tau0": 4.0},
               "scale": {"kind": "piecewise", "breakpoints": [0.0, 2.0, 5.0],
                         "values": [1.0, 2.0]}}
        code, text = _run(tmp_path, "signature", doc)
        assert code == 0 and text.split("\n")[1].startswith("4,")

    def test_probe_past_pi_on_a_preset(self, tmp_path):
        doc = {"mode": {"lambda": 1.5, "mass": 1.0, "tau0": 0.0},
               "scale": {"kind": "preset", "name": "six_segment"},
               "run": {"phi": {"support": [4.0, 6.0]}}}
        code, text = _run(tmp_path, "project", doc)
        assert code == 0 and text.strip().endswith(",exact")
