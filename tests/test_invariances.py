"""The paper's invariances as property tests.

The ±lambda law.  H(-lam) = sigma3 H(lam) sigma3, with H = m R sigma3 - lam
sigma1, so U(-lam) = sigma3 U(lam) sigma3 and, per mode,

    S(-lam) = sigma3 S(lam) sigma3,    P_{-lam}(sigma3 phi) = sigma3 P_lam(phi),

and k(phi) follows P's law.  The WKB frame obeys the same reflection, so
S_wkb, k_wkb, P_wkb and P_wkb_leading do too.

The tolerance rule: each side of a law is within its own route's error of
the truth, so the two may differ by the sum of those errors, and no more.
  * S and S_wkb: the two results' ``quad_error_estimate``s.
  * k, k_wkb and P_wkb_leading: 2 tol B, with tol the route's tolerance
    (``DEFAULT_ODE_TOL``) and B = r_max ||phi||_1 / 2 pi the a-priori bound
    on the image's norm.
  * P and P_wkb, -X_neg(S) k(phi): k's 2 tol B, plus B times the most the
    projection can move when S moves by its ``quad_error_estimate``s, their
    sum over the spectral gap mu_plus - mu_minus.
The routes agree bit for bit today, but a route may round differently on
the two sides without breaking the law.
"""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from diracsea.model import (
    DEFAULT_ODE_TOL,
    Mode,
    PiecewiseConstantScale,
    SIGMA3,
    bump,
    dust_scale,
    smooth_table_scale,
    spectral_norm,
)
from diracsea.projector import (
    fermionic_projector_apply,
    k_m_apply,
    k_wkb_apply,
    p_wkb_apply,
    p_wkb_leading_apply,
    signature_operator,
    signature_operator_wkb,
)

TABLE_T = np.linspace(0.0, np.pi, 20)
TABLE_G = np.sin(TABLE_T / 2) ** 2

#: (signature route, its projector image, the route without a signature)
ROUTES = {"exact": (signature_operator, fermionic_projector_apply, k_m_apply),
          "wkb": (signature_operator_wkb, p_wkb_apply, k_wkb_apply)}


@st.composite
def scales(draw):
    kind = draw(st.sampled_from(["dust", "table", "piecewise"]))
    if kind == "dust":
        return dust_scale(draw(st.floats(3.0, 30.0)))
    if kind == "table":
        return smooth_table_scale(TABLE_T, TABLE_G, draw(st.floats(3.0, 30.0)))
    n = draw(st.integers(2, 6))
    widths = draw(st.lists(st.floats(0.2, 1.0), min_size=n, max_size=n))
    values = draw(st.lists(st.floats(0.5, 30.0), min_size=n, max_size=n))
    return PiecewiseConstantScale((0.0, *np.cumsum(widths).tolist()), values)


@given(scale=scales(), lam=st.sampled_from([1.5, 2.5, 4.5]),
       tau0=st.floats(0.05, 0.95), start=st.floats(0.05, 0.7), width=st.floats(0.05, 0.25),
       direction=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_minus_lambda_is_the_sigma3_reflection(scale, lam, tau0, start, width, direction):
    d = np.array(direction[:2]) + 1j * np.array(direction[2:])
    assume(np.linalg.norm(d) > 0.1)
    end = scale.tau_end
    plus, minus = (Mode(lam=s * lam, mass=1.0, tau0=tau0 * end) for s in (1.0, -1.0))
    support = (start * end, (start + width) * end)
    phi, reflected = bump(support, d), bump(support, SIGMA3 @ d)
    bound = scale.r_max * phi.l1_norm / (2.0 * np.pi)
    image_tol = 2.0 * DEFAULT_ODE_TOL * bound

    def law(got, want, tol, what):
        assert spectral_norm(np.atleast_2d(got - want)) <= tol, what

    for name, (signature, projector, image) in ROUTES.items():
        sp, sm = signature(plus, scale), signature(minus, scale)
        s_tol = sp.quad_error_estimate + sm.quad_error_estimate
        law(sm.s.matrix, SIGMA3 @ sp.s.matrix @ SIGMA3, s_tol, f"S {name}")
        law(image(minus, scale, reflected).value, SIGMA3 @ image(plus, scale, phi).value,
            image_tol, f"k {name}")
        p_tol = image_tol + bound * s_tol / (sp.mu_plus - sp.mu_minus)
        law(projector(minus, scale, reflected).value,
            SIGMA3 @ projector(plus, scale, phi).value, p_tol, f"P {name}")
    law(p_wkb_leading_apply(minus, scale, reflected).value,
        SIGMA3 @ p_wkb_leading_apply(plus, scale, phi).value, image_tol, "P_wkb_leading")
