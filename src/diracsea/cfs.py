"""Finite-rank solution families, local correlations, and causal classification.

A family is a finite set of mode solutions, each specified by its fiber
value at the mode's reference time.  Distinct modes are orthogonal both in
the solution scalar product and pointwise (separated spatial harmonics),
so Gram matrices and correlation operators are block diagonal over modes;
all structure lives inside the per-mode blocks.

The local correlation operator at a time tau collects the pairwise
indefinite fiber products of the evolved members; two times are compared
causally through the spectrum of the product of their correlation
operators.  The modes share R(tau), so one stacked sweep carries all
their propagators (``evolution.propagators``, ``exact_transport``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFamily, InvalidParameter
from .evolution import (evolve, exact_transport, interval_integral, propagators,
                        sigma3_conjugated)
from .model import (
    DEFAULT_CLASSIFY_TOL,
    DEFAULT_GAP_TOL,
    DEFAULT_ODE_TOL,
    DEFAULT_QUAD_TOL,
    ScaleFunction,
    SIGMA3,
    TestFunction,
    Unitary2,
    check_hermitian,
    check_tolerances,
    frozen_array,
    integer_index,
    spectral_norm,
)
from .projector import (
    _sigma3_integral,
    k_m_apply,
    negative_projection,
    signature_operator,
)

MEMBERSHIP_TOL = 1e-8
GRAM_IDENTITY_TOL = 1e-10


@dataclass(frozen=True)
class FamilyMember:
    mode_index: int
    spinor: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "spinor", frozen_array(self.spinor, (2,), "member spinor"))


@dataclass(frozen=True)
class SolutionFamily:
    """Modes, a shared scale function, members, and the cached Gram matrix."""

    modes: tuple
    scale: ScaleFunction
    members: tuple
    gram: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gram", frozen_array(self.gram, None, "gram"))

    @property
    def size(self) -> int:
        return len(self.members)

    def block_indices(self):
        """member indices grouped by mode, in first-appearance order."""
        groups = {}
        for j, mem in enumerate(self.members):
            groups.setdefault(mem.mode_index, []).append(j)
        return groups


def _block_pairing(members, left, right) -> np.ndarray:
    """vdot(left[j], right[k]) for members j, k of one mode, 0 across modes."""
    return np.array([[np.vdot(x, y) if a.mode_index == b.mode_index else 0.0
                      for b, y in zip(members, right)]
                     for a, x in zip(members, left)], dtype=complex)


def _gram_matrix(members) -> np.ndarray:
    spinors = [m.spinor for m in members]
    return _block_pairing(members, spinors, spinors)


def build_family(modes, scale: ScaleFunction, members,
                 require_negative_subspace: bool = True,
                 gap_tol: float = DEFAULT_GAP_TOL,
                 quad_tol: float = DEFAULT_QUAD_TOL,
                 ode_tol: float = DEFAULT_ODE_TOL) -> SolutionFamily:
    """Assemble and validate a family.

    By default every member's fiber value must lie in the negative spectral
    subspace of its mode's signature operator (distance below 1e-8); pass
    ``require_negative_subspace=False`` for research families spanning the
    whole fiber (needed e.g. to probe causal classification with full-rank
    blocks).  Every tolerance is checked, read or not.
    """
    check_tolerances(ode_tol, quad_tol, gap_tol)
    modes = tuple(modes)
    mems = tuple(FamilyMember(integer_index(i, "mode index", 0, len(modes)), s)
                 for i, s in members)
    if not mems:
        raise InvalidParameter("family needs at least one member")
    if require_negative_subspace:
        projections = {}
        for idx in {m.mode_index for m in mems}:
            sig = signature_operator(modes[idx], scale, tol=quad_tol,
                                     ode_tol=ode_tol)
            projections[idx] = negative_projection(sig, gap_tol=gap_tol).matrix
        for j, mem in enumerate(mems):
            psi = mem.spinor
            resid = np.linalg.norm(psi - projections[mem.mode_index] @ psi)
            if resid > MEMBERSHIP_TOL * max(np.linalg.norm(psi), 1e-300):
                raise InvalidParameter(
                    f"member {j} lies {resid:.3e} outside the negative "
                    "spectral subspace of its mode")
    return SolutionFamily(modes=modes, scale=scale, members=mems,
                          gram=_gram_matrix(mems))


def negative_subspace_family(modes, scale: ScaleFunction,
                             gap_tol: float = DEFAULT_GAP_TOL,
                             quad_tol: float = DEFAULT_QUAD_TOL,
                             ode_tol: float = DEFAULT_ODE_TOL) -> SolutionFamily:
    """One member per mode: the unit negative eigenvector of its signature."""
    check_tolerances(ode_tol, quad_tol, gap_tol)
    modes = tuple(modes)
    members = []
    for i, mode in enumerate(modes):
        sig = signature_operator(mode, scale, tol=quad_tol, ode_tol=ode_tol)
        negative_projection(sig, gap_tol=gap_tol)
        # S is traceless, so past the gap check mu_minus < 0
        members.append((i, sig.eigvectors.matrix[:, 0]))
    return build_family(modes, scale, members, gap_tol=gap_tol,
                        quad_tol=quad_tol, ode_tol=ode_tol)


def orthonormalize(family: SolutionFamily) -> SolutionFamily:
    """Gram-Schmidt within each mode block (blocks are already orthogonal).

    Raises DegenerateFamily on a numerically rank-deficient block.
    """
    new_members = list(family.members)
    for idx, group in family.block_indices().items():
        done = []
        for j in group:
            v = new_members[j].spinor.copy()
            norm0 = np.linalg.norm(v)
            if norm0 == 0.0:
                raise DegenerateFamily(f"member {j} is the zero vector")
            for w in done:
                v = v - np.vdot(w, v) * w
            norm = np.linalg.norm(v)
            if norm < 1e-8 * norm0:
                raise DegenerateFamily(
                    f"mode block {idx} is rank deficient at member {j}")
            v = v / norm
            done.append(v)
            new_members[j] = FamilyMember(idx, v)
    out = SolutionFamily(modes=family.modes, scale=family.scale,
                         members=tuple(new_members),
                         gram=_gram_matrix(new_members))
    defect = spectral_norm(out.gram - np.eye(out.size))
    if defect > GRAM_IDENTITY_TOL:
        raise DegenerateFamily(f"post-orthonormalization Gram defect {defect:.3e}")
    return out


def members_at(family: SolutionFamily, tau: float,
               tol: float = DEFAULT_ODE_TOL):
    """All member fiber values evolved to tau: one ``propagators`` sweep per
    distinct tau0 among the modes carrying members (one in practice)."""
    groups = {}
    for idx in dict.fromkeys(m.mode_index for m in family.members):
        groups.setdefault(family.modes[idx].tau0, []).append(idx)
    us = {}
    for tau0, ids in groups.items():
        (stack,), _ = propagators([family.modes[i] for i in ids], family.scale,
                                  tau0, [tau], tol)
        us.update(zip(ids, map(Unitary2, stack)))
    return [us[m.mode_index].matrix @ m.spinor for m in family.members]


@dataclass(frozen=True)
class CorrelationOperator:
    """Pairwise indefinite fiber correlations of a family at one time.

    Block diagonal over modes; each block is minus a Gram-type matrix in
    the indefinite product, so it has at most one positive and one negative
    eigenvalue.
    """

    matrix: np.ndarray
    tau: float
    mode_of_member: tuple

    def __post_init__(self):
        object.__setattr__(self, "matrix", m := frozen_array(self.matrix, None, "correlation"))
        check_hermitian(m, "correlation")
        object.__setattr__(self, "mode_of_member", tuple(self.mode_of_member))

    def block(self, mode_index: int) -> np.ndarray:
        sel = [j for j, i in enumerate(self.mode_of_member) if i == mode_index]
        return self.matrix[np.ix_(sel, sel)]


def local_correlation(family: SolutionFamily, tau: float,
                      tol: float = DEFAULT_ODE_TOL) -> CorrelationOperator:
    """F_{jk}(tau) = -psi_j(tau)^dagger sigma3 psi_k(tau) within mode blocks."""
    family.scale.check_domain(tau)
    evolved = members_at(family, tau, tol=tol)
    f = _block_pairing(family.members, evolved, [-(SIGMA3 @ p) for p in evolved])
    f = 0.5 * (f + f.conj().T)
    return CorrelationOperator(matrix=f, tau=tau,
                               mode_of_member=tuple(m.mode_index
                                                    for m in family.members))


def regularized_kernel(family: SolutionFamily, tau_x: float, tau_y: float,
                       tol: float = DEFAULT_ODE_TOL):
    """Two-point kernel blocks: -sum_j psi_j(x) psi_j(y)^dagger sigma3 per mode.

    The adjoint contraction carries the indefinite fiber signature, which
    is what makes sigma3-conjugated transposition exchange the arguments
    exactly.
    """
    at_x = members_at(family, tau_x, tol=tol)
    at_y = members_at(family, tau_y, tol=tol)
    blocks = {}
    for mem, px, py in zip(family.members, at_x, at_y):
        b = blocks.setdefault(mem.mode_index, np.zeros((2, 2), dtype=complex))
        b -= np.outer(px, py.conj()) @ SIGMA3
    return blocks


def kernel_apply(family: SolutionFamily, tau_x: float, phi: TestFunction,
                 mode_index: int, tol: float = DEFAULT_ODE_TOL) -> np.ndarray:
    """Action of the kernel on a probe in one mode's fiber, evaluated at tau_x.

    The pairing measure is R(tau) dtau / (2 pi), matching the causal
    fundamental solution's normalization, so member j's pairing integral
    is s_j^dagger k(phi) and the image is -U(tau_x) sum_j s_j s_j^dagger
    k(phi), with k the causal-solution image ``k_m_apply``.
    """
    mode = family.modes[integer_index(mode_index, "mode index", 0, len(family.modes))]
    scale = family.scale
    scale.check_domain(mode.tau0, *phi.support)
    spinors = [m.spinor for m in family.members if m.mode_index == mode_index]
    if not spinors:
        return np.zeros(2, dtype=complex)
    k = k_m_apply(mode, scale, phi, tol=tol).value
    u_x = evolve(mode, scale, mode.tau0, tau_x, tol=tol).u.matrix
    return -u_x @ sum(np.outer(s, s.conj()) for s in spinors) @ k


def correlation_trace_lifetime_integral(family: SolutionFamily,
                                        quad_tol: float = DEFAULT_QUAD_TOL,
                                        ode_tol: float = DEFAULT_ODE_TOL) -> float:
    """Lifetime integral of Tr F(tau) R(tau).

    Equals minus the sum of the members' signature quadratic forms, which
    the signature operator computes by an independent route.  On smooth
    scales it is co-integrated with the stacked propagators of all modes;
    on piecewise scales each mode's integral of U^dagger sigma3 U R is the
    Levin segment sum of ``projector._sigma3_integral``.
    """
    check_tolerances(ode_tol=ode_tol)
    scale = family.scale
    groups = family.block_indices()
    mode_ids = sorted(groups)
    modes = [family.modes[idx] for idx in mode_ids]
    # sum_j psi_j^dagger sigma3 psi_j = sum_n Tr(sigma3 U_n G_n U_n^dagger),
    # with G_n the sum of s s^dagger over the members of mode n
    grams = np.array([sum(np.outer(family.members[j].spinor,
                                   family.members[j].spinor.conj())
                          for j in groups[idx]) for idx in mode_ids])

    # members are anchored at their modes' tau0; require a common anchor
    anchors = {mode.tau0 for mode in modes}
    if len(anchors) != 1:
        raise InvalidParameter("trace integral needs a common tau0 across modes")
    scale.check_domain(modes[0].tau0)
    lo, hi, _ = scale.window(quad_tol)

    if scale.is_piecewise:
        return float(-sum(np.trace(_sigma3_integral(mode, scale, lo, hi, ode_tol,
                                                    exact=True) @ g).real
                          for mode, g in zip(modes, grams)))

    # Tr(sigma3 U G U^dagger) = Tr(G K) with K = U^dagger sigma3 U: the
    # entrywise sum of G^T times K, real since G and K are Hermitian
    weights = grams.transpose(0, 2, 1).ravel()

    def integrand(t, r, x):
        return (-(weights @ sigma3_conjugated(x, r)).real,)

    transport = exact_transport(modes, scale, anchors.pop())
    ((acc,),) = interval_integral(transport, integrand, 1, [(lo, hi)], ode_tol)
    return float(acc.real)


class Classification(enum.Enum):
    TIMELIKE = "timelike"
    SPACELIKE = "spacelike"
    LIGHTLIKE = "lightlike"


def product_spectrum(fx: CorrelationOperator, fy: CorrelationOperator):
    """Eigenvalues of F(x) F(y), block by block."""
    if fx.mode_of_member != fy.mode_of_member:
        raise InvalidParameter("correlation operators come from different families")
    return np.array([e for idx in sorted(set(fx.mode_of_member))
                     for e in np.linalg.eigvals(fx.block(idx) @ fy.block(idx))])


def causal_classify(fx: CorrelationOperator, fy: CorrelationOperator,
                    tol: float = DEFAULT_CLASSIFY_TOL) -> Classification:
    """Causal relation of two times from the product spectrum.

    Timelike: all nontrivial eigenvalues real (within tol, relative to the
    largest magnitude).  Spacelike: all nontrivial eigenvalues genuinely
    complex with a common absolute value.  Lightlike: anything else.
    """
    check_tolerances(classify_tol=tol)
    eigs = product_spectrum(fx, fy)
    # no nontrivial eigenvalue (a zero spectrum included) is timelike
    scale = float(np.max(np.abs(eigs), initial=0.0))
    nontrivial = eigs[np.abs(eigs) > tol * scale]
    imag_ok = np.abs(nontrivial.imag) <= tol * scale
    if np.all(imag_ok):
        return Classification.TIMELIKE
    moduli = np.abs(nontrivial)
    if np.all(~imag_ok) and (moduli.max() - moduli.min()) <= tol * scale:
        return Classification.SPACELIKE
    return Classification.LIGHTLIKE
