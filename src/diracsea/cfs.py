"""Finite-rank solution families, local correlations, and causal classification.

A family is a finite set of mode solutions, each specified by its fiber
value at the mode's reference time.  Distinct modes are orthogonal both in
the solution scalar product and pointwise (separated spatial harmonics),
so Gram matrices and correlation operators are block diagonal over modes;
all structure lives inside the per-mode blocks.

The local correlation operator at a time tau collects the pairwise
indefinite fiber products of the evolved members; two times are compared
causally through the spectrum of the product of their correlation
operators.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFamily, InvalidParameter
from .evolution import evolve, exact_transport
from .model import (
    DEFAULT_GAP_TOL,
    DEFAULT_ODE_TOL,
    DEFAULT_QUAD_TOL,
    PiecewiseConstantScale,
    ScaleFunction,
    SIGMA3,
    TestFunction,
    check_mode_scale,
    spectral_norm,
)
from .projector import (
    _choose_cutoffs,
    interval_integral,
    negative_projection,
    signature_operator,
    support_integral,
    TWO_PI,
)

MEMBERSHIP_TOL = 1e-8
GRAM_IDENTITY_TOL = 1e-10


@dataclass(frozen=True)
class FamilyMember:
    mode_index: int
    spinor: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.spinor, dtype=complex).copy()
        if s.shape != (2,) or not np.all(np.isfinite(s)):
            raise InvalidParameter("member spinor must be a finite 2-vector")
        s.setflags(write=False)
        object.__setattr__(self, "spinor", s)


@dataclass(frozen=True)
class SolutionFamily:
    """Modes, a shared scale function, members, and the cached Gram matrix."""

    modes: tuple
    scale: ScaleFunction
    members: tuple
    gram: np.ndarray

    @property
    def size(self) -> int:
        return len(self.members)

    def block_indices(self):
        """member indices grouped by mode, in first-appearance order."""
        groups = {}
        for j, mem in enumerate(self.members):
            groups.setdefault(mem.mode_index, []).append(j)
        return groups


def _gram_matrix(members) -> np.ndarray:
    n = len(members)
    g = np.zeros((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            if members[j].mode_index == members[k].mode_index:
                g[j, k] = np.vdot(members[j].spinor, members[k].spinor)
    return g


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
    blocks).
    """
    modes = tuple(modes)
    mems = tuple(FamilyMember(int(i), np.asarray(s, dtype=complex))
                 for i, s in members)
    if not mems:
        raise InvalidParameter("family needs at least one member")
    for mem in mems:
        if not 0 <= mem.mode_index < len(modes):
            raise InvalidParameter(f"mode index {mem.mode_index} out of range")
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
    modes = tuple(modes)
    members = []
    for i, mode in enumerate(modes):
        sig = signature_operator(mode, scale, tol=quad_tol, ode_tol=ode_tol)
        negative_projection(sig, gap_tol=gap_tol)
        vec = sig.eigvectors.matrix[:, 0] if sig.mu_minus < 0 \
            else sig.eigvectors.matrix[:, 1]
        members.append((i, vec))
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
    """All member fiber values evolved to tau (one propagator per mode)."""
    propagators = {}
    for idx in {m.mode_index for m in family.members}:
        mode = family.modes[idx]
        propagators[idx] = evolve(mode, family.scale, mode.tau0, tau,
                                  tol=tol).u.matrix
    return [propagators[m.mode_index] @ m.spinor for m in family.members]


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
        m = np.asarray(self.matrix, dtype=complex).copy()
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidParameter("correlation matrix must be square")
        defect = spectral_norm(m - m.conj().T)
        if defect > 1e-12 * max(1.0, spectral_norm(m)):
            raise InvalidParameter(f"correlation matrix defect {defect:.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "mode_of_member", tuple(self.mode_of_member))

    def block(self, mode_index: int) -> np.ndarray:
        sel = [j for j, i in enumerate(self.mode_of_member) if i == mode_index]
        return self.matrix[np.ix_(sel, sel)]


def local_correlation(family: SolutionFamily, tau: float,
                      tol: float = DEFAULT_ODE_TOL) -> CorrelationOperator:
    """F_{jk}(tau) = -psi_j(tau)^dagger sigma3 psi_k(tau) within mode blocks."""
    family.scale.check_domain(tau)
    evolved = members_at(family, tau, tol=tol)
    n = family.size
    f = np.zeros((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            if family.members[j].mode_index == family.members[k].mode_index:
                f[j, k] = -np.vdot(evolved[j], SIGMA3 @ evolved[k])
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
    fundamental solution's normalization; each member's pairing integral is
    co-integrated with the mode propagator over the probe's support.
    """
    mode = family.modes[mode_index]
    scale = family.scale
    check_mode_scale(mode, scale, *phi.support)
    spinors = [family.members[j].spinor
               for j in family.block_indices().get(mode_index, [])]
    if not spinors:
        return np.zeros(2, dtype=complex)

    def integrand(t, r, x):
        u = x.reshape(2, 2)
        probe = SIGMA3 @ phi(t) * r / TWO_PI
        return np.array([np.vdot(u @ s, probe) for s in spinors])

    transport = exact_transport((mode,), scale, mode.tau0, tol)
    total = support_integral(transport, integrand, len(spinors), phi, tol)
    u_x = evolve(mode, scale, mode.tau0, tau_x, tol=tol).u.matrix
    out = np.zeros(2, dtype=complex)
    for s, pairing in zip(spinors, total):
        out -= (u_x @ s) * pairing
    return out


def correlation_trace_lifetime_integral(family: SolutionFamily,
                                        quad_tol: float = DEFAULT_QUAD_TOL,
                                        ode_tol: float = DEFAULT_ODE_TOL) -> float:
    """Lifetime integral of Tr F(tau) R(tau).

    Co-integrated with all member evolutions; equals minus the sum of the
    members' signature quadratic forms, which the signature operator
    computes by an independent route.
    """
    scale = family.scale
    groups = family.block_indices()
    mode_ids = sorted(groups)
    modes = [family.modes[idx] for idx in mode_ids]

    # members are anchored at their modes' tau0; require a common anchor
    anchors = {mode.tau0 for mode in modes}
    if len(anchors) != 1:
        raise InvalidParameter("trace integral needs a common tau0 across modes")
    check_mode_scale(modes[0], scale)

    if isinstance(scale, PiecewiseConstantScale):
        lo, hi = 0.0, scale.tau_end
    else:
        d_lo, d_hi = _choose_cutoffs(scale, quad_tol)
        lo, hi = d_lo, scale.tau_end - d_hi

    def integrand(t, r, x):
        tr = 0.0
        for u, idx in zip(x.reshape(-1, 2, 2), mode_ids):
            for j in groups[idx]:
                psi = u @ family.members[j].spinor
                tr -= np.vdot(psi, SIGMA3 @ psi).real
        return (tr * r,)

    transport = exact_transport(modes, scale, anchors.pop(), ode_tol)
    acc = interval_integral(transport, integrand, 1, lo, hi, ode_tol)
    return float(acc[0].real)


class Classification(enum.Enum):
    TIMELIKE = "timelike"
    SPACELIKE = "spacelike"
    LIGHTLIKE = "lightlike"


def product_spectrum(fx: CorrelationOperator, fy: CorrelationOperator):
    """Eigenvalues of F(x) F(y), block by block."""
    if fx.mode_of_member != fy.mode_of_member:
        raise InvalidParameter("correlation operators come from different families")
    eigs = []
    for idx in sorted(set(fx.mode_of_member)):
        prod = fx.block(idx) @ fy.block(idx)
        eigs.extend(np.linalg.eigvals(prod))
    return np.array(eigs)


def causal_classify(fx: CorrelationOperator, fy: CorrelationOperator,
                    tol: float = 1e-8) -> Classification:
    """Causal relation of two times from the product spectrum.

    Timelike: all nontrivial eigenvalues real (within tol, relative to the
    largest magnitude).  Spacelike: all nontrivial eigenvalues genuinely
    complex with a common absolute value.  Lightlike: anything else.
    """
    eigs = product_spectrum(fx, fy)
    scale = float(np.max(np.abs(eigs))) if eigs.size else 0.0
    if scale == 0.0:
        return Classification.TIMELIKE
    nontrivial = eigs[np.abs(eigs) > tol * scale]
    if nontrivial.size == 0:
        return Classification.TIMELIKE
    imag_ok = np.abs(nontrivial.imag) <= tol * scale
    if np.all(imag_ok):
        return Classification.TIMELIKE
    moduli = np.abs(nontrivial)
    if np.all(~imag_ok) and (moduli.max() - moduli.min()) <= tol * scale:
        return Classification.SPACELIKE
    return Classification.LIGHTLIKE
