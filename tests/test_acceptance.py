"""Acceptance suite: the exit criteria, one test per criterion.

Each test prints a single PASS line (visible with ``pytest -s``) carrying
the measured runtime; every tolerance is pinned here, not configurable.
Run with::

    pytest tests/test_acceptance.py -v -s
"""

import json
import time

import numpy as np
import pytest

from diracsea.bloch import (
    build_six_segment,
    build_twelve_segment,
    propagate_bloch,
    scenario_signature_components,
    v_components,
    v_trace_formula,
)
from diracsea.cfs import (
    build_family,
    kernel_apply,
    negative_subspace_family,
    orthonormalize,
    regularized_kernel,
)
from diracsea.cli import main as cli_main
from diracsea.evolution import (
    accumulated_phase,
    evolve,
    wkb_evolve,
)
from diracsea.model import (
    Mode,
    SIGMA3,
    bump,
    dust_scale,
    spectral_norm,
    unitarity_defect,
)
from diracsea.projector import (
    fermionic_projector_apply,
    k_wkb_apply,
    negative_projection,
    p_wkb_apply,
    PWkbVariant,
    signature_operator,
    signature_operator_wkb,
    wkb_eigenvalues_closed_form,
)
from diracsea.studies import LambdaSpec, ProbeSpec, StudyKind, run_study

TAU0 = float(np.pi / 2)


def _report(number, label, t0, budget):
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {number:02d} [{label}]: PASS ({elapsed:.2f} s)")
    assert elapsed < budget, f"runtime {elapsed:.2f} s exceeds {budget} s"


def test_01_twelve_segment_signature_vanishes():
    t0 = time.perf_counter()
    scen = build_twelve_segment(lam=1.5, mass=1.0)
    sig = signature_operator(scen.mode, scen)
    assert sig.norm() <= 1e-8 * scen.r_max
    svec, _ = scenario_signature_components(scen)
    assert np.linalg.norm(svec) <= 1e-8 * scen.r_max
    _report(1, "S = 0 twelve-segment", t0, 1.0)


def test_02_six_segment_partial_symmetry():
    t0 = time.perf_counter()
    scen = build_six_segment(lam=1.5, mass=1.0)
    svec, _ = scenario_signature_components(scen)
    r_max = scen.r_max
    assert abs(svec[0]) <= 1e-8 * r_max
    assert abs(svec[2]) <= 1e-8 * r_max
    assert abs(svec[1]) >= 1e-3 * r_max
    _report(2, "six-segment S1 = S3 = 0, S2 != 0", t0, 1.0)


def test_03_wkb_eigenvalue_oracle():
    t0 = time.perf_counter()
    mode = Mode(lam=1.5, mass=1.0, tau0=TAU0)
    for r_max in (5.0, 10.0, 50.0):
        sc = dust_scale(r_max)
        sig = signature_operator_wkb(mode, sc, tol=1e-10, ode_tol=1e-11)
        mu_m, mu_p = wkb_eigenvalues_closed_form(mode, sc, tol=1e-10,
                                                 ode_tol=1e-11)
        assert abs(sig.mu_plus - mu_p) <= 1e-6 * abs(mu_p)
        assert abs(sig.mu_minus - mu_m) <= 1e-6 * abs(mu_p)
    _report(3, "WKB eigenvalue closed form", t0, 30.0)


def test_04_signature_deviation_envelope():
    t0 = time.perf_counter()
    res = run_study(StudyKind.S_WKB_BOUND, [10.0, 30.0, 100.0, 300.0],
                    lam_spec=LambdaSpec(kind="fixed", value=1.5),
                    tau0=TAU0, slack=0.05)
    assert res.passed, [r for r in res.records if not r.passed]
    _report(4, "|S - S_wkb| envelope m^-1/5 r^4/5", t0, 300.0)


def test_05_projector_deviation_envelope():
    t0 = time.perf_counter()
    res = run_study(StudyKind.P_WKB_BOUND, [10.0, 30.0, 100.0, 300.0],
                    lam_spec=LambdaSpec(kind="fixed", value=1.5),
                    probe=ProbeSpec(support=(1.0, 2.0),
                                    direction=(1.0 + 0j, 0.0 + 0j),
                                    amplitude=1.0),
                    tau0=TAU0, slack=0.05)
    assert res.passed, [r for r in res.records if not r.passed]
    _report(5, "|(P - P_wkb)(phi)| envelope (m r)^-1/5 r l1", t0, 300.0)


def test_06_leading_order_error_factor():
    # deviation of the full WKB image from its pure negative-frequency part,
    # relative to the causal-solution norm, tracks sqrt(lam^2+(mr)^2)/(mr)^2
    t0 = time.perf_counter()
    mode = Mode(lam=1.5, mass=1.0, tau0=TAU0)
    phi = bump((1.0, 2.0), np.array([1.0, 0.0]), 1.0)
    grid = [10.0, 30.0, 100.0]
    ratios = {}
    for r_max in grid:
        sc = dust_scale(r_max)
        full = p_wkb_apply(mode, sc, phi, variant=PWkbVariant.FULL)
        lead = p_wkb_apply(mode, sc, phi, variant=PWkbVariant.LEADING_ORDER)
        kw = k_wkb_apply(mode, sc, phi)
        ratios[r_max] = (np.linalg.norm(full.value - lead.value) / kw.norm())
    factor = lambda r: np.hypot(mode.lam, mode.mass * r) / (mode.mass * r) ** 2
    c_fit = ratios[grid[0]] / factor(grid[0])
    for r_max in grid:
        assert ratios[r_max] <= 1.05 * c_fit * factor(r_max), (r_max, ratios)
    _report(6, "full-vs-leading error factor", t0, 120.0)


def test_07_structural_invariant_suite():
    t0 = time.perf_counter()
    rng = np.random.RandomState(2026)
    half_ints = np.array([1.5, 2.5, 3.5, 5.5, 7.5, -1.5, -2.5, -4.5])

    def random_scenario():
        mode = Mode(lam=float(rng.choice(half_ints)),
                    mass=float(rng.uniform(0.3, 3.0)), tau0=0.0)
        from diracsea.bloch import make_scenario

        pairs = [(rng.uniform(0.3, 8.0), rng.choice([0.5, 1.0, 1.5, 2.5]))
                 for _ in range(rng.randint(1, 6))]
        return make_scenario(mode, pairs)

    def random_smooth():
        mode = Mode(lam=float(rng.choice(half_ints)),
                    mass=float(rng.uniform(0.3, 3.0)), tau0=TAU0)
        return mode, dust_scale(float(rng.uniform(0.5, 20.0)))

    # unitarity of every propagator
    tol = 1e-10
    for _ in range(60):
        scen = random_scenario()
        a, b = np.sort(rng.uniform(0.0, scen.total_duration, 2))
        res = evolve(scen.mode, scen, a, b, tol=tol)
        assert unitarity_defect(res.u.matrix) <= 1e-10
    for _ in range(40):
        mode, sc = random_smooth()
        a, b = np.sort(rng.uniform(0.05, np.pi - 0.05, 2))
        res = evolve(mode, sc, a, b, tol=tol)
        assert unitarity_defect(res.u.matrix) <= 1e-10

    # group law
    for i in range(100):
        if i % 2 == 0:
            scen = random_scenario()
            mode, sc = scen.mode, scen
            a, b, c = np.sort(rng.uniform(0.0, sc.tau_end, 3))
        else:
            mode, sc = random_smooth()
            a, b, c = np.sort(rng.uniform(0.05, np.pi - 0.05, 3))
        u_ca = evolve(mode, sc, a, c, tol=tol).u.matrix
        u_cb = evolve(mode, sc, b, c, tol=tol).u.matrix
        u_ba = evolve(mode, sc, a, b, tol=tol).u.matrix
        assert spectral_norm(u_ca - u_cb @ u_ba) <= 10 * tol

    # signature hermiticity and spectral-projection idempotency
    from diracsea.errors import DegenerateSignature

    signatures = []
    for i in range(100):
        if i % 2 == 0:
            scen = random_scenario()
            sig = signature_operator(scen.mode, scen)
        else:
            mode, sc = random_smooth()
            sig = signature_operator(mode, sc, tol=1e-8, ode_tol=1e-9)
        m = sig.s.matrix
        assert spectral_norm(m - m.conj().T) \
            <= 1e-12 * max(1.0, spectral_norm(m))
        signatures.append(sig)
    projected = 0
    for sig in signatures:
        try:
            p = negative_projection(sig).matrix
        except DegenerateSignature:
            continue
        projected += 1
        assert spectral_norm(p @ p - p) <= 1e-12
        assert spectral_norm(p - p.conj().T) <= 1e-12
    assert projected >= 90

    # rotation frames stay in SO(3)
    for _ in range(100):
        scen = random_scenario()
        taus = rng.uniform(0.0, scen.total_duration, 4)
        for st in propagate_bloch(scen.mode, scen, np.sort(taus)):
            assert np.linalg.norm(st.w.T @ st.w - np.eye(3), 2) <= 1e-10
            assert np.linalg.det(st.w) > 0

    # trace formula vs rotation dynamics
    for i in range(100):
        if i % 5 == 0:
            mode, sc = random_smooth()
            sc = dust_scale(min(sc.r_max, 10.0))
            taus = np.sort(rng.uniform(0.3, np.pi - 0.3, 4))
            trace_rows = v_trace_formula(mode, sc, taus, tol=tol)
            bloch_rows = [st.v() for st in
                          propagate_bloch(mode, sc, taus, tol=tol)]
        else:
            scen = random_scenario()
            taus = np.sort(rng.uniform(0.0, scen.total_duration, 4))
            trace_rows = v_trace_formula(scen.mode, scen, taus, tol=tol)
            bloch_rows = [st.v() for st in propagate_bloch(scen.mode, scen, taus)]
        for a, b in zip(trace_rows, bloch_rows):
            assert np.max(np.abs(a - b)) <= 1e-8

    # adjoint-exchange symmetry of the two-point kernel
    for _ in range(100):
        scen = random_scenario()
        modes = (scen.mode,)
        spin = rng.randn(2, 2) + 1j * rng.randn(2, 2)
        fam = build_family(modes, scen,
                           [(0, spin[0]), (0, spin[1])],
                           require_negative_subspace=False)
        tx, ty = rng.uniform(0.0, scen.total_duration, 2)
        pxy = regularized_kernel(fam, tx, ty)[0]
        pyx = regularized_kernel(fam, ty, tx)[0]
        flipped = SIGMA3 @ pxy.conj().T @ SIGMA3
        assert spectral_norm(flipped - pyx) \
            <= 1e-13 * max(1.0, spectral_norm(pyx))

    _report(7, "structural invariants, 100+ instances each", t0, 120.0)


def test_08_kernel_sum_reproduces_projector():
    t0 = time.perf_counter()
    cases = [(1.5, 5.0, (1.0, 2.0)), (2.5, 10.0, (0.8, 1.9)),
             (-1.5, 20.0, (1.3, 2.4))]
    for lam, r_max, support in cases:
        mode = Mode(lam=lam, mass=1.0, tau0=TAU0)
        sc = dust_scale(r_max)
        fam = orthonormalize(negative_subspace_family((mode,), sc))
        phi = bump(support, np.array([1.0, 0.4j]), 1.0)
        via_kernel = kernel_apply(fam, TAU0, phi, 0, tol=1e-10)
        via_projector = fermionic_projector_apply(mode, sc, phi,
                                                  tol=1e-10).value
        rel = (np.linalg.norm(via_kernel - via_projector)
               / np.linalg.norm(via_projector))
        assert rel <= 1e-6, (lam, r_max, rel)
    _report(8, "kernel sum vs spectral projector", t0, 60.0)


def test_09_degeneracy_and_perturbation(tmp_path, capsys):
    t0 = time.perf_counter()
    base = {"mode": {"lambda": 1.5, "mass": 1.0, "tau0": 0.0},
            "scale": {"kind": "preset", "name": "twelve_segment"},
            "run": {"phi": {"support": [1.0, 2.0], "direction": [1.0, 0.0],
                            "amplitude": 1.0}}}
    degen = tmp_path / "degenerate.json"
    degen.write_text(json.dumps(base))
    out = tmp_path / "out.json"
    code = cli_main(["project", "--scenario", str(degen), "--out", str(out),
                     "--format", "json"])
    err = capsys.readouterr().err
    assert code == 2
    assert json.loads(err.strip().split("\n")[-1])["error"] \
        == "degenerate_signature"

    base["scale"]["perturb"] = {"index": 0, "dp": 0.01}
    pert = tmp_path / "perturbed.json"
    pert.write_text(json.dumps(base))
    code = cli_main(["project", "--scenario", str(pert), "--out", str(out),
                     "--format", "json"])
    assert code == 0
    payload = json.loads(out.read_text())
    assert np.isfinite(payload["norm"])
    _report(9, "degenerate exit 2; perturbed projection succeeds", t0, 5.0)


def test_10_bloch_traces_and_cancellation(tmp_path):
    t0 = time.perf_counter()
    doc = {"mode": {"lambda": 1.5, "mass": 1.0, "tau0": 0.0},
           "scale": {"kind": "preset", "name": "twelve_segment"},
           "run": {"samples": 481}}
    scen_file = tmp_path / "twelve.json"
    scen_file.write_text(json.dumps(doc))
    out = tmp_path / "rows.csv"
    code = cli_main(["bloch", "--scenario", str(scen_file),
                     "--out", str(out)])
    assert code == 0
    rows = out.read_text().strip().split("\n")
    assert rows[0].split(",")[:4] == ["tau", "v1", "v2", "v3"]
    first = rows[1].split(",")
    assert (first[1], first[2], first[3]) == ("0", "0", "1")
    r_max = build_twelve_segment().r_max
    final = [float(x) for x in rows[-1].split(",")[4:]]
    assert all(abs(x) <= 1e-8 * r_max for x in final)
    _report(10, "trace rows: v(0) = e3, lifetime integrals cancel", t0, 1.0)
