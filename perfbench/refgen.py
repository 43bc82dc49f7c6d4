"""Recompute the committed references for every input the seeds can choose.

    python3 perfbench/refgen.py [envelope_study] [mode_family] [rotation_cli]

Outputs are computed at ``ode_tol=1e-13`` and ``quad_tol=1e-12`` and
written to ``perfbench/refs/<workload>.json.gz``.  Nothing is written
unless these independent routes agree:

* ``wkb_eigenvalues_closed_form`` and the spectrum of the WKB signature;
* the lifetime trace integral and minus the sum of the members'
  signature quadratic forms;
* ``scenario_signature_components`` and ``piecewise_signature_vector``;
* the twelve-segment signature vanishes.
"""

from __future__ import annotations

import gzip
import json
import sys

from run import bootstrap

ODE_TOL = 1e-13
QUAD_TOL = 1e-12
#: Relative agreement demanded of the independent routes.
CROSS_TOL = 1e-9
REF_DIGITS = 11


class Disagreement(Exception):
    pass


def require(ok: bool, what: str):
    if not ok:
        raise Disagreement(what)
    print(f"  agrees: {what}", flush=True)


def closed_form_check(mode, scale, sig_wkb, label):
    from diracsea import wkb_eigenvalues_closed_form

    closed = wkb_eigenvalues_closed_form(mode, scale, tol=QUAD_TOL,
                                         ode_tol=ODE_TOL)
    size = max(abs(sig_wkb.mu_minus), abs(sig_wkb.mu_plus))
    diff = max(abs(closed[0] - sig_wkb.mu_minus), abs(closed[1] - sig_wkb.mu_plus))
    require(diff <= CROSS_TOL * size,
            f"closed-form WKB eigenvalues, {label} ({diff / size:.1e})")


def gen_envelope_study() -> dict:
    import numpy as np
    from diracsea import (Mode, dust_scale, k_m_apply, k_wkb_apply,
                          negative_projection, signature_operator,
                          signature_operator_wkb, wkb_signature_leading_term)
    from diracsea.model import spectral_norm
    from workloads import (ENV_GRID, ENV_LAMBDAS, ENV_PROBES, TAU0, env_probe,
                           key, to_json)

    points, prims = {}, {}
    for lam in ENV_LAMBDAS:
        for m in ENV_GRID:
            print(f"envelope_study lam={lam:g} m_rmax={m:g}", flush=True)
            mode, scale = Mode(lam, 1.0, TAU0), dust_scale(m)
            s = signature_operator(mode, scale, tol=QUAD_TOL, ode_tol=ODE_TOL)
            sw = signature_operator_wkb(mode, scale, tol=QUAD_TOL, ode_tol=ODE_TOL)
            closed_form_check(mode, scale, sw, f"lam={lam:g} m_rmax={m:g}")
            prims[key("S", lam, 1.0, m)] = to_json(s.s.matrix)
            prims[key("Sw", lam, 1.0, m)] = to_json(sw.s.matrix)
            x_neg = negative_projection(s).matrix
            xw_neg = negative_projection(sw).matrix
            for index in range(len(ENV_PROBES)):
                phi = env_probe(index).build()
                k = k_m_apply(mode, scale, phi, tol=ODE_TOL).value
                kw = k_wkb_apply(mode, scale, phi, tol=ODE_TOL).value
                prims[key("k", lam, m, phi.support[0])] = to_json(k)
                prims[key("kw", lam, m, phi.support[0])] = to_json(kw)
                p, pw = -(x_neg @ k), -(xw_neg @ kw)
                points[key("p_wkb_bound", lam, m, index)] = {
                    "measured": float(np.linalg.norm(p - pw)),
                    "norm": float(np.linalg.norm(p))}

            # leading_term_bound reads the grid as masses at r_max = 1
            mode_l, scale_l = Mode(lam, m, TAU0), dust_scale(1.0)
            swl = signature_operator_wkb(mode_l, scale_l, tol=QUAD_TOL,
                                         ode_tol=ODE_TOL)
            closed_form_check(mode_l, scale_l, swl, f"lam={lam:g} mass={m:g}")
            lead = wkb_signature_leading_term(mode_l, scale_l).matrix
            prims[key("Sw", lam, m, 1.0)] = to_json(swl.s.matrix)
            prims[key("lead", lam, m, 1.0)] = to_json(lead)
            points[key("leading_term_bound", lam, m)] = {
                "measured": spectral_norm(swl.s.matrix - lead),
                "norm": spectral_norm(swl.s.matrix)}
    return {"points": points, "primitives": prims}


def gen_mode_family() -> dict:
    import numpy as np
    from diracsea import cfs, dust_scale, signature_operator
    from workloads import (MF_SCALES, MF_VARIANTS, block_entries, key,
                           mf_members, mf_modes, mf_probe, mf_variant, to_json)

    modes = mf_modes()
    scales, variants, signatures = {}, {}, {}
    for m in MF_SCALES:
        print(f"mode_family m_rmax={m:g}", flush=True)
        scale = dust_scale(m)
        sigs = [signature_operator(md, scale, tol=QUAD_TOL, ode_tol=ODE_TOL)
                for md in modes]
        for md, s in zip(modes, sigs):
            signatures[key(md.lam, m)] = to_json(s.s.matrix)
        neg = cfs.negative_subspace_family(modes, scale, quad_tol=QUAD_TOL,
                                           ode_tol=ODE_TOL)
        forms = [float(np.vdot(mem.spinor,
                               sigs[mem.mode_index].s.matrix @ mem.spinor).real)
                 for mem in neg.members]
        trace_ref, norm = -sum(forms), sum(abs(f) for f in forms)
        trace = cfs.correlation_trace_lifetime_integral(neg, quad_tol=QUAD_TOL,
                                                        ode_tol=ODE_TOL)
        require(abs(trace - trace_ref) <= CROSS_TOL * norm,
                f"trace integral vs signature forms, m_rmax={m:g} "
                f"({abs(trace - trace_ref) / norm:.1e})")
        scales[key(m)] = {"negative_spinors": [to_json(mem.spinor)
                                               for mem in neg.members],
                          "trace": trace_ref, "trace_norm": norm}
        for v in range(MF_VARIANTS):
            print(f"  variant {v}", flush=True)
            variant = mf_variant(v)
            full = cfs.build_family(modes, scale, mf_members(variant),
                                    require_negative_subspace=False)
            ortho = cfs.orthonormalize(full)
            corrs = [cfs.local_correlation(ortho, t, tol=ODE_TOL)
                     for t in variant["taus"]]
            kernels = []
            for x, y in variant["kernel_pairs"]:
                blocks = cfs.regularized_kernel(ortho, x, y, tol=ODE_TOL)
                kernels.append(to_json([blocks[k] for k in sorted(blocks)]))
            phi = mf_probe(variant)
            variants[key(v, m)] = {
                "gram": to_json(full.gram),
                "orthonormal": to_json([mem.spinor for mem in ortho.members]),
                "correlations": [to_json(block_entries(c.matrix, c.mode_of_member))
                                 for c in corrs],
                "classes": [cfs.causal_classify(a, b).value
                            for a in corrs for b in corrs],
                "kernels": kernels,
                "kernel_apply": [to_json(cfs.kernel_apply(
                    ortho, variant["apply_tau"], phi, k, tol=ODE_TOL))
                    for k in range(len(modes))],
            }
    return {"scales": scales, "variants": variants, "signatures": signatures}


def gen_rotation_cli() -> dict:
    import numpy as np
    from diracsea import scenario_signature_components, signature_operator_wkb
    from diracsea.bloch import piecewise_signature_vector
    from diracsea.scenario_io import parse_scenario
    from workloads import (OUT_DIR, ROT_COMMANDS, ROT_DEGENERATE,
                           parse_cli_output, rot_pool, rot_scenario_files,
                           run_cli)

    outputs = {}
    scenario_dir = OUT_DIR / "refgen-scenarios"
    scenario_dir.mkdir(parents=True, exist_ok=True)
    for entry in (e for slot in rot_pool() for e in slot):
        print(f"rotation_cli {entry['id']}", flush=True)
        cfg = parse_scenario(entry["doc"])
        scenario, plain = cfg.scale, cfg.plain_scale()
        bound = plain.lifetime_integral()
        svec, _ = scenario_signature_components(scenario)
        pvec = piecewise_signature_vector(cfg.mode, plain)
        diff = float(np.linalg.norm(svec - pvec))
        require(diff <= CROSS_TOL * bound,
                f"scenario vs piecewise signature, {entry['id']} "
                f"({diff / bound:.1e})")
        if entry["id"] == ROT_DEGENERATE:
            size = float(np.linalg.norm(svec))
            require(size <= CROSS_TOL * bound,
                    f"twelve-segment signature vanishes ({size / bound:.1e})")
        sw = signature_operator_wkb(cfg.mode, plain, tol=QUAD_TOL,
                                    ode_tol=ODE_TOL)
        closed_form_check(cfg.mode, plain, sw, entry["id"])
        paths = rot_scenario_files(entry, scenario_dir)
        for name, command, _ in ROT_COMMANDS:
            out = run_cli([command, "--scenario", str(paths[name]),
                           "--ode-tol", repr(ODE_TOL),
                           "--quad-tol", repr(QUAD_TOL)])
            parsed = parse_cli_output(*out)
            degenerate = entry["id"] == ROT_DEGENERATE and name == "project_exact"
            expected = 2 if degenerate else 0
            require(parsed["code"] == expected,
                    f"{entry['id']} {name} exits with {expected}")
            if degenerate:
                require(parsed["error"] == "degenerate_signature",
                        "twelve-segment projector reports degenerate_signature")
            outputs[f"{entry['id']}|{name}"] = parsed
    return {"outputs": outputs}


GENERATORS = {"envelope_study": gen_envelope_study,
              "mode_family": gen_mode_family,
              "rotation_cli": gen_rotation_cli}


def rounded(doc):
    """Floats cut to REF_DIGITS significant digits, far below REL_TOL."""
    if isinstance(doc, float):
        return float(f"{doc:.{REF_DIGITS}g}")
    if isinstance(doc, dict):
        return {k: rounded(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [rounded(v) for v in doc]
    return doc


def write(name: str, doc: dict):
    import workloads

    workloads.REFS_DIR.mkdir(parents=True, exist_ok=True)
    path = workloads.REFS_DIR / f"{name}.json.gz"
    doc = rounded(dict(doc, tolerances={"ode_tol": ODE_TOL, "quad_tol": QUAD_TOL}))
    with open(path, "wb") as raw, \
            gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(json.dumps(doc, sort_keys=True).encode("utf-8"))
    print(f"wrote {path}", flush=True)


def main(argv) -> int:
    bootstrap()
    names = argv or list(GENERATORS)
    for name in names:
        try:
            doc = GENERATORS[name]()
        except Disagreement as exc:
            print(f"refusing to write {name}: routes disagree on {exc}",
                  file=sys.stderr)
            return 1
        write(name, doc)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
