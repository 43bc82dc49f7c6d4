"""Batch command-line interface.

Subcommands: evolve | signature | project | bloch | cfs | study.
Every command reads a JSON scenario file, writes CSV or JSON to stdout (or
--out), and reports failures as machine-readable JSON on stderr.

Exit codes: 0 success, 1 validation failure, 2 numerical failure
(non-convergence, degenerate signature, ...), 3 envelope violation in a
study.  Identical scenario files and tolerances produce byte-identical
output (floats are printed with 17 significant digits).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from . import bloch as bloch_mod
from . import cfs as cfs_mod
from . import projector as proj_mod
from . import studies as studies_mod
from .errors import DiracSeaError
from .evolution import evolve_grid
from .model import Mode, unitarity_defect
from .scenario_io import ScenarioConfig, load_scenario

log = logging.getLogger("diracsea")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_BOUND_VIOLATION = 3

_NUMERICAL_KINDS = {
    "integration_failure", "convergence_failure", "degenerate_signature",
    "degenerate_frame", "degenerate_family", "convention_mismatch",
}


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return f"{float(x):.17g}"


def _write_csv(out, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(x) for x in row) for row in rows)
    out.write("\n".join(lines) + "\n")


def _write_json(out, payload):
    out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _complex_pairs(vec):
    return [[float(z.real), float(z.imag)] for z in vec]


def _parse_probe(p: dict) -> studies_mod.ProbeSpec:
    """A 'phi' block: support, direction ([re, im] pairs or numbers), amplitude."""
    direction = tuple(complex(e[0], e[1]) if isinstance(e, (list, tuple))
                      else complex(e) for e in p.get("direction", [1.0, 0.0]))
    return studies_mod.ProbeSpec(support=tuple(float(x) for x in p["support"]),
                                 direction=direction,
                                 amplitude=float(p.get("amplitude", 1.0)))


def cmd_evolve(cfg: ScenarioConfig, args, out):
    run = cfg.run
    tau_from = float(run.get("tau_from", cfg.mode.tau0))
    tau_to = float(run["tau_to"]) if "tau_to" in run else tau_from
    samples = int(run.get("samples", 1))
    if samples > 1:
        taus = list(np.linspace(tau_from, tau_to, samples))
    else:
        taus = [tau_to]
    us = evolve_grid(cfg.mode, cfg.scale, tau_from, taus,
                     tol=cfg.tolerances.ode_tol)
    header = ["tau", "re_u11", "im_u11", "re_u12", "im_u12",
              "re_u21", "im_u21", "re_u22", "im_u22", "unitarity_defect"]
    rows = []
    for t, u in zip(taus, us):
        rows.append([t,
                     u[0, 0].real, u[0, 0].imag, u[0, 1].real, u[0, 1].imag,
                     u[1, 0].real, u[1, 0].imag, u[1, 1].real, u[1, 1].imag,
                     unitarity_defect(u)])
    if args.format == "json":
        _write_json(out, {"rows": [dict(zip(header, map(float, r)))
                                   for r in rows]})
    else:
        _write_csv(out, header, rows)
    return EXIT_OK


def cmd_signature(cfg: ScenarioConfig, args, out):
    wkb = cfg.run.get("wkb", False)
    fn = proj_mod.signature_operator_wkb if wkb else proj_mod.signature_operator
    sig = fn(cfg.mode, cfg.scale, tol=cfg.tolerances.quad_tol,
             ode_tol=cfg.tolerances.ode_tol)
    c0, c1, c2, c3 = sig.s.pauli_components()
    header = ["tau0", "mu_minus", "mu_plus", "s0", "s1", "s2", "s3",
              "quad_error_estimate"]
    row = [cfg.mode.tau0, sig.mu_minus, sig.mu_plus, c0, c1, c2, c3,
           sig.quad_error_estimate]
    if args.format == "json":
        _write_json(out, {
            "tau0": cfg.mode.tau0,
            "wkb": wkb,
            "matrix": [_complex_pairs(r) for r in sig.s.matrix],
            "eigenvalues": [sig.mu_minus, sig.mu_plus],
            "pauli_components": [c0, c1, c2, c3],
            "quad_error_estimate": sig.quad_error_estimate,
            "scale_bound": sig.scale_bound,
        })
    else:
        _write_csv(out, header, [row])
    return EXIT_OK


def cmd_project(cfg: ScenarioConfig, args, out):
    phi = _parse_probe(cfg.run["phi"]).build()
    variant = cfg.run.get("variant", "exact")
    scale = cfg.scale
    tols = cfg.tolerances
    if variant == "exact":
        res = proj_mod.fermionic_projector_apply(
            cfg.mode, scale, phi, tol=tols.ode_tol, quad_tol=tols.quad_tol,
            gap_tol=tols.gap_tol)
    elif variant == "wkb":
        res = proj_mod.p_wkb_apply(cfg.mode, scale, phi,
                                   variant=proj_mod.PWkbVariant.FULL,
                                   tol=tols.ode_tol, quad_tol=tols.quad_tol,
                                   gap_tol=tols.gap_tol)
    else:
        res = proj_mod.p_wkb_apply(cfg.mode, scale, phi,
                                   variant=proj_mod.PWkbVariant.LEADING_ORDER,
                                   tol=tols.ode_tol)
    if args.format == "json":
        _write_json(out, {"value": _complex_pairs(res.value),
                          "norm": res.norm(),
                          "provenance": res.provenance.value})
    else:
        header = ["re_1", "im_1", "re_2", "im_2", "norm", "provenance"]
        row = [res.value[0].real, res.value[0].imag,
               res.value[1].real, res.value[1].imag, res.norm(),
               res.provenance.value]
        _write_csv(out, header, [row])
    return EXIT_OK


def cmd_bloch(cfg: ScenarioConfig, args, out):
    run, scale = cfg.run, cfg.scale
    end = scale.tau_end if isinstance(scale, bloch_mod.Scenario) else scale.tau_end - 0.05
    taus = list(np.linspace(float(run.get("tau_from", cfg.mode.tau0)),
                            float(run.get("tau_to", end)),
                            int(run.get("samples", 481))))
    header = ["tau", "v1", "v2", "v3",
              "cum_int_v1R", "cum_int_v2R", "cum_int_v3R"]
    rows = bloch_mod.v_rows_with_cumulative(cfg.mode, scale, taus,
                                            tol=cfg.tolerances.ode_tol)
    if args.format == "json":
        _write_json(out, {"rows": [dict(zip(header, map(float, r)))
                                   for r in rows]})
    else:
        _write_csv(out, header, rows)
    return EXIT_OK


def cmd_cfs(cfg: ScenarioConfig, args, out):
    run = cfg.run
    taus = [float(t) for t in run["taus"]]
    lambdas = [float(x) for x in run.get("lambdas", [cfg.mode.lam])]
    members_per_mode = int(run.get("members_per_mode", 1))
    classify_tol = float(run.get("classify_tol", 1e-8))
    scale = cfg.scale
    tols = cfg.tolerances
    modes = tuple(Mode(lam=l, mass=cfg.mode.mass, tau0=cfg.mode.tau0,
                       physical=cfg.mode.physical) for l in lambdas)
    if members_per_mode == 1:
        family = cfs_mod.negative_subspace_family(
            modes, scale, gap_tol=tols.gap_tol, quad_tol=tols.quad_tol,
            ode_tol=tols.ode_tol)
    else:
        members = []
        for i, mode in enumerate(modes):
            sig = proj_mod.signature_operator(mode, scale, tol=tols.quad_tol,
                                              ode_tol=tols.ode_tol)
            members.append((i, sig.eigvectors.matrix[:, 0]))
            members.append((i, sig.eigvectors.matrix[:, 1]))
        family = cfs_mod.build_family(modes, scale, members,
                                      require_negative_subspace=False)
    family = cfs_mod.orthonormalize(family)
    correlations = {t: cfs_mod.local_correlation(family, t, tol=tols.ode_tol)
                    for t in taus}
    rows = []
    for tx in taus:
        for ty in taus:
            cls = cfs_mod.causal_classify(correlations[tx], correlations[ty],
                                          tol=classify_tol)
            rows.append([tx, ty, cls.value])
    header = ["tau_x", "tau_y", "class"]
    if args.format == "json":
        _write_json(out, {"rows": [{"tau_x": float(r[0]), "tau_y": float(r[1]),
                                    "class": r[2]} for r in rows]})
    else:
        _write_csv(out, header, rows)
    return EXIT_OK


def cmd_study(cfg: ScenarioConfig, args, out):
    run = cfg.run
    kind = studies_mod.StudyKind(run["kind"])
    grid = [float(x) for x in run["grid"]]
    lam_doc = run.get("lambda", {"kind": "fixed", "value": cfg.mode.lam})
    lam_spec = studies_mod.LambdaSpec(
        kind=lam_doc.get("kind", "fixed"),
        value=float(lam_doc.get("value", cfg.mode.lam)),
        k=float(lam_doc.get("k", 1.0)),
        exponent=float(lam_doc.get("exponent", 0.8)))
    probe = _parse_probe(run["phi"]) if "phi" in run else None
    tols = cfg.tolerances
    result = studies_mod.run_study(
        kind, grid, lam_spec=lam_spec, probe=probe,
        leading_r_max=float(run.get("r_max", 1.0)),
        tau0=cfg.mode.tau0,
        slack=float(run.get("slack", studies_mod.DEFAULT_SLACK)),
        ode_tol=tols.ode_tol, quad_tol=tols.quad_tol, gap_tol=tols.gap_tol,
        jobs=args.jobs)

    header = ["m_rmax", "lambda", "measured", "envelope", "pass"]
    rows = [[r.m_rmax, r.lam, r.measured, r.envelope, r.passed]
            for r in result.records]
    if args.format == "json":
        _write_json(out, {
            "kind": result.kind.value,
            "fitted_constant": result.fitted_constant,
            "slope": result.slope,
            "slack": result.slack,
            "passed": result.passed,
            "records": [dict(zip(header, [r.m_rmax, r.lam, r.measured,
                                          r.envelope, bool(r.passed)]))
                        for r in result.records],
        })
    else:
        _write_csv(out, header, rows)
        sys.stderr.write(json.dumps(
            {"fitted_constant": result.fitted_constant,
             "slope": result.slope, "passed": result.passed}) + "\n")
    if not result.passed:
        bad = result.first_failure()
        sys.stderr.write(json.dumps(
            {"error": "bound_violation",
             "message": "measured value exceeds fitted envelope",
             "record": {"m_rmax": bad.m_rmax, "lambda": bad.lam,
                        "measured": bad.measured,
                        "envelope": bad.envelope}}) + "\n")
        return EXIT_BOUND_VIOLATION
    return EXIT_OK


_COMMANDS = {
    "evolve": cmd_evolve,
    "signature": cmd_signature,
    "project": cmd_project,
    "bloch": cmd_bloch,
    "cfs": cmd_cfs,
    "study": cmd_study,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diracsea",
        description="Mode-by-mode Dirac sea computations in closed FRW universes")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--scenario", required=True,
                       help="JSON scenario file")
        p.add_argument("--out", default=None,
                       help="output file (default stdout)")
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--ode-tol", type=float, default=None)
        p.add_argument("--quad-tol", type=float, default=None)
        p.add_argument("--gap-tol", type=float, default=None)
        if name == "study":
            p.add_argument("--jobs", type=int, default=1)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("DIRACSEA_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        flags = {name: getattr(args, name)
                 for name in ("ode_tol", "quad_tol", "gap_tol")
                 if getattr(args, name) is not None}
        cfg = load_scenario(args.scenario, args.command, flags)
        sink = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
        try:
            code = _COMMANDS[args.command](cfg, args, sink)
        finally:
            if args.out:
                sink.close()
        return code
    except DiracSeaError as exc:
        payload = {"error": exc.kind, "message": str(exc)}
        if exc.kind == "degenerate_signature":
            payload["eigenvalues"] = [exc.mu_minus, exc.mu_plus]
        sys.stderr.write(json.dumps(payload) + "\n")
        log.debug("command failed", exc_info=True)
        return EXIT_NUMERICAL if exc.kind in _NUMERICAL_KINDS else EXIT_VALIDATION
    except OSError as exc:
        sys.stderr.write(json.dumps({"error": "io_error",
                                     "message": str(exc)}) + "\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
