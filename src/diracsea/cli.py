"""Batch command-line interface.

Subcommands: evolve | signature | project | bloch | cfs | study.
Every command reads a JSON scenario file, writes CSV or JSON to stdout (or
--out) once it has finished, and reports failures as machine-readable JSON
on stderr; a failed command writes no output and leaves --out untouched.

Exit codes: 0 success, 1 validation failure, 2 numerical failure
(non-convergence, degenerate signature, ...), 3 envelope violation in a
study.  Identical scenario files and tolerances produce byte-identical
output (floats are printed with 17 significant digits).
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import logging
import os
import sys

import numpy as np

from . import bloch as bloch_mod
from . import cfs as cfs_mod
from . import projector as proj_mod
from . import studies as studies_mod
from .errors import DiracSeaError, InvalidParameter
from .evolution import evolve_grid
from .model import DEFAULT_CLASSIFY_TOL, Mode, unitarity_defect
from .scenario_io import ScenarioConfig, load_scenario

log = logging.getLogger("diracsea")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_BOUND_VIOLATION = 3


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return f"{float(x):.17g}"


def _emit(out, args, header, rows, payload=None):
    """Write ``rows`` under ``header`` as CSV, or ``payload`` as JSON.

    A CSV row of Python floats is one ``%`` of %.17g cells, ``_fmt``'s text.
    The JSON default is ``{"rows": [...]}``, each row keyed by the header,
    its strings kept and its numbers as floats.
    """
    if args.format == "csv":
        lines, fmt = [",".join(header)], ",".join(["%.17g"] * len(header))
        lines.extend(fmt % tuple(row) if set(map(type, row)) == {float}
                     else ",".join(map(_fmt, row)) for row in rows)
        out.write("\n".join(lines) + "\n")
        return
    if payload is None:
        payload = {"rows": [{name: x if isinstance(x, str) else float(x)
                             for name, x in zip(header, row)} for row in rows]}
    out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _complex_pairs(vec):
    return [[float(z.real), float(z.imag)] for z in vec]


def _parse_probe(p: dict) -> studies_mod.ProbeSpec:
    """A 'phi' block: support, direction ([re, im] pairs or numbers), amplitude."""
    direction = tuple(complex(e[0], e[1]) if isinstance(e, (list, tuple))
                      else complex(e) for e in p.get("direction", [1.0, 0.0]))
    return studies_mod.ProbeSpec(support=tuple(p["support"]), direction=direction,
                                 amplitude=p.get("amplitude", 1.0))


def cmd_evolve(cfg: ScenarioConfig, args, out):
    run = cfg.run
    tau_from = float(run.get("tau_from", cfg.mode.tau0))
    tau_to = float(run["tau_to"]) if "tau_to" in run else tau_from
    samples = int(run.get("samples", 1))
    if samples > 1:
        taus = np.linspace(tau_from, tau_to, samples).tolist()
    else:
        taus = [tau_to]
    us = np.array(evolve_grid(cfg.mode, cfg.scale, tau_from, taus,
                              tol=cfg.tolerances.ode_tol))
    header = ["tau", "re_u11", "im_u11", "re_u12", "im_u12",
              "re_u21", "im_u21", "re_u22", "im_u22", "unitarity_defect"]
    # row-major entries, each as (real, imaginary), then the batched defects
    entries = us.reshape(-1, 4).view(float).tolist()
    defects = unitarity_defect(us).tolist()
    rows = [[t, *e, d] for t, e, d in zip(taus, entries, defects)]
    _emit(out, args, header, rows)
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
    _emit(out, args, header, [row], {
        "tau0": cfg.mode.tau0,
        "wkb": wkb,
        "matrix": [_complex_pairs(r) for r in sig.s.matrix],
        "eigenvalues": [sig.mu_minus, sig.mu_plus],
        "pauli_components": [c0, c1, c2, c3],
        "quad_error_estimate": sig.quad_error_estimate,
        "scale_bound": sig.scale_bound,
    })
    return EXIT_OK


#: Each ``project`` variant: its projector, and the tolerances it reads
#: besides the ode tolerance.
PROJECTORS = {
    "exact": (proj_mod.fermionic_projector_apply, ("quad_tol", "gap_tol")),
    "wkb": (proj_mod.p_wkb_apply, ("quad_tol", "gap_tol")),
    "wkb_leading": (proj_mod.p_wkb_leading_apply, ()),
}


def cmd_project(cfg: ScenarioConfig, args, out):
    phi = _parse_probe(cfg.run["phi"]).build()
    project, reads = PROJECTORS[cfg.run.get("variant", "exact")]
    tols = cfg.tolerances
    res = project(cfg.mode, cfg.scale, phi, tol=tols.ode_tol,
                  **{name: getattr(tols, name) for name in reads})
    norm, provenance = res.norm(), res.provenance.value
    header = ["re_1", "im_1", "re_2", "im_2", "norm", "provenance"]
    row = [res.value[0].real, res.value[0].imag,
           res.value[1].real, res.value[1].imag, norm, provenance]
    _emit(out, args, header, [row], {"value": _complex_pairs(res.value),
                                     "norm": norm, "provenance": provenance})
    return EXIT_OK


def cmd_bloch(cfg: ScenarioConfig, args, out):
    run, scale = cfg.run, cfg.scale
    # a piecewise domain is closed, a smooth one open
    end = scale.tau_end if scale.is_piecewise else scale.tau_end - 0.05
    taus = list(np.linspace(float(run.get("tau_from", cfg.mode.tau0)),
                            float(run.get("tau_to", end)),
                            int(run.get("samples", 481))))
    header = ["tau", "v1", "v2", "v3",
              "cum_int_v1R", "cum_int_v2R", "cum_int_v3R"]
    rows = bloch_mod.v_rows_with_cumulative(cfg.mode, scale, taus,
                                            tol=cfg.tolerances.ode_tol)
    _emit(out, args, header, rows)
    return EXIT_OK


def cmd_cfs(cfg: ScenarioConfig, args, out):
    run = cfg.run
    taus = [float(t) for t in run["taus"]]
    lambdas = [float(x) for x in run.get("lambdas", [cfg.mode.lam])]
    members_per_mode = int(run.get("members_per_mode", 1))
    classify_tol = float(run.get("classify_tol", DEFAULT_CLASSIFY_TOL))
    scale = cfg.scale
    tols = cfg.tolerances
    modes = tuple(Mode(lam=l, mass=cfg.mode.mass, tau0=cfg.mode.tau0,
                       physical=cfg.mode.physical) for l in lambdas)
    if members_per_mode == 1:
        family = cfs_mod.negative_subspace_family(
            modes, scale, gap_tol=tols.gap_tol, quad_tol=tols.quad_tol,
            ode_tol=tols.ode_tol)
    else:
        # the whole fiber: a block's classes do not depend on its orthonormal basis
        family = cfs_mod.build_family(
            modes, scale, [(i, e) for i in range(len(modes)) for e in np.eye(2)],
            require_negative_subspace=False, gap_tol=tols.gap_tol,
            quad_tol=tols.quad_tol, ode_tol=tols.ode_tol)
    family = cfs_mod.orthonormalize(family)
    correlations = {t: cfs_mod.local_correlation(family, t, tol=tols.ode_tol)
                    for t in taus}
    rows = []
    for tx in taus:
        for ty in taus:
            cls = cfs_mod.causal_classify(correlations[tx], correlations[ty],
                                          tol=classify_tol)
            rows.append([tx, ty, cls.value])
    _emit(out, args, ["tau_x", "tau_y", "class"], rows)
    return EXIT_OK


def cmd_study(cfg: ScenarioConfig, args, out):
    run = cfg.run
    kind = studies_mod.StudyKind(run["kind"])
    for field, reader in (("r_max", "leading_term_bound"), ("phi", "p_wkb_bound")):
        if field in run and kind.value != reader:
            raise InvalidParameter(f"run.{field} is read by the {reader} study only, "
                                   f"not by {kind.value}")
    grid = [float(x) for x in run["grid"]]
    # the spec's own defaults, but the mode's lambda for a fixed value
    lam_doc = run.get("lambda", {})
    lam_spec = studies_mod.LambdaSpec(**{
        key: x if key == "kind" else float(x)
        for key, x in {"value": cfg.mode.lam, **lam_doc}.items()})
    reads = studies_mod.LAMBDA_KINDS[lam_spec.kind][0]
    for field in lam_doc:
        if field not in ("kind", reads):
            raise InvalidParameter(f"run.lambda.{field} is not read by the "
                                   f"{lam_spec.kind} lambda kind, only {reads}")
    probe = _parse_probe(run["phi"]) if "phi" in run else None
    leading_r_max = float(run.get("r_max", 1.0))
    # the file's mode and scale are the grid point the envelope is fitted at
    for name, value, want in zip(("mode.mass", "scale.r_max"), (cfg.mode.mass, cfg.scale.r_max),
                                 studies_mod.grid_point(kind, grid[0], leading_r_max)):
        if not np.isclose(value, want, rtol=1e-12, atol=0.0):
            raise InvalidParameter(f"{name} = {value:g}, but the study fits its "
                                   f"envelope at the first grid point, where it is {want:g}")
    tols = cfg.tolerances
    result = studies_mod.run_study(
        kind, grid, lam_spec=lam_spec, probe=probe,
        leading_r_max=leading_r_max,
        tau0=cfg.mode.tau0,
        slack=float(run.get("slack", studies_mod.DEFAULT_SLACK)),
        ode_tol=tols.ode_tol, quad_tol=tols.quad_tol, gap_tol=tols.gap_tol,
        jobs=args.jobs)

    header = ["m_rmax", "lambda", "measured", "envelope", "pass"]
    rows = [[r.m_rmax, r.lam, r.measured, r.envelope, r.passed]
            for r in result.records]
    _emit(out, args, header, rows, {
        "kind": result.kind.value,
        "fitted_constant": result.fitted_constant,
        "slope": result.slope,
        "slack": result.slack,
        "passed": result.passed,
        "records": [dict(zip(header, row)) for row in rows],
    })
    if args.format == "csv":
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


@functools.cache
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


def _configure_logging():
    raw = os.environ.get("DIRACSEA_LOG", "WARNING")
    level = raw.upper()
    if not isinstance(logging.getLevelName(level), int):
        raise InvalidParameter(f"DIRACSEA_LOG={raw!r} is not a log level "
                               "(DEBUG, INFO, WARNING, ERROR, CRITICAL)")
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _configure_logging()
        flags = {name: getattr(args, name)
                 for name in ("ode_tol", "quad_tol", "gap_tol")
                 if getattr(args, name) is not None}
        cfg = load_scenario(args.scenario, args.command, flags)
        # a command that fails leaves --out as it was: write only on return
        buf = io.StringIO()
        code = _COMMANDS[args.command](cfg, args, buf)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as sink:
                sink.write(buf.getvalue())
        else:
            sys.stdout.write(buf.getvalue())
        return code
    except DiracSeaError as exc:
        payload = {"error": exc.kind, "message": str(exc)}
        if exc.kind == "degenerate_signature":
            payload["eigenvalues"] = [exc.mu_minus, exc.mu_plus]
        sys.stderr.write(json.dumps(payload) + "\n")
        log.debug("command failed", exc_info=True)
        return EXIT_NUMERICAL if isinstance(exc, RuntimeError) else EXIT_VALIDATION
    except OSError as exc:
        sys.stderr.write(json.dumps({"error": "io_error",
                                     "message": str(exc)}) + "\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
