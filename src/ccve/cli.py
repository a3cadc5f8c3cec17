"""Command-line surface: game I/O, solving, iteration, certification.

Subcommands: solve, iterate, check, build, enumerate.  The CCVE_LOG
environment variable (error/warn/info/debug) controls diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, analysis, builders, equilibrium, lft, stability
from .core import (
    Conjecture,
    _write_json,
    assemble_blocks,
    load_game,
    riccati_residual_norms,
    save_game,
)
from .errors import CcveError, NoStableSelection
from .spectral import LargestMagnitude, SmallestMagnitude

log = logging.getLogger("ccve")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CERTIFIED = 2
EXIT_DIVERGED = 3


def _setup_logging():
    level = os.environ.get("CCVE_LOG", "warn").lower()
    levels = {"error": logging.ERROR, "warn": logging.WARNING,
              "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(
        stream=sys.stderr,
        level=levels.get(level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _write_manifest(out_path, argv, inputs, seed=None, config=None, t0=None):
    out_path = Path(out_path)
    manifest = {
        "command": argv,
        "inputs": [str(p) for p in inputs],
        "seed": seed,
        "config": config or {},
        "version": __version__,
        "duration_s": None if t0 is None else time.monotonic() - t0,
    }
    _write_json(out_path.with_name(out_path.name + ".manifest.json"), manifest)


def _selection(name):
    return {"largest": LargestMagnitude, "smallest": SmallestMagnitude,
            "auto": "auto"}[name]


def cmd_solve(args, argv):
    t0 = time.monotonic()
    game = load_game(args.game)
    try:
        sol = equilibrium.solve_ccve(game, _selection(args.selection))
    except NoStableSelection as exc:
        print(f"NoStableSelection: {exc}", file=sys.stderr)
        return EXIT_NOT_CERTIFIED
    equilibrium.save_solution(sol, args.out)
    _write_manifest(args.out, argv, [args.game],
                    config={"selection": args.selection}, t0=t0)
    if not sol.stable and not args.allow_unstable:
        print(
            f"solution written but not certified stable "
            f"(xi_max = {sol.stability.xi_max_1:.6g})",
            file=sys.stderr,
        )
        return EXIT_NOT_CERTIFIED
    return EXIT_OK


def _load_init(path, dims):
    with open(path) as fh:
        data = json.load(fh)
    conj1 = Conjecture.create(1, data["L1"], data["ell1"], dims)
    conj2 = Conjecture.create(2, data["L2"], data["ell2"], dims)
    return conj1, conj2


def cmd_iterate(args, argv):
    t0 = time.monotonic()
    game = load_game(args.game)
    init = None
    if args.init != "nash":
        init = _load_init(args.init, game.dims)
    cfg = lft.IterationConfig(mode=args.mode, max_iters=args.max_iters,
                              tol=args.tol, init=init)
    trace = lft.iterate(game, cfg)
    lft.write_trace_csv(trace, game.dims, args.trace)
    summary = {
        "status": trace.status,
        "status_iter": trace.status_iter,
        "final_residuals": [trace.final.res1, trace.final.res2],
        "final_change": trace.change,
        "iterations": len(trace.steps) - 1,
    }
    if args.compare is not None:
        with open(args.compare) as fh:
            ref = json.load(fh)
        dL1 = np.linalg.norm(trace.final.L1 - np.asarray(ref["L1"]))
        dL2 = np.linalg.norm(trace.final.L2 - np.asarray(ref["L2"]))
        summary["distance_to_solution"] = {"L1": dL1, "L2": dL2}
    summary_path = args.summary or str(Path(args.trace).with_suffix(".summary.json"))
    _write_json(summary_path, summary)
    _write_manifest(args.trace, argv, [args.game],
                    config={"mode": args.mode, "max_iters": args.max_iters,
                            "tol": args.tol, "init": args.init}, t0=t0)
    if trace.status == "diverged":
        print("iteration diverged", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def cmd_check(args, argv):
    game = load_game(args.game)
    blocks = assemble_blocks(game)
    with open(args.solution) as fh:
        data = json.load(fh)
    L1 = np.asarray(data["L1"], float)
    L2 = np.asarray(data["L2"], float)
    r1, r2 = riccati_residual_norms(game, L1, L2)
    print(f"riccati residuals: {r1:.6e} {r2:.6e}")
    so = analysis.second_order_check(game, L1, L2)
    print(f"second order min eigenvalues: {so.min_eig_1:.6e} {so.min_eig_2:.6e} "
          f"pass={so.pass_}")
    print(f"M1 positive definite: {so.m1_posdef}; M2 positive definite: "
          f"{so.m2_posdef}")
    ok = r1 <= stability.FIXED_POINT_TOL and r2 <= stability.FIXED_POINT_TOL
    stable = False
    if ok:
        report = stability.certify(blocks, game, L1, L2)
        print(f"stability ratios xi_max: {report.xi_max_1:.6e} "
              f"{report.xi_max_2:.6e} stable={report.stable}")
        stable = report.stable
    else:
        print("stability: skipped (residuals too large for a fixed point)")
    passed = ok and stable and so.pass_
    print("certification:", "PASS" if passed else "FAIL")
    return EXIT_OK if passed else EXIT_NOT_CERTIFIED


def _lq_spec_from_json(path):
    with open(path) as fh:
        data = json.load(fh)
    return builders.LqSpec.create(
        data["F"], data["G1"], data["G2"], data["Q1"], data["Q2"],
        data["Q1f"], data["Q2f"], data["R1"], data["R2"],
        data["R12"], data["R21"], data["z0"], data["T"],
    )


def cmd_build(args, argv):
    t0 = time.monotonic()
    seed = None
    config = {"kind": args.kind}
    if args.kind == "random":
        seed = args.seed
        config.update(recipe=args.recipe, lo=args.lo, hi=args.hi)
        game = builders.random_game(args.d1, args.d2, recipe=args.recipe,
                                    seed=args.seed, lo=args.lo, hi=args.hi)
    elif args.kind == "scalar":
        spec = builders.ScalarSpec(
            q1=args.q1, r1=args.r1, s1=args.s1, w1=args.w1, v1=args.v1,
            q2=args.q2, r2=args.r2, s2=args.s2, w2=args.w2, v2=args.v2,
        )
        game = builders.build_scalar_game(spec)
    else:  # lq
        game = builders.build_lq_game(_lq_spec_from_json(args.spec))
    save_game(game, args.out)
    _write_manifest(args.out, argv, [args.spec] if args.kind == "lq" else [],
                    seed=seed, config=config, t0=t0)
    return EXIT_OK


def cmd_enumerate(args, argv):
    t0 = time.monotonic()
    game = load_game(args.game)
    result = equilibrium.enumerate_fixed_points(game, cap=args.cap)
    candidates = sorted(result.candidates, key=lambda c: c.xi_max_1)
    out = {
        "candidates": [
            {
                "indices": list(c.indices),
                "eigenvalues": [[v.real, v.imag] for v in c.eigenvalues],
                "L1": c.L1.tolist(),
                "L2": c.L2.tolist(),
                "residuals": list(c.residuals),
                "xi_max": [c.xi_max_1, c.xi_max_2],
                "stable": bool(c.stable),
                "second_order_pass": bool(c.second_order_pass),
            }
            for c in candidates
        ],
        "skipped": [
            {"indices": list(idx), "reason": reason}
            for idx, reason in result.skipped
        ],
    }
    _write_json(args.out, out)
    _write_manifest(args.out, argv, [args.game], config={"cap": args.cap}, t0=t0)
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(prog="ccve", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="compute the equilibrium directly")
    ps.add_argument("--game", required=True)
    ps.add_argument("--selection", choices=["largest", "smallest", "auto"],
                    default="auto")
    ps.add_argument("--out", required=True)
    ps.add_argument("--allow-unstable", action="store_true")
    ps.set_defaults(func=cmd_solve)

    pi = sub.add_parser("iterate", help="run the conjecture iteration")
    pi.add_argument("--game", required=True)
    pi.add_argument("--init", default="nash",
                    help='"nash" or a JSON file with L1/ell1/L2/ell2')
    pi.add_argument("--mode", choices=["cross", "composite"], default="cross")
    pi.add_argument("--max-iters", type=int, default=100)
    pi.add_argument("--tol", type=float, default=1e-8)
    pi.add_argument("--trace", required=True)
    pi.add_argument("--summary", default=None)
    pi.add_argument("--compare", default=None,
                    help="solution JSON to measure distance against")
    pi.set_defaults(func=cmd_iterate)

    pc = sub.add_parser("check", help="certify a solution file against a game")
    pc.add_argument("--game", required=True)
    pc.add_argument("--solution", required=True)
    pc.set_defaults(func=cmd_check)

    pb = sub.add_parser("build", help="construct a game JSON file")
    bsub = pb.add_subparsers(dest="kind", required=True)
    br = bsub.add_parser("random")
    br.add_argument("--recipe", choices=["paper7ex1", "paper7ex2", "uniform"],
                    default="paper7ex2")
    br.add_argument("--d1", type=int, required=True)
    br.add_argument("--d2", type=int, required=True)
    br.add_argument("--seed", type=int, default=0)
    br.add_argument("--lo", type=float, default=-1.0)
    br.add_argument("--hi", type=float, default=1.0)
    br.add_argument("--out", required=True)
    br.set_defaults(func=cmd_build)
    bs = bsub.add_parser("scalar")
    for name, default in (("q1", None), ("r1", None), ("s1", None),
                          ("w1", 0.0), ("v1", 0.0)):
        bs.add_argument(f"--{name}", type=float, required=default is None,
                        default=default)
    for name in ("q2", "r2", "s2"):
        bs.add_argument(f"--{name}", type=float, default=None)
    for name in ("w2", "v2"):
        bs.add_argument(f"--{name}", type=float, default=0.0)
    bs.add_argument("--out", required=True)
    bs.set_defaults(func=cmd_build)
    bl = bsub.add_parser("lq")
    bl.add_argument("--spec", required=True, help="LqSpec JSON file")
    bl.add_argument("--out", required=True)
    bl.set_defaults(func=cmd_build)

    pe = sub.add_parser("enumerate", help="enumerate all fixed-point candidates")
    pe.add_argument("--game", required=True)
    pe.add_argument("--out", required=True)
    pe.add_argument("--cap", type=int, default=equilibrium.ENUMERATION_CAP)
    pe.set_defaults(func=cmd_enumerate)
    return p


def main(argv=None):
    _setup_logging()
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except CcveError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
