"""Command-line surface: game I/O, solving, iteration, certification.

Subcommands: solve, iterate, check, build, enumerate.
"""

from __future__ import annotations

import argparse
import sys
import time
import warnings
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

# The package binds every module but runs one only when it is first used, so a
# command runs only the modules it calls (README "Package layout").
from . import __version__, analysis, builders, equilibrium, lft, spectral, stability
from .core import (
    Conjecture,
    _checked_L,
    _read_json,
    _write_json,
    assemble_blocks,
    load_game,
    riccati_residual_norms,
    save_game,
)
from .errors import CcveError, DimensionMismatch, NoStableSelection

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CERTIFIED = 2
EXIT_DIVERGED = 3


def _refuse_shared_paths(inputs, outputs):
    """ValueError, naming both flags, when an output path resolves to an input
    path or to another output path. Both map flags to paths, an input path None
    is skipped, and the first output is the one _write_manifest describes."""
    (flag, path), *_ = outputs.items()
    outputs = {**outputs, f"{flag}'s manifest": f"{path}.manifest.json"}
    seen = {}
    for flag, path in [*inputs.items(), *outputs.items()]:
        if path is not None:
            other = seen.setdefault(Path(path).resolve(), flag)
            if other != flag and flag in outputs:
                raise ValueError(f"{flag} and {other} name the same file {path}")


def _write_manifest(out_path, argv, inputs, config, t0, seed=None):
    out_path = Path(out_path)
    manifest = {
        "command": argv,
        "inputs": [str(p) for p in inputs],
        "seed": seed,
        "config": config,
        "version": __version__,
        "duration_s": time.monotonic() - t0,
    }
    _write_json(out_path.with_name(out_path.name + ".manifest.json"), manifest)


def cmd_solve(args, argv):
    t0 = time.monotonic()
    _refuse_shared_paths({"--game": args.game}, {"--out": args.out})
    game = load_game(args.game)
    # The --selection names and the selections they stand for.
    selection = {"largest": spectral.LargestMagnitude,
                 "smallest": spectral.SmallestMagnitude, "auto": "auto"}[args.selection]
    try:
        sol = equilibrium.solve_ccve(game, selection)
    except NoStableSelection as exc:
        print(f"NoStableSelection: {exc}", file=sys.stderr)
        return EXIT_NOT_CERTIFIED
    equilibrium.save_solution(sol, args.out)
    _write_manifest(args.out, argv, [args.game], {"selection": args.selection}, t0)
    if not sol.stable and not args.allow_unstable:
        print(
            f"solution written but not certified stable "
            f"(xi_max = {sol.stability.xi_max_1:.6g})",
            file=sys.stderr,
        )
        return EXIT_NOT_CERTIFIED
    return EXIT_OK


def _json_object(path, keys):
    """The JSON object a file holds, once it has each of ``keys``;
    DimensionMismatch names the path when the file holds any other JSON value,
    and the path and the missing keys when keys are missing."""
    data = _read_json(path)
    if not isinstance(data, dict):
        raise DimensionMismatch(f"{path} must hold a JSON object")
    missing = set(keys) - set(data)
    if missing:
        raise DimensionMismatch(f"{path} is missing keys {sorted(missing)}")
    return data


def _load_init(path, dims):
    data = _json_object(path, ("L1", "ell1", "L2", "ell2"))
    conj1 = Conjecture.create(1, data["L1"], data["ell1"], dims)
    conj2 = Conjecture.create(2, data["L2"], data["ell2"], dims)
    return conj1, conj2


def _solution_slopes(path, dims):
    """[L1, L2] of a solution file, each checked against the game's dims."""
    data = _json_object(path, ("L1", "L2"))
    return [_checked_L(dims, i, data[f"L{i}"]) for i in (1, 2)]


def cmd_iterate(args, argv):
    t0 = time.monotonic()
    summary_path = args.summary or str(Path(args.trace).with_suffix(".summary.json"))
    _refuse_shared_paths({"--game": args.game, "--compare": args.compare,
                          "--init": None if args.init == "nash" else args.init},
                         {"--trace": args.trace, "--summary": summary_path})
    game = load_game(args.game)
    # Read before the run, so a solution of another game is refused up front.
    ref = None if args.compare is None else _solution_slopes(args.compare, game.dims)
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
    if ref is not None:
        dL1 = np.linalg.norm(trace.final.L1 - ref[0])
        dL2 = np.linalg.norm(trace.final.L2 - ref[1])
        summary["distance_to_solution"] = {"L1": dL1, "L2": dL2}
    _write_json(summary_path, summary)
    _write_manifest(args.trace, argv, [args.game],
                    {"mode": args.mode, "max_iters": args.max_iters,
                     "tol": args.tol, "init": args.init}, t0)
    if trace.status == "diverged":
        print("iteration diverged", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def cmd_check(args, argv):
    game = load_game(args.game)
    blocks = assemble_blocks(game)
    L1, L2 = _solution_slopes(args.solution, game.dims)
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
    keys = {f.name for f in fields(builders.LqSpec)}
    return builders.LqSpec.create(**_json_object(path, keys))


def cmd_build(args, argv):
    t0 = time.monotonic()
    inputs = {"--spec": args.spec} if args.kind == "lq" else {}
    _refuse_shared_paths(inputs, {"--out": args.out})
    seed = None
    config = {"kind": args.kind}
    if args.kind == "random":
        seed = args.seed
        config.update(recipe=args.recipe, lo=args.lo, hi=args.hi)
        game = builders.random_game(args.d1, args.d2, recipe=args.recipe,
                                    seed=args.seed, lo=args.lo, hi=args.hi)
    elif args.kind == "scalar":
        spec = builders.ScalarSpec(**{f.name: getattr(args, f.name)
                                      for f in fields(builders.ScalarSpec)})
        game = builders.build_scalar_game(spec)
    else:  # lq
        game = builders.build_lq_game(_lq_spec_from_json(args.spec))
    save_game(game, args.out)
    _write_manifest(args.out, argv, list(inputs.values()), config, t0, seed=seed)
    return EXIT_OK


def _candidate_dict(indices, sol):
    """The candidate ``indices`` with its solution, as ccve enumerate writes it."""
    return {
        "indices": list(indices),
        "eigenvalues": equilibrium._complex_pairs(sol.H1_spectrum),
        "L1": sol.L1.tolist(),
        "L2": sol.L2.tolist(),
        "residuals": list(sol.stability.residuals),
        "xi_max": list(sol.xi_max),
        "stable": bool(sol.stable),
        "second_order_pass": bool(sol.second_order.pass_),
    }


def cmd_enumerate(args, argv):
    t0 = time.monotonic()
    _refuse_shared_paths({"--game": args.game}, {"--out": args.out})
    game = load_game(args.game)
    cap = equilibrium.ENUMERATION_CAP if args.cap is None else args.cap
    result = equilibrium.enumerate_fixed_points(game, cap=cap)
    ranked = sorted(result.candidates, key=lambda c: c.solution.stability.xi_max_1)
    out = {
        "candidates": [_candidate_dict(c.indices, c.solution) for c in ranked],
        "skipped": [
            {"indices": list(idx), "reason": reason}
            for idx, reason in result.skipped
        ],
    }
    _write_json(args.out, out)
    _write_manifest(args.out, argv, [args.game], {"cap": cap}, t0)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ValueError, so that main
    exits 1 with one line; argparse exits 2, the code of "not certified"."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser(command):
    p = _Parser(prog="ccve", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="compute the equilibrium directly")
    ps.add_argument("--game", required=True)
    ps.add_argument("--selection", choices=("largest", "smallest", "auto"),
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
    # Reading ScalarSpec's fields runs ccve.builders, which only build calls.
    for f in fields(builders.ScalarSpec) if command == "build" else ():
        required = f.default is MISSING
        bs.add_argument(f"--{f.name}", type=float, required=required,
                        default=None if required else f.default)
    bs.add_argument("--out", required=True)
    bs.set_defaults(func=cmd_build)
    bl = bsub.add_parser("lq")
    bl.add_argument("--spec", required=True, help="LqSpec JSON file")
    bl.add_argument("--out", required=True)
    bl.set_defaults(func=cmd_build)

    pe = sub.add_parser("enumerate", help="enumerate all fixed-point candidates")
    pe.add_argument("--game", required=True)
    pe.add_argument("--out", required=True)
    pe.add_argument("--cap", type=int, default=None)  # equilibrium.ENUMERATION_CAP
    pe.set_defaults(func=cmd_enumerate)
    return p


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    # A warning prints as one line, "UserWarning: <message>", without its place in
    # ccve's code. Only the format is replaced, so pytest.warns still records.
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda msg, category, *_: f"{category.__name__}: {msg}\n"
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
        return args.func(args, argv)
    except CcveError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
