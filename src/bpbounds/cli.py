"""Command-line surface: measures | threshold | region | zm | decompose | de.

Single results are printed as JSON (with a "schema" field), grids are written
as CSV with a JSON overlay sidecar.  Every command is deterministic given its
flags.

Exit codes: 0 success, 2 parse error or refused input, 3 non-monotone
verdicts, 4 unwritable output path, 5 symmetry violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .binary_bounds import IterationLimits
from .channels import (CHANNEL_FAMILIES, ChannelSpecError, MscChannel,
                       MscMixture, NotSymmetricError,
                       UnsupportedChannelError, cb_of, cb_vector_of,
                       cutoff_rate, msc_pe, parse_channel_spec, pe_of, sb_of,
                       symmetrize, msc_decompose)
from .de import DE_MAX_ITER
from .ensembles import DegreeEnsemble, ensemble_from_json, real_number, regular_ensemble
from .search import (NonMonotoneError, SEARCH_BOUNDS, channel_threshold,
                     region_sweep)
from .zm import (convergence_rate, necessary_stability_violated,
                 sufficient_stability, zm_iterate)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NON_MONOTONE = 3
EXIT_UNWRITABLE = 4
EXIT_NOT_SYMMETRIC = 5


def _write(path: str, write) -> int:
    """Open ``path`` and hand it to ``write``; an unwritable path is exit 4."""
    try:
        with open(path, "w") as fh:
            write(fh)
    except OSError as exc:
        print(f"cannot write {path}: {exc}", file=sys.stderr)
        return EXIT_UNWRITABLE
    return EXIT_OK


def _emit(payload: dict, out_path: str | None) -> int:
    text = json.dumps(payload, sort_keys=True, indent=2)
    if out_path:
        return _write(out_path, lambda fh: fh.write(text + "\n"))
    print(text)
    return EXIT_OK


def _load_ensemble(args) -> DegreeEnsemble:
    if args.ensemble is None:
        return regular_ensemble(3, 6)
    with open(args.ensemble) as fh:
        return ensemble_from_json(fh.read())


def _limits(args) -> IterationLimits:
    return IterationLimits(max_iter=args.max_iter)


def cmd_measures(args) -> int:
    ch = parse_channel_spec(args.channel)
    if isinstance(ch, (MscChannel, MscMixture)):
        vec = cb_vector_of(ch)
        payload = {
            "schema": "bpbounds.measures/1",
            "kind": "msc",
            "m": vec.m,
            "cb_vector": [float(x) for x in vec.v],
            "cutoff_rate": cutoff_rate(vec),
            "pe": msc_pe(ch),
        }
        return _emit(payload, args.out)
    cb = cb_of(ch)
    sb = sb_of(ch)
    try:
        pe = pe_of(ch)
    except UnsupportedChannelError:
        pe = None
    payload = {
        "schema": "bpbounds.measures/1",
        "kind": "binary",
        "channel": args.channel,
        "cb": cb,
        "sb": sb,
        "pe": pe,
        "measures_consistent": bool(sb <= cb + 1e-12 and cb * cb <= sb + 1e-12),
    }
    return _emit(payload, args.out)


def cmd_threshold(args) -> int:
    if args.bound == "de" and (args.seed is not None or args.de_pop is not None):
        print("--seed and --de-pop have no effect: DE is deterministic", file=sys.stderr)
    e = _load_ensemble(args)
    result = channel_threshold(args.bound, args.family, e, tol=args.tol,
                               limits=_limits(args), p_star=args.p_star)
    payload = result.to_dict()
    payload.update({"bound": args.bound, "family": args.family,
                    "ensemble": args.ensemble or "regular(3,6)"})
    return _emit(payload, args.out)


def cmd_region(args) -> int:
    e = _load_ensemble(args)
    try:
        n_cb, n_sb = (int(v) for v in args.grid.lower().split("x"))
    except ValueError:
        raise ValueError(f"--grid expects NxM, got {args.grid!r}") from None
    grid = region_sweep(e, n_cb, n_sb, limits=_limits(args), p_star=args.p_star)
    regular = os.path.isfile(args.out) or not os.path.exists(args.out)
    sidecar = args.out + ".overlays.json" if regular else "the next line: not a regular file"
    code = _write(args.out, grid.to_csv) or (
        _write(sidecar, lambda fh: fh.write(grid.overlays_json() + "\n")) if regular else EXIT_OK)
    if code == EXIT_OK:
        print(f"wrote {len(grid.points)} grid points to {args.out} (overlays in {sidecar})"
              + ("" if regular else "\n" + grid.overlays_json()))
    return code


def cmd_zm(args) -> int:
    e = _load_ensemble(args)
    ch = parse_channel_spec(args.channel)
    if not isinstance(ch, (MscChannel, MscMixture)):
        raise ValueError("zm expects an msc: channel spec")
    vec = cb_vector_of(ch)
    if args.action == "bound":
        traj = zm_iterate(vec, e, _limits(args))
        payload = {
            "schema": "bpbounds.zm-bound/1",
            "verdict": traj.verdict,
            "reason": traj.reason,
            "iterations": traj.iterations,
            "final_max_off_zero": traj.states[-1].max_off_zero(),
            "initial_cb_vector": [float(x) for x in vec.v],
        }
    else:
        payload = {
            "schema": "bpbounds.zm-stability/1",
            "sufficient": sufficient_stability(e, vec),
            "necessary_violated": necessary_stability_violated(e, vec),
            "convergence_rate": convergence_rate(e, vec),
        }
    return _emit(payload, args.out)


def cmd_decompose(args) -> int:
    with open(args.matrix) as fh:
        rows = json.load(fh)
    if not (isinstance(rows, list) and rows and all(
            isinstance(r, list) and len(r) == len(rows[0]) and all(map(real_number, r))
            for r in rows)):
        raise ValueError(f"{args.matrix} must hold a JSON list of rows of numbers")
    cond = np.asarray(rows, dtype=float)
    if args.symmetrize:
        mix = symmetrize(cond)
    else:
        if args.transform is None:
            raise ValueError("--transform is required unless --symmetrize is given")
        transform = [int(v) for v in args.transform.split(",")]
        mix = msc_decompose(cond, transform)
    payload = {
        "schema": "bpbounds.decompose/1",
        "m": mix.m,
        "atoms": [{"weight": w, "p": [float(x) for x in ch.p]}
                  for w, ch in mix.atoms],
        "cb_vector": [float(x) for x in cb_vector_of(mix).v],
    }
    return _emit(payload, args.out)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bpbounds",
        description="Finite-dimensional bounds on BP decodable thresholds")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, max_iter_help, max_iter=IterationLimits().max_iter,
               out_help="write JSON here instead of stdout", **out):
        p.add_argument("--ensemble", help="ensemble JSON file "
                       "(default: regular (3,6))")
        p.add_argument("--max-iter", type=int, default=max_iter,
                       help=f"{max_iter_help} (default {max_iter})")
        p.add_argument("--out", help=out_help, **out)

    p = sub.add_parser("measures", help="noise measures of a channel spec")
    p.add_argument("--channel", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_measures)

    p = sub.add_parser("threshold", help="bisect a channel family against a bound")
    common(p, "iterations of each ub-cbsb recursion a probe runs; ub-cb, lb-cb, "
           "ub-sb and ub-sb-star run none, and ub-sb-star's DE runs at DE's own cap")
    p.add_argument("--bound", required=True, choices=[b for b in SEARCH_BOUNDS if b != "de"])
    p.add_argument("--family", required=True, choices=sorted(CHANNEL_FAMILIES))
    p.add_argument("--tol", type=float, default=None,
                   help="bracket width target, at most 60 steps (default: 24 steps)")
    p.add_argument("--p-star", type=float, default=None,
                   help="skip the DE run for ub-sb-star")
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("region", help="decodable-region sweep to CSV")
    common(p, "iterations of each ub-cbsb recursion a grid point runs",
           out_help="write the CSV here, its overlays to OUT.overlays.json", required=True)
    p.add_argument("--grid", required=True, help="NxM grid counts")
    p.add_argument("--p-star", type=float, default=None)
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("zm", help="Z_m vector bound or stability report")
    common(p, "iterations of the Z_m vector bound that --action bound runs")
    p.add_argument("--channel", required=True, help="msc:... spec")
    p.add_argument("--action", choices=("bound", "stability"), default="bound")
    p.set_defaults(func=cmd_zm)

    p = sub.add_parser("decompose", help="MSC decomposition of a matrix file")
    p.add_argument("--matrix", required=True, help="JSON file with P(y|x) rows")
    p.add_argument("--transform", help="comma-separated output permutation")
    p.add_argument("--symmetrize", action="store_true",
                   help="dither-symmetrize an arbitrary matrix first")
    p.add_argument("--out")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("de", help="discretized density-evolution threshold")
    common(p, "iterations of each DE run a probe makes", max_iter=DE_MAX_ITER)
    p.add_argument("--family", required=True, choices=sorted(CHANNEL_FAMILIES))
    for flag in ("--seed", "--de-pop"):
        p.add_argument(flag, type=int, help="accepted and ignored: DE is deterministic")
    p.set_defaults(func=cmd_threshold, bound="de", tol=None, p_star=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ChannelSpecError as exc:
        print(f"channel spec error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NotSymmetricError as exc:
        print(f"not symmetric: {exc}", file=sys.stderr)
        return EXIT_NOT_SYMMETRIC
    except NonMonotoneError as exc:
        print(f"threshold search failed: {exc}", file=sys.stderr)
        return EXIT_NON_MONOTONE
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
