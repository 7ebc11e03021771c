"""Command-line front end.

Subcommands read a JSON job file describing a group, a lattice, and windows,
run the corresponding computation, and print JSON (default) or CSV. Output is
deterministic: identical job file and seed give byte-identical stdout.

Exit codes: 0 success, 1 failed identity in ``verify``, 2 malformed job file
or arguments, 3 a system that is not a frame where a command needs one (dual
windows). Any other exception is a bug and ends in a traceback.

The environment variable HEISENMOD_THREADS caps the linear-algebra thread
pools. The package applies it on import, before numpy loads, so it holds for
``python -m heisenmod.cli`` and the console script alike.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from .gabor import GaborSystem, NotAFrameError, _dual_window, _frame_test, frame_bounds, spectrum
from .groups import FiniteAbelianGroup, adjoint_subgroup, subgroup_from_generators
from .module import (VERIFY_TOLERANCES, _janssen_gaps, figa_check, module_context, module_frame_check,
                     verify_suite)
from .shifts import Window, parse_window


class SpecError(ValueError):
    """Malformed job file: bad schema, field type, or window name."""


def _load_job(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            job = json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read job file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"job file {path} is not valid JSON: {exc}") from exc
    if not isinstance(job, dict):
        raise SpecError("job file must hold a JSON object")
    return job


def _parse_group(job: dict):
    orders = job.get("group")
    if not isinstance(orders, list) or not orders or not all(
        type(n) is int and n >= 1 for n in orders  # JSON true/false parse to bool, an int subclass
    ):
        raise SpecError('field "group" must be a nonempty list of integers >= 1')
    return FiniteAbelianGroup(tuple(orders))


def _parse_lattice(job: dict, group):
    gens = job.get("generators", [])
    if not isinstance(gens, list):
        raise SpecError('field "generators" must be a list of [[x...],[w...]] pairs')
    parsed = []
    for g in gens:
        if (
            not isinstance(g, list)
            or len(g) != 2
            or not all(isinstance(part, list) for part in g)
            or not all(type(v) is int for part in g for v in part)
            or any(len(part) != group.rank for part in g)
        ):
            raise SpecError(f"generator {g!r} is not a [[x...],[w...]] integer pair")
        parsed.append((tuple(g[0]), tuple(g[1])))
    weight_raw = job.get("weight", "1")
    try:
        weight = Fraction(str(weight_raw))
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecError(f'field "weight" is not a rational: {weight_raw!r}') from exc
    if weight <= 0:
        raise SpecError(f'field "weight" must be positive, got {weight}')
    return subgroup_from_generators(group, parsed, weight)


def _float_lattice(job: dict):
    """The lattice of a floating-point command: its weight must convert to a finite positive float."""
    lattice = _parse_lattice(job, _parse_group(job))
    if not (lattice.weight <= sys.float_info.max and float(lattice.weight) > 0):
        raise SpecError(f'field "weight" {job.get("weight")!r} does not convert to a finite positive float')
    return lattice


def _parse_windows(job: dict, group):
    raw = job.get("windows", [])
    if not isinstance(raw, list):
        raise SpecError('field "windows" must be a list')
    windows = []
    for item in raw:
        if isinstance(item, str):
            try:
                windows.append(parse_window(group, item))
            except ValueError as exc:
                raise SpecError(str(exc)) from exc
        elif isinstance(item, list):
            if len(item) != group.order or not all(
                isinstance(p, list) and len(p) == 2 and all(map(_finite, p)) for p in item
            ):
                raise SpecError(
                    f"explicit window needs {group.order} [re, im] pairs of finite numbers, got {item!r}"
                )
            vals = np.array([complex(p[0], p[1]) for p in item])
            windows.append(Window(group, vals))
        else:
            raise SpecError(f"window entry {item!r} is neither a name nor [re, im] pairs")
    return windows


def _finite(v) -> bool:
    """A finite JSON number: not a boolean, NaN or infinity, and within float range."""
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def _resolve_seed(job: dict, args) -> int:
    if args.seed is not None:
        return args.seed
    seed = job.get("seed", 0)
    if type(seed) is not int or seed < 0:
        raise SpecError('field "seed" must be a nonnegative integer')
    return seed


def _cpair(c: complex) -> list[float]:
    return [float(c.real), float(c.imag)]


def _emit(payload: dict, out: str, csv_rows=None) -> None:
    if out == "csv":
        if csv_rows is None:
            csv_rows = [f"{k},{_plain(v)}" for k, v in payload.items()]
        sys.stdout.write("\n".join(csv_rows) + "\n")
    else:
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def _plain(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (list, dict)):
        return json.dumps(v, sort_keys=True)
    return str(v)


# Each command returns its payload and its CSV rows (None: one key,value row per payload entry).


def cmd_adjoint(job: dict, args):
    group = _parse_group(job)
    lattice = _parse_lattice(job, group)
    adj = adjoint_subgroup(lattice)
    return {
        "elements": [[list(x), list(w)] for x, w in adj.elements],
        "weight": str(adj.weight),
        "s": str(lattice.size),
        "count": len(adj),
    }, None


def _system(job: dict) -> GaborSystem:
    """The job's Gabor system; max(1, w) |G|^2 sum_j |eta_j|^2 <= 1e150 keeps S and FIGA's products finite."""
    lattice = _float_lattice(job)
    windows = _parse_windows(job, lattice.ambient)
    if not windows:
        raise SpecError("this command needs at least 1 window(s)")
    energy = sum(float(np.vdot(e.values, e.values).real) for e in windows)  # Python floats: inf on overflow
    if not max(1.0, float(lattice.weight)) * lattice.ambient.order**2 * energy <= 1e150:
        raise SpecError("windows too large: max(1, w) |G|^2 sum_j |eta_j|^2 exceeds 1e150")
    return GaborSystem(lattice, tuple(windows))


def cmd_frame_bounds(job: dict, args):
    sys_ = _system(job)
    bounds = frame_bounds(sys_)
    return {
        "A": bounds.lower,
        "B": bounds.upper,
        "frame": bool(_frame_test(bounds.lower, bounds.upper, args.tol)),
        "s": str(sys_.lattice.size),
    }, None


def cmd_dual_window(job: dict, args):
    duals, bounds = _dual_window(_system(job), args.tol)
    windows = [[_cpair(v) for v in w.values] for w in duals]
    rows = [",".join(str(x) for pair in w for x in pair) for w in windows]
    return {"windows": windows, "A": bounds.lower, "B": bounds.upper}, rows


def cmd_figa(job: dict, args):
    sys_ = _system(job)
    four = [sys_.windows[i % len(sys_.windows)] for i in range(4)]
    res = figa_check(*four, module_context(sys_.lattice))
    return {
        "lhs": _cpair(res["lhs"]),
        "rhs": _cpair(res["rhs"]),
        "abs_gap": res["abs_gap"],
        "rel_gap": res["rel_gap"],
    }, None


def cmd_gen_check(job: dict, args):
    sys_ = _system(job)
    res = module_frame_check(sys_.windows, module_context(sys_.lattice), args.tol)
    frame = bool(_frame_test(res["bounds"].lower, res["bounds"].upper, args.tol))
    return {
        "generating": res["generating"],
        "frame": frame,
        "agree": res["generating"] == frame,
        "A": res["bounds"].lower,
        "B": res["bounds"].upper,
    }, None


def cmd_janssen(job: dict, args):
    """The Janssen form against the frame operator of the first window, decided as verify decides it:
    on the gap over max(1, max|S|) (module._janssen_gaps)."""
    sys_ = _system(job)
    eta, ctx = sys_.windows[0].values[None], module_context(sys_.lattice)
    gap, scaled = (float(v[0]) for v in _janssen_gaps(eta, ctx))
    passed = scaled <= VERIFY_TOLERANCES["janssen"]
    return {"max_abs_gap": gap, "max_rel_gap": scaled, "pass": passed, "s": str(sys_.lattice.size)}, None


def cmd_spectrum(job: dict, args):
    eigs = [float(v) for v in spectrum(_system(job))]
    return {"spectrum": eigs}, [str(v) for v in eigs]


def cmd_verify(job: dict, args):
    lattice = _float_lattice(job)
    report = verify_suite(lattice, seed=_resolve_seed(job, args), frame_tol=args.tol)
    rows = ["name,cases,max_abs_gap,max_rel_gap,pass"] + [
        f'{e["name"]},{e["cases"]},{e["max_abs_gap"]},{e["max_rel_gap"]},{_plain(e["pass"])}'
        for e in report["identities"]
    ]
    return report, rows


_COMMANDS = {
    "adjoint": cmd_adjoint,
    "frame-bounds": cmd_frame_bounds,
    "dual-window": cmd_dual_window,
    "figa": cmd_figa,
    "gen-check": cmd_gen_check,
    "janssen": cmd_janssen,
    "spectrum": cmd_spectrum,
    "verify": cmd_verify,
}


def _tolerance(text: str) -> float:
    """--tol: a positive finite float; anything else is a malformed argument (exit 2)."""
    tol = float(text)
    if not 0 < tol < float("inf"):
        raise argparse.ArgumentTypeError(f"tolerance must be positive and finite, got {text}")
    return tol


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heisenmod",
        description="Gabor frames and Heisenberg modules over finite abelian groups.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--spec", required=True, help="path to the JSON job file")
    parser.add_argument("--seed", type=int, default=None, help="override the job file seed")
    parser.add_argument("--tol", type=_tolerance, default=1e-9, help="frame invertibility tolerance")
    parser.add_argument("--out", choices=("json", "csv"), default="json")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        payload, rows = _COMMANDS[args.command](_load_job(args.spec), args)
    except (SpecError, NotAFrameError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, SpecError) else 3
    _emit(payload, args.out, rows)
    return 1 if args.command == "verify" and not payload["pass"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
