"""Command-line interface.

Subcommands:
  verify     run a randomized verification campaign, one JSONL report/line
  decompose  check the sum-decomposition identities for one pair of shapes
  erode      compute a Minkowski difference (exact or voxel engine)
  render     draw the boundary-sum decomposition of a pair as SVG
  demo       closed-form demonstration runs

Campaign trials run on a forked worker per CPU, each joined by one pipe and
answering each block of trials with one message; the blocks are merged in
trial order.  A JSON config file can pre-set any `verify` flag; explicit
flags win over the file.  Malformed input ends in a one-line `error:`
message and exit code 2, and so does a campaign whose worker dies, which
raises ChildProcessError, an OSError.  A standard output closed by its
reader (`bmink verify ... | head -1`) ends the command silently with exit
code 141, 128 + SIGPIPE as a shell reports a process killed by that
signal, so a campaign cut short never reads as "no violation".  Only
`decompose`, `erode --engine voxel` and voxel campaigns load the voxel
engine.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .campaign import THEOREMS, CampaignConfig, run_campaign
from .exact2d import GeometryError, erode as erode_exact
from .inequalities import shrinking_pair_demo
from .render import render_decomposition_svg
from .serialize import (ALLOWED_DIMS, GridError, dumps_canonical,
                        load_shape_file, parse_number, parse_rational,
                        polygon_to_json, realize_spec)


# 128 + SIGPIPE: what a shell reports for a process killed by a closed pipe.
EXIT_CLOSED_STDOUT = 141


def _fraction(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except GeometryError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmink",
        description="Minkowski boundary-sum engines and inequality campaigns")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a verification campaign")
    verify.add_argument("theorem", choices=THEOREMS)
    verify.add_argument("--engine", choices=("exact", "voxel"), default=None)
    verify.add_argument("--trials", type=int, default=None)
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument("--dim", type=int, default=None)
    verify.add_argument("--res", type=_fraction, default=None,
                        help="voxel cell size, e.g. 1/32")
    verify.add_argument("--lambda", dest="lam", type=_fraction, default=None)
    verify.add_argument("--bodies", type=int, default=None,
                        help="body count for multi-body campaigns")
    verify.add_argument("--plant-rate", type=float, default=None,
                        help="equality-case planting probability")
    verify.add_argument("--out", default=None, help="JSONL output path")
    verify.add_argument("--config", default=None,
                        help="JSON file with default flag values")

    decompose = sub.add_parser("decompose",
                               help="verify the sum decomposition of a pair")
    decompose.add_argument("--k", required=True, help="shape JSON file")
    decompose.add_argument("--t", required=True, help="shape JSON file")
    decompose.add_argument("--res", type=_fraction, default=Fraction(1, 32))

    erode_cmd = sub.add_parser("erode", help="Minkowski difference K erode T")
    erode_cmd.add_argument("--k", required=True)
    erode_cmd.add_argument("--t", required=True)
    erode_cmd.add_argument("--engine", choices=("exact", "voxel"),
                           default="exact")
    erode_cmd.add_argument("--res", type=_fraction, default=Fraction(1, 32))

    render = sub.add_parser("render", help="render the boundary sum as SVG")
    render.add_argument("--k", required=True)
    render.add_argument("--t", required=True)
    render.add_argument("--out", required=True)

    demo = sub.add_parser("demo", help="closed-form demonstrations")
    demo.add_argument("name", choices=("remark-4.3",))
    demo.add_argument("--a", type=_fraction, default=Fraction(1, 100),
                      help="shrink factor of the second body")
    return parser


def _resolution(res: Fraction) -> float:
    """The cell size h of a --res flag or config value, whose cell volume
    h**dim must be a float in every dimension the voxel engine allows."""
    try:
        h = float(res)
        h ** max(ALLOWED_DIMS)
    except OverflowError:
        raise GeometryError("resolution is too large: its cell volume "
                            "overflows a float") from None
    return h


# The CampaignConfig field each verify flag and config key sets; a field
# that neither sets keeps CampaignConfig's default.
_CONFIG_FIELDS = {
    "engine": "engine", "trials": "trials", "seed": "seed", "dim": "dim",
    "res": "h", "lam": "lam", "bodies": "bodies", "plant_rate": "plant_rate",
    "out": "out_path",
}
# The JSON types a config file may give a key.  res and lam are read as
# rationals below, and the engine is checked with the rest of the config.
_INTEGER = ((int,), "an integer")
_CONFIG_TYPES = {
    "trials": _INTEGER, "seed": _INTEGER, "dim": _INTEGER, "bodies": _INTEGER,
    "plant_rate": ((int, float), "a number"),
    "out": ((str, type(None)), "a path string or null"),
}


def _verify_config(args: argparse.Namespace) -> CampaignConfig:
    values = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                file_values = json.load(fh)
            except ValueError as exc:
                raise GeometryError(
                    f"{args.config} is not valid JSON: {exc}") from None
        if not isinstance(file_values, dict):
            raise GeometryError(f"{args.config} must hold a JSON object")
        for key, value in file_values.items():
            if key not in _CONFIG_FIELDS:
                raise GeometryError(f"unknown config key {key!r}")
            if key not in _CONFIG_TYPES:
                continue
            types, what = _CONFIG_TYPES[key]
            # Compare the type itself: bool is a subclass of int.
            if type(value) not in types:
                raise GeometryError(f"config key {key!r} must be {what}, "
                                    f"not {json.dumps(value)}")
        if "res" in file_values:
            file_values["res"] = parse_number(str(file_values["res"]))
        if file_values.get("lam") is not None:
            file_values["lam"] = parse_number(str(file_values["lam"]))
        values.update(file_values)
    for key in _CONFIG_FIELDS:
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag
    if "res" in values:
        values["res"] = _resolution(values["res"])
    return CampaignConfig(theorem=args.theorem, **{
        _CONFIG_FIELDS[key]: value for key, value in values.items()})


def _cmd_verify(args: argparse.Namespace) -> int:
    config = _verify_config(args)
    if config.out_path is None:
        summary = run_campaign(config, out=sys.stdout)
    else:
        summary = run_campaign(config)
    print(dumps_canonical(summary.to_json_dict()), file=sys.stderr)
    return summary.exit_code


def _cmd_decompose(args: argparse.Namespace) -> int:
    from . import voxel
    h = _resolution(args.res)
    k = voxel.rasterize(load_shape_file(args.k), h)
    t = voxel.rasterize(load_shape_file(args.t), h)
    report = voxel.decomposition_check(k, t)
    for name, verdict in report.verdicts.items():
        print(f"{name}: {'pass' if verdict else 'FAIL'}")
    for name, value in sorted(report.volumes.items()):
        print(f"volume[{name}] = {value:.6g}")
    return 0 if report.all_pass else 1


def _cmd_erode(args: argparse.Namespace) -> int:
    k_spec = load_shape_file(args.k)
    t_spec = load_shape_file(args.t)
    if args.engine == "exact":
        k_poly, k_area = realize_spec(k_spec)
        t_poly, t_area = realize_spec(t_spec)
        result = erode_exact(k_poly, t_poly)
        payload = {
            "engine": "exact",
            "empty": result.is_empty,
            "area": str(result.area),
            "note": result.openness_note,
        }
        # Balls are realized as regular polygons; surface the area deficit.
        gap = k_area - float(k_poly.area) + t_area - float(t_poly.area)
        if gap > 0:
            payload["input_approximation_gap"] = gap
        if result.region is not None:
            payload["region"] = polygon_to_json(result.region)
        print(dumps_canonical(payload))
        return 0
    from . import voxel
    h = _resolution(args.res)
    k = voxel.rasterize(k_spec, h)
    t = voxel.rasterize(t_spec, h)
    result = voxel.erode_open(k, t)
    print(dumps_canonical({
        "engine": "voxel",
        "empty": result.is_empty,
        "cells": result.count,
        "volume": voxel.volume(result),
        "h": h,
    }))
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    render_decomposition_svg(load_shape_file(args.k), load_shape_file(args.t),
                             args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    if args.name == "remark-4.3":
        demo = shrinking_pair_demo(args.a)
        lhs, rhs = demo["lhs"], demo["rhs"]
        print(f"a = {demo['a']}")
        print(f"boundary-sum volume (lhs) = {float(lhs):.6g} "
              f"[exact {lhs}]")
        print(f"volume power sum   (rhs) = {float(rhs):.6g} "
              f"[exact {rhs}]")
        print(f"ratio condition satisfied: {demo['ratio_ok']}")
        if demo["holds"]:
            print("inequality holds for this pair")
        else:
            print("inequality FAILS, as expected without the ratio condition: "
                  "the left side vanishes with a while the right side does not")
        return 0
    raise GeometryError(f"unknown demo {args.name!r}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "verify": _cmd_verify,
        "decompose": _cmd_decompose,
        "erode": _cmd_erode,
        "render": _cmd_render,
        "demo": _cmd_demo,
    }
    try:
        code = handlers[args.command](args)
        # Flush here, so that a reader gone before the last write is seen
        # by the handler below, not at interpreter exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # As the signal module's note on SIGPIPE advises: point stdout at
        # devnull, so the flush at exit cannot fail on the closed pipe.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_STDOUT
    except (GeometryError, GridError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
