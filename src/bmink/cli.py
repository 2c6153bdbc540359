"""Command-line interface.

Subcommands:
  verify     run a randomized verification campaign, one JSONL report/line
  decompose  check the sum-decomposition identities for one pair of shapes
  erode      compute a Minkowski difference (exact or voxel engine)
  render     draw the boundary-sum decomposition of a pair as SVG
  demo       closed-form demonstration runs

Campaign trials run in order on one thread.  A JSON config file can pre-set
any `verify` flag; explicit flags win over the file.  Malformed input ends
in a one-line `error:` message and exit code 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import restricted, voxel
from .campaign import (THEOREMS, CampaignConfig, print_summary, run_campaign)
from .exact2d import GeometryError, erode as erode_exact
from .generators import GridGenParams, PolygonGenParams
from .render import render_decomposition_svg
from .serialize import (dumps_canonical, frac_to_str, load_shape_file,
                        parse_number, polygon_to_json, spec_to_polygon,
                        spec_true_area)
from .voxel import GridError


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


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
    render.add_argument("--disk-sides", type=int, default=64)

    demo = sub.add_parser("demo", help="closed-form demonstrations")
    demo.add_argument("name", choices=("remark-4.3",))
    demo.add_argument("--a", type=_fraction, default=Fraction(1, 100),
                      help="shrink factor of the second body")
    return parser


_VERIFY_DEFAULTS = {
    "engine": "exact",
    "trials": 100,
    "seed": 0,
    "dim": 2,
    "res": Fraction(1, 32),
    "lam": None,
    "bodies": 3,
    "plant_rate": 0.0,
    "out": None,
}


def _verify_config(args: argparse.Namespace) -> CampaignConfig:
    values = dict(_VERIFY_DEFAULTS)
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                file_values = json.load(fh)
            except ValueError as exc:
                raise GeometryError(
                    f"{args.config} is not valid JSON: {exc}") from None
        if not isinstance(file_values, dict):
            raise GeometryError(f"{args.config} must hold a JSON object")
        for key in file_values:
            if key not in values:
                raise GeometryError(f"unknown config key {key!r}")
        if "res" in file_values:
            file_values["res"] = parse_number(str(file_values["res"]))
        if file_values.get("lam") is not None:
            file_values["lam"] = parse_number(str(file_values["lam"]))
        values.update(file_values)
    for key in values:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    try:
        return CampaignConfig(
            theorem=args.theorem,
            engine=values["engine"],
            trials=int(values["trials"]),
            dim=int(values["dim"]),
            h=float(values["res"]),
            lam=values["lam"],
            bodies=int(values["bodies"]),
            plant_rate=float(values["plant_rate"]),
            seed=int(values["seed"]),
            out_path=values["out"],
            polygon_params=PolygonGenParams(),
            grid_params=GridGenParams(),
        )
    except (TypeError, ValueError) as exc:
        raise GeometryError(f"bad config value: {exc}") from None


def _cmd_verify(args: argparse.Namespace) -> int:
    config = _verify_config(args)
    if config.out_path is None:
        summary = run_campaign(config, out=sys.stdout)
    else:
        summary = run_campaign(config)
    print_summary(summary, sys.stderr)
    return summary.exit_code


def _cmd_decompose(args: argparse.Namespace) -> int:
    h = float(args.res)
    k = voxel.rasterize(load_shape_file(args.k), h)
    t = voxel.rasterize(load_shape_file(args.t), h)
    report = voxel.decomposition_check(k, t)
    for name, verdict in report.verdicts().items():
        print(f"{name}: {'pass' if verdict else 'FAIL'}")
    for name, value in sorted(report.volumes.items()):
        print(f"volume[{name}] = {value:.6g}")
    return 0 if report.all_pass else 1


def _cmd_erode(args: argparse.Namespace) -> int:
    k_spec = load_shape_file(args.k)
    t_spec = load_shape_file(args.t)
    if args.engine == "exact":
        k_poly, t_poly = spec_to_polygon(k_spec), spec_to_polygon(t_spec)
        result = erode_exact(k_poly, t_poly)
        payload = {
            "engine": "exact",
            "empty": result.is_empty,
            "area": frac_to_str(result.area),
            "note": result.openness_note,
        }
        # Balls are realized as regular polygons; surface the area deficit.
        gap = (spec_true_area(k_spec) - float(k_poly.area)
               + spec_true_area(t_spec) - float(t_poly.area))
        if gap > 0:
            payload["input_approximation_gap"] = gap
        if result.region is not None:
            payload["region"] = polygon_to_json(result.region)
        print(dumps_canonical(payload))
        return 0
    h = float(args.res)
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
                             args.out, disk_sides=args.disk_sides)
    print(f"wrote {args.out}")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    if args.name == "remark-4.3":
        demo = restricted.shrinking_pair_demo(args.a)
        lhs, rhs = demo["lhs"], demo["rhs"]
        print(f"a = {frac_to_str(demo['a'])}")
        print(f"boundary-sum volume (lhs) = {float(lhs):.6g} "
              f"[exact {frac_to_str(lhs)}]")
        print(f"volume power sum   (rhs) = {float(rhs):.6g} "
              f"[exact {frac_to_str(rhs)}]")
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
        return handlers[args.command](args)
    except (GeometryError, GridError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
