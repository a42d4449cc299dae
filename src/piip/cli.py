"""Command-line front end.

Exit codes: 0 on success, 1 on validation/config errors, 2 on I/O errors.
``PIIP_SEED`` in the environment overrides the seed of the configs that
commands build models from; costs never depend on a seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from . import explorer, harness
from .config import PyramidConfig, PRESET_NAMES
from .costmodel import cost_report


def _load(name_or_path: str) -> PyramidConfig:
    cfg = explorer.resolve_base(name_or_path)
    seed = os.environ.get("PIIP_SEED")
    if seed is not None:
        cfg = replace(cfg, seed=int(seed))
    return cfg


def _cmd_cost(args: argparse.Namespace) -> int:
    report = cost_report(_load(args.config))
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(report.render(), end="")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = explorer.load_sweep_spec(args.spec)
    if args.budget is not None:
        spec = replace(spec, budget_gflops=args.budget)
    rows = explorer.sweep(spec)
    explorer.emit(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_pareto(args: argparse.Namespace) -> int:
    with open(args.table, "r", encoding="utf-8") as fh:
        columns, rows = explorer.read_table(fh.read())
    front = explorer.pareto_front(rows, args.cost, args.quality)
    text = explorer.render_csv(front, columns=columns)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


def _cmd_train_toy(args: argparse.Namespace) -> int:
    _, metrics = harness.train_toy(
        _load(args.config),
        steps=args.steps,
        n_samples=args.samples,
        batch_size=args.batch,
        lr=args.lr,
    )
    text = explorer.render_csv(metrics, columns=["config-id", "step", "loss", "acc"])
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    last = metrics[-1]
    print(f"step {last['step']}: loss {last['loss']:.4f} acc {last['acc']:.3f} "
          f"-> {args.out}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    failures = harness.run_verification()
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="piip",
        description="Parameter-inverted image pyramid cost modeling and exploration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cost", help="print the analytic parameter/FLOPs report")
    p.add_argument("config", help=f"config path or preset ({', '.join(PRESET_NAMES)})")
    p.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    p.set_defaults(run=_cmd_cost)

    p = sub.add_parser("sweep", help="evaluate a resolution sweep spec")
    p.add_argument("spec", help="sweep spec file (INI)")
    p.add_argument("--out", required=True, help="output table (.csv or .json)")
    p.add_argument("--budget", type=float, default=None, metavar="GFLOPS",
                   help="override the spec's FLOPs budget")
    p.set_defaults(run=_cmd_sweep)

    p = sub.add_parser("pareto", help="filter a table to its pareto front")
    p.add_argument("table", help="CSV table (e.g. sweep output joined with quality)")
    p.add_argument("--cost", default="flops", help="cost column (default: flops)")
    p.add_argument("--quality", default="acc", help="quality column (default: acc)")
    p.add_argument("--out", default=None, help="output CSV (default: stdout)")
    p.set_defaults(run=_cmd_pareto)

    p = sub.add_parser("train-toy", help="train on the synthetic glyph task")
    p.add_argument("config", help="config path or preset (classification merge mode)")
    p.add_argument("--out", required=True, help="metrics CSV path")
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--samples", type=int, default=512)
    p.add_argument("--batch", type=int, default=16)
    p.add_argument("--lr", type=float, default=1e-3)
    p.set_defaults(run=_cmd_train_toy)

    p = sub.add_parser("verify", help="run the oracle verification battery")
    p.set_defaults(run=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ValueError as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
