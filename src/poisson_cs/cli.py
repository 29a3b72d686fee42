"""Command-line interface: seeded, manifest-recorded experiment runs.

Subcommands::

    poisson-cs sweep --kind intensity --config spec.json --out results/
    poisson-cs verify-stats --out results/
    poisson-cs image --input img.pgm --out results/

Each spec field, ``kind`` among them, comes from its flag, else from
``--config`` (a JSON object), else from the subcommand's default, else from
``ExperimentSpec``; a grid axis left out takes its scale's values.  A
subcommand refuses a kind it does not run; the spec checks the rest when it
is built, before any output.  Sweeps write ``sweep_<kind>.csv`` and
``manifest_<kind>.json``, the others one JSON report; each echoes its spec.
Exit code is 0 on success and 2 if any cell failed to converge (results are
still written).
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Mapping
from pathlib import Path

from .errors import InvalidParamError
from .experiments import (
    SOLVERS,
    SWEEP_KINDS,
    ExperimentSpec,
    default_grid,
    read_config,
    run_image_recon,
    run_sweep,
    run_verify_stats,
    write_report,
    write_sweep_csv,
)

__all__ = ["main"]

# The spec fields whose default a subcommand changes, its kind among them.
_DEFAULTS = {"sweep": {"kind": "intensity"},
             "verify-stats": {"kind": "verify-stats", "trials": 1000},
             "image": {"kind": "image", "solver": "P4"}}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON file of ExperimentSpec fields (overrides defaults)")
    parser.add_argument("--out", type=Path, default=Path("results"),
                        help="output directory (default: results/)")
    parser.add_argument("--seed", type=int, default=None, help="master seed")
    parser.add_argument("--trials", type=int, default=None, help="trials per cell")
    parser.add_argument("--paper-scale", action="store_true",
                        help="use the full experiment grids instead of desk-scale ones")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes for sweep trials or runs of image patches "
                             "(verify-stats refuses any value but 1: it samples its cells "
                             "on one thread per usable CPU)")


def _build_spec(args) -> ExperimentSpec:
    fields = dict(_DEFAULTS[args.command])
    if args.config is not None:
        fields.update(read_config(args.config, "--config"))
    flags = {"kind": getattr(args, "kind", None), "master_seed": args.seed, "trials": args.trials,
             "workers": args.workers, "solver": getattr(args, "solver", None)}
    fields.update((name, value) for name, value in flags.items() if value is not None)
    kind = fields["kind"]
    if kind not in (SWEEP_KINDS if args.command == "sweep" else (args.command,)):
        raise InvalidParamError(f"{args.command} does not run kind {kind!r}")
    # Each axis the grid leaves out takes the scale's values, and an empty or
    # absent grid takes them all; a grid that is not a mapping, falsy ones
    # ([], null, 0) too, reaches the spec, which refuses it by name.
    grid = fields.get("grid", {})
    if isinstance(grid, Mapping):
        fields["grid"] = {**default_grid(kind, paper_scale=args.paper_scale), **grid}
    return ExperimentSpec.from_dict(fields)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="poisson-cs",
        description="Poisson compressed sensing experiments "
                    "(square-root Jensen-Shannon divergence).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="RRMSE sweep over a parameter grid")
    p_sweep.add_argument("--kind", choices=SWEEP_KINDS, default=None,
                         help="the sweep's kind (default: the config's, else intensity)")
    p_sweep.add_argument("--solver", choices=SOLVERS, default=None)
    _add_common(p_sweep)

    p_stats = sub.add_parser("verify-stats", help="Monte-Carlo sqjsd statistics report")
    _add_common(p_stats)

    p_image = sub.add_parser("image", help="patch-wise compressive image reconstruction")
    p_image.add_argument("--input", type=Path, required=True, help="input PGM image")
    p_image.add_argument("--solver", choices=SOLVERS, default=None)
    _add_common(p_image)

    args = parser.parse_args(argv)
    spec = _build_spec(args)
    out: Path = args.out

    if args.command == "sweep":
        report = run_sweep(spec)
    elif args.command == "verify-stats":
        report = run_verify_stats(spec)
    else:
        report = run_image_recon(spec, args.input, out)
    # Made once the run returns, so a refused run leaves no --out behind (an
    # image run makes it once its input is checked).
    out.mkdir(parents=True, exist_ok=True)
    if args.command == "sweep":
        csv_path = out / f"sweep_{spec.kind}.csv"
        write_sweep_csv(report, csv_path)
        path = out / f"manifest_{spec.kind}.json"
        lines = [f"wrote {csv_path} ({len(report['cells'])} cells, {spec.trials} trials each)"]
    elif args.command == "verify-stats":
        path = out / "verify_stats.json"
        lines = [f"wrote {path} ({len(report['cells'])} cells)"]
    else:
        path = out / "image_recon.json"
        lines = [f"I={cell['intensity']:.3g}  rrmse={cell['rrmse']:.4f}  -> {cell['out_image']}"
                 for cell in report["cells"]]
    write_report(report, path)
    print("\n".join(lines))
    # Statistics cells run no solver, so they hold no n_unconverged.
    return 2 if any(cell.get("n_unconverged") for cell in report["cells"]) else 0


if __name__ == "__main__":
    sys.exit(main())
