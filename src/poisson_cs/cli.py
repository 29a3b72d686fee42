"""Command-line interface: seeded, manifest-recorded experiment runs.

Subcommands::

    poisson-cs sweep --kind intensity --config spec.json --out results/
    poisson-cs verify-stats --out results/
    poisson-cs image --input img.pgm --out results/

Each spec field comes from its flag, else from ``--config``, else from the
subcommand's default (image: solver P4; verify-stats: 1000 trials), else
from ``ExperimentSpec``; the spec is built and checked once, before any work.
Sweeps write ``sweep_<kind>.csv`` (plot-ready quantiles) plus
``manifest_<kind>.json``; verify-stats and image write JSON reports.  Exit
code is 0 on success and 2 if any cell failed to converge (results are
still written).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .experiments import (
    SOLVERS,
    SWEEP_KINDS,
    ExperimentSpec,
    default_grid,
    run_image_recon,
    run_sweep,
    run_verify_stats,
    write_sweep_csv,
)

__all__ = ["main"]


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
                        help="worker processes for sweep trials or runs of image patches")


def _build_spec(args, kind: str, **defaults) -> ExperimentSpec:
    fields = dict(defaults)
    if args.config is not None:
        with open(args.config) as f:
            fields.update(json.load(f))
    fields["kind"] = kind
    if not fields.get("grid"):
        fields["grid"] = default_grid(kind, paper_scale=args.paper_scale)
    flags = {"master_seed": args.seed, "trials": args.trials, "workers": args.workers,
             "solver": getattr(args, "solver", None)}
    fields.update((name, value) for name, value in flags.items() if value is not None)
    return ExperimentSpec.from_dict(fields)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="poisson-cs",
        description="Poisson compressed sensing experiments "
                    "(square-root Jensen-Shannon divergence).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="RRMSE sweep over a parameter grid")
    p_sweep.add_argument("--kind", choices=SWEEP_KINDS, default="intensity")
    p_sweep.add_argument("--solver", choices=SOLVERS, default=None)
    _add_common(p_sweep)

    p_stats = sub.add_parser("verify-stats", help="Monte-Carlo sqjsd statistics report")
    _add_common(p_stats)

    p_image = sub.add_parser("image", help="patch-wise compressive image reconstruction")
    p_image.add_argument("--input", type=Path, required=True, help="input PGM image")
    p_image.add_argument("--solver", choices=SOLVERS, default=None)
    _add_common(p_image)

    args = parser.parse_args(argv)
    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)

    if args.command == "sweep":
        spec = _build_spec(args, args.kind)
        manifest = run_sweep(spec)
        write_sweep_csv(manifest, out / f"sweep_{spec.kind}.csv")
        manifest.to_json(out / f"manifest_{spec.kind}.json")
        print(f"wrote {out / f'sweep_{spec.kind}.csv'} "
              f"({len(manifest.cells)} cells, {spec.trials} trials each)")
        return 2 if manifest.n_unconverged else 0

    if args.command == "verify-stats":
        spec = _build_spec(args, "verify-stats", trials=1000)
        report = run_verify_stats(spec)
        path = out / "verify_stats.json"
        with open(path, "w") as f:
            json.dump(report, f, indent=2)
            f.write("\n")
        print(f"wrote {path} ({len(report['cells'])} cells)")
        return 0

    if args.command == "image":
        spec = _build_spec(args, "image", solver="P4")
        report = run_image_recon(spec, args.input, out)
        path = out / "image_recon.json"
        with open(path, "w") as f:
            json.dump(report, f, indent=2)
            f.write("\n")
        for cell in report["cells"]:
            print(f"I={cell['intensity']:.3g}  rrmse={cell['rrmse']:.4f}  "
                  f"-> {cell['out_image']}")
        return 2 if any(c["n_unconverged"] for c in report["cells"]) else 0

    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
