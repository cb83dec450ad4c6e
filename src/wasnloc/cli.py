"""Command-line interface: simulate, train, eval, localize, render-heatmap.

Configuration files are JSON, read into the config dataclasses by the
walker of :mod:`typedjson`, driven by their field types; unknown or
ill-typed entries are reported naming the file and the JSON pointer. Every
subcommand prints a JSON result on stdout and returns exit code 0 on success;
failures print a structured error object on stderr and return nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from .classical import slf_localize, tdoa_localize
from .dataset import (
    DatasetConfig,
    generate_dataset,
    load_example_dir,
    load_manifest,
    load_split_features,
)
from .evaluate import METHODS, evaluate, load_models, write_report_csv
from .features import (
    DEFAULT_GRID_N,
    Grid,
    extract_frame,
    heatmap_from_csv,
    heatmap_to_csv,
    heatmap_to_pgm,
)
from .relnet import (
    RelNetConfig,
    RelNetModel,
    gnn_localize,
    save_checkpoint,
)
from .training import TrainConfig, train, write_history_csv
from .typedjson import InputError, build, loads, reading


def dataset_config_from_obj(obj: dict) -> DatasetConfig:
    """Beyond the field types: snr_db may be "inf" (no noise; a float field
    takes only finite numbers)."""
    no_noise = isinstance(obj, dict) and obj.get("snr_db") == "inf"
    if no_noise:
        obj = {key: value for key, value in obj.items() if key != "snr_db"}
    config = build(DatasetConfig, obj, [])
    if no_noise:
        config = dataclasses.replace(config, snr_db=math.inf)
    return config


def train_configs_from_obj(obj: dict) -> tuple[RelNetConfig, TrainConfig]:
    """The keys that name RelNetConfig fields build the network, the rest
    the TrainConfig."""
    if not isinstance(obj, dict):
        raise InputError("/: must be a JSON object")
    net_keys = {f.name for f in dataclasses.fields(RelNetConfig)}
    net = build(RelNetConfig, {k: v for k, v in obj.items() if k in net_keys}, [])
    return net, build(TrainConfig, {k: v for k, v in obj.items() if k not in net_keys}, [])


def cmd_simulate(args) -> int:
    with reading(args.config):  # without a file, the defaults raise nothing
        config = dataset_config_from_obj(loads(Path(args.config).read_bytes()) if args.config else {})
    if args.seed is not None:
        config = dataclasses.replace(config, master_seed=args.seed)
    manifest = generate_dataset(config, args.out)
    counts = {split: manifest["splits"][split]["count"] for split in manifest["splits"]}
    print(json.dumps({"out": str(args.out), "counts": counts, "skipped": manifest["skipped"]}))
    return 0


def cmd_train(args) -> int:
    with reading(args.config):
        net_config, train_config = train_configs_from_obj(loads(Path(args.config).read_bytes()) if args.config else {})
    if args.seed is not None:
        train_config = dataclasses.replace(train_config, seed=args.seed)
    manifest = load_manifest(args.data)
    train_set = load_split_features(args.data, manifest, "train", net_config)
    val_set = load_split_features(args.data, manifest, "val", net_config)
    model = RelNetModel.init_random(net_config, rng_seed=train_config.seed)
    best, history = train(model, train_set, val_set, train_config)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(best, out)
    history_path = out.with_suffix(".history.csv")
    write_history_csv(history, history_path)
    best_val = min(h.val_loss for h in history)
    print(
        json.dumps(
            {
                "checkpoint": str(out),
                "history": str(history_path),
                "epochs": len(history),
                "best_val_loss": best_val,
            }
        )
    )
    return 0


def cmd_eval(args) -> int:
    report = evaluate(
        args.method,
        args.data,
        split=args.split,
        grid_n=args.grid_n,
        checkpoints=args.checkpoint or None,
        heatmap_count=args.heatmaps,
        heatmap_dir=args.heatmap_dir,
    )
    if args.out:
        write_report_csv(report, args.out)
    print(
        json.dumps(
            {
                "method": report.method,
                "rows": [
                    {
                        "M": r.m,
                        "n_examples": r.n_examples,
                        "mean_error_m": r.mean_error_m,
                        "std_error_m": r.std_error_m,
                    }
                    for r in report.rows
                ],
                "report": str(args.out) if args.out else None,
            }
        )
    )
    return 0


def cmd_localize(args) -> int:
    received, scene = load_example_dir(args.example)
    frame = extract_frame(received)
    if args.method in ("tdoa", "slf"):
        if args.checkpoint:
            raise ValueError(f"/checkpoint: method {args.method!r} takes no checkpoint")
        grid = Grid(scene.room.width, scene.room.length, args.grid_n)
        localize = tdoa_localize if args.method == "tdoa" else slf_localize
        result = localize(frame, scene, grid)
    else:
        if args.checkpoint and len(args.checkpoint) > 1:
            raise ValueError(f"/checkpoint: localize runs one checkpoint, got {len(args.checkpoint)}")
        (model,) = load_models(args.method, args.checkpoint)
        result = gnn_localize(model, frame, scene)
        grid = Grid(scene.room.width, scene.room.length, model.config.grid_n)
    if args.emit_heatmap:
        path = Path(args.emit_heatmap)
        if path.suffix == ".csv":
            heatmap_to_csv(result.heatmap, grid, path)
        elif path.suffix == ".pgm":
            heatmap_to_pgm(result.heatmap, grid, path)
        else:
            raise ValueError(f"/emit-heatmap: unsupported extension {path.suffix!r}")
    print(
        json.dumps(
            {
                "estimate_xy": [float(result.estimate[0]), float(result.estimate[1])],
                "method": args.method,
                "grid_n": grid.n,
            }
        )
    )
    return 0


def cmd_render_heatmap(args) -> int:
    values = heatmap_from_csv(args.infile)
    n = int(round(math.sqrt(values.size)))
    heatmap_to_pgm(values, Grid(1.0, 1.0, n), args.out)
    print(json.dumps({"out": str(args.out), "grid_n": n}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wasnloc",
        description="Sound source localization for ad-hoc microphone arrays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    p.add_argument("--config", help="dataset config JSON")
    p.add_argument("--seed", type=int, help="override the master seed")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train a relation-network localizer")
    p.add_argument("--config", help="training config JSON")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--seed", type=int, help="override the training seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a localizer on a dataset split")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--split", default="test")
    p.add_argument("--checkpoint", action="append", help="model checkpoint (repeatable)")
    p.add_argument("--grid-n", type=int, default=DEFAULT_GRID_N, dest="grid_n")
    p.add_argument("--out", help="report CSV path")
    p.add_argument("--heatmaps", type=int, default=0, help="emit PGMs for the first K examples")
    p.add_argument("--heatmap-dir", dest="heatmap_dir", help="directory for emitted heatmaps")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("localize", help="localize a single example directory")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--in", dest="example", required=True, help="example directory")
    p.add_argument("--checkpoint", action="append", help="model checkpoint (gnn methods)")
    p.add_argument("--grid-n", type=int, default=DEFAULT_GRID_N, dest="grid_n")
    p.add_argument("--emit-heatmap", dest="emit_heatmap", help="write heatmap (.csv or .pgm)")
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("render-heatmap", help="convert a CSV heatmap to PGM")
    p.add_argument("--in", dest="infile", required=True, help="heatmap CSV")
    p.add_argument("--out", required=True, help="output PGM path")
    p.set_defaults(func=cmd_render_heatmap)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except Exception as exc:  # structured failure for scripting
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
