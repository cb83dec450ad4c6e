"""Command-line interface: simulate, train, eval, localize, render-heatmap.

Configuration files are JSON; unknown or ill-typed entries are reported
with a JSON-pointer style path. Every subcommand prints a JSON result on
stdout and returns exit code 0 on success; failures print a structured
error object on stderr and return nonzero.
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
from .evaluate import METHODS, evaluate, write_report_csv
from .features import (
    DEFAULT_GRID_N,
    Grid,
    extract_frame,
    heatmap_from_csv,
    heatmap_to_csv,
    heatmap_to_pgm,
)
from .mlp import MlpSpec
from .relnet import (
    FEATURE_KINDS,
    RelNetConfig,
    RelNetModel,
    gnn_localize,
    load_checkpoint,
    save_checkpoint,
)
from .scenes import SceneDistribution
from .signals import SourceSignalConfig
from .training import TrainConfig, train, write_history_csv


class ConfigError(ValueError):
    """Invalid configuration; the message starts with a JSON-pointer path."""


def _pointer(path: list[str]) -> str:
    return "/" + "/".join(path)


def _convert(conv, value, path: list[str]):
    """conv(value); a value conv rejects raises ConfigError at path."""
    try:
        return conv(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{_pointer(path)}: {exc}") from exc


def _build(cls, obj: dict, path: list[str], converters: dict | None = None):
    """cls(**obj) after converting values; a key that is not a field of the
    dataclass cls, or a value it rejects, raises ConfigError at its path.
    A field annotated ``int``, ``float``, ``bool``, ``int | None`` or
    ``str | None`` without a converter takes only a JSON integer, number,
    boolean, integer or string, and null where None is allowed
    (:data:`_BY_ANNOTATION`)."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{_pointer(path)}: must be a JSON object")
    fields = {f.name: f.type for f in dataclasses.fields(cls)}
    converters = converters or {}
    kwargs = {}
    for key, value in obj.items():
        if key not in fields:
            raise ConfigError(f"{_pointer(path + [key])}: unknown key")
        conv = converters.get(key, _BY_ANNOTATION.get(fields[key]))
        kwargs[key] = _convert(conv, value, path + [key]) if conv else value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{_pointer(path)}: {exc}") from exc


def _int(value) -> int:
    """A JSON integer; a string, bool or fractional number is refused, not parsed or cut."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _float(value) -> float:
    """A JSON number, integer or not; a string or bool is refused, not parsed."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _bool(value) -> bool:
    """JSON true or false; a string or number is refused."""
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _str(value) -> str:
    """A JSON string; a number or bool is refused, not converted."""
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _optional(conv):
    """null as None, anything else through conv."""
    return lambda value: None if value is None else conv(value)


def _order(value) -> int:
    """A JSON integer >= 0 (a reflection order)."""
    if _int(value) < 0:
        raise ValueError(f"expected an integer >= 0, got {value!r}")
    return value


# Converters by field annotation (every config module defers annotations, so they are strings).
_BY_ANNOTATION = {
    "int": _int,
    "float": _float,
    "bool": _bool,
    "int | None": _optional(_int),
    "str | None": _optional(_str),
}


def _pair(value) -> tuple[float, float]:
    lo, hi = value
    return (_float(lo), _float(hi))


def _int_tuple(value) -> tuple[int, ...]:
    return tuple(_int(v) for v in value)


def dataset_config_from_obj(obj: dict) -> DatasetConfig:
    if not isinstance(obj, dict):
        raise ConfigError("/: config must be a JSON object")
    obj = dict(obj)
    scene = _build(
        SceneDistribution,
        obj.pop("scene", {}),
        ["scene"],
        {
            "width_range": _pair,
            "length_range": _pair,
            "height_range": _pair,
            "t60_range": _pair,
            "mic_counts": _int_tuple,
        },
    )
    source = _build(SourceSignalConfig, obj.pop("source", {}), ["source"])
    converters = {
        "train_mic_counts": _int_tuple,
        "val_mic_counts": _int_tuple,
        "test_mic_counts": _int_tuple,
        "snr_db": lambda v: math.inf if v in ("inf", None) else _float(v),
        "max_order": _optional(_order),
    }
    return _build(DatasetConfig, {**obj, "scene": scene, "source": source}, [], converters)


def train_configs_from_obj(obj: dict) -> tuple[RelNetConfig, TrainConfig]:
    if not isinstance(obj, dict):
        raise ConfigError("/: config must be a JSON object")
    obj = dict(obj)
    kind = obj.pop("feature_kind", "slf")
    if kind not in FEATURE_KINDS:
        raise ConfigError(f"/feature_kind: must be one of {FEATURE_KINDS}")
    net_kwargs = {"feature_kind": kind}
    if "grid_n" in obj:
        net_kwargs["grid_n"] = obj.pop("grid_n")
    for key, spec_key in (("f_layer_sizes", "f_spec"), ("g_layer_sizes", "g_spec")):
        if key in obj:
            net_kwargs[spec_key] = _convert(lambda v: MlpSpec(_int_tuple(v)), obj.pop(key), [key])
    net = _build(RelNetConfig, net_kwargs, [])
    train_cfg = _build(TrainConfig, obj, [])
    return net, train_cfg


def _load_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"/: {path} is not valid JSON: {exc}") from exc


def cmd_simulate(args) -> int:
    obj = _load_json(args.config) if args.config else {}
    if args.seed is not None:
        obj["master_seed"] = args.seed
    config = dataset_config_from_obj(obj)
    manifest = generate_dataset(config, args.out)
    counts = {split: manifest["splits"][split]["count"] for split in manifest["splits"]}
    print(json.dumps({"out": str(args.out), "counts": counts, "skipped": manifest["skipped"]}))
    return 0


def cmd_train(args) -> int:
    obj = _load_json(args.config) if args.config else {}
    if args.seed is not None:
        obj["seed"] = args.seed
    net_config, train_config = train_configs_from_obj(obj)
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
        grid = Grid(scene.room.width, scene.room.length, args.grid_n)
        localize = tdoa_localize if args.method == "tdoa" else slf_localize
        result = localize(frame, scene, grid)
    else:
        if not args.checkpoint:
            raise ConfigError(f"/checkpoint: required for method {args.method!r}")
        model = load_checkpoint(args.checkpoint[0])
        result = gnn_localize(model, frame, scene)
        grid = Grid(scene.room.width, scene.room.length, model.config.grid_n)
    if args.emit_heatmap:
        path = Path(args.emit_heatmap)
        if path.suffix == ".csv":
            heatmap_to_csv(result.heatmap, grid, path)
        elif path.suffix == ".pgm":
            heatmap_to_pgm(result.heatmap, grid, path)
        else:
            raise ConfigError(f"/emit-heatmap: unsupported extension {path.suffix!r}")
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
