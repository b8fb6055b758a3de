"""Command-line entry point.

Subcommands: gen-data, sample, train, predict, evaluate, grad-check.
Settings resolve as defaults < config file (--config, flat JSON) < flags.
Exit codes: 0 success, 1 runtime error, 2 configuration/usage error.
"""

import argparse
from dataclasses import replace
import json
import sys
from pathlib import Path

import numpy as np

from .datagen import DatasetSpec, generate_dataset
from .metrics import evaluate
from .model import (CheckpointError, ModelConfig, load_checkpoint,
                    predict_denormalized)
from .pointcloud import (SampleFormatError, load_dataset, load_sample,
                         save_sample, save_targets)
from .sampling import SamplingConfig, sample_indices, write_index_file
from .training import LossWeights, TrainConfig, grad_check, train

# flat config schema: every key a subcommand may read
_KNOWN_KEYS = {
    # shared
    "seed", "precision",
    # gen-data
    "n_samples", "n_surface", "n_volume", "a_min", "a_max", "b_min", "b_max",
    "c_min", "c_max", "r_min", "r_max",
    # sampling
    "method", "n_points", "knn_k", "curvature_fraction", "grid_cells",
    # model
    "layers", "channels", "slices", "heads", "ffn_width", "geom_width",
    "extra_width", "head_hidden",
    # training
    "epochs", "learning_rate", "beta1", "beta2", "eps",
    "lambda_v", "lambda_p", "lambda_cd", "checkpoint_every", "max_steps",
}


class ConfigError(ValueError):
    pass


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"{p}: invalid JSON: {e}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"{p}: config must be a JSON object")
    unknown = set(cfg) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"{p}: unknown config keys: {sorted(unknown)}")
    return cfg


def _resolve(args, defaults: dict) -> dict:
    """defaults < config file < explicit flags."""
    cfg = dict(defaults)
    cfg.update(_load_config(args.config))
    for key in defaults:
        flag = getattr(args, key.replace("-", "_"), None)
        if flag is not None:
            cfg[key] = flag
    return cfg


def _print_config(args, cfg: dict) -> None:
    if args.print_config:
        print(json.dumps(cfg, indent=2, sort_keys=True))


def _model_config(cfg: dict) -> ModelConfig:
    return ModelConfig(
        layers=cfg["layers"], channels=cfg["channels"], slices=cfg["slices"],
        heads=cfg["heads"], ffn_width=cfg["ffn_width"],
        geom_width=cfg["geom_width"], extra_width=cfg["extra_width"],
        head_hidden=cfg["head_hidden"], seed=cfg["seed"],
        precision=cfg["precision"])


def _train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(
        epochs=cfg["epochs"], learning_rate=cfg["learning_rate"],
        beta1=cfg["beta1"], beta2=cfg["beta2"], eps=cfg["eps"],
        seed=cfg["seed"],
        weights=LossWeights(velocity=cfg["lambda_v"], pressure=cfg["lambda_p"],
                            drag=cfg["lambda_cd"]),
        checkpoint_every=cfg["checkpoint_every"])


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args) -> int:
    defaults = {"n_samples": 32, "n_surface": 512, "n_volume": 256,
                "a_min": 1.0, "a_max": 3.0, "b_min": 0.8, "b_max": 1.2,
                "c_min": 0.5, "c_max": 1.0, "r_min": 1.1, "r_max": 3.0,
                "seed": 0}
    cfg = _resolve(args, defaults)
    _print_config(args, cfg)
    dspec = DatasetSpec(
        n_samples=cfg["n_samples"],
        a_range=(cfg["a_min"], cfg["a_max"]),
        b_range=(cfg["b_min"], cfg["b_max"]),
        c_range=(cfg["c_min"], cfg["c_max"]),
        n_surface=cfg["n_surface"], n_volume=cfg["n_volume"],
        r_min=cfg["r_min"], r_max=cfg["r_max"], seed=cfg["seed"])
    manifest = generate_dataset(dspec, args.out)
    print(manifest)
    return 0


def cmd_sample(args) -> int:
    defaults = {"method": "adaptive", "n_points": 1024, "seed": 0,
                "knn_k": 16, "curvature_fraction": 0.5, "grid_cells": 16}
    cfg = _resolve(args, defaults)
    _print_config(args, cfg)
    sconfig = SamplingConfig(method=cfg["method"], n_points=cfg["n_points"],
                             seed=cfg["seed"], knn_k=cfg["knn_k"],
                             curvature_fraction=cfg["curvature_fraction"],
                             grid_cells=cfg["grid_cells"])
    record = load_sample(args.input)
    indices = sample_indices(record.surface, sconfig)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_index_file(indices, out / "indices.txt")
    if args.write_sample:
        reduced = replace(record, surface=record.surface.select(indices),
                          pressure=record.pressure[np.asarray(indices)])
        save_sample(reduced, out / "sample")
    print(out / "indices.txt")
    return 0


def cmd_train(args) -> int:
    defaults = {"layers": 2, "channels": 64, "slices": 16, "heads": 4,
                "ffn_width": 0, "geom_width": 6, "extra_width": 0,
                "head_hidden": 0, "seed": 0, "precision": "f32",
                "epochs": 200, "learning_rate": 1e-3, "beta1": 0.9,
                "beta2": 0.999, "eps": 1e-8, "lambda_v": 1.0, "lambda_p": 1.0,
                "lambda_cd": 0.1, "checkpoint_every": 0, "max_steps": 0}
    cfg = _resolve(args, defaults)
    _print_config(args, cfg)
    train_recs, val_recs = load_dataset(args.data)
    result = train(train_recs, _model_config(cfg), _train_config(cfg),
                   val_records=val_recs or None, out_dir=args.out,
                   max_steps=cfg["max_steps"] or None)
    print(Path(args.out) / "checkpoint_final.bin")
    if result.epoch_losses:
        print(f"final epoch loss {result.epoch_losses[-1]:.6g}")
    return 0


def cmd_predict(args) -> int:
    cfg = _resolve(args, {})
    _print_config(args, cfg)
    state = load_checkpoint(args.checkpoint)
    record = load_sample(args.input)
    pred = predict_denormalized(state, record.surface, record.volume)
    save_targets(args.out, pred.pressure, pred.velocity, pred.drag)
    print(Path(args.out))
    return 0


def cmd_evaluate(args) -> int:
    cfg = _resolve(args, {})
    _print_config(args, cfg)
    state = load_checkpoint(args.checkpoint)
    train_recs, val_recs = load_dataset(args.data)
    records = {"train": train_recs, "val": val_recs,
               "all": train_recs + val_recs}[args.split]
    if not records:
        print(f"error: split {args.split!r} is empty", file=sys.stderr)
        return 1
    report = evaluate(state, records)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "metrics.json").write_text(report.to_json() + "\n")
    (out / "metrics.txt").write_text(report.to_table() + "\n")
    print(report.to_table())
    return 0


def cmd_grad_check(args) -> int:
    cfg = _resolve(args, {"seed": 1234})
    _print_config(args, cfg)
    report = grad_check(tolerance=args.tolerance, seed=cfg["seed"])
    print(f"max relative gradient error: {report.max_rel_error:.3e} "
          f"(tolerance {report.tolerance:g})")
    if not report.passed:
        worst = max(report.per_tensor, key=report.per_tensor.get)
        print(f"FAIL: worst tensor {worst}", file=sys.stderr)
        return 1
    print("PASS")
    return 0


# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat JSON config file")
    p.add_argument("--seed", type=int, default=None, help="seed override")
    p.add_argument("--precision", choices=["f32", "f64"], default=None)
    p.add_argument("--print-config", action="store_true",
                   help="print the fully resolved configuration")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aerosurrogate",
        description="Physics-attention aerodynamic surrogate toolkit. "
                    "Precedence: defaults < --config file < flags.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    _add_common(p)
    p.add_argument("--n", dest="n_samples", type=int, default=None)
    p.add_argument("--n-surface", dest="n_surface", type=int, default=None)
    p.add_argument("--n-volume", dest="n_volume", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("sample", help="downsample a sample's surface cloud")
    _add_common(p)
    p.add_argument("--method", choices=["random", "curvature", "adaptive"],
                   default=None)
    p.add_argument("--n", dest="n_points", type=int, default=None)
    p.add_argument("--knn-k", dest="knn_k", type=int, default=None)
    p.add_argument("--curvature-fraction", dest="curvature_fraction",
                   type=float, default=None)
    p.add_argument("--grid-cells", dest="grid_cells", type=int, default=None)
    p.add_argument("--in", dest="input", required=True, help="sample directory")
    p.add_argument("--out", required=True)
    p.add_argument("--write-sample", action="store_true",
                   help="also write the reduced sample directory")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("train", help="train the surrogate on a dataset")
    _add_common(p)
    p.add_argument("--data", required=True, help="dataset root with manifest.json")
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--layers", type=int, default=None)
    p.add_argument("--channels", type=int, default=None)
    p.add_argument("--slices", type=int, default=None)
    p.add_argument("--heads", type=int, default=None)
    p.add_argument("--learning-rate", dest="learning_rate", type=float,
                   default=None)
    p.add_argument("--max-steps", dest="max_steps", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict one sample from a checkpoint")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="metric report over a dataset split")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=["train", "val", "all"], default="val")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("grad-check", help="finite-difference gradient check")
    _add_common(p)
    p.add_argument("--tolerance", type=float, default=1e-5)
    p.set_defaults(func=cmd_grad_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (SampleFormatError, CheckpointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (OSError, FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
