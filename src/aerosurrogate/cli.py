"""Command-line entry point.

Subcommands: gen-data, sample, train, predict, evaluate, grad-check.
Each command's settings are declared once, with their defaults, in
DEFAULTS; a --seed or --precision flag exists only on the commands that
have that setting. Settings resolve as defaults < config file (--config,
flat JSON) < flags. A config file may hold any command's keys, so one
file serves them all; each command reads its own, and a key no command
declares is a configuration error.
Exit codes: 0 success, 1 runtime error, 2 configuration/usage error.
"""

import argparse
from dataclasses import asdict, fields, replace
import json
import sys
from pathlib import Path

import numpy as np

from .datagen import DatasetSpec, generate_dataset
from .metrics import evaluate
from .model import ModelConfig, load_checkpoint, predict_denormalized
from .pointcloud import (load_dataset, load_geometry, load_sample,
                         save_sample, save_targets)
from .sampling import SamplingConfig, sample_indices, write_index_file
from .training import LossWeights, TrainConfig, grad_check, train

# every setting of every command, with its default
DEFAULTS = {
    "gen-data": {"n_samples": 32, "n_surface": 512, "n_volume": 256,
                 "a_min": 1.0, "a_max": 3.0, "b_min": 0.8, "b_max": 1.2,
                 "c_min": 0.5, "c_max": 1.0, "r_min": 1.1, "r_max": 3.0,
                 "seed": 0},
    "sample": asdict(SamplingConfig()),
    "train": {"layers": 2, "channels": 64, "slices": 16, "heads": 4,
              "geom_width": 6, "seed": 0, "precision": "f32",
              "epochs": 200, "learning_rate": 1e-3, "beta1": 0.9,
              "beta2": 0.999, "eps": 1e-8, "lambda_v": 1.0, "lambda_p": 1.0,
              "lambda_cd": 0.1, "max_steps": 0},
    "predict": {},
    "evaluate": {},
    "grad-check": {"seed": 1234},
}
_KNOWN_KEYS = set().union(*DEFAULTS.values())


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


def _check_type(key: str, value, default) -> None:
    """A setting must have its default's JSON type; an int may stand for a
    float, a bool never for a number."""
    expected = (int, float) if isinstance(default, float) else type(default)
    if isinstance(value, bool) != isinstance(default, bool) or \
            not isinstance(value, expected):
        raise ConfigError(f"{key} must be {type(default).__name__}, "
                          f"got {json.dumps(value)}")


def _resolve(args) -> dict:
    """The command's settings: defaults < config file < explicit flags.
    With --print-config, also prints them."""
    defaults = DEFAULTS[args.command]
    given = _load_config(args.config)
    cfg = {key: given.get(key, value) for key, value in defaults.items()}
    for key, default in defaults.items():
        _check_type(key, cfg[key], default)
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    if args.print_config:
        print(json.dumps(cfg, indent=2, sort_keys=True))
    return cfg


def _build(cls, **settings):
    """cls(**settings); a setting the class rejects is a ConfigError."""
    try:
        return cls(**settings)
    except ValueError as e:
        raise ConfigError(str(e)) from None


def _model_config(cfg: dict) -> ModelConfig:
    return _build(ModelConfig, **{f.name: cfg[f.name]
                                  for f in fields(ModelConfig)})


def _train_config(cfg: dict) -> TrainConfig:
    weights = _build(LossWeights, velocity=cfg["lambda_v"],
                     pressure=cfg["lambda_p"], drag=cfg["lambda_cd"])
    return _build(TrainConfig, epochs=cfg["epochs"],
                  learning_rate=cfg["learning_rate"], beta1=cfg["beta1"],
                  beta2=cfg["beta2"], eps=cfg["eps"], seed=cfg["seed"],
                  weights=weights)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args) -> int:
    cfg = _resolve(args)
    dspec = _build(
        DatasetSpec, n_samples=cfg["n_samples"],
        a_range=(cfg["a_min"], cfg["a_max"]),
        b_range=(cfg["b_min"], cfg["b_max"]),
        c_range=(cfg["c_min"], cfg["c_max"]),
        n_surface=cfg["n_surface"], n_volume=cfg["n_volume"],
        r_min=cfg["r_min"], r_max=cfg["r_max"], seed=cfg["seed"])
    manifest = generate_dataset(dspec, args.out)
    print(manifest)
    return 0


def cmd_sample(args) -> int:
    sconfig = _build(SamplingConfig, **_resolve(args))
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
    cfg = _resolve(args)
    if cfg["max_steps"] < 0:
        raise ConfigError("max_steps must be >= 0 (0: no limit)")
    train_recs, val_recs = load_dataset(args.data)
    result = train(train_recs, _model_config(cfg), _train_config(cfg),
                   val_records=val_recs or None, out_dir=args.out,
                   max_steps=cfg["max_steps"] or None)
    print(Path(args.out) / "checkpoint_final.bin")
    if result.epoch_losses:
        print(f"final epoch loss {result.epoch_losses[-1]:.6g}")
    if result.val_losses:
        print(f"best epoch {result.best_epoch + 1} of "
              f"{len(result.val_losses)}, validation loss "
              f"{result.val_losses[result.best_epoch]:.6g}")
    return 0


def cmd_predict(args) -> int:
    _resolve(args)
    state = load_checkpoint(args.checkpoint)
    surface, volume = load_geometry(args.input)
    pred = predict_denormalized(state, surface, volume)
    save_targets(args.out, pred.pressure, pred.velocity, pred.drag)
    print(Path(args.out))
    return 0


def cmd_evaluate(args) -> int:
    _resolve(args)
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
    if not args.tolerance > 0:
        raise ConfigError(f"tolerance must be positive, "
                          f"got {args.tolerance:g}")
    report = grad_check(tolerance=args.tolerance, seed=_resolve(args)["seed"])
    print(f"max relative gradient error: {report.max_rel_error:.3e} "
          f"(tolerance {report.tolerance:g})")
    if not report.passed:
        worst = max(report.per_tensor, key=report.per_tensor.get)
        print(f"FAIL: worst tensor {worst}", file=sys.stderr)
        return 1
    print("PASS")
    return 0


# ---------------------------------------------------------------------------


def _add_command(sub, name: str, func, help: str) -> argparse.ArgumentParser:
    """A subcommand with --config, --print-config and, where the command
    has that setting, --seed and --precision."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(func=func)
    p.add_argument("--config", help="flat JSON config file")
    if "seed" in DEFAULTS[name]:
        p.add_argument("--seed", type=int, default=None, help="seed override")
    if "precision" in DEFAULTS[name]:
        p.add_argument("--precision", choices=["f32", "f64"], default=None)
    p.add_argument("--print-config", action="store_true",
                   help="print the fully resolved configuration")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aerosurrogate",
        description="Physics-attention aerodynamic surrogate toolkit. "
                    "Precedence: defaults < --config file < flags.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "gen-data", cmd_gen_data,
                     "generate a synthetic dataset")
    p.add_argument("--n", dest="n_samples", type=int, default=None)
    p.add_argument("--n-surface", dest="n_surface", type=int, default=None)
    p.add_argument("--n-volume", dest="n_volume", type=int, default=None)
    p.add_argument("--out", required=True)

    p = _add_command(sub, "sample", cmd_sample,
                     "downsample a sample's surface cloud")
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

    p = _add_command(sub, "train", cmd_train,
                     "train the surrogate on a dataset")
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

    p = _add_command(sub, "predict", cmd_predict,
                     "predict one geometry from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--in", dest="input", required=True,
                   help="directory with surface.txt and, optionally, volume.txt")
    p.add_argument("--out", required=True)

    p = _add_command(sub, "evaluate", cmd_evaluate,
                     "metric report over a dataset split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=["train", "val", "all"], default="val")
    p.add_argument("--out", required=True)

    p = _add_command(sub, "grad-check", cmd_grad_check,
                     "finite-difference gradient check")
    p.add_argument("--tolerance", type=float, default=1e-5)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError, FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2 if isinstance(e, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
