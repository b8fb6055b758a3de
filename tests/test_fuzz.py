"""Seeded byte-mutation fuzzing of the files the CLI reads.

A tiny checkpoint, a two-sample dataset (manifest.json, the cloud files
and the target files) and a --config file are mutated with edits drawn
from SplitMix64: flip a bit, overwrite a byte, insert a byte, delete a
byte, or truncate. predict, evaluate, sample and gen-data then run on
them in-process through cli.main. Every run must return 0, 1 or 2, with
no exception escaping main and, unless it returns 0, an `error:` line on
stderr. What a run that returns 0 wrote must be finite and readable
again.
"""

import json
import math
import shutil

import pytest

from aerosurrogate.cli import main
from aerosurrogate.model import ModelConfig, init_model, save_checkpoint
from aerosurrogate.pointcloud import compute_stats, load_dataset, load_sample
from aerosurrogate.rng import SplitMix64, derive_seed, fnv1a64
from aerosurrogate.sampling import read_index_file

CASES = 48     # mutated inputs per file and command
CLOUDS = ["s/surface.txt", "s/volume.txt"]
TARGETS = ["s/pressure.txt", "s/velocity.txt", "s/cd.txt"]
FILES = {"predict": ["ckpt.bin", "cfg.json", *CLOUDS],
         "evaluate": ["ckpt.bin", "cfg.json", "data/manifest.json", *CLOUDS,
                      *TARGETS],
         "sample": ["cfg.json", *CLOUDS, *TARGETS],
         "gen-data": ["cfg.json"]}


def mutate(data: bytes, rng: SplitMix64) -> bytes:
    """One to three edits, each at a position drawn over the whole file."""
    out = bytearray(data)
    for _ in range(1 + rng.below(3)):
        kind, i, byte = rng.below(5), rng.below(len(out) + 1), rng.below(256)
        if kind == 3:
            out.insert(i, byte)
        elif kind == 4:
            del out[i:]
        elif i < len(out):
            if kind == 0:
                out[i] ^= 1 << byte % 8
            elif kind == 1:
                out[i] = byte
            else:
                del out[i]
    return bytes(out)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    assert main(["gen-data", "--n", "2", "--n-surface", "24", "--n-volume",
                 "12", "--seed", "3", "--out", str(root / "data")]) == 0
    train, val = load_dataset(root / "data")
    config = ModelConfig(layers=1, channels=8, slices=4, heads=2, seed=1)
    save_checkpoint(init_model(config, compute_stats(train + val)),
                    root / "ckpt.bin")
    (root / "cfg.json").write_text(json.dumps({
        "n_samples": 2, "n_surface": 24, "n_volume": 12, "seed": 3,
        "method": "adaptive", "n_points": 8, "knn_k": 4, "grid_cells": 2}))
    # "s" is the first sample of the dataset, which evaluate reads too
    (root / "s").symlink_to(root / "data" / (train + val)[0].id)
    return root


def argv(command: str, root, out) -> list[str]:
    extra = {"predict": ["--checkpoint", str(root / "ckpt.bin"),
                         "--in", str(root / "s")],
             "evaluate": ["--checkpoint", str(root / "ckpt.bin"),
                          "--data", str(root / "data"), "--split", "all"],
             "sample": ["--in", str(root / "s"), "--write-sample"],
             "gen-data": []}[command]
    return [command, "--config", str(root / "cfg.json"), *extra,
            "--out", str(out)]


def check_written(command: str, root, out) -> None:
    """Read back what a successful run wrote; each reader refuses
    non-finite values."""
    if command == "predict":
        for name in ("surface.txt", "volume.txt"):
            shutil.copy(root / "s" / name, out / name)
        load_sample(out)
    elif command == "evaluate":
        def refuse(constant):
            raise ValueError(f"metrics.json holds {constant}")
        metrics = json.loads((out / "metrics.json").read_text(),
                             parse_constant=refuse)
        for task in metrics.values():
            for value in task.values():
                values = value.values() if isinstance(value, dict) else [value]
                assert all(v is None or math.isfinite(v) for v in values)
    elif command == "sample":
        read_index_file(out / "indices.txt")
        load_sample(out / "sample")
    else:
        load_dataset(out)


@pytest.mark.parametrize("command", list(FILES))
def test_mutated_inputs_fail_cleanly(command, inputs, tmp_path, capsys):
    faults = []
    for name in FILES[command]:
        path = inputs / name
        clean = path.read_bytes()
        for case in range(CASES):
            rng = SplitMix64(derive_seed(fnv1a64(f"{command} {name}"), case))
            path.write_bytes(mutate(clean, rng))
            out = tmp_path / "out"
            where = f"{command} with {name} mutated, case {case}"
            try:
                code = main(argv(command, inputs, out))
                err = capsys.readouterr().err
                if code not in (0, 1, 2):
                    faults.append(f"{where}: exit {code}")
                elif code and not err.startswith("error: "):
                    faults.append(f"{where}: exit {code}, stderr {err!r}")
                elif code == 0:
                    check_written(command, inputs, out)
            except Exception as e:      # raised by main or by the read-back: a fault
                faults.append(f"{where}: {type(e).__name__}: {e}")
            finally:
                path.write_bytes(clean)
                shutil.rmtree(out, ignore_errors=True)
    assert not faults, "\n".join(faults)
