"""The benchmark's three workloads.

Each workload builds its inputs with `aerosurrogate.datagen` from the
workload seed in `setup`, runs one operation per `op` call, and checks
each result in `check_op` (outside the timed region) and the run as a
whole in `check_run`. Program functions are always looked up through
their module at call time, so in-place tracing sees every call.

Why these three: each puts a different layer on the critical path.

* train-desk: at the desk profile's small N the train step's time goes
  to building the autodiff graph and running backward, not to BLAS.
* predict-large: at large N per-point matmul, softmax and GELU work in
  physics attention dominates and memory grows with N; there is no
  backward and no Adam step.
* ingest: no model runs; the O(N^2) curvature estimate and the text
  reads and writes share the time.
"""

from dataclasses import dataclass, replace
from pathlib import Path
import math

import numpy as np

from aerosurrogate import datagen, model, pointcloud, sampling, training
from aerosurrogate.rng import derive_seed


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; FULL is what the benchmark measures."""

    layers: int = 2
    channels: int = 64
    slices: int = 16
    heads: int = 4
    train_samples: int = 16
    train_surface: int = 512
    train_volume: int = 256
    predict_pool: int = 4
    predict_surface: int = 8192
    predict_volume: int = 4096
    ingest_surface: int = 2048
    ingest_volume: int = 8192
    ingest_budget: int = 512


FULL = Sizes()
TINY = Sizes(layers=1, channels=8, slices=4, heads=2, train_samples=4,
             train_surface=24, train_volume=12, predict_pool=2,
             predict_surface=48, predict_volume=24, ingest_surface=64,
             ingest_volume=32, ingest_budget=16)


def _model_config(sizes: Sizes) -> model.ModelConfig:
    # the desk profile; the model seed is fixed so that only the data
    # depends on the workload seed
    return model.ModelConfig(layers=sizes.layers, channels=sizes.channels,
                             slices=sizes.slices, heads=sizes.heads,
                             geom_width=6, seed=0, precision="f32")


class Workload:
    """Defaults for the run-level hooks: no run-level check, no extras."""

    def check_run(self) -> list[str]:
        return []

    def extras(self) -> dict:
        return {}


class TrainDesk(Workload):
    """One op is one `training.train_step` on the desk profile, cycling in
    order over the synthetic training samples."""

    name = "train-desk"

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed, self.sizes = seed, sizes
        self.losses: list[float] = []

    def setup(self) -> None:
        s = self.sizes
        records = datagen.generate_records(datagen.DatasetSpec(
            n_samples=s.train_samples, n_surface=s.train_surface,
            n_volume=s.train_volume, seed=self.seed))
        stats = pointcloud.compute_stats(records)
        self.records = [pointcloud.normalize(r, stats) for r in records]
        self.state = model.init_model(_model_config(s), stats)
        self.moments = training.AdamState.fresh(self.state.params)
        self.config = training.TrainConfig(seed=self.seed)
        self.weights = training.LossWeights()
        self.losses = []

    def op(self, i: int) -> dict:
        rec = self.records[i % len(self.records)]
        return training.train_step(self.state, rec, self.weights,
                                   self.moments, self.config)

    def check_op(self, i: int, result: dict) -> str | None:
        loss = result["loss_total"]
        self.losses.append(loss)
        return None if math.isfinite(loss) else f"non-finite loss {loss}"

    def _pass_means(self) -> list[float]:
        k = len(self.records)
        return [float(np.mean(self.losses[j:j + k]))
                for j in range(0, len(self.losses) - k + 1, k)]

    def check_run(self) -> list[str]:
        passes = self._pass_means()
        if len(passes) < 2:
            return [f"only {len(passes)} full pass(es) over the samples"]
        if not passes[-1] < passes[0]:
            return [f"loss did not fall: first pass {passes[0]:.6g}, "
                    f"last pass {passes[-1]:.6g}"]
        return []

    def extras(self) -> dict:
        passes = self._pass_means()
        return {"train_loss_end": passes[-1] if passes else float("nan"),
                "train_loss_start": passes[0] if passes else float("nan"),
                "train_passes": len(passes)}


class PredictLarge(Workload):
    """One op is one `model.predict_denormalized` on raw in-memory clouds,
    cycling over a small pool of generated shapes, with the desk model
    loaded from a checkpoint during set-up."""

    name = "predict-large"

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed, self.sizes = seed, sizes
        self.checkpoint = workdir / "desk.ckpt"
        self.first: dict[int, model.Prediction] = {}

    def setup(self) -> None:
        s = self.sizes
        self.pool = datagen.generate_records(datagen.DatasetSpec(
            n_samples=s.predict_pool, n_surface=s.predict_surface,
            n_volume=s.predict_volume, seed=self.seed))
        stats = pointcloud.compute_stats(self.pool)
        model.save_checkpoint(model.init_model(_model_config(s), stats),
                              self.checkpoint)
        self.state = model.load_checkpoint(self.checkpoint)
        self.first = {}

    def op(self, i: int) -> model.Prediction:
        rec = self.pool[i % len(self.pool)]
        return model.predict_denormalized(self.state, rec.surface, rec.volume)

    def check_op(self, i: int, pred: model.Prediction) -> str | None:
        s = self.sizes
        if pred.pressure.shape != (s.predict_surface,) or \
                pred.velocity.shape != (s.predict_volume, 3):
            return f"shapes {pred.pressure.shape}, {pred.velocity.shape}"
        if not (math.isfinite(pred.drag) and np.all(np.isfinite(pred.pressure))
                and np.all(np.isfinite(pred.velocity))):
            return "non-finite prediction"
        ref = self.first.setdefault(i % len(self.pool), pred)
        if not (ref.drag == pred.drag
                and np.array_equal(ref.pressure, pred.pressure)
                and np.array_equal(ref.velocity, pred.velocity)):
            return "repeated request gave a different result"
        return None


class Ingest(Workload):
    """One op loads a text sample, keeps `ingest_budget` surface points by
    adaptive sampling, and writes the reduced sample."""

    name = "ingest"

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed, self.sizes = seed, sizes
        self.source = workdir / "source"
        self.reduced = workdir / "reduced"
        self.config = sampling.SamplingConfig(
            method="adaptive", n_points=sizes.ingest_budget,
            seed=derive_seed(seed, 1))

    def setup(self) -> None:
        s = self.sizes
        rec = datagen.generate_records(datagen.DatasetSpec(
            n_samples=1, n_surface=s.ingest_surface,
            n_volume=s.ingest_volume, seed=self.seed))[0]
        pointcloud.save_sample(rec, self.source)

    def op(self, i: int):
        rec = pointcloud.load_sample(self.source)
        idx = sampling.sample_adaptive(rec.surface, self.config)
        rows = np.asarray(idx, dtype=np.int64)
        reduced = replace(rec, surface=rec.surface.select(rows),
                          pressure=rec.pressure[rows])
        pointcloud.save_sample(reduced, self.reduced)
        return rec, idx

    def check_op(self, i: int, result) -> str | None:
        rec, idx = result
        rows = np.asarray(idx, dtype=np.int64)
        if len(idx) != self.sizes.ingest_budget:
            return f"kept {len(idx)} points, budget {self.sizes.ingest_budget}"
        if np.any(np.diff(rows) <= 0) or rows[0] < 0 or \
                rows[-1] >= rec.surface.n_points:
            return "indices not unique, ascending and in range"
        back = pointcloud.load_sample(self.reduced)
        same = (np.array_equal(back.surface.positions, rec.surface.positions[rows])
                and np.array_equal(back.surface.normals, rec.surface.normals[rows])
                and np.array_equal(back.pressure, rec.pressure[rows])
                and np.array_equal(back.volume.positions, rec.volume.positions)
                and np.array_equal(back.velocity, rec.velocity)
                and back.drag == rec.drag)
        return None if same else "reloaded sample differs from the selected rows"


WORKLOADS = {w.name: w for w in (TrainDesk, PredictLarge, Ingest)}
