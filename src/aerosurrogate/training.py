"""Composite loss, Adam optimization, the training loop, and the
finite-difference gradient checker.

Loss: lambda_v * RelL2(velocity) + lambda_p * RelL2(pressure)
      + lambda_cd * (drag - drag_hat)^2, all on normalized targets.
"""

from dataclasses import dataclass, field
import math
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .datagen import DatasetSpec, generate_records
from .metrics import DegenerateTargetError, _target_norm  # noqa: F401
from .model import ModelConfig, ModelState, Params, init_model, \
    forward_graph, save_checkpoint
from .pointcloud import SampleRecord, compute_stats, normalize
from .rng import SplitMix64, derive_seed


@dataclass(frozen=True)
class LossWeights:
    velocity: float = 1.0
    pressure: float = 1.0
    drag: float = 0.1

    def __post_init__(self):
        if not all(0 <= w < math.inf
                   for w in (self.velocity, self.pressure, self.drag)):
            raise ValueError("loss weights must be finite and non-negative")
        if self.velocity == self.pressure == self.drag == 0:
            raise ValueError("at least one loss weight must be positive")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    weights: LossWeights = field(default_factory=LossWeights)

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning rate must be positive and finite")
        if not 0 < self.eps < math.inf:
            raise ValueError("eps must be positive and finite")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("betas must lie in [0, 1)")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")


def relative_l2(y: np.ndarray, y_hat: np.ndarray) -> float:
    """||y - y_hat||_2 / ||y||_2 (Frobenius for matrices)."""
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y.shape != y_hat.shape:
        raise ValueError(f"shape mismatch {y.shape} vs {y_hat.shape}")
    return float(np.linalg.norm(y - y_hat)) / _target_norm(y)


def _relative_l2(y_hat: np.ndarray, y: np.ndarray, name: str):
    """The relative L2 of y_hat against y in y_hat's dtype, and the map
    from its gradient to that at y_hat."""
    dtype = y_hat.dtype.type
    inv = dtype(1.0 / _target_norm(y, name))
    diff = y_hat - np.asarray(y, dtype=y_hat.dtype)
    norm = np.sqrt((diff * diff).sum())

    def backward(g):
        d = diff * (g * inv * 0.5 / norm)
        d += d
        return d

    return norm * inv, backward


def composite_loss(drag: np.ndarray, pressure: np.ndarray,
                   velocity: np.ndarray, record: SampleRecord,
                   weights: LossWeights):
    """The composite loss of predictions against one (normalized) sample,
    in their dtype. Returns (total, components as floats, backward);
    backward maps the gradient at total to (d drag, d pressure,
    d velocity)."""
    sample = f"sample {record.id!r}:"
    loss_p, pressure_backward = _relative_l2(
        pressure, record.pressure, f"{sample} pressure target")
    loss_v, velocity_backward = _relative_l2(
        velocity, record.velocity, f"{sample} velocity target")
    dtype = pressure.dtype.type
    w_v, w_p, w_cd = (dtype(w) for w in (weights.velocity, weights.pressure,
                                         weights.drag))
    d = drag - dtype(record.drag)
    loss_cd = d * d
    total = loss_v * w_v + loss_p * w_p + loss_cd * w_cd
    components = {"loss_v": float(loss_v), "loss_p": float(loss_p),
                  "loss_cd": float(loss_cd)}

    def backward(g):
        d_drag = g * w_cd * d
        return (d_drag + d_drag, pressure_backward(g * w_p),
                velocity_backward(g * w_v))

    return total, components, backward


def _loss(state: ModelState, record: SampleRecord,
          weights: LossWeights) -> float:
    """The composite loss of one normalized sample, by the inference
    forward."""
    drag, pressure, velocity, _ = forward_graph(state, record.surface,
                                                record.volume)
    return float(composite_loss(drag, pressure, velocity, record,
                                weights)[0])


@dataclass
class AdamState:
    m: np.ndarray     # both in the layout of params.flat
    v: np.ndarray
    t: int = 0

    @staticmethod
    def fresh(params: Params) -> "AdamState":
        return AdamState(m=np.zeros_like(params.flat),
                         v=np.zeros_like(params.flat))


def adam_step(params: Params, grads: Params, moments: AdamState,
              config: TrainConfig) -> None:
    """One bias-corrected Adam update of params.flat, in place; a non-finite
    gradient is a FloatingPointError naming its tensor, and changes nothing."""
    bad = grads.first_nonfinite()
    if bad is not None:
        raise FloatingPointError(f"non-finite gradient for tensor {bad!r}")
    moments.t += 1
    b1, b2 = config.beta1, config.beta2
    g, m, v = grads.flat, moments.m, moments.v
    # b1*m + (1 - b1)*g, b2*v + (1 - b2)*g*g and
    # lr*m_hat/(sqrt(v_hat) + eps), each rounding as numpy rounds the
    # expression, in place and in two scratch arrays
    step, scale = np.empty_like(g), np.empty_like(g)
    m *= b1
    m += np.multiply(g, 1 - b1, out=step)
    v *= b2
    np.multiply(g, 1 - b2, out=step)
    step *= g
    v += step
    np.divide(m, 1 - b1 ** moments.t, out=step)
    step *= config.learning_rate
    np.divide(v, 1 - b2 ** moments.t, out=scale)
    np.sqrt(scale, out=scale)
    scale += config.eps
    step /= scale
    params.flat -= step


@dataclass
class TrainResult:
    state: ModelState
    log_rows: list[dict]          # per-step rows
    epoch_losses: list[float]     # mean total loss per epoch
    best_epoch: int = -1
    val_losses: list[float] = field(default_factory=list)  # per epoch


def loss_and_grads(state: ModelState, record: SampleRecord,
                   weights: LossWeights) -> tuple[dict, Params]:
    """The composite loss of one normalized sample (its components and
    loss_total) and its gradient, a Params over one zeroed array (zero
    where unreached). The loss is one autodiff node over a leaf holding
    params.flat, whose gradient is that array: the node's backward runs
    the model's hand-derived backward, which adds each parameter's
    gradient into its view."""
    drag, pressure, velocity, model_backward = forward_graph(
        state, record.surface, record.volume, keep=True)
    total, components, loss_backward = composite_loss(
        drag, pressure, velocity, record, weights)
    if not np.isfinite(total):
        raise FloatingPointError(f"non-finite loss on sample {record.id!r}")
    leaf = Tensor(state.params.flat, requires_grad=True)
    leaf.grad = np.zeros_like(state.params.flat)
    grads = Params(state.params.layout, leaf.grad)
    loss = Tensor(total, parents=(leaf,), backward=lambda g: model_backward(
        *loss_backward(g), grads))
    loss.backward()
    components["loss_total"] = float(total)
    return components, grads


def train_step(state: ModelState, record: SampleRecord, weights: LossWeights,
               moments: AdamState, config: TrainConfig) -> dict:
    """Single forward/backward/Adam step on one normalized sample."""
    components, grads = loss_and_grads(state, record, weights)
    adam_step(state.params, grads, moments, config)
    return components


def train(records: list[SampleRecord], model_config: ModelConfig,
          train_config: TrainConfig,
          val_records: list[SampleRecord] | None = None,
          out_dir=None, max_steps: int | None = None) -> TrainResult:
    """Train on raw (unnormalized) records; one Adam step per sample, epoch
    order shuffled by the seeded generator.

    With val_records, the mean validation loss is computed after every
    epoch and picks checkpoint_best.bin and best_epoch; without them the
    mean training loss of the epoch does."""
    if not records:
        raise ValueError("need at least one training sample")
    if max_steps is not None and max_steps < 1:
        raise ValueError(f"max_steps must be >= 1 or None, got {max_steps}")
    stats = compute_stats(records)
    normed = [normalize(r, stats) for r in records]
    val_normed = [normalize(r, stats) for r in val_records or []]
    state = init_model(model_config, stats)
    moments = AdamState.fresh(state.params)
    rng = SplitMix64(derive_seed(train_config.seed, 0x5A17))
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    rows: list[dict] = []
    epoch_losses: list[float] = []
    val_losses: list[float] = []
    best = np.inf
    best_epoch = -1
    step = 0
    stop = False
    for epoch in range(train_config.epochs):
        order = list(range(len(normed)))
        rng.shuffle(order)
        epoch_total = 0.0
        for ran, idx in enumerate(order, 1):
            step += 1
            comp = train_step(state, normed[idx], train_config.weights,
                              moments, train_config)
            epoch_total += comp["loss_total"]
            rows.append({"epoch": epoch, "step": step, **comp})
            if max_steps is not None and step >= max_steps:
                stop = True
                break
        epoch_losses.append(epoch_total / ran)
        score = epoch_losses[-1]
        if val_normed:
            val_losses.append(float(np.mean(
                [_loss(state, r, train_config.weights) for r in val_normed])))
            score = val_losses[-1]
        if score < best:
            best = score
            best_epoch = epoch
            if out_dir is not None:
                save_checkpoint(state, out_dir / "checkpoint_best.bin")
        if stop:
            break
    if out_dir is not None:
        save_checkpoint(state, out_dir / "checkpoint_final.bin")
        write_loss_csv(rows, out_dir / "loss_log.csv")
    return TrainResult(state=state, log_rows=rows, epoch_losses=epoch_losses,
                       best_epoch=best_epoch, val_losses=val_losses)


def write_loss_csv(rows: list[dict], path) -> None:
    """CSV loss log with 17-significant-digit decimals."""
    lines = ["epoch,step,loss_total,loss_v,loss_p,loss_cd"]
    for r in rows:
        lines.append(",".join([
            str(r["epoch"]), str(r["step"]),
            format(r["loss_total"], ".17g"), format(r["loss_v"], ".17g"),
            format(r["loss_p"], ".17g"), format(r["loss_cd"], ".17g")]))
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# gradient verification


@dataclass
class GradCheckReport:
    max_rel_error: float
    per_tensor: dict[str, float]
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def grad_check(tolerance: float = 1e-5, seed: int = 1234) -> GradCheckReport:
    """Compare the gradients training steps on (loss_and_grads) against
    central finite differences (step 1e-5) for every parameter tensor of
    a tiny f64 model with normals, on a 5+3-point datagen sample."""
    h = 1e-5
    state = init_model(ModelConfig(layers=1, channels=4, slices=2, heads=2,
                                   geom_width=6, seed=seed, precision="f64"))
    record = generate_records(DatasetSpec(
        n_samples=1, n_surface=5, n_volume=3, seed=derive_seed(seed, 1)))[0]
    weights = LossWeights()
    analytic = loss_and_grads(state, record, weights)[1]
    flat = state.params.flat
    fd = Params(state.params.layout, np.zeros_like(flat))

    def loss_at(i: int, value) -> float:
        flat[i] = value
        return _loss(state, record, weights)

    for i in range(flat.size):
        orig = flat[i]
        fd.flat[i] = (loss_at(i, orig + h) - loss_at(i, orig - h)) / (2 * h)
        flat[i] = orig
    per_tensor = {}
    for name, a in analytic.items():
        denom = max(float(np.abs(a).max(initial=0.0)),
                    float(np.abs(fd[name]).max(initial=0.0)), 1e-8)
        per_tensor[name] = float(np.abs(a - fd[name]).max(initial=0.0)) / denom
    return GradCheckReport(max_rel_error=max(per_tensor.values()),
                           per_tensor=per_tensor, tolerance=tolerance)
