"""Evaluation metrics for the three prediction tasks.

Drag metrics are computed over per-sample scalars; field metrics are
pooled over all points of all samples. Velocity is reported per component
(Ux, Uy, Uz) and for the full vector field U.
"""

from dataclasses import dataclass
import json

import numpy as np

from .model import ModelState, predict_denormalized
from .pointcloud import SampleRecord


def _check(y, y_hat):
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y.shape != y_hat.shape:
        raise ValueError(f"shape mismatch {y.shape} vs {y_hat.shape}")
    if y.size == 0:
        raise ValueError("empty input")
    return y, y_hat


def mse(y, y_hat) -> float:
    y, y_hat = _check(y, y_hat)
    return float(np.mean((y - y_hat) ** 2))


def mae(y, y_hat) -> float:
    y, y_hat = _check(y, y_hat)
    return float(np.mean(np.abs(y - y_hat)))


def max_ae(y, y_hat) -> float:
    y, y_hat = _check(y, y_hat)
    return float(np.max(np.abs(y - y_hat)))


def r2(y, y_hat) -> float:
    """Coefficient of determination 1 - SS_res/SS_tot."""
    y, y_hat = _check(y, y_hat)
    if y.size < 2:
        raise ValueError("r2 needs at least 2 observations")
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot <= 0:
        raise ValueError("r2 undefined for zero-variance targets")
    ss_res = float(np.sum((y - y_hat) ** 2))
    return 1.0 - ss_res / ss_tot


def rel_errors(y, y_hat) -> tuple[float, float]:
    """(relative L2 percent, relative L1 percent) over all entries."""
    y, y_hat = _check(y, y_hat)
    norm2 = float(np.linalg.norm(y))
    norm1 = float(np.abs(y).sum())
    if norm2 <= 0 or norm1 <= 0:
        raise ValueError("relative errors undefined for zero-norm targets")
    return (100.0 * float(np.linalg.norm(y - y_hat)) / norm2,
            100.0 * float(np.abs(y - y_hat).sum()) / norm1)


def _task_metrics(y, y_hat, with_r2=False) -> dict:
    rel2, rel1 = rel_errors(y, y_hat)
    out = {
        "mse": mse(y, y_hat),
        "mae": mae(y, y_hat),
        "max_ae": max_ae(y, y_hat),
        "rel_l2_percent": rel2,
        "rel_l1_percent": rel1,
    }
    if with_r2:
        y_arr = np.asarray(y)
        out["r2"] = r2(y, y_hat) if y_arr.size >= 2 and np.std(y_arr) > 0 else None
    return out


@dataclass
class MetricReport:
    drag: dict
    pressure: dict
    velocity: dict     # keys Ux, Uy, Uz, U

    def to_dict(self) -> dict:
        return {"drag": self.drag, "pressure": self.pressure,
                "velocity": self.velocity}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_table(self) -> str:
        """Aligned text table; drag/pressure rows also shown with the
        conventional x1e-2 / x1e-1 presentation scaling."""
        cols = ["mse", "mae", "max_ae", "rel_l2_percent", "rel_l1_percent"]
        header = f"{'task':<12}" + "".join(f"{c:>18}" for c in cols) + f"{'r2':>12}"
        lines = [header, "-" * len(header)]

        def row(label, d):
            cells = "".join(f"{d[c]:>18.6g}" if d.get(c) is not None else f"{'-':>18}"
                            for c in cols)
            r2v = d.get("r2")
            return f"{label:<12}" + cells + (f"{r2v:>12.4f}" if r2v is not None
                                             else f"{'n/a':>12}")

        lines.append(row("drag", self.drag))
        lines.append(row("pressure", self.pressure))
        for comp in ("Ux", "Uy", "Uz", "U"):
            lines.append(row(f"vel {comp}", self.velocity[comp]))
        lines.append("")
        lines.append("scaled view (MSE x1e-2, MAE x1e-1):")
        for label, d in (("drag", self.drag), ("pressure", self.pressure)):
            lines.append(f"  {label:<10} MSE {d['mse'] * 1e2:10.4f}  "
                         f"MAE {d['mae'] * 1e1:10.4f}")
        return "\n".join(lines)


def evaluate_predictions(drag_true, drag_pred, pressure_true, pressure_pred,
                         velocity_true, velocity_pred) -> MetricReport:
    """Metric report from pooled arrays (fields already concatenated
    across samples)."""
    drag_true = np.asarray(drag_true, dtype=np.float64)
    drag_pred = np.asarray(drag_pred, dtype=np.float64)
    vel_t = np.asarray(velocity_true, dtype=np.float64).reshape(-1, 3)
    vel_p = np.asarray(velocity_pred, dtype=np.float64).reshape(-1, 3)
    velocity = {}
    for i, comp in enumerate(("Ux", "Uy", "Uz")):
        velocity[comp] = _task_metrics(vel_t[:, i], vel_p[:, i])
    velocity["U"] = _task_metrics(vel_t.reshape(-1), vel_p.reshape(-1))
    return MetricReport(
        drag=_task_metrics(drag_true, drag_pred, with_r2=True),
        pressure=_task_metrics(pressure_true, pressure_pred),
        velocity=velocity,
    )


def evaluate(state: ModelState, records: list[SampleRecord]) -> MetricReport:
    """Run the model over a split and compute the full metric report on
    denormalized predictions, refusing a non-finite one by sample id."""
    if not records:
        raise ValueError("evaluate needs a non-empty split")
    drag_t, drag_p = [], []
    press_t, press_p = [], []
    vel_t, vel_p = [], []
    for rec in records:
        pred = predict_denormalized(state, rec.surface, rec.volume)
        if not all(np.isfinite(v).all()
                   for v in (pred.drag, pred.pressure, pred.velocity)):
            raise FloatingPointError(
                f"sample {rec.id!r}: non-finite prediction")
        drag_t.append(rec.drag)
        drag_p.append(pred.drag)
        press_t.append(rec.pressure)
        press_p.append(pred.pressure)
        vel_t.append(rec.velocity)
        vel_p.append(pred.velocity)
    return evaluate_predictions(
        drag_t, drag_p,
        np.concatenate(press_t), np.concatenate(press_p),
        np.concatenate(vel_t, axis=0), np.concatenate(vel_p, axis=0))
