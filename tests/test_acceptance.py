"""Acceptance gate: every release-blocking property in one file.

Each test prints a single PASS/FAIL line so the suite output doubles as
an acceptance report. Run with `pytest tests/test_acceptance.py -s`.
"""

import time

import numpy as np

from aerosurrogate.cli import main as cli_main
from aerosurrogate.datagen import (DatasetSpec, ShapeSpec, ellipsoid_surface,
                                   generate_records, potential_flow_velocity,
                                   shell_points)
from aerosurrogate.metrics import evaluate, mae, max_ae, mse, r2, rel_errors
from aerosurrogate.model import ModelConfig, forward, init_model
from aerosurrogate.physatt import (aggregate_tokens, deslice,
                                   init_layer_params, slice_weights,
                                   token_attention, attention_block)
from aerosurrogate.pointcloud import PointCloud, SampleRecord, compute_stats
from aerosurrogate.rng import SplitMix64
from aerosurrogate.sampling import SamplingConfig, sample_indices
from aerosurrogate.training import (LossWeights, TrainConfig, grad_check,
                                    train)
from tests.test_physatt import (oracle_aggregate, oracle_attention,
                                oracle_deslice, oracle_layer, oracle_slice)


def _report(num: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:2d} [{status}] {name}{suffix}")


# ---------------------------------------------------------------------------


def test_criterion_01_full_scale_out_of_scope():
    """Published full-scale benchmark numbers (thousands of CFD meshes,
    GPU training) are not reproducible on a single desk machine; this
    suite substitutes property-based checks on an analytic synthetic
    benchmark. This criterion records that substitution explicitly."""
    substitutes = [
        "oracle equivalence", "gradient exactness", "permutation properties",
        "row stochasticity", "overfit convergence", "generalization sanity",
        "sampling ablation direction", "metric oracles", "determinism",
        "synthetic physics checks",
    ]
    passed = len(substitutes) == 10
    _report(1, "full-scale benchmark out of scope; substitutes follow", passed)
    assert passed


def test_criterion_02_oracle_equivalence():
    """Forward pass matches brute-force double-loop oracles to 1e-10."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for n, c, m in [(8, 4, 3), (5, 3, 2), (7, 4, 3), (3, 2, 2)]:
        p = init_layer_params(c, m, 1, 2 * c,
                              SplitMix64(int(rng.integers(1 << 30))),
                              dtype=np.float64)
        x = rng.normal(size=(n, c))
        w = slice_weights(x, p.slice_proj, p.slice_bias, float(np.exp(p.log_tau)))
        worst = max(worst, np.abs(w - oracle_slice(
            x, p.slice_proj, p.slice_bias, float(np.exp(p.log_tau)))).max())
        z = aggregate_tokens(x, w)
        worst = max(worst, np.abs(z - oracle_aggregate(x, w)).max())
        att = token_attention(z, p.w_q, p.b_q, p.w_k, p.b_k, p.w_v, p.b_v,
                              p.w_o, p.b_o)
        worst = max(worst, np.abs(att - oracle_attention(
            z, p.w_q, p.b_q, p.w_k, p.b_k, p.w_v, p.b_v, p.w_o, p.b_o)).max())
        worst = max(worst, np.abs(deslice(att, w) - oracle_deslice(att, w)).max())
        worst = max(worst, np.abs(attention_block(x, p) - oracle_layer(x, p)).max())
    elapsed = time.perf_counter() - t0
    passed = worst <= 1e-10 and elapsed < 1.0
    _report(2, "oracle equivalence", passed,
            f"max abs err {worst:.2e}, {elapsed:.2f}s")
    assert passed


def test_criterion_03_gradient_exactness():
    """End-to-end gradients vs central finite differences, h=1e-5, f64."""
    t0 = time.perf_counter()
    report = grad_check()
    elapsed = time.perf_counter() - t0
    passed = report.max_rel_error < 1e-5 and elapsed < 30.0
    _report(3, "gradient exactness", passed,
            f"max rel err {report.max_rel_error:.2e}, {elapsed:.1f}s")
    assert passed


def test_criterion_04_permutation_properties():
    """100 random point permutations: drag invariant, fields equivariant."""
    t0 = time.perf_counter()
    cfg = ModelConfig(layers=2, channels=32, slices=8, heads=4, seed=3,
                      precision="f32", geom_width=6)
    state = init_model(cfg)
    rng = np.random.default_rng(1)
    n_s, n_v = 64, 32
    normals = rng.normal(size=(n_s, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    surface = PointCloud(rng.normal(size=(n_s, 3)), normals, "surface")
    volume = PointCloud(rng.normal(size=(n_v, 3)), None, "volume")
    base = forward(state, surface, volume)
    worst = 0.0
    for _ in range(100):
        ps = rng.permutation(n_s)
        pv = rng.permutation(n_v)
        got = forward(state, surface.select(ps), volume.select(pv))
        worst = max(worst, abs(got.drag - base.drag),
                    np.abs(got.pressure - base.pressure[ps]).max(),
                    np.abs(got.velocity - base.velocity[pv]).max())
    elapsed = time.perf_counter() - t0
    passed = worst <= 1e-5 and elapsed < 60.0
    _report(4, "permutation properties", passed,
            f"max deviation {worst:.2e}, {elapsed:.1f}s")
    assert passed


def test_criterion_05_row_stochasticity():
    """Slice-weight and attention rows sum to 1 within 1e-6 in 32-bit."""
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 16))
        c = int(rng.integers(2, 9))
        m = int(rng.integers(2, 9))
        x = rng.normal(size=(n, c)).astype(np.float32) * 3.0
        proj = rng.normal(size=(c, m)).astype(np.float32)
        bias = rng.normal(size=m).astype(np.float32)
        w = slice_weights(x, proj, bias, float(rng.uniform(0.2, 2.0)))
        worst = max(worst, np.abs(w.sum(axis=1) - 1.0).max())
        # attention row sums, probed through the real implementation by
        # setting values to 1 and the output projection to identity
        z = rng.normal(size=(m, c)).astype(np.float32)
        wq = rng.normal(size=(c, c)).astype(np.float32)
        wk = rng.normal(size=(c, c)).astype(np.float32)
        zeros = np.zeros(c, dtype=np.float32)
        row_sums = token_attention(z, wq, zeros, wk, zeros,
                                   np.zeros((c, c), dtype=np.float32),
                                   np.ones(c, dtype=np.float32),
                                   np.eye(c, dtype=np.float32), zeros)
        worst = max(worst, np.abs(row_sums - 1.0).max())
    passed = worst <= 1e-6
    _report(5, "row stochasticity", passed, f"max |row sum - 1| {worst:.2e}")
    assert passed


DESK_PROFILE = dict(layers=2, channels=64, slices=16, heads=4,
                    precision="f32", geom_width=6)
EASY_FLOW = dict(a_range=(1.0, 2.0), r_min=1.5, r_max=3.0)


def _mean_training_loss(state, records, weights):
    """Per-sample composite loss in normalized space, averaged over the
    training set, with fixed parameters (no optimizer noise)."""
    from aerosurrogate.pointcloud import normalize
    from aerosurrogate.training import relative_l2
    total = 0.0
    for rec in records:
        nrec = normalize(rec, state.stats)
        pred = forward(state, nrec.surface, nrec.volume)
        total += (weights.velocity * relative_l2(nrec.velocity, pred.velocity)
                  + weights.pressure * relative_l2(nrec.pressure, pred.pressure)
                  + weights.drag * (pred.drag - nrec.drag) ** 2)
    return total / len(records)


def test_criterion_06_overfit_convergence():
    """Desk profile on 8 synthetic samples, <= 2000 steps: loss below 2%
    of initial and training-set drag R^2 above 0.99."""
    t0 = time.perf_counter()
    recs = generate_records(DatasetSpec(n_samples=8, n_surface=512,
                                        n_volume=256, seed=11, **EASY_FLOW))
    cfg = ModelConfig(seed=7, **DESK_PROFILE)
    weights = LossWeights(velocity=0.25, pressure=0.25, drag=2.0)
    res = train(recs, cfg, TrainConfig(epochs=250, seed=5, learning_rate=5e-4,
                                       weights=weights))
    initial = _mean_training_loss(init_model(cfg, compute_stats(recs)), recs,
                                  weights)
    final = _mean_training_loss(res.state, recs, weights)
    drag_r2 = evaluate(res.state, recs).drag["r2"]
    elapsed = time.perf_counter() - t0
    passed = (final < 0.02 * initial and drag_r2 > 0.99 and elapsed < 900.0
              and len(res.log_rows) <= 2000)
    _report(6, "overfit convergence", passed,
            f"loss {100 * final / initial:.2f}% of initial, "
            f"drag r2 {drag_r2:.4f}, {len(res.log_rows)} steps, {elapsed:.0f}s")
    assert passed


def test_criterion_07_generalization_sanity():
    """32 train / 8 held-out samples: pressure rel L2 < 30%, drag R^2 > 0.8."""
    t0 = time.perf_counter()
    common = dict(n_surface=512, n_volume=256, **EASY_FLOW)
    train_recs = generate_records(DatasetSpec(n_samples=32, seed=11, **common))
    test_recs = generate_records(DatasetSpec(n_samples=8, seed=1999, **common))
    cfg = ModelConfig(seed=7, **DESK_PROFILE)
    res = train(train_recs, cfg,
                TrainConfig(epochs=120, seed=5, learning_rate=5e-4,
                            weights=LossWeights(drag=0.5)))
    rep = evaluate(res.state, test_recs)
    press = rep.pressure["rel_l2_percent"]
    drag_r2 = rep.drag["r2"]
    elapsed = time.perf_counter() - t0
    passed = press < 30.0 and drag_r2 > 0.8 and elapsed < 2700.0
    _report(7, "generalization sanity", passed,
            f"pressure rel L2 {press:.1f}%, drag r2 {drag_r2:.3f}, {elapsed:.0f}s")
    assert passed


def _reduce_records(records, method, n_points, seed):
    out = []
    for i, rec in enumerate(records):
        sc = SamplingConfig(method=method, n_points=n_points,
                            seed=seed * 1000 + i)
        idx = np.asarray(sample_indices(rec.surface, sc))
        out.append(SampleRecord(surface=rec.surface.select(idx),
                                volume=rec.volume,
                                pressure=rec.pressure[idx],
                                velocity=rec.velocity, drag=rec.drag,
                                id=rec.id))
    return out


def test_criterion_08_sampling_ablation_direction():
    """Fixed budget of 256 points from 2048-point surfaces: adaptive
    sampling reaches test drag MSE <= random sampling, mean of 3 seeds."""
    t0 = time.perf_counter()
    cfg = ModelConfig(layers=1, channels=32, slices=8, heads=4, seed=7,
                      precision="f32", geom_width=6)
    common = dict(n_surface=2048, n_volume=128, a_range=(1.0, 3.0),
                  r_min=1.5, r_max=3.0)
    scores = {"adaptive": [], "random": []}
    for seed in (1, 2, 3):
        tr = generate_records(DatasetSpec(n_samples=12, seed=seed, **common))
        te = generate_records(DatasetSpec(n_samples=8, seed=seed + 500,
                                          **common))
        for method in scores:
            tr_r = _reduce_records(tr, method, 256, seed)
            te_r = _reduce_records(te, method, 256, seed + 77)
            res = train(tr_r, cfg,
                        TrainConfig(epochs=100, seed=seed, learning_rate=1e-3,
                                    weights=LossWeights(drag=1.0)))
            scores[method].append(evaluate(res.state, te_r).drag["mse"])
    mean_a = float(np.mean(scores["adaptive"]))
    mean_r = float(np.mean(scores["random"]))
    elapsed = time.perf_counter() - t0
    passed = mean_a <= mean_r
    _report(8, "sampling ablation direction", passed,
            f"drag MSE adaptive {mean_a:.4g} vs random {mean_r:.4g}, "
            f"{elapsed:.0f}s")
    assert passed


def test_criterion_09_metric_oracles():
    """Hand-computed metric values to 1e-10 plus scale invariance."""
    checks = [
        abs(mse([1.0, 2, 3], [1.0, 2, 5]) - 4.0 / 3.0),
        abs(mae([1.0, 2, 3], [1.0, 2, 5]) - 2.0 / 3.0),
        abs(max_ae([1.0, 2, 3], [1.0, 2, 5]) - 2.0),
        abs(mse([0.0, 0], [1.0, -1]) - 1.0),
        abs(r2([1.0, 2, 3], [2.0, 2, 2]) - 0.0),
        abs(rel_errors([1.0, 1], [2.0, 1])[0] - 100.0 / np.sqrt(2.0)),
        abs(rel_errors([1.0, 1], [2.0, 1])[1] - 50.0),
        abs(rel_errors([3.0, 4], [0.0, 0])[0] - 100.0),
    ]
    worst = max(checks)
    rng = np.random.default_rng(4)
    y = rng.normal(size=20) + 3.0
    y_hat = y + rng.normal(size=20) * 0.2
    base = rel_errors(y, y_hat)
    worst_scale = 0.0
    for _ in range(100):
        alpha = rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0])
        got = rel_errors(alpha * y, alpha * y_hat)
        worst_scale = max(worst_scale, abs(got[0] - base[0]),
                          abs(got[1] - base[1]))
    passed = worst <= 1e-10 and worst_scale < 1e-8
    _report(9, "metric oracles", passed,
            f"hand-value err {worst:.1e}, scale-invariance err {worst_scale:.1e}")
    assert passed


def test_criterion_10_pipeline_determinism(tmp_path):
    """Two seeded gen-data -> train -> evaluate pipelines are byte-identical."""
    outputs = []
    for name in ("a", "b"):
        root = tmp_path / name
        assert cli_main(["gen-data", "--n", "4", "--n-surface", "32",
                         "--n-volume", "16", "--seed", "9",
                         "--out", str(root / "data")]) == 0
        assert cli_main(["train", "--data", str(root / "data"),
                         "--out", str(root / "run"), "--epochs", "2",
                         "--layers", "1", "--channels", "16", "--slices", "4",
                         "--heads", "2", "--seed", "5"]) == 0
        assert cli_main(["evaluate", "--checkpoint",
                         str(root / "run" / "checkpoint_final.bin"),
                         "--data", str(root / "data"), "--split", "all",
                         "--out", str(root / "eval")]) == 0
        outputs.append({
            "checkpoint": (root / "run" / "checkpoint_final.bin").read_bytes(),
            "best": (root / "run" / "checkpoint_best.bin").read_bytes(),
            "csv": (root / "run" / "loss_log.csv").read_bytes(),
            "metrics": (root / "eval" / "metrics.json").read_bytes(),
        })
    passed = outputs[0] == outputs[1]
    _report(10, "pipeline determinism", passed, "byte-identical artifacts")
    assert passed


def test_criterion_11_synthetic_physics_checks():
    """Generated velocity is divergence-free; surface points lie exactly
    on the ellipsoid."""
    probes = shell_points(1000, 1.3, 3.0, SplitMix64(7))
    h = 1e-5
    div = np.zeros(len(probes))
    for axis in range(3):
        e = np.zeros(3)
        e[axis] = h
        vp = potential_flow_velocity(probes + e, 1.0)[:, axis]
        vm = potential_flow_velocity(probes - e, 1.0)[:, axis]
        div += (vp - vm) / (2.0 * h)
    max_div = float(np.abs(div).max())

    spec = ShapeSpec(a=2.0, b=1.1, c=0.7, n_surface=512)
    points, _ = ellipsoid_surface(spec)
    lhs = ((points[:, 0] / spec.a) ** 2 + (points[:, 1] / spec.b) ** 2
           + (points[:, 2] / spec.c) ** 2)
    max_eq = float(np.abs(lhs - 1.0).max())
    passed = max_div < 1e-6 and max_eq <= 1e-12
    _report(11, "synthetic physics checks", passed,
            f"max |div v| {max_div:.1e}, max ellipsoid residual {max_eq:.1e}")
    assert passed
