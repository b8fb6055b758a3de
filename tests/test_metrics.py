import math

import numpy as np
import pytest

from aerosurrogate.datagen import DatasetSpec, generate_records
from aerosurrogate.metrics import (MetricReport, evaluate,
                                   evaluate_predictions, mae, max_ae, mse,
                                   r2, rel_errors)
from aerosurrogate.model import ModelConfig, init_model
from aerosurrogate.training import DegenerateTargetError


class TestPointwiseMetrics:
    def test_perfect_prediction(self):
        y = np.array([1.0, -2.0, 3.0])
        assert mse(y, y) == 0.0
        assert mae(y, y) == 0.0
        assert max_ae(y, y) == 0.0

    def test_symmetric_unit_errors(self):
        y = np.array([0.0, 0.0])
        y_hat = np.array([1.0, -1.0])
        assert mse(y, y_hat) == 1.0
        assert mae(y, y_hat) == 1.0
        assert max_ae(y, y_hat) == 1.0

    def test_hand_arithmetic(self):
        y = np.array([1.0, 2.0, 3.0])
        y_hat = np.array([1.0, 2.0, 5.0])
        assert mse(y, y_hat) == pytest.approx(4.0 / 3.0, abs=1e-15)
        assert mae(y, y_hat) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert max_ae(y, y_hat) == 2.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mse(np.zeros(0), np.zeros(0))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mae(np.zeros(3), np.zeros(4))


class TestR2:
    def test_perfect(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2(y, y) == 1.0

    def test_constant_mean_prediction_is_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2(y, np.full(3, y.mean())) == pytest.approx(0.0, abs=1e-15)

    def test_hand_arithmetic(self):
        got = r2(np.array([1.0, 2.0, 3.0]), np.array([2.0, 2.0, 2.0]))
        assert got == pytest.approx(0.0, abs=1e-15)

    def test_needs_two_observations(self):
        with pytest.raises(ValueError):
            r2(np.array([1.0]), np.array([1.0]))

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            r2(np.array([2.0, 2.0]), np.array([1.0, 3.0]))

    def test_affine_invariance(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=20)
        y_hat = y + rng.normal(size=20) * 0.3
        base = r2(y, y_hat)
        for a, b in [(2.0, 1.0), (-0.5, 3.0), (1e3, -7.0)]:
            assert r2(a * y + b, a * y_hat + b) == pytest.approx(base, rel=1e-10)


class TestRelErrors:
    def test_perfect(self):
        y = np.array([1.0, 2.0])
        assert rel_errors(y, y) == (0.0, 0.0)

    def test_zero_prediction(self):
        got = rel_errors(np.array([3.0, 4.0]), np.zeros(2))
        assert got == (pytest.approx(100.0), pytest.approx(100.0))

    def test_hand_norms(self):
        rel2, rel1 = rel_errors(np.array([1.0, 1.0]), np.array([2.0, 1.0]))
        assert rel2 == pytest.approx(100.0 / math.sqrt(2.0), abs=1e-10)
        assert rel1 == pytest.approx(50.0, abs=1e-12)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            rel_errors(np.zeros(3), np.ones(3))

    def test_norm_below_loss_floor_rejected(self):
        """The loss's target-norm check, not a second one: a norm below
        its 1e-30 floor is refused, not turned into a huge percentage."""
        with pytest.raises(DegenerateTargetError):
            rel_errors(np.array([1e-31, 0.0]), np.zeros(2))

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=15) + 2.0
        y_hat = y + rng.normal(size=15) * 0.1
        base = rel_errors(y, y_hat)
        for alpha in rng.normal(size=100):
            if abs(alpha) < 1e-6:
                continue
            got = rel_errors(alpha * y, alpha * y_hat)
            assert got[0] == pytest.approx(base[0], rel=1e-9)
            assert got[1] == pytest.approx(base[1], rel=1e-9)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        y = rng.normal(size=12)
        y_hat = y + rng.normal(size=12) * 0.2
        perm = rng.permutation(12)
        assert mse(y[perm], y_hat[perm]) == pytest.approx(mse(y, y_hat))
        assert mae(y[perm], y_hat[perm]) == pytest.approx(mae(y, y_hat))
        assert max_ae(y[perm], y_hat[perm]) == max_ae(y, y_hat)
        assert r2(y[perm], y_hat[perm]) == pytest.approx(r2(y, y_hat))
        got = rel_errors(y[perm], y_hat[perm])
        base = rel_errors(y, y_hat)
        assert got[0] == pytest.approx(base[0])
        assert got[1] == pytest.approx(base[1])

    def test_ordering_invariants(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            y = rng.normal(size=8)
            y_hat = rng.normal(size=8)
            assert max_ae(y, y_hat) >= mae(y, y_hat) >= 0.0
            assert mse(y, y_hat) >= 0.0


class TestReport:
    def pooled(self, n=6, seed=4):
        rng = np.random.default_rng(seed)
        drag = rng.uniform(0.2, 0.6, size=n)
        pressure = rng.normal(size=4 * n)
        velocity = rng.normal(size=(3 * n, 3)) + np.array([1.0, 0.0, 0.0])
        return drag, pressure, velocity

    def test_velocity_components(self):
        drag, pressure, velocity = self.pooled()
        noise = np.random.default_rng(5).normal(size=velocity.shape) * 0.1
        rep = evaluate_predictions(drag, drag, pressure, pressure,
                                   velocity, velocity + noise)
        for i, comp in enumerate(("Ux", "Uy", "Uz")):
            want = mse(velocity[:, i], velocity[:, i] + noise[:, i])
            assert rep.velocity[comp]["mse"] == pytest.approx(want, abs=1e-15)
        want_u = mse(velocity.reshape(-1), (velocity + noise).reshape(-1))
        assert rep.velocity["U"]["mse"] == pytest.approx(want_u, abs=1e-15)

    def test_perfect_single_sample_r2_not_applicable(self):
        rep = evaluate_predictions([0.3], [0.3], np.ones(4), np.ones(4),
                                   np.ones((2, 3)), np.ones((2, 3)))
        assert rep.drag["mse"] == 0.0
        assert rep.drag["r2"] is None
        assert rep.pressure["rel_l2_percent"] == 0.0

    def test_json_round_trip(self):
        drag, pressure, velocity = self.pooled()
        rep = evaluate_predictions(drag, drag + 0.01, pressure, pressure,
                                   velocity, velocity)
        import json
        back = json.loads(rep.to_json())
        assert back["drag"]["mse"] == rep.drag["mse"]
        assert set(back) == {"drag", "pressure", "velocity"}

    def test_table_contains_scaled_view(self):
        drag, pressure, velocity = self.pooled()
        rep = evaluate_predictions(drag, drag + 0.1, pressure, pressure + 1.0,
                                   velocity, velocity)
        table = rep.to_table()
        assert "scaled view" in table
        assert f"{rep.drag['mse'] * 1e2:10.4f}" in table
        for label in ("drag", "pressure", "vel Ux", "vel U"):
            assert label in table


class TestEvaluateModel:
    def test_runs_on_untrained_model(self):
        recs = generate_records(DatasetSpec(n_samples=3, n_surface=24,
                                            n_volume=12, seed=8))
        cfg = ModelConfig(layers=1, channels=16, slices=4, heads=2, seed=2,
                          precision="f32", geom_width=6)
        from aerosurrogate.pointcloud import compute_stats
        state = init_model(cfg, compute_stats(recs))
        rep = evaluate(state, recs)
        assert isinstance(rep, MetricReport)
        assert rep.drag["mse"] >= 0.0
        assert rep.velocity["U"]["rel_l2_percent"] > 0.0

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError):
            evaluate(None, [])
