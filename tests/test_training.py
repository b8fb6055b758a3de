import dataclasses
import math
import re

import numpy as np
import pytest

from aerosurrogate.autodiff import Tensor
from aerosurrogate.datagen import DatasetSpec, generate_records
from aerosurrogate.model import (ModelConfig, Params, forward_graph,
                                 init_model, load_checkpoint)
from aerosurrogate.physatt import Slot
from aerosurrogate.pointcloud import compute_stats, normalize
from aerosurrogate.training import (
    AdamState, DegenerateTargetError, GradCheckReport, LossWeights,
    TrainConfig, adam_step, composite_loss_t, grad_check, loss_and_grads,
    relative_l2, train, train_step, write_loss_csv)
from tests.test_pointcloud import make_record


def oracle_total_loss(pred_drag, pred_pressure, pred_velocity, truth, weights):
    """Composite loss value plus hand-derived gradients with respect to
    each prediction."""
    grads = {}
    diff_p = np.asarray(pred_pressure, dtype=np.float64) - truth.pressure
    norm_p = np.linalg.norm(truth.pressure)
    err_p = np.linalg.norm(diff_p)
    loss = weights.pressure * err_p / norm_p
    grads["pressure"] = (weights.pressure / norm_p) * (
        diff_p / err_p if err_p > 0 else np.zeros_like(diff_p))

    diff_v = np.asarray(pred_velocity, dtype=np.float64) - truth.velocity
    norm_v = np.linalg.norm(truth.velocity)
    err_v = np.linalg.norm(diff_v)
    loss += weights.velocity * err_v / norm_v
    grads["velocity"] = (weights.velocity / norm_v) * (
        diff_v / err_v if err_v > 0 else np.zeros_like(diff_v))

    d = float(pred_drag) - truth.drag
    loss += weights.drag * d * d
    grads["drag"] = weights.drag * 2.0 * d
    return loss, grads


def graph_loss(pred_drag, pred_pressure, pred_velocity, truth, weights):
    """composite_loss_t's value and its gradients with respect to the
    predictions, in the oracle's layout."""
    preds = {"drag": Tensor(np.float64(pred_drag), requires_grad=True),
             "pressure": Tensor(pred_pressure.copy(), requires_grad=True),
             "velocity": Tensor(pred_velocity.copy(), requires_grad=True)}
    loss, _ = composite_loss_t(preds["drag"], preds["pressure"],
                               preds["velocity"], truth, weights)
    loss.backward()
    return float(loss.value), {k: t.grad for k, t in preds.items()}


class TestRelativeL2:
    def test_perfect(self):
        assert relative_l2(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_zero_prediction(self):
        assert relative_l2(np.array([3.0, 4.0]), np.zeros(2)) == 1.0

    def test_orthogonal(self):
        got = relative_l2(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert got == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_matrix_frobenius(self):
        y = np.array([[1.0, 0.0], [0.0, 1.0]])
        got = relative_l2(y, np.zeros((2, 2)))
        assert got == pytest.approx(1.0)

    def test_degenerate_target(self):
        with pytest.raises(DegenerateTargetError):
            relative_l2(np.zeros(3), np.ones(3))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            relative_l2(np.zeros(3), np.zeros(4))


class TestTotalLoss:
    def test_perfect_prediction_zero(self):
        rec = make_record()
        preds = (Tensor(np.float64(rec.drag)), Tensor(rec.pressure),
                 Tensor(rec.velocity))
        loss, _ = composite_loss_t(*preds, rec, LossWeights())
        assert float(loss.value) == 0.0

    def test_drag_only(self):
        rec = make_record(drag=0.3)
        w = LossWeights(velocity=0.0, pressure=0.0, drag=1.0)
        pred_p = rec.pressure + 0.1
        pred_v = rec.velocity - 0.1
        loss, grads = graph_loss(0.4, pred_p, pred_v, rec, w)
        assert loss == pytest.approx(0.01, abs=1e-12)
        assert grads["drag"] == pytest.approx(0.2, abs=1e-12)
        want_loss, want = oracle_total_loss(0.4, pred_p, pred_v, rec, w)
        assert loss == pytest.approx(want_loss, abs=1e-12)
        np.testing.assert_array_equal(grads["pressure"], 0.0)
        np.testing.assert_array_equal(grads["velocity"], 0.0)

    def test_matches_independent_oracle(self):
        rec = make_record(seed=4)
        rng = np.random.default_rng(5)
        pred_p = rec.pressure + rng.normal(size=rec.pressure.shape) * 0.1
        pred_v = rec.velocity + rng.normal(size=rec.velocity.shape) * 0.1
        pred_d = rec.drag + 0.05
        w = LossWeights(velocity=0.7, pressure=1.3, drag=0.2)
        loss, _ = graph_loss(pred_d, pred_p, pred_v, rec, w)
        expected = (0.7 * np.linalg.norm(pred_v - rec.velocity)
                    / np.linalg.norm(rec.velocity)
                    + 1.3 * np.linalg.norm(pred_p - rec.pressure)
                    / np.linalg.norm(rec.pressure)
                    + 0.2 * (pred_d - rec.drag) ** 2)
        assert loss == pytest.approx(expected, abs=1e-12)
        assert loss == pytest.approx(
            oracle_total_loss(pred_d, pred_p, pred_v, rec, w)[0], abs=1e-12)

    def test_gradients_match_finite_differences(self):
        # the oracle's gradients against central differences of its value,
        # then the graph's gradients against the oracle's
        rec = make_record(seed=6)
        rng = np.random.default_rng(7)
        pred_p = rec.pressure + rng.normal(size=rec.pressure.shape) * 0.2
        pred_v = rec.velocity + rng.normal(size=rec.velocity.shape) * 0.2
        pred_d = rec.drag + 0.1
        w = LossWeights()
        _, want = oracle_total_loss(pred_d, pred_p, pred_v, rec, w)
        h = 1e-7

        def loss_at(d, p, v):
            return oracle_total_loss(d, p, v, rec, w)[0]

        fd_d = (loss_at(pred_d + h, pred_p, pred_v)
                - loss_at(pred_d - h, pred_p, pred_v)) / (2 * h)
        assert want["drag"] == pytest.approx(fd_d, rel=1e-6)
        for i in range(3):
            p_up = pred_p.copy()
            p_up[i] += h
            p_dn = pred_p.copy()
            p_dn[i] -= h
            fd = (loss_at(pred_d, p_up, pred_v)
                  - loss_at(pred_d, p_dn, pred_v)) / (2 * h)
            assert want["pressure"][i] == pytest.approx(fd, rel=1e-5)

        _, grads = graph_loss(pred_d, pred_p, pred_v, rec, w)
        assert float(grads["drag"]) == pytest.approx(want["drag"], abs=1e-12)
        for key in ("pressure", "velocity"):
            np.testing.assert_allclose(grads[key], want[key], atol=1e-12)

    @pytest.mark.parametrize("target", ["pressure", "velocity"])
    def test_zero_target_names_sample_and_target(self, target):
        rec = tiny_dataset(1)[0]
        zeroed = dataclasses.replace(rec, id="wing_7", **{
            target: np.zeros_like(getattr(rec, target))})
        state = init_model(tiny_model_config(precision="f64"))
        with pytest.raises(DegenerateTargetError, match=re.escape(
                f"sample 'wing_7': {target} target norm is zero; "
                "relative L2 undefined")):
            loss_and_grads(state, zeroed, LossWeights())

    def test_weights_validation(self):
        with pytest.raises(ValueError):
            LossWeights(velocity=0.0, pressure=0.0, drag=0.0)
        with pytest.raises(ValueError):
            LossWeights(velocity=-1.0)


def two_slots(w, b):
    """Params "w" (1,) and "b" (2,) over one float64 array."""
    return Params({"w": Slot((1,)), "b": Slot((2,))},
                  np.array([*w, *b], dtype=np.float64))


class TestAdam:
    def make(self):
        params = two_slots([0.0], [1.0, -1.0])
        return params, AdamState.fresh(params), TrainConfig(epochs=1)

    def test_zero_gradient_identity(self):
        params, moments, cfg = self.make()
        adam_step(params, two_slots([0.0], [0.0, 0.0]), moments, cfg)
        np.testing.assert_array_equal(params["w"], [0.0])
        np.testing.assert_array_equal(params["b"], [1.0, -1.0])

    def test_first_step_magnitude(self):
        params, moments, cfg = self.make()
        adam_step(params, two_slots([1.0], [0.0, 0.0]), moments, cfg)
        # bias-corrected first step is -lr * g/(|g| + eps') ~= -lr
        assert params["w"][0] == pytest.approx(-cfg.learning_rate, rel=1e-3)

    def test_nonfinite_gradient_named(self):
        params, moments, cfg = self.make()
        with pytest.raises(FloatingPointError, match="'b'"):
            adam_step(params, two_slots([0.0], [np.nan, 0.0]), moments, cfg)

    def test_hand_computed_second_step(self):
        params, moments, cfg = self.make()
        g = two_slots([0.5], [0.0, 0.0])
        adam_step(params, g, moments, cfg)
        adam_step(params, g, moments, cfg)
        # independent evaluation of two bias-corrected updates
        lr, b1, b2, eps = (cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.eps)
        theta, m, v = 0.0, 0.0, 0.0
        for t in (1, 2):
            m = b1 * m + (1 - b1) * 0.5
            v = b2 * v + (1 - b2) * 0.25
            theta -= lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)
        assert params["w"][0] == pytest.approx(theta, abs=1e-15)


def oracle_adam_step(params, grads, moments, config):
    """The per-tensor Adam update over dicts of arrays that the flat update
    replaced: moments is a dict with dicts "m" and "v" and a count "t"."""
    moments["t"] += 1
    t = moments["t"]
    b1, b2 = config.beta1, config.beta2
    for name, p in params.items():
        g = grads[name].astype(p.dtype, copy=False)
        m = moments["m"][name] = b1 * moments["m"][name] + (1 - b1) * g
        v = moments["v"][name] = b2 * moments["v"][name] + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        p -= (config.learning_rate * m_hat /
              (np.sqrt(v_hat) + config.eps)).astype(p.dtype, copy=False)


def desk_model(precision):
    """The desk profile (L=2, C=64, M=16, H=4) and two normalized samples."""
    raw = generate_records(DatasetSpec(n_samples=2, n_surface=512,
                                       n_volume=256, seed=4))
    stats = compute_stats(raw)
    state = init_model(ModelConfig(layers=2, channels=64, slices=16, heads=4,
                                   geom_width=6, seed=0, precision=precision),
                       stats)
    return state, [normalize(r, stats) for r in raw]


class TestFlatAdam:
    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_forty_steps_bit_equal_to_per_tensor_oracle(self, precision):
        state, records = desk_model(precision)
        config = TrainConfig(seed=1)
        oracle = {name: a.copy() for name, a in state.params.items()}
        oracle_moments = {"m": {k: np.zeros_like(a) for k, a in oracle.items()},
                          "v": {k: np.zeros_like(a) for k, a in oracle.items()},
                          "t": 0}
        moments = AdamState.fresh(state.params)
        for step in range(40):
            _, grads = loss_and_grads(state, records[step % 2], LossWeights())
            oracle_adam_step(oracle, {k: g.copy() for k, g in grads.items()},
                             oracle_moments, config)
            adam_step(state.params, grads, moments, config)
        assert moments.t == oracle_moments["t"] == 40
        m = Params(state.params.layout, moments.m)
        v = Params(state.params.layout, moments.v)
        for name, a in oracle.items():
            assert state.params[name].tobytes() == a.tobytes(), name
            assert m[name].tobytes() == oracle_moments["m"][name].tobytes(), name
            assert v[name].tobytes() == oracle_moments["v"][name].tobytes(), name

    def test_nonfinite_gradient_changes_nothing(self):
        state, records = desk_model("f32")
        config = TrainConfig(seed=1)
        moments = AdamState.fresh(state.params)
        train_step(state, records[0], LossWeights(), moments, config)
        _, grads = loss_and_grads(state, records[1], LossWeights())
        grads["head.velocity.b2"][1] = np.inf
        before = (state.params.flat.copy(), moments.m.copy(),
                  moments.v.copy(), moments.t)
        with pytest.raises(FloatingPointError, match=re.escape(
                "non-finite gradient for tensor 'head.velocity.b2'")):
            adam_step(state.params, grads, moments, config)
        for was, now in zip(before, (state.params.flat, moments.m, moments.v)):
            np.testing.assert_array_equal(now, was)
        assert moments.t == before[3] == 1


def tiny_dataset(n=1):
    return generate_records(DatasetSpec(n_samples=n, n_surface=48, n_volume=24,
                                        seed=21))


def tiny_model_config(**kw):
    d = dict(layers=1, channels=16, slices=4, heads=2, seed=1,
             precision="f32", geom_width=6)
    d.update(kw)
    return ModelConfig(**d)


class TestTrainLoop:
    def test_single_sample_overfit(self):
        # relative-L2 losses keep a constant gradient scale near the optimum,
        # so the plateau is proportional to the learning rate; a lower rate
        # with more steps converges well below the 1% bar
        res = train(tiny_dataset(1), tiny_model_config(),
                    TrainConfig(epochs=1500, seed=3, learning_rate=5e-4),
                    max_steps=1500)
        first = res.log_rows[0]["loss_total"]
        last = res.log_rows[-1]["loss_total"]
        assert last < 0.01 * first

    @pytest.mark.parametrize("max_steps", [0, -1])
    def test_max_steps_below_one_rejected(self, max_steps):
        with pytest.raises(ValueError, match="max_steps must be >= 1"):
            train(tiny_dataset(1), tiny_model_config(),
                  TrainConfig(epochs=3, seed=3), max_steps=max_steps)

    def test_zero_epochs_returns_initial_model(self):
        recs = tiny_dataset(2)
        res = train(recs, tiny_model_config(), TrainConfig(epochs=0, seed=3))
        fresh = init_model(tiny_model_config())
        # stats differ (computed from data) but parameters must be untouched
        for name in fresh.params:
            np.testing.assert_array_equal(res.state.params[name],
                                          fresh.params[name])
        assert res.log_rows == []

    def test_seeded_determinism(self):
        recs = tiny_dataset(3)
        r1 = train(recs, tiny_model_config(), TrainConfig(epochs=3, seed=9))
        r2 = train(recs, tiny_model_config(), TrainConfig(epochs=3, seed=9))
        assert [row["loss_total"] for row in r1.log_rows] == \
            [row["loss_total"] for row in r2.log_rows]
        for name in r1.state.params:
            np.testing.assert_array_equal(r1.state.params[name],
                                          r2.state.params[name])

    def test_loss_csv_format(self, tmp_path):
        recs = tiny_dataset(2)
        res = train(recs, tiny_model_config(), TrainConfig(epochs=2, seed=1),
                    out_dir=tmp_path)
        csv = (tmp_path / "loss_log.csv").read_text().splitlines()
        assert csv[0] == "epoch,step,loss_total,loss_v,loss_p,loss_cd"
        assert len(csv) == 1 + len(res.log_rows)
        assert (tmp_path / "checkpoint_final.bin").is_file()
        assert (tmp_path / "checkpoint_best.bin").is_file()

    def test_validation_loss_picks_best_checkpoint(self, tmp_path):
        recs = tiny_dataset(4)
        weights = LossWeights()
        # a high rate makes the validation loss non-monotone, so its best
        # epoch differs from the training loss's
        res = train(recs[:2], tiny_model_config(),
                    TrainConfig(epochs=8, seed=2, learning_rate=3e-2,
                                weights=weights),
                    val_records=recs[2:], out_dir=tmp_path)
        assert len(res.val_losses) == 8
        assert res.best_epoch == int(np.argmin(res.val_losses))
        assert res.best_epoch != int(np.argmin(res.epoch_losses))
        best = load_checkpoint(tmp_path / "checkpoint_best.bin")
        val = [normalize(r, best.stats) for r in recs[2:]]
        losses = [float(composite_loss_t(
            *forward_graph(best, r.surface, r.volume), r, weights)[0].value)
            for r in val]
        assert np.mean(losses) == pytest.approx(min(res.val_losses), rel=1e-12)

    def test_without_validation_training_loss_picks_best(self):
        res = train(tiny_dataset(2), tiny_model_config(),
                    TrainConfig(epochs=3, seed=2, learning_rate=3e-2))
        assert res.val_losses == []
        assert res.best_epoch == int(np.argmin(res.epoch_losses))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train([], tiny_model_config(), TrainConfig(epochs=1))

    def test_epoch_cut_by_max_steps_averages_the_steps_that_ran(self):
        res = train(tiny_dataset(4), tiny_model_config(),
                    TrainConfig(epochs=3, seed=2), max_steps=2)
        assert len(res.log_rows) == 2
        first, second = (row["loss_total"] for row in res.log_rows)
        assert res.epoch_losses == [(first + second) / 2]


class TestLossAndGrads:
    def make(self, precision):
        return init_model(tiny_model_config(precision=precision)), \
            tiny_dataset(1)[0]

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_every_parameter_in_order_and_params_untouched(self, precision):
        state, rec = self.make(precision)
        before = {k: v.copy() for k, v in state.params.items()}
        components, grads = loss_and_grads(state, rec, LossWeights())
        assert list(grads) == list(state.params)
        for name, g in grads.items():
            assert g.shape == state.params[name].shape, name
            assert g.dtype == state.params[name].dtype, name
            np.testing.assert_array_equal(state.params[name], before[name])
        loss, parts = composite_loss_t(
            *forward_graph(state, rec.surface, rec.volume), rec, LossWeights())
        assert components == {**parts, "loss_total": float(loss.value)}

    def test_train_step_steps_on_its_gradients(self):
        state, rec = self.make("f64")
        config = TrainConfig(seed=1)
        copy = init_model(state.config)
        moments, copy_moments = (AdamState.fresh(state.params),
                                 AdamState.fresh(copy.params))
        components, grads = loss_and_grads(copy, rec, LossWeights())
        adam_step(copy.params, grads, copy_moments, config)
        assert train_step(state, rec, LossWeights(), moments,
                          config) == components
        for name in state.params:
            np.testing.assert_array_equal(state.params[name],
                                          copy.params[name])


class TestGradCheck:
    def test_default_passes(self):
        report = grad_check()
        assert report.max_rel_error < 1e-5
        assert report.passed

    def test_corrupted_gradient_fails(self, monkeypatch):
        from aerosurrogate import training
        exact = training.loss_and_grads

        def corrupted(*args):
            components, grads = exact(*args)
            grads["embedding.w"][...] += 1.0
            return components, grads

        monkeypatch.setattr(training, "loss_and_grads", corrupted)
        report = grad_check()
        assert not report.passed
        assert max(report.per_tensor, key=report.per_tensor.get) == "embedding.w"

    def test_infinite_tolerance_passes(self):
        report = grad_check(tolerance=math.inf)
        assert report.passed

    @pytest.mark.parametrize("seed", [1234, 0, 1, 7, 99])
    def test_seeds_agree_to_1e_6(self, seed):
        assert grad_check(seed=seed).max_rel_error <= 1e-6

    def test_broken_backward_term_fails(self, monkeypatch):
        # the check differentiates through the block's hand-derived
        # backward, which training steps on: a 0.1% error there fails it
        from aerosurrogate import physatt
        exact = physatt._gelu_grad
        monkeypatch.setattr(physatt, "_gelu_grad",
                            lambda *a: exact(*a) * 1.001)
        report = grad_check()
        assert not report.passed
        assert max(report.per_tensor, key=report.per_tensor.get) \
            .startswith("layers.0.")
