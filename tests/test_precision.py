"""The configured precision is the compute precision: with precision "f32"
every activation, the loss, every gradient, the Adam moments and the
checkpoint tensors are float32, and with "f64" they are float64."""

import numpy as np
import pytest

from aerosurrogate.autodiff import Tensor
from aerosurrogate.datagen import DatasetSpec, generate_records
from aerosurrogate.model import (ModelConfig, forward_graph, init_model,
                                 load_checkpoint, save_checkpoint)
from aerosurrogate.pointcloud import compute_stats, normalize
from aerosurrogate.training import (AdamState, LossWeights, TrainConfig,
                                    _loss_graph, loss_and_grads, train_step)

PRECISIONS = [("f32", np.float32), ("f64", np.float64)]


@pytest.fixture(scope="module")
def records():
    raw = generate_records(DatasetSpec(n_samples=2, n_surface=48, n_volume=24,
                                       seed=3))
    stats = compute_stats(raw)
    return stats, [normalize(r, stats) for r in raw]


def make_state(precision, stats):
    return init_model(ModelConfig(layers=2, channels=16, slices=4, heads=2,
                                  geom_width=6, seed=2, precision=precision),
                      stats)


@pytest.mark.parametrize("precision,dtype", PRECISIONS)
def test_outputs_loss_and_every_gradient(records, precision, dtype):
    stats, normed = records
    state = make_state(precision, stats)
    rec = normed[0]
    tracked = {name: Tensor(arr, requires_grad=True)
               for name, arr in state.params.items()}
    for params_t in (None, tracked):
        outs = forward_graph(state, rec.surface, rec.volume, params_t)
        assert [o.value.dtype for o in outs] == [dtype] * 3
        loss, _ = _loss_graph(state, rec, LossWeights(), params_t)
        assert loss.value.dtype == dtype
    # the loss reaches every parameter
    loss.backward()
    for name, t in tracked.items():
        assert t.grad is not None, name
    _, grads = loss_and_grads(state, rec, LossWeights())
    assert list(grads) == list(state.params) and len(grads) == 52
    for name, g in grads.items():
        assert g.dtype == dtype, name


@pytest.mark.parametrize("precision,dtype", PRECISIONS)
def test_adam_moments_and_checkpoint_keep_dtype(records, precision, dtype,
                                                tmp_path):
    stats, normed = records
    state = make_state(precision, stats)
    moments = AdamState.fresh(state.params)
    for rec in normed:
        train_step(state, rec, LossWeights(), moments, TrainConfig())
    for name in state.params:
        assert state.params[name].dtype == dtype, name
    assert moments.m.dtype == dtype
    assert moments.v.dtype == dtype
    save_checkpoint(state, tmp_path / "c.bin")
    loaded = load_checkpoint(tmp_path / "c.bin")
    assert list(loaded.params) == list(state.params)
    for name, arr in loaded.params.items():
        assert arr.dtype == dtype, name
        np.testing.assert_array_equal(arr, state.params[name])
