import tracemalloc

import numpy as np
import pytest

from pathgeo.data import gen_addition, gen_cluster_images
from pathgeo.netgraph import build_layered
from pathgeo.optim import OptimizerConfig
from pathgeo.protocols import addition_init, addition_net
from pathgeo.train import Checkpoint, TrainConfig, evaluate, init_params, substream, train


def small_setup():
    ds = gen_cluster_images(m=60, seed=3, side=4, n_classes=3, noise=0.15)
    net = build_layered([16, 8, 3], bias=True)
    cfg = TrainConfig(
        optimizer=OptimizerConfig(method="path_sgd", lr=0.1, loss="truncated_cross_entropy", seed=1),
        epochs=6, batch_size=20, seed=1,
        lr_decay=0.99, momentum_start=0.5, momentum_max=0.9, momentum_step=0.02,
    )
    return net, ds, cfg


class TestInit:
    def test_balanced_std(self):
        net = build_layered([50, 40, 10])
        theta = init_params(net, 0)
        W1 = theta[net.layer_param_slices()[0]].reshape(40, 50)
        assert W1.std() == pytest.approx(1.0 / np.sqrt(50), rel=0.1)

    def test_bias_weights_zero(self):
        net = build_layered([5, 4, 3], bias=True)
        theta = init_params(net, 0)
        W1 = theta[net.layer_param_slices()[0]].reshape(4, 6)
        assert np.all(W1[:, -1] == 0.0)

    def test_deterministic(self):
        net = build_layered([5, 4, 3])
        np.testing.assert_array_equal(init_params(net, 7), init_params(net, 7))

    def test_substreams_differ(self):
        a = substream(0, "data").integers(2**31)
        b = substream(0, "init").integers(2**31)
        assert a != b


class TestTrainLoop:
    def test_history_shape_and_determinism(self):
        net, ds, cfg = small_setup()
        t1, h1, _ = train(net, ds, cfg)
        t2, h2, _ = train(net, ds, cfg)
        np.testing.assert_array_equal(t1, t2)
        assert len(h1) == 6
        assert [r["epoch"] for r in h1] == list(range(6))
        assert h1[-1]["train_loss"] == h2[-1]["train_loss"]

    def test_loss_decreases(self):
        net, ds, cfg = small_setup()
        _, hist, _ = train(net, ds, cfg)
        assert hist[-1]["train_loss"] < hist[0]["train_loss"]

    def test_resume_bitwise(self):
        net, ds, cfg = small_setup()
        theta_full, hist_full, _ = train(net, ds, cfg)
        cfg_half = TrainConfig(optimizer=cfg.optimizer, epochs=3, batch_size=cfg.batch_size, seed=cfg.seed,
                               lr_decay=cfg.lr_decay, momentum_start=cfg.momentum_start,
                               momentum_max=cfg.momentum_max, momentum_step=cfg.momentum_step)
        _, hist_half, ckpt = train(net, ds, cfg_half)
        theta_res, hist_res, _ = train(net, ds, cfg, start=ckpt)
        np.testing.assert_array_equal(theta_res, theta_full)
        assert [r["train_loss"] for r in hist_half + hist_res] == [r["train_loss"] for r in hist_full]

    def test_evaluate_classification_and_regression(self):
        net, ds, _ = small_setup()
        theta = init_params(net, 0)
        loss, err = evaluate(net, theta, ds, "truncated_cross_entropy")
        assert 0.0 <= err <= 1.0 and loss >= 0.0


def test_evaluate_memory_is_bounded_by_the_chunk():
    # AC-13 net and training-set size: the full (V, B) trace alone would be 2 x 1701 x 20000 x 8 bytes (544 MB)
    net = addition_net(50, 32)
    theta = addition_init(net.rnn, 0)
    dataset = gen_addition(50, 20000, 0)
    tracemalloc.start()
    try:
        loss, err = evaluate(net, theta, dataset, "squared")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(loss) and np.isfinite(err)
    assert peak < 64 * 2**20
