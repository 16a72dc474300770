import dataclasses
import sys

import numpy as np
import pytest

from pathgeo import netgraph, optim
from pathgeo.errors import DegenerateNormalization, InvalidLabel, UnsupportedCombination
from pathgeo.invariance import check_function_equal, random_rescaling, rescale_feedforward
from pathgeo.netgraph import RNNSpec, build_layered, build_rnn_unrolled, forward
from pathgeo.optim import (
    OptimizerConfig,
    OptimizerState,
    ddp_norm_forward_backward,
    ddp_norm_step,
    ddp_sgd_step,
    diag_ng_step,
    fisher_diag_mc,
    loss_and_grad,
    path_sgd_step,
    sgd_step,
)
from pathgeo.pathnorm import fisher_diag_analytic

from conftest import random_theta, safe_eval_point


def loss_fd_check(kind, scores, labels, grad, h=1e-5, tol=1e-6, **kw):
    for i in range(scores.shape[0]):
        for j in range(scores.shape[1]):
            sp, sm = scores.copy(), scores.copy()
            sp[i, j] += h
            sm[i, j] -= h
            fd = (loss_and_grad(kind, sp, labels, **kw)[0] - loss_and_grad(kind, sm, labels, **kw)[0]) / (2 * h)
            assert abs(grad[i, j] - fd) <= tol * max(1.0, abs(fd))


class TestLosses:
    def test_truncated_binary_zero_at_large_margin(self):
        scores = np.array([[0.0, -20.0]])
        val, _ = loss_and_grad("truncated_cross_entropy", scores, [0])
        assert val == 0.0

    def test_truncated_close_to_softmax(self, rng):
        for _ in range(50):
            k = int(rng.integers(2, 12))
            scores = rng.normal(0, 4, size=(8, k))
            labels = rng.integers(0, k, size=8)
            ce, _ = loss_and_grad("cross_entropy", scores, labels)
            tr, _ = loss_and_grad("truncated_cross_entropy", scores, labels)
            assert abs(ce - tr) <= 0.000003 * k

    def test_margin_gamma0_is_error_indicator(self, rng):
        scores = rng.normal(size=(40, 5))
        labels = rng.integers(0, 5, size=40)
        val, grad = loss_and_grad("margin", scores, labels)
        err = np.mean(scores.argmax(axis=1) != labels)
        assert val == pytest.approx(err)
        assert np.all(grad == 0.0)

    def test_squared_loss_value(self):
        scores = np.array([[1.0, 2.0]])
        targets = np.array([[0.0, 0.0]])
        val, grad = loss_and_grad("squared", scores, targets)
        assert val == pytest.approx(2.5)
        np.testing.assert_allclose(grad, [[1.0, 2.0]])

    @pytest.mark.parametrize("kind", ["cross_entropy", "truncated_cross_entropy", "squared"])
    def test_gradients_match_finite_differences(self, rng, kind):
        scores = rng.normal(0, 2, size=(6, 4))
        if kind == "squared":
            labels = rng.normal(size=(6, 4))
        else:
            labels = rng.integers(0, 4, size=6)
        # keep clear of the truncation knot
        if kind == "truncated_cross_entropy":
            scores = np.clip(scores, -5.0, 5.0)
        _, grad = loss_and_grad(kind, scores, labels)
        loss_fd_check(kind, scores, labels, grad)

    def test_margin_gradient_is_zero_like_fd(self, rng):
        scores = rng.normal(0, 2, size=(5, 3))
        labels = rng.integers(0, 3, size=5)
        _, grad = loss_and_grad("margin", scores, labels, margin_gamma=0.0)
        loss_fd_check("margin", scores, labels, grad)

    def test_nonnegative(self, rng):
        for kind in ("cross_entropy", "truncated_cross_entropy"):
            scores = rng.normal(0, 3, size=(30, 6))
            labels = rng.integers(0, 6, size=30)
            val, _ = loss_and_grad(kind, scores, labels)
            assert val >= 0.0

    def test_label_out_of_range(self):
        with pytest.raises(InvalidLabel):
            loss_and_grad("cross_entropy", np.zeros((1, 3)), [3])


class TestSgd:
    def test_zero_gradient_is_identity(self):
        net = build_layered([1, 1, 1])
        theta = np.array([1.0, 1.0])
        cfg = OptimizerConfig(method="sgd", lr=0.5, loss="squared")
        # target equals prediction -> zero gradient
        out = sgd_step(net, theta, np.array([[1.0]]), np.array([[1.0]]), cfg)
        np.testing.assert_array_equal(out, theta)

    def test_chain_hand_step(self):
        net = build_layered([1, 1, 1])
        a, b, x, y, lr = 2.0, 3.0, 1.0, 1.0, 0.1
        theta = np.array([a, b])
        cfg = OptimizerConfig(method="sgd", lr=lr, loss="squared")
        out = sgd_step(net, theta, np.array([[x]]), np.array([[y]]), cfg)
        delta = a * b * x - y
        np.testing.assert_allclose(out, [a - lr * delta * b * x, b - lr * delta * a * x], rtol=1e-12)

    def test_momentum_accumulates_preconditioned_step(self):
        net = build_layered([1, 1, 1])
        theta = np.array([2.0, 1.0])
        cfg = OptimizerConfig(method="path_sgd", lr=0.1, momentum=0.9, loss="squared")
        state = OptimizerState()
        t1 = path_sgd_step(net, theta, np.array([[1.0]]), np.array([[0.0]]), cfg, state)
        assert state.velocity is not None
        t2 = path_sgd_step(net, t1, np.array([[1.0]]), np.array([[0.0]]), cfg, state)
        assert not np.allclose(t2 - t1, t1 - theta)  # velocity carried over


def footprint(obj) -> int:
    """Bytes held by obj and, recursively, by the lists, tuples, dataclasses and arrays in it."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if dataclasses.is_dataclass(obj):
        return sys.getsizeof(obj) + sum(footprint(v) for v in vars(obj).values())
    if isinstance(obj, (list, tuple)):
        return sys.getsizeof(obj) + sum(footprint(v) for v in obj)
    return sys.getsizeof(obj)


def test_step_state_does_not_grow_with_steps(rng):
    net = build_layered([3, 4, 2])
    cfg = OptimizerConfig(method="path_sgd", lr=0.01, momentum=0.5, loss="squared")
    theta = random_theta(net, rng)
    X, y = rng.normal(size=(8, 3)), rng.normal(size=(8, 2))
    state = OptimizerState()
    sizes = {}
    for step in range(1, 1001):
        theta = path_sgd_step(net, theta, X, y, cfg, state)
        if step in (10, 1000):
            sizes[step] = footprint(state)
    assert sizes[1000] == sizes[10]
    assert state.last.step == 1000 and state.kappa_min <= state.kappa_max


class TestPathSgd:
    def test_chain_kappa_preconditioning(self):
        # chain (a, b) = (2, 1): kappa = (b^2, a^2) = (1, 4)
        net = build_layered([1, 1, 1])
        theta = np.array([2.0, 1.0])
        x, y, lr = 1.0, 0.0, 0.1
        cfg = OptimizerConfig(method="path_sgd", lr=lr, loss="squared")
        out = path_sgd_step(net, theta, np.array([[x]]), np.array([[y]]), cfg)
        delta = 2.0 * 1.0 - y
        g = np.array([delta * 1.0, delta * 2.0])
        np.testing.assert_allclose(out, theta - lr * g / np.array([1.0, 4.0]), rtol=1e-12)

    def test_invariance_over_50_steps(self, rng):
        net = build_layered([2, 4, 3])
        theta = rng.normal(0, 0.8, size=net.n_param)
        beta = random_rescaling(net, rng, sigma_log=0.7)
        theta_r = rescale_feedforward(net, theta, beta)
        cfg = OptimizerConfig(method="path_sgd", lr=0.05, loss="cross_entropy")
        batches = [(rng.normal(size=(8, 2)), rng.integers(0, 3, size=8)) for _ in range(50)]
        t1, t2 = theta.copy(), theta_r.copy()
        for X, y in batches:
            t1 = path_sgd_step(net, t1, X, y, cfg)
            t2 = path_sgd_step(net, t2, X, y, cfg)
        probes = rng.normal(size=(64, 2))
        f1 = forward(net, t1, probes).outputs()
        f2 = forward(net, t2, probes).outputs()
        assert np.max(np.abs(f1 - f2)) <= 1e-6

    def test_sgd_witness_breaks_invariance(self):
        net, theta, beta, X, y, probes = sgd_witness()
        theta_r = rescale_feedforward(net, theta, beta)
        cfg = OptimizerConfig(method="sgd", lr=1.0, loss="squared")
        t1 = sgd_step(net, theta, X, y, cfg)
        t2 = sgd_step(net, theta_r, X, y, cfg)
        f1 = forward(net, t1, probes).outputs()
        f2 = forward(net, t2, probes).outputs()
        assert np.max(np.abs(f1 - f2)) >= 1e-2

    def test_rnn_kappa2_toggle_changes_little(self, rng):
        spec = RNNSpec(n_in=2, hidden=(4,), n_out=2, T=5)
        net = build_rnn_unrolled(spec)
        theta = rng.normal(0, 0.3, size=spec.n_param)
        X = rng.normal(size=(16, spec.T * spec.n_in))
        y = rng.integers(0, 2, size=16)
        for use_k2 in (False, True):
            cfg = OptimizerConfig(method="path_sgd", lr=0.01, loss="cross_entropy", use_kappa2=use_k2)
            t = theta.copy()
            losses = []
            for _ in range(10):
                state = OptimizerState()
                t = path_sgd_step(net, t, X, y, cfg, state)
                losses.append(state.last.loss)
            if use_k2:
                with_k2 = losses
            else:
                without_k2 = losses
        # same qualitative trajectory
        assert abs(with_k2[-1] - without_k2[-1]) <= 0.25 * abs(without_k2[-1])


def sgd_witness():
    """Unbalanced chain where one plain gradient step moves the function far."""
    net = build_layered([1, 1, 1])
    theta = np.array([10.0, 0.1])
    beta = np.ones(3)
    beta[net.internal_nodes[0]] = 0.1
    X = np.array([[1.0]])
    y = np.array([[0.0]])
    probes = np.array([[1.0], [2.0], [-1.0]])
    return net, theta, beta, X, y, probes


class TestDdpSgd:
    def test_alpha0_bitwise_path_sgd(self, rng):
        net = build_layered([2, 3, 2])
        theta = random_theta(net, rng)
        X = rng.normal(size=(6, 2))
        y = rng.integers(0, 2, size=6)
        cfg_d = OptimizerConfig(method="ddp_sgd", lr=0.2, alpha=0.0, loss="cross_entropy")
        cfg_p = OptimizerConfig(method="path_sgd", lr=0.2, loss="cross_entropy", use_kappa2=False)
        out_d = ddp_sgd_step(net, theta, X, y, cfg_d)
        out_p = path_sgd_step(net, theta, X, y, cfg_p)
        assert np.array_equal(out_d, out_p)

    def test_alpha1_second_moment_equals_diag_ng(self, rng):
        net = build_layered([2, 3, 2])
        theta = random_theta(net, rng)
        X = rng.normal(size=(6, 2))
        y = rng.integers(0, 2, size=6)
        cfg_d = OptimizerConfig(method="ddp_sgd", lr=0.2, alpha=1.0, stat="second_moment", loss="cross_entropy")
        cfg_n = OptimizerConfig(method="diag_ng", lr=0.2, loss="cross_entropy")
        out_d = ddp_sgd_step(net, theta, X, y, cfg_d)
        out_n = diag_ng_step(net, theta, X, y, cfg_n)
        np.testing.assert_allclose(out_d, out_n, rtol=1e-10, atol=1e-12)

    def test_zero_gradient_identity(self, rng):
        net = build_layered([1, 1, 1])
        theta = np.array([1.0, 1.0])
        cfg = OptimizerConfig(method="ddp_sgd", lr=0.3, alpha=0.5, loss="squared")
        out = ddp_sgd_step(net, theta, np.array([[1.0]]), np.array([[1.0]]), cfg)
        np.testing.assert_array_equal(out, theta)

    def test_shared_net_rejected(self, rng):
        spec = RNNSpec(n_in=1, hidden=(2,), n_out=1, T=2)
        net = build_rnn_unrolled(spec)
        theta = rng.normal(size=net.n_param)
        cfg = OptimizerConfig(method="ddp_sgd", lr=0.1, alpha=0.5, loss="squared")
        with pytest.raises(UnsupportedCombination):
            ddp_sgd_step(net, theta, np.ones((2, 2)), np.ones((2, 1)), cfg)


class TestDiagNg:
    def test_single_linear_unit(self):
        # f = w x; Fisher diagonal is E[x^2]
        net = build_layered([1, 1])
        theta = np.array([2.0])
        X = np.array([[1.0], [3.0]])
        y = np.array([[0.0], [0.0]])
        cfg = OptimizerConfig(method="diag_ng", lr=0.1, loss="squared")
        out = diag_ng_step(net, theta, X, y, cfg)
        f_diag = np.mean(X[:, 0] ** 2)
        grad = np.mean((theta[0] * X[:, 0] - 0.0) * X[:, 0])
        assert out[0] == pytest.approx(theta[0] - 0.1 * grad / f_diag, rel=1e-12)

    def test_mc_oracle_converges(self, rng):
        net = build_layered([1, 1])
        theta = np.array([1.5])
        X = np.array([[1.0]])
        est = fisher_diag_mc(net, theta, X, n_samples=40000, seed=5)
        assert est[0] == pytest.approx(1.0, rel=0.05)

    def test_mc_deterministic(self, rng):
        net = build_layered([2, 2, 1])
        theta = random_theta(net, rng)
        X = rng.normal(size=(4, 2))
        a = fisher_diag_mc(net, theta, X, n_samples=500, seed=9)
        b = fisher_diag_mc(net, theta, X, n_samples=500, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_mc_against_analytic_small_mlp(self, rng):
        net = build_layered([2, 3, 2])
        theta, X = safe_eval_point(net, rng, n_inputs=4)
        exact = fisher_diag_analytic(net, theta, X)
        est = fisher_diag_mc(net, theta, X, n_samples=200000, seed=3)
        np.testing.assert_allclose(est, exact, rtol=0.03)

    @pytest.mark.parametrize("kind", ["layered", "layered_bias", "dag0", "dag1", "dag2", "rnn_t1"])
    def test_analytic_equals_squared_one_example_gradients(self, kind):
        """Fisher = sum over outputs and examples of squared one-example `backward` gradients, over B."""
        rng = np.random.default_rng(31)
        if kind.startswith("dag"):
            for _ in range(int(kind[3:]) + 1):
                net = netgraph.build_random_dag(rng)
        elif kind == "rnn_t1":  # one time step: no parameter is shared
            net = build_rnn_unrolled(RNNSpec(n_in=2, hidden=(3,), n_out=2, T=1))
        else:
            net = build_layered([4, 5, 3], bias=kind == "layered_bias")
        theta = random_theta(net, rng)
        X = rng.normal(size=(7, len(net.input_nodes)))
        n_out = len(net.output_nodes)
        expected = np.zeros(net.n_param)
        for x in X:
            trace = forward(net, theta, x)
            for o in range(n_out):
                expected += netgraph.backward(net, theta, trace, np.eye(n_out)[o]) ** 2
        np.testing.assert_allclose(fisher_diag_analytic(net, theta, X), expected / len(X), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("strip_spec", [False, True])
    def test_fisher_rejects_shared_weights(self, strip_spec):
        """Per-edge squares are not per-example squares of a shared parameter's gradient."""
        net = build_rnn_unrolled(RNNSpec(n_in=1, hidden=(2,), n_out=1, T=3))
        if strip_spec:  # the same DAG without its RNN spec takes the DAG backend
            net = netgraph.NetworkGraph(node_kind=net.node_kind, edges=net.edges, n_param=net.n_param, allow_unused_params=True)
        rng = np.random.default_rng(5)
        theta = random_theta(net, rng)
        X = rng.normal(size=(5, 3))
        with pytest.raises(UnsupportedCombination):
            fisher_diag_mc(net, theta, X, n_samples=100, seed=0)
        with pytest.raises(UnsupportedCombination):
            fisher_diag_analytic(net, theta, X)
        with pytest.raises(UnsupportedCombination):
            netgraph.per_example_sq_grad(net, theta, forward(net, theta, X), np.ones((5, 1)))


class TestDdpNorm:
    def test_orthogonality_at_internal_nodes(self, rng):
        net = build_layered([3, 4, 2], bias=True)
        w_t = random_theta(net, rng)
        X = rng.normal(size=(12, 3))
        y = rng.integers(0, 2, size=12)
        for stat in ("variance", "second_moment"):
            _, _, grads, _, _ = ddp_norm_forward_backward(net, w_t, X, y, alpha=0.7, stat=stat)
            for v in net.internal_nodes:
                wv = w_t[net.in_edges[v][2]]
                gv = grads[int(v)]
                denom = np.linalg.norm(wv) * np.linalg.norm(gv)
                if denom > 0:
                    assert abs(wv @ gv) / denom <= 1e-8

    def test_scaling_w_tilde_leaves_forward_unchanged(self, rng):
        net = build_layered([2, 3, 1])
        w_t = random_theta(net, rng)
        X = rng.normal(size=(8, 2))
        y = rng.integers(0, 1, size=8)
        _, _, _, h1, _ = ddp_norm_forward_backward(net, w_t, X, y, alpha=1.0, stat="variance")
        w_scaled = w_t.copy()
        v = net.internal_nodes[1]
        w_scaled[net.in_edges[v][2]] *= 3.7
        _, _, _, h2, _ = ddp_norm_forward_backward(net, w_scaled, X, y, alpha=1.0, stat="variance")
        np.testing.assert_allclose(h2, h1, rtol=1e-12, atol=1e-12)

    def test_matches_hand_batchnorm_single_unit(self):
        # one hidden unit, alpha=1, variance: z = z_tilde / std(z_tilde)
        net = build_layered([1, 1, 1])
        w1, w2 = 2.0, -1.5
        w_t = np.array([w1, w2])
        X = np.array([[1.0], [2.0], [4.0]])
        y = np.array([[0.0], [0.0], [0.0]])
        _, _, _, h, _ = ddp_norm_forward_backward(net, w_t, X, y, alpha=1.0, stat="variance", loss="squared")
        z_t = w1 * X[:, 0]
        z_bn = z_t / z_t.std()
        hidden = net.internal_nodes[0]
        np.testing.assert_allclose(h[hidden], np.maximum(z_bn, 0.0), rtol=1e-12)
        out = net.output_nodes[0]
        np.testing.assert_allclose(h[out], w2 * np.maximum(z_bn, 0.0), rtol=1e-12)

    def test_orthogonality_along_100_step_run(self, rng):
        net = build_layered([2, 3, 2])
        w_t = random_theta(net, rng)
        cfg = OptimizerConfig(method="ddp_norm", lr=0.05, alpha=1.0, stat="second_moment", loss="cross_entropy")
        X_all = rng.normal(size=(64, 2))
        y_all = (X_all[:, 0] > 0).astype(int)
        worst = 0.0
        for step in range(100):
            idx = rng.integers(0, 64, size=16)
            _, _, grads, _, _ = ddp_norm_forward_backward(net, w_t, X_all[idx], y_all[idx], cfg.alpha, cfg.stat, cfg.loss)
            for v in net.internal_nodes:
                wv = w_t[net.in_edges[v][2]]
                gv = grads[int(v)]
                denom = np.linalg.norm(wv) * np.linalg.norm(gv)
                if denom > 0:
                    worst = max(worst, abs(wv @ gv) / denom)
            w_t = ddp_norm_step(net, w_t, X_all[idx], y_all[idx], cfg)
        assert worst <= 1e-8

    def test_degenerate_gamma_raises(self):
        net = build_layered([1, 1, 1])
        w_t = np.array([0.0, 1.0])
        with pytest.raises(DegenerateNormalization):
            ddp_norm_forward_backward(net, w_t, np.array([[1.0], [2.0]]), np.array([[0.0], [0.0]]), alpha=1.0, stat="variance", loss="squared")

    @pytest.mark.parametrize("alpha", [-0.2, 1.5])
    def test_alpha_outside_unit_interval_raises(self, alpha):
        """Like ddp_gamma and ddp_kappa; on these weights both alphas would otherwise return a loss."""
        rng = np.random.default_rng(1)
        net = build_layered([2, 3, 2])
        w_t, X = random_theta(net, rng), 3.0 * rng.normal(size=(4, 2))
        with pytest.raises(UnsupportedCombination):
            ddp_norm_forward_backward(net, w_t, X, np.array([0, 1, 0, 1]), alpha=alpha)

    def test_variance_needs_two_examples(self):
        from pathgeo.errors import InsufficientData

        net = build_layered([1, 1, 1])
        with pytest.raises(InsufficientData):
            ddp_norm_forward_backward(net, np.ones(2), np.array([[1.0]]), np.array([[0.0]]), alpha=1.0, stat="variance", loss="squared")


class TestEndToEndGradients:
    @pytest.mark.parametrize("loss", ["cross_entropy", "truncated_cross_entropy", "squared", "margin"])
    def test_theta_gradient_matches_fd(self, rng, loss):
        from pathgeo.optim import batch_loss_grad

        hits = 0
        for _ in range(12):
            net = netgraph.build_random_dag(rng, depth_max=4, width_max=4)
            n_out = len(net.output_nodes)
            theta, X = safe_eval_point(net, rng, n_inputs=3)
            if loss == "squared":
                labels = rng.normal(size=(3, n_out))
            else:
                labels = rng.integers(0, n_out, size=3)
            cfg = OptimizerConfig(method="sgd", lr=0.1, loss=loss)
            val, grad, _ = batch_loss_grad(net, theta, X, labels, cfg)
            h = 1e-5
            ok = True
            for i in rng.choice(net.n_param, size=min(5, net.n_param), replace=False):
                tp, tm = theta.copy(), theta.copy()
                tp[i] += h
                tm[i] -= h
                vp, _, _ = batch_loss_grad(net, tp, X, labels, cfg)
                vm, _, _ = batch_loss_grad(net, tm, X, labels, cfg)
                fd = (vp - vm) / (2 * h)
                if abs(grad[i] - fd) > 1e-6 * max(1.0, abs(fd)):
                    ok = False
            hits += ok
        assert hits >= 11
