import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathgeo import netgraph
from pathgeo.errors import (
    ContractViolation,
    FormatError,
    InvalidArchitecture,
    NumericInputError,
    TooManyPaths,
)
from pathgeo.netgraph import (
    RNNSpec,
    backward,
    build_layered,
    build_random_dag,
    build_rnn_unrolled,
    count_paths,
    enumerate_paths,
    forward,
    load_params,
    net_from_json,
    net_to_json,
    path_sum_outputs,
    predict,
    rnn_forward,
    save_params,
)

from conftest import random_theta, safe_eval_point


class TestBuildLayered:
    def test_smallest_net(self):
        net = build_layered([1, 1])
        assert net.n_param == 1
        assert count_paths(net) == 1

    def test_2221_counts(self):
        net = build_layered([2, 2, 2, 1])
        assert net.n_param == 10
        assert count_paths(net) == 8

    def test_342_product_counting(self):
        net = build_layered([3, 4, 2])
        assert net.n_param == 3 * 4 + 4 * 2
        assert count_paths(net) == 3 * 4 * 2

    def test_bias_nodes_join_paths(self):
        net = build_layered([2, 2, 1], bias=True)
        # paths: 2*2*1 from inputs, bias0 -> hidden -> out adds 2, bias1 -> out adds 1
        assert net.n_param == (2 + 1) * 2 + (2 + 1) * 1
        assert count_paths(net) == 4 + 2 + 1

    @pytest.mark.parametrize("dims", [[], [3], [0, 2], [2, 0]])
    def test_invalid_dims(self, dims):
        with pytest.raises(InvalidArchitecture):
            build_layered(dims)


class TestForward:
    def test_chain_product(self):
        net = build_layered([1, 1, 1])
        out = forward(net, np.array([2.0, 3.0]), np.array([[1.0]])).outputs()
        assert out[0, 0] == 6.0

    def test_relu_kill(self):
        net = build_layered([1, 1, 1])
        trace = forward(net, np.array([-1.0, 5.0]), np.array([[1.0]]))
        hidden = net.internal_nodes[0]
        assert trace.h[hidden, 0] == 0.0
        assert trace.outputs()[0, 0] == 0.0

    def test_rejects_nonfinite(self):
        net = build_layered([1, 1])
        with pytest.raises(NumericInputError):
            forward(net, np.array([np.nan]), np.array([[1.0]]))
        with pytest.raises(NumericInputError):
            forward(net, np.array([1.0]), np.array([[np.inf]]))

    def test_deterministic_bit_identical(self, rng):
        net = build_random_dag(rng)
        theta = random_theta(net, rng)
        X = rng.normal(size=(5, len(net.input_nodes)))
        a = forward(net, theta, X)
        b = forward(net, theta, X)
        assert np.array_equal(a.z, b.z) and np.array_equal(a.h, b.h)

    def test_layered_fast_path_matches_generic(self, rng):
        for bias in (False, True):
            net = build_layered([3, 4, 3, 2], bias=bias)
            stripped = netgraph.NetworkGraph(
                node_kind=net.node_kind.copy(),
                edges=net.edges.copy(),
                n_param=net.n_param,
            )
            theta = random_theta(net, rng)
            X = rng.normal(size=(7, 3))
            fast = forward(net, theta, X)
            slow = forward(stripped, theta, X)
            np.testing.assert_allclose(fast.h, slow.h, rtol=1e-12, atol=1e-14)

    def test_path_sum_identity(self, rng):
        net = build_layered([2, 2, 1])
        theta = random_theta(net, rng)
        X = rng.normal(size=(6, 2))
        trace = forward(net, theta, X)
        paths = enumerate_paths(net)
        recon = path_sum_outputs(net, theta, trace, paths)
        np.testing.assert_allclose(recon, trace.outputs(), rtol=1e-10, atol=1e-12)

    def test_path_sum_identity_random_dags(self, rng):
        for _ in range(25):
            net = build_random_dag(rng, depth_max=4, width_max=4)
            if count_paths(net) > 10**4:
                continue
            theta = random_theta(net, rng)
            X = rng.normal(size=(3, len(net.input_nodes)))
            trace = forward(net, theta, X)
            recon = path_sum_outputs(net, theta, trace, enumerate_paths(net))
            scale = max(1.0, np.abs(trace.outputs()).max())
            assert np.abs(recon - trace.outputs()).max() <= 1e-10 * scale

    def test_path_sum_identity_with_bias(self, rng):
        net = build_layered([2, 3, 2], bias=True)
        theta = random_theta(net, rng)
        X = rng.normal(size=(4, 2))
        trace = forward(net, theta, X)
        recon = path_sum_outputs(net, theta, trace, enumerate_paths(net))
        np.testing.assert_allclose(recon, trace.outputs(), rtol=1e-10, atol=1e-12)


def predict_cases(rng):
    """(name, net, theta) on every backend: layered with and without bias, a random DAG, an RNN."""
    spec = RNNSpec(n_in=2, hidden=(3, 2), n_out=2, T=4, output_times=(2, 4))
    nets = {
        "layered": build_layered([3, 4, 3, 2]),
        "layered_bias": build_layered([3, 4, 3, 2], bias=True),
        "dag": build_random_dag(rng),
        "rnn": build_rnn_unrolled(spec),
    }
    return [(name, net, random_theta(net, rng)) for name, net in nets.items()]


class TestPredict:
    @pytest.mark.parametrize("batch", [1, netgraph.PREDICT_CHUNK, 2 * netgraph.PREDICT_CHUNK + 7])
    def test_equals_forward_outputs(self, rng, batch):
        for name, net, theta in predict_cases(rng):
            X = rng.normal(size=(batch, len(net.input_nodes)))
            assert np.array_equal(predict(net, theta, X), forward(net, theta, X).outputs()), name

    def test_outputs_are_output_major(self, rng):
        # losses reduce over the outputs; one layout on every backend keeps their summation order
        for name, net, theta in predict_cases(rng):
            X = rng.normal(size=(5, len(net.input_nodes)))
            for out in (predict(net, theta, X), forward(net, theta, X).outputs()):
                assert out.flags.f_contiguous and not out.flags.c_contiguous, name

    def test_same_errors_as_forward(self, rng):
        for name, net, theta in predict_cases(rng):
            X = rng.normal(size=(3, len(net.input_nodes)))
            bad_x = np.where(np.arange(X.size).reshape(X.shape) == 4, np.nan, X)
            cases = [
                (ContractViolation, theta[:-1], X),
                (ContractViolation, theta, X[:, :-1]),
                (NumericInputError, np.where(np.arange(theta.size) == 0, np.inf, theta), X),
                (NumericInputError, theta, bad_x),
            ]
            for error, t, x in cases:
                for fn in (forward, predict):
                    with pytest.raises(error):
                        fn(net, t, x)


class TestBackward:
    def test_chain_hand_gradient(self):
        # f = relu(a x) * b, squared loss 0.5 (f - y)^2, a > 0
        net = build_layered([1, 1, 1])
        a, b, x, y = 1.5, -2.0, 1.0, 0.5
        theta = np.array([a, b])
        trace = forward(net, theta, np.array([[x]]))
        f = a * b * x
        grad = backward(net, theta, trace, np.array([[f - y]]))
        np.testing.assert_allclose(grad, [(f - y) * b * x, (f - y) * a * x], rtol=1e-12)

    def test_matches_finite_differences(self, rng):
        for _ in range(20):
            net = build_random_dag(rng, depth_max=4, width_max=4)
            theta, X = safe_eval_point(net, rng, n_inputs=2)
            trace = forward(net, theta, X)
            d_out = rng.normal(size=(2, len(net.output_nodes)))
            grad = backward(net, theta, trace, d_out)
            h = 1e-5
            for i in rng.choice(net.n_param, size=min(6, net.n_param), replace=False):
                tp, tm = theta.copy(), theta.copy()
                tp[i] += h
                tm[i] -= h
                fp = float(np.sum(forward(net, tp, X).outputs() * d_out))
                fm = float(np.sum(forward(net, tm, X).outputs() * d_out))
                fd = (fp - fm) / (2 * h)
                assert abs(grad[i] - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_trace_contract(self, rng):
        net = build_layered([2, 2, 1])
        theta = random_theta(net, rng)
        trace = forward(net, theta, rng.normal(size=(3, 2)))
        with pytest.raises(ContractViolation):
            backward(net, theta + 1.0, trace, np.zeros((3, 1)))

    def test_layered_fast_path_matches_generic(self, rng):
        net = build_layered([3, 4, 2], bias=True)
        stripped = netgraph.NetworkGraph(
            node_kind=net.node_kind.copy(), edges=net.edges.copy(), n_param=net.n_param
        )
        theta = random_theta(net, rng)
        X = rng.normal(size=(5, 3))
        d_out = rng.normal(size=(5, 2))
        g_fast = backward(net, theta, forward(net, theta, X), d_out)
        g_slow = backward(stripped, theta, forward(stripped, theta, X), d_out)
        np.testing.assert_allclose(g_fast, g_slow, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("bias", [False, True])
    def test_layered_backward_reads_the_per_layer_trace(self, rng, bias):
        # forward and backward keep per-layer arrays; z and h are placed by node id only on first read
        net = build_layered([4, 5, 3], bias=bias)
        theta = random_theta(net, rng)
        X = rng.normal(size=(6, 4))
        trace = forward(net, theta, X)
        backward(net, theta, trace, rng.normal(size=(6, 3)))
        netgraph.per_example_sq_grad(net, theta, trace, rng.normal(size=(6, 3)))
        assert "_node_arrays" not in trace.__dict__

        layers = net.layer_nodes()
        z, h = np.zeros((net.n_nodes, 6)), np.zeros((net.n_nodes, 6))
        h[layers[0][:4]] = X.T
        if bias:
            h[[ids[-1] for ids in layers[:-1]]] = 1.0
        for k, W in enumerate(netgraph.layer_views(net, theta), start=1):
            ids = layers[k][: net.dims[k]]
            z[ids] = W @ h[layers[k - 1]]
            h[ids] = z[ids] if k == len(layers) - 1 else np.maximum(z[ids], 0.0)
        assert np.array_equal(trace.z, z) and np.array_equal(trace.h, h) and trace.z is trace.z


class TestRNN:
    def test_t1_has_unused_recurrent_param(self):
        spec = RNNSpec(n_in=1, hidden=(1,), n_out=1, T=1)
        net = build_rnn_unrolled(spec)
        assert net.n_param == 3
        used = set(net.edges[:, 2].tolist())
        _, s_rec = spec.param_layout()[0][0], spec.param_layout()[0][0]
        rec_pid = spec.param_layout()[0][0][1].start
        assert rec_pid not in used
        assert count_paths(net) == 1

    def test_t3_chain_paths(self):
        # hand enumeration: outputs only at T; paths enter at t=1,2,3
        spec = RNNSpec(n_in=1, hidden=(1,), n_out=1, T=3)
        net = build_rnn_unrolled(spec)
        assert count_paths(net) == 3
        paths = enumerate_paths(net)
        lengths = sorted(len(p) for p in paths.paths)
        assert lengths == [2, 3, 4]

    def test_path_count_matches_dp(self, rng):
        spec = RNNSpec(n_in=2, hidden=(2,), n_out=1, T=2, output_times=(1, 2))
        net = build_rnn_unrolled(spec)
        assert len(enumerate_paths(net).paths) == count_paths(net)

    def test_unrolled_matches_direct_recursion(self, rng):
        spec = RNNSpec(n_in=2, hidden=(3, 2), n_out=2, T=4, output_times=(2, 4))
        net = build_rnn_unrolled(spec)
        theta = rng.normal(0.0, 0.7, size=spec.n_param)
        seqs = rng.normal(size=(5, spec.T, spec.n_in))
        _, _, outs = rnn_forward(spec, theta, seqs)
        flat = forward(net, theta, seqs.reshape(5, -1)).outputs()
        np.testing.assert_allclose(flat, outs.reshape(5, -1), rtol=1e-12, atol=1e-14)

    def test_shared_gradient_is_sum_of_copies(self, rng):
        # T=2 shared w_rec grad equals the sum of per-copy grads computed
        # on an equivalent net with untied parameters
        spec = RNNSpec(n_in=1, hidden=(1,), n_out=1, T=2, output_times=(1, 2))
        net = build_rnn_unrolled(spec)
        theta = np.array([0.9, 0.6, 1.2])
        seqs = rng.normal(size=(3, 2, 1)) + 2.0
        trace = forward(net, theta, seqs.reshape(3, -1))
        d_out = rng.normal(size=(3, 2))
        grad = backward(net, theta, trace, d_out)

        untied = netgraph.NetworkGraph(
            node_kind=net.node_kind.copy(),
            edges=np.column_stack([net.edges[:, 0], net.edges[:, 1], np.arange(net.n_edges)]),
            n_param=net.n_edges,
        )
        theta_untied = theta[net.edges[:, 2]]
        g_untied = backward(untied, theta_untied, forward(untied, theta_untied, seqs.reshape(3, -1)), d_out)
        for pid in range(net.n_param):
            copies = np.flatnonzero(net.edges[:, 2] == pid)
            np.testing.assert_allclose(grad[pid], g_untied[copies].sum(), rtol=1e-9, atol=1e-12)

    def test_rnn_backward_matches_finite_differences(self, rng):
        spec = RNNSpec(n_in=2, hidden=(3,), n_out=1, T=3)
        theta = rng.normal(0.0, 0.7, size=spec.n_param)
        seqs = rng.normal(size=(4, 3, 2))
        zs, hs, outs = rnn_forward(spec, theta, seqs)
        d_out = rng.normal(size=(4, 1, 1))
        grad = netgraph.rnn_backward(spec, theta, seqs, zs, hs, d_out)
        h = 1e-6
        for i in range(spec.n_param):
            tp, tm = theta.copy(), theta.copy()
            tp[i] += h
            tm[i] -= h
            fp = np.sum(rnn_forward(spec, tp, seqs)[2] * d_out)
            fm = np.sum(rnn_forward(spec, tm, seqs)[2] * d_out)
            fd = (fp - fm) / (2 * h)
            assert abs(grad[i] - fd) <= 1e-5 * max(1.0, abs(fd))

    def test_invalid_length(self):
        with pytest.raises(InvalidArchitecture):
            RNNSpec(n_in=1, hidden=(1,), n_out=1, T=0)

    @pytest.mark.parametrize("times", [(4, 2), (2, 2), (1, 3, 2)])
    def test_output_times_must_increase(self, times):
        # outputs are numbered in time order, so an unsorted list would misalign dL with the outputs
        with pytest.raises(InvalidArchitecture):
            RNNSpec(n_in=2, hidden=(3,), n_out=1, T=4, output_times=times)

    def test_backward_reuses_the_forward_trace(self, rng, monkeypatch):
        # z and h are built on first read from the recursion's arrays, placed by node id, without re-running it
        spec = RNNSpec(n_in=2, hidden=(3, 2), n_out=2, T=4, output_times=(2, 4))
        net = build_rnn_unrolled(spec)
        theta = random_theta(net, rng)
        seqs = rng.normal(size=(5, spec.T, spec.n_in))
        zs, hs, outs = rnn_forward(spec, theta, seqs)
        layers, out_ids = netgraph.rnn_node_ids(spec)
        z, h = np.zeros((net.n_nodes, 5)), np.zeros((net.n_nodes, 5))
        for b, t in np.ndindex(5, spec.T):
            h[layers[0][t], b] = seqs[b, t]
            for i in range(len(spec.hidden)):
                z[layers[i + 1][t], b] = zs[i][b, t]
                h[layers[i + 1][t], b] = hs[i][b, t]
        for b, j in np.ndindex(5, len(spec.output_times)):
            z[out_ids[j], b] = h[out_ids[j], b] = outs[b, j]

        calls = []
        recursion = netgraph.rnn_forward
        monkeypatch.setattr(netgraph, "rnn_forward", lambda *args: calls.append(1) or recursion(*args))
        trace = forward(net, theta, seqs.reshape(5, -1))
        assert np.array_equal(trace.z, z) and np.array_equal(trace.h, h) and trace.z is trace.z
        backward(net, theta, trace, rng.normal(size=(5, len(net.output_nodes))))
        assert len(calls) == 1

    def test_backward_equals_bptt(self, rng):
        spec = RNNSpec(n_in=2, hidden=(3, 2), n_out=2, T=4, output_times=(2, 4))
        net = build_rnn_unrolled(spec)
        theta = random_theta(net, rng)
        seqs = rng.normal(size=(5, spec.T, spec.n_in))
        d_out = rng.normal(size=(5, len(net.output_nodes)))
        grad = backward(net, theta, forward(net, theta, seqs.reshape(5, -1)), d_out)
        zs, hs, _ = rnn_forward(spec, theta, seqs)
        expected = netgraph.rnn_backward(spec, theta, seqs, zs, hs, d_out.reshape(5, 2, 2))
        assert np.array_equal(grad, expected)


class TestPaths:
    def test_cap(self):
        net = build_layered([4, 4, 4, 4, 1])
        with pytest.raises(TooManyPaths):
            enumerate_paths(net, cap=10)

    def test_duplicate_free(self, rng):
        net = build_random_dag(rng)
        paths = enumerate_paths(net)
        seen = {tuple(p.tolist()) for p in paths.paths}
        assert len(seen) == len(paths.paths)
        assert len(paths.paths) == count_paths(net)


class TestSerialization:
    def test_net_json_round_trip(self, rng):
        for net in (build_layered([3, 2, 1], bias=True), build_random_dag(rng)):
            clone = net_from_json(net_to_json(net))
            assert np.array_equal(clone.edges, net.edges)
            assert np.array_equal(clone.node_kind, net.node_kind)
            theta = random_theta(net, rng)
            X = rng.normal(size=(2, len(net.input_nodes)))
            np.testing.assert_array_equal(
                forward(net, theta, X).h, forward(clone, theta, X).h
            )

    def test_rnn_json_round_trip(self):
        spec = RNNSpec(n_in=2, hidden=(3,), n_out=1, T=3)
        net = build_rnn_unrolled(spec)
        clone = net_from_json(net_to_json(net))
        assert clone.rnn == spec

    def test_weight_file_round_trip(self, tmp_path, rng):
        theta = rng.normal(size=17)
        path = tmp_path / "w.pgw"
        save_params(path, theta)
        raw = path.read_bytes()
        assert raw[:4] == b"PGW1" and len(raw) == 16 + 8 * 17
        np.testing.assert_array_equal(load_params(path), theta)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pgw"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(FormatError):
            load_params(path)


@settings(max_examples=30, deadline=None)
@given(
    dims=st.lists(st.integers(min_value=1, max_value=4), min_size=2, max_size=4),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_property_path_count_is_product(dims, seed):
    net = build_layered(dims)
    assert count_paths(net) == int(np.prod(dims))
    rng = np.random.default_rng(seed)
    theta = rng.normal(size=net.n_param)
    X = rng.normal(size=(2, dims[0]))
    trace = forward(net, theta, X)
    recon = path_sum_outputs(net, theta, trace, enumerate_paths(net))
    np.testing.assert_allclose(recon, trace.outputs(), rtol=1e-9, atol=1e-10)
