import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathgeo import netgraph, pathnorm
from pathgeo.errors import ContractViolation, InsufficientData, UnsupportedCombination
from pathgeo.invariance import path_norm
from pathgeo.netgraph import RNNSpec, build_layered, build_random_dag, build_rnn_unrolled, layer_views
from pathgeo.pathnorm import (
    ddp_gamma,
    ddp_kappa,
    fisher_diag_analytic,
    kappa1,
    kappa2_rnn,
    kappa_bruteforce,
    path_reg_bruteforce,
    path_reg_dp,
)

from conftest import random_theta


def second_diff_kappa(gamma2_of, theta, i, rel_h=1e-4):
    """Oracle: kappa_i = 0.5 d^2 gamma2_net / d theta_i^2 by central differences."""
    h = rel_h * max(abs(theta[i]), 1.0)
    tp, tm = theta.copy(), theta.copy()
    tp[i] += h
    tm[i] -= h
    return (gamma2_of(tp) - 2.0 * gamma2_of(theta) + gamma2_of(tm)) / (2.0 * h * h)


class TestPathReg:
    def test_chain(self):
        net = build_layered([1, 1, 1])
        _, total = path_reg_dp(net, np.array([2.0, 3.0]))
        assert total == pytest.approx(4.0 * 9.0, rel=1e-15)

    def test_all_ones_counts_paths(self):
        net = build_layered([2, 2, 2, 1])
        _, total = path_reg_dp(net, np.ones(net.n_param))
        assert total == 8.0

    def test_dp_equals_bruteforce_random_dags(self, rng):
        for _ in range(40):
            net = build_random_dag(rng)
            theta = random_theta(net, rng)
            _, dp = path_reg_dp(net, theta)
            bf = path_reg_bruteforce(net, theta)
            assert dp == pytest.approx(bf, rel=1e-12)

    def test_dp_equals_bruteforce_rnn(self, rng):
        spec = RNNSpec(n_in=2, hidden=(2,), n_out=1, T=3, output_times=(1, 2, 3))
        net = build_rnn_unrolled(spec)
        theta = rng.normal(0.0, 0.9, size=net.n_param)
        _, dp = path_reg_dp(net, theta)
        assert dp == pytest.approx(path_reg_bruteforce(net, theta), rel=1e-12)


class TestPathSum:
    def test_rejects_negative_values(self, rng):
        """On a negative value the ReLU is not the identity, so the forward pass is not a path sum."""
        for net in (build_layered([3, 2, 1], bias=True), build_rnn_unrolled(RNNSpec(n_in=1, hidden=(2,), n_out=1, T=2))):
            values = np.abs(random_theta(net, rng))
            values[0] = -0.5
            with pytest.raises(ContractViolation):
                netgraph.path_sum(net, values)
            assert np.all(netgraph.path_sum(net, np.abs(values)) > 0.0)


class TestKappa1:
    def test_chain_values(self):
        net = build_layered([1, 1, 1])
        np.testing.assert_allclose(kappa1(net, np.array([2.0, 3.0])), [9.0, 4.0])

    def test_equals_bruteforce_no_sharing(self, rng):
        for _ in range(15):
            net = build_random_dag(rng, depth_max=4, width_max=4)
            theta = random_theta(net, rng)
            bf = kappa_bruteforce(net, theta)
            np.testing.assert_allclose(kappa1(net, theta), bf.kappa1, rtol=1e-10, atol=1e-12)
            assert np.all(bf.kappa2 == 0.0)

    def test_rnn_matrix_path_matches_unrolled_dp(self, rng):
        spec = RNNSpec(n_in=2, hidden=(3, 2), n_out=2, T=3, output_times=(2, 3))
        net = build_rnn_unrolled(spec)
        theta = rng.normal(0.0, 0.8, size=spec.n_param)
        fast = kappa1(net, theta)
        generic = netgraph.NetworkGraph(
            node_kind=net.node_kind.copy(), edges=net.edges.copy(),
            n_param=net.n_param, allow_unused_params=True,
        )
        np.testing.assert_allclose(fast, kappa1(generic, theta), rtol=1e-10, atol=1e-12)

    def test_rnn_matches_bruteforce(self, rng):
        spec = RNNSpec(n_in=1, hidden=(2,), n_out=1, T=3, output_times=(3,))
        net = build_rnn_unrolled(spec)
        theta = rng.normal(0.0, 0.8, size=spec.n_param)
        bf = kappa_bruteforce(net, theta)
        np.testing.assert_allclose(kappa1(net, theta), bf.kappa1, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("kind", ["layered", "layered_bias", "rnn", "rnn_dag"])
    def test_dead_unit_matches_bruteforce(self, rng, kind):
        """A unit whose incoming weights are all zero has z = 0 but still carries kappa."""
        if kind.startswith("layered"):
            net = build_layered([4, 3, 2], bias=kind == "layered_bias")
            theta = random_theta(net, rng)
            layer_views(net, theta)[0][1] = 0.0
        else:
            spec = RNNSpec(n_in=2, hidden=(2,), n_out=1, T=3)
            net = build_rnn_unrolled(spec)
            theta = random_theta(net, rng)
            w_in, w_rec, _ = spec.unpack(theta)
            w_in[0][1] = w_rec[0][1] = 0.0
            if kind == "rnn_dag":
                net = netgraph.NetworkGraph(
                    node_kind=net.node_kind.copy(), edges=net.edges.copy(),
                    n_param=net.n_param, allow_unused_params=True,
                )
            np.testing.assert_allclose(kappa2_rnn(spec, theta), kappa_bruteforce(net, theta).kappa2, rtol=1e-10, atol=1e-12)
        bf = kappa_bruteforce(net, theta)
        assert bf.kappa1[theta == 0.0].max() > 0.0  # the dead unit's zero weights carry kappa
        np.testing.assert_allclose(kappa1(net, theta), bf.kappa1, rtol=1e-10, atol=1e-12)


class TestKappa2:
    def test_t2_all_zero(self, rng):
        spec = RNNSpec(n_in=1, hidden=(2,), n_out=1, T=2, output_times=(1, 2))
        assert np.all(kappa2_rnn(spec, rng.normal(size=spec.n_param)) == 0.0)

    def test_t3_chain_hand_value(self):
        # single path uses w_rec twice; true second derivative gives 4 c^2
        spec = RNNSpec(n_in=1, hidden=(1,), n_out=1, T=3, output_times=(3,))
        c = 1.3
        theta = np.array([1.0, c, 1.0])
        k2 = kappa2_rnn(spec, theta)
        rec_pid = spec.param_layout()[0][0][1].start
        assert k2[rec_pid] == pytest.approx(4.0 * c * c, rel=1e-12)
        net = build_rnn_unrolled(spec)
        bf = kappa_bruteforce(net, theta)
        np.testing.assert_allclose(k2, bf.kappa2, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("hidden,T,outs", [((1,), 3, (1, 2, 3)), ((2,), 4, (4,)), ((3,), 4, (2, 4)), ((2, 2), 4, (4,))])
    def test_matches_bruteforce(self, rng, hidden, T, outs):
        spec = RNNSpec(n_in=2, hidden=hidden, n_out=1, T=T, output_times=outs)
        net = build_rnn_unrolled(spec)
        theta = rng.normal(0.0, 0.8, size=spec.n_param)
        bf = kappa_bruteforce(net, theta)
        np.testing.assert_allclose(kappa2_rnn(spec, theta), bf.kappa2, rtol=1e-9, atol=1e-11)

    def test_total_kappa_matches_second_differences(self, rng):
        spec = RNNSpec(n_in=1, hidden=(2,), n_out=1, T=4, output_times=(4,))
        net = build_rnn_unrolled(spec)
        theta = rng.normal(0.0, 0.9, size=spec.n_param)
        kap = kappa1(net, theta) + kappa2_rnn(spec, theta)

        def gamma2_of(t):
            return path_reg_dp(net, t)[1]

        for i in range(spec.n_param):
            fd = second_diff_kappa(gamma2_of, theta, i)
            assert abs(kap[i] - fd) <= 1e-5 * max(1.0, abs(fd))

    def test_kappa_rescaling_covariance(self, rng):
        # scaling node v by rho (incoming weights * rho, outgoing / rho)
        # divides kappa of incoming edges by rho^2 and multiplies kappa of
        # outgoing edges by rho^2, so kappa_e * w_e^2 is invariant; this is
        # exactly the covariance that makes the preconditioned update
        # rescaling invariant.
        from pathgeo.invariance import rescale_feedforward

        net = build_layered([2, 3, 2])
        theta = random_theta(net, rng)
        rho = 1.7
        v = net.internal_nodes[1]
        beta = np.ones(net.n_nodes)
        beta[v] = rho
        theta2 = rescale_feedforward(net, theta, beta)
        k_before = kappa1(net, theta)
        k_after = kappa1(net, theta2)
        for e in range(net.n_edges):
            u, dst, pid = net.edges[e]
            expect = 1.0
            if dst == v:
                expect = rho**-2
            elif u == v:
                expect = rho**2
            assert k_after[pid] == pytest.approx(expect * k_before[pid], rel=1e-10)


class TestDDP:
    def test_alpha0_matches_path_reg(self, rng):
        net = build_layered([2, 3, 2])
        theta = random_theta(net, rng)
        g = ddp_gamma(net, theta, rng.normal(size=(4, 2)), alpha=0.0)
        ref, _ = path_reg_dp(net, theta)
        np.testing.assert_array_equal(g.gamma2, ref.gamma2)

    def test_alpha1_second_moment_single_output(self, rng):
        net = build_layered([2, 2, 1])
        theta = random_theta(net, rng)
        X = rng.normal(size=(8, 2))
        g = ddp_gamma(net, theta, X, alpha=1.0, stat="second_moment")
        outs = netgraph.forward(net, theta, X).outputs()[:, 0]
        assert g.gamma2_net == pytest.approx(float(np.mean(outs**2)), rel=1e-12)

    def test_alpha1_variance_constant_batch(self, rng):
        net = build_layered([2, 2, 1])
        theta = random_theta(net, rng)
        X = np.tile(rng.normal(size=(1, 2)), (5, 1))
        g = ddp_gamma(net, theta, X, alpha=1.0, stat="variance")
        noninput = np.concatenate([net.internal_nodes, net.output_nodes])
        # zero up to the rounding of mean-of-identical-values
        assert np.all(np.abs(g.gamma2[noninput]) <= 1e-30)

    def test_empty_batch_rejected(self, rng):
        net = build_layered([2, 2, 1])
        with pytest.raises(InsufficientData):
            ddp_gamma(net, random_theta(net, rng), np.zeros((0, 2)), alpha=0.5)

    def test_kappa_alpha0_is_kappa1(self, rng):
        net = build_layered([2, 3, 1])
        theta = random_theta(net, rng)
        np.testing.assert_array_equal(
            ddp_kappa(net, theta, rng.normal(size=(3, 2)), alpha=0.0), kappa1(net, theta)
        )

    def test_kappa_chain_hand_value(self):
        # chain (a, b), batch {x=1}, alpha=1, second moment, a > 0:
        # gamma2_net = E[z_out^2] = a^2 b^2 so kappa = (b^2, a^2)
        net = build_layered([1, 1, 1])
        a, b = 1.5, -0.7
        theta = np.array([a, b])
        kap = ddp_kappa(net, theta, np.array([[1.0]]), alpha=1.0, stat="second_moment")
        np.testing.assert_allclose(kap, [b * b, a * a], rtol=1e-12)

    @pytest.mark.parametrize("alpha", [-0.1, 1.5])
    def test_kappa_rejects_alpha_outside_unit_interval(self, rng, alpha):
        net = build_layered([2, 3, 2])
        with pytest.raises(UnsupportedCombination):
            ddp_kappa(net, random_theta(net, rng), rng.normal(size=(4, 2)), alpha=alpha)

    def test_kappa_rejects_shared(self, rng):
        spec = RNNSpec(n_in=1, hidden=(2,), n_out=1, T=2)
        net = build_rnn_unrolled(spec)
        with pytest.raises(UnsupportedCombination):
            ddp_kappa(net, rng.normal(size=net.n_param), rng.normal(size=(2, 2)), alpha=0.5)

    @pytest.mark.parametrize("alpha", [0.3, 1.0])
    def test_kappa_second_moment_matches_second_differences(self, rng, alpha):
        net = build_layered([2, 3, 2])
        theta = random_theta(net, rng)
        X = rng.normal(size=(6, 2))

        def gamma2_of(t):
            return ddp_gamma(net, t, X, alpha=alpha, stat="second_moment").gamma2_net

        kap = ddp_kappa(net, theta, X, alpha=alpha, stat="second_moment")
        for i in range(net.n_param):
            fd = second_diff_kappa(gamma2_of, theta, i, rel_h=1e-4)
            assert abs(kap[i] - fd) <= 1e-5 * max(1.0, abs(fd))

    def test_kappa_alpha1_matches_fisher_diag(self, rng):
        net = build_layered([3, 4, 2])
        theta = random_theta(net, rng)
        X = rng.normal(size=(10, 3))
        kap = ddp_kappa(net, theta, X, alpha=1.0, stat="second_moment")
        np.testing.assert_allclose(kap, fisher_diag_analytic(net, theta, X), rtol=1e-10, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    dims=st.lists(st.integers(min_value=1, max_value=4), min_size=2, max_size=4),
    bias=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_property_dp_equals_bruteforce(dims, bias, seed):
    net = build_layered(dims, bias=bias)
    theta = np.random.default_rng(seed).normal(size=net.n_param)
    _, dp = path_reg_dp(net, theta)
    assert dp == pytest.approx(path_reg_bruteforce(net, theta), rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("bias", [False, True, "rnn"])
def test_layered_path_sums_match_generic_walk(rng, bias):
    """The layered (bias False/True) and RNN backends of the path sums against the topological walk."""
    if bias == "rnn":
        net = build_rnn_unrolled(RNNSpec(n_in=2, hidden=(3, 2), n_out=2, T=4, output_times=(2, 4)))
    else:
        net = build_layered([4, 5, 3, 2], bias=bias)
    generic = netgraph.NetworkGraph(
        node_kind=net.node_kind.copy(), edges=net.edges.copy(),
        n_param=net.n_param, allow_unused_params=True,
    )
    theta = random_theta(net, rng)
    X = rng.normal(size=(6, len(net.input_nodes)))
    checks = [
        lambda n: path_reg_dp(n, theta)[0].gamma2,
        lambda n: kappa1(n, theta),
        lambda n: ddp_gamma(n, theta, X, alpha=0.5).gamma2,
    ]
    if bias != "rnn":  # data-dependent kappa and the Fisher reject shared weights
        checks.append(lambda n: ddp_kappa(n, theta, X, alpha=0.5))
        checks.append(lambda n: fisher_diag_analytic(n, theta, X))
    for fn in checks:
        np.testing.assert_allclose(fn(net), fn(generic), rtol=1e-12, atol=0.0)
    for p in (1.0, 2.0):
        assert path_norm(net, theta, p) == pytest.approx(path_norm(generic, theta, p), rel=1e-12)
    assert netgraph.count_paths(net) == netgraph.count_paths(generic)
