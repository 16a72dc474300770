import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathgeo.errors import InvalidEpsilon, InvalidPerturbation, MarginDegenerate
from pathgeo.measures import (
    AscentConfig,
    check_conditions,
    margin,
    max_sharpness,
    norm_measures,
    pac_bayes_curve,
    pac_bayes_kl,
    perturbation_bound_check,
    point_margins,
    spectral_norm,
)
from pathgeo import netgraph
from pathgeo.netgraph import build_layered

from conftest import random_theta


def jacobi_singular_values(A, sweeps=60, tol=1e-14):
    """Independent oracle: one-sided Jacobi SVD on small matrices."""
    A = np.array(A, dtype=np.float64)
    if A.shape[0] < A.shape[1]:
        A = A.T
    n = A.shape[1]
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                ap = A[:, p]
                aq = A[:, q]
                apq = ap @ aq
                if abs(apq) < tol * max(1.0, np.linalg.norm(ap) * np.linalg.norm(aq)):
                    continue
                off = max(off, abs(apq))
                app, aqq = ap @ ap, aq @ aq
                tau = (aqq - app) / (2.0 * apq)
                t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau)) if tau != 0 else 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                new_p = c * ap - s * aq
                new_q = s * ap + c * aq
                A[:, p], A[:, q] = new_p, new_q
        if off == 0.0:
            break
    return np.sort(np.linalg.norm(A, axis=0))[::-1]


class TestMargin:
    def test_order_statistic(self):
        scores = np.zeros((10, 2))
        scores[:, 0] = np.arange(1.0, 11.0)  # margins 1..10 with labels 0
        assert margin(scores, np.zeros(10, dtype=int), eps=0.1) == 2.0

    def test_all_equal(self):
        scores = np.zeros((7, 2))
        scores[:, 0] = 3.0
        assert margin(scores, np.zeros(7, dtype=int), eps=0.3) == 3.0

    def test_default_is_fifth_percentile(self, rng):
        scores = rng.normal(size=(200, 4))
        labels = rng.integers(0, 4, size=200)
        got = margin(scores, labels)
        ms = np.sort(point_margins(scores, labels))
        assert got == ms[int(np.ceil(0.05 * 200))]

    def test_invalid_eps(self):
        with pytest.raises(InvalidEpsilon):
            margin(np.zeros((3, 2)), [0, 0, 0], eps=0.0)
        with pytest.raises(InvalidEpsilon):
            margin(np.zeros((3, 2)), [0, 0, 0], eps=1.0)

    @settings(max_examples=50, deadline=None)
    @given(
        values=st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=2, max_size=40),
        eps=st.floats(min_value=0.01, max_value=0.99),
    )
    def test_property_against_sort_oracle(self, values, eps):
        m = len(values)
        scores = np.zeros((m, 2))
        scores[:, 0] = values  # per-point margin is exactly `values`
        got = margin(scores, np.zeros(m, dtype=int), eps=eps)
        srt = sorted(values)
        idx = min(int(np.ceil(eps * m)), m - 1)
        assert got == srt[idx]
        # at most ceil(eps m) points lie strictly below the reported margin
        assert sum(v < got for v in values) <= int(np.ceil(eps * m))


class TestSpectralNorm:
    def test_identity(self):
        sigma = spectral_norm(np.eye(4))
        assert sigma == pytest.approx(1.0, abs=1e-12)

    def test_diag(self):
        sigma = spectral_norm(np.diag([3.0, 1.0]))
        assert sigma == pytest.approx(3.0, rel=1e-12)

    def test_random_8x8_vs_jacobi(self, rng):
        for _ in range(10):
            A = rng.normal(size=(8, 8))
            sigma = spectral_norm(A)
            oracle = jacobi_singular_values(A)[0]
            assert abs(sigma - oracle) <= 1e-10 * oracle

    def test_rectangular_up_to_32(self, rng):
        for shape in ((32, 32), (32, 7), (5, 31)):
            A = rng.normal(size=shape)
            sigma = spectral_norm(A)
            oracle = jacobi_singular_values(A)[0]
            assert abs(sigma - oracle) <= 1e-8 * oracle


class TestNormMeasures:
    def test_identity_single_layer(self):
        rep = norm_measures([np.eye(2)], gamma_margin=1.0)
        assert rep.l2_measure == pytest.approx(4.0 * 2.0)
        assert rep.spectral_measure == pytest.approx(2.0 * 1.0)

    def test_psi_homogeneous_in_each_layer(self, rng):
        Ws = [rng.normal(size=(4, 3)), rng.normal(size=(2, 4))]
        rep = norm_measures(Ws, 1.0)
        scaled = norm_measures([Ws[0] * 3.0, Ws[1]], 1.0)
        for key in rep.product_norms:
            assert scaled.product_norms[key] == pytest.approx(3.0 * rep.product_norms[key], rel=1e-12)

    def test_mu_lower_bound_and_balanced_equality(self, rng):
        from pathgeo.invariance import balance_layers, layer_matrices

        net = build_layered([3, 4, 2])
        theta = random_theta(net, rng)
        mats = layer_matrices(net, theta)
        d = len(mats)
        rep = norm_measures(mats, 1.0, pq_grid=((2.0, 2.0),))
        mu, psi = rep.group_norms[(2.0, 2.0)], rep.product_norms[(2.0, 2.0)]
        assert mu >= d ** 0.5 * psi ** (1.0 / d) - 1e-12
        bal = layer_matrices(net, balance_layers(net, theta, 2.0, 2.0))
        rep_b = norm_measures(bal, 1.0, pq_grid=((2.0, 2.0),))
        assert rep_b.group_norms[(2.0, 2.0)] == pytest.approx(d ** 0.5 * psi ** (1.0 / d), rel=1e-10)

    def test_l1_path_measure_matches_enumeration(self, rng):
        from pathgeo.invariance import layer_matrices, path_norm

        net = build_layered([2, 3, 2])
        theta = random_theta(net, rng)
        mats = layer_matrices(net, theta)
        rep = norm_measures(mats, 2.0)
        d = len(mats)
        phi1 = path_norm(net, theta, 1.0)
        assert rep.l1_path_measure == pytest.approx((2.0**d * phi1) ** 2 / 4.0, rel=1e-10)

    def test_degenerate_margin(self):
        with pytest.raises(MarginDegenerate):
            norm_measures([np.eye(2)], gamma_margin=0.0)

    def test_rescaling_moves_l2_but_not_path_measures(self, rng):
        from pathgeo.invariance import layer_matrices, random_unbalance

        net = build_layered([3, 4, 3, 2])
        theta = random_theta(net, rng)
        theta_u = random_unbalance(net, theta, seed=3, sigma_log=1.0)
        rep = norm_measures(layer_matrices(net, theta), 1.0)
        rep_u = norm_measures(layer_matrices(net, theta_u), 1.0)
        assert rep_u.l1_path_measure == pytest.approx(rep.l1_path_measure, rel=1e-9)
        assert rep_u.l2_path_measure == pytest.approx(rep.l2_path_measure, rel=1e-9)
        assert abs(rep_u.l2_measure / rep.l2_measure - 1.0) > 10.0


class TestSharpness:
    def test_alpha_zero(self, rng):
        net = build_layered([2, 2, 1])
        theta = random_theta(net, rng)
        X = rng.normal(size=(8, 2))
        y = rng.normal(size=(8, 1))
        est = max_sharpness(net, theta, X, y, alpha=0.0, loss="squared")
        assert est.value == 0.0

    def test_linear_model_matches_box_maximum(self):
        net = build_layered([1, 1])
        w = 1.0
        theta = np.array([w])
        X = np.array([[1.0], [2.0], [-1.0]])
        y = np.array([[0.5], [1.0], [0.0]])
        alpha = 0.3
        cfg = AscentConfig(steps=800, step_size=0.02, batch_size=3, seed=1)
        est = max_sharpness(net, theta, X, y, alpha, cfg, loss="squared")

        def full_loss(u):
            pred = (w + u) * X[:, 0]
            return 0.5 * np.mean((pred - y[:, 0]) ** 2)

        b = alpha * (abs(w) + 1.0)
        exact = max(full_loss(b), full_loss(-b)) - full_loss(0.0)
        assert est.value == pytest.approx(exact, rel=0.01)

    def test_monotone_in_alpha(self, rng):
        net = build_layered([2, 3, 2])
        theta = random_theta(net, rng)
        X = rng.normal(size=(16, 2))
        y = rng.integers(0, 2, size=16)
        vals = []
        for a in (0.05, 0.2, 0.8):
            cfg = AscentConfig(steps=300, step_size=0.02, batch_size=16, seed=2)
            vals.append(max_sharpness(net, theta, X, y, a, cfg).value)
        assert vals[0] <= vals[1] + 1e-6 and vals[1] <= vals[2] + 1e-6


class TestPacBayes:
    def test_kl_zero_weights(self):
        assert pac_bayes_kl(np.zeros(5), alpha=0.3) == 0.0

    def test_kl_quarter_rule(self, rng):
        theta = rng.normal(size=20)
        assert pac_bayes_kl(theta, 0.2) == pytest.approx(pac_bayes_kl(theta, 0.1) / 4.0, rel=1e-12)

    def test_kl_matches_hand_sum(self, rng):
        theta = rng.normal(size=9)
        a = 0.17
        hand = sum((w / (10.0 * abs(w) + 1.0)) ** 2 for w in theta) / a**2
        assert pac_bayes_kl(theta, a) == pytest.approx(hand, rel=1e-12, abs=1e-15)

    def test_curve_shape_and_determinism(self, rng):
        net = build_layered([2, 3, 2])
        theta = random_theta(net, rng)
        X = rng.normal(size=(24, 2))
        y = rng.integers(0, 2, size=24)
        grid = [0.02, 0.05, 0.1]
        c1 = pac_bayes_curve(net, theta, X, y, grid, n_perturb=80, seed=4, batch_size=None)
        c2 = pac_bayes_curve(net, theta, X, y, grid, n_perturb=80, seed=4, batch_size=None)
        np.testing.assert_array_equal(c1.expected_sharpness, c2.expected_sharpness)
        assert np.all(np.diff(c1.kl) < 0)  # strictly decreasing in alpha
        assert np.all(np.diff(c1.expected_sharpness) >= -1e-3)


class TestPerturbationBound:
    def test_zero_perturbation(self, rng):
        layers = [rng.normal(size=(3, 2)), rng.normal(size=(1, 3))]
        lhs, rhs = perturbation_bound_check(layers, [np.zeros((3, 2)), np.zeros((1, 3))], np.array([1.0, 0.0]))
        assert lhs == 0.0 and rhs == 0.0

    def test_single_layer_operator_norm(self, rng):
        W = rng.normal(size=(3, 3))
        U = rng.normal(size=(3, 3))
        U *= 0.5 * spectral_norm(W) / spectral_norm(U)
        x = rng.normal(size=3)
        lhs, rhs = perturbation_bound_check([W], [U], x)
        assert lhs <= np.e * np.linalg.norm(x) * spectral_norm(U) + 1e-12
        assert lhs <= rhs

    def test_thousand_random_draws_desk_net(self, rng):
        layers = [rng.normal(size=(6, 4)), rng.normal(size=(5, 6)), rng.normal(size=(4, 5)), rng.normal(size=(2, 4))]
        d = len(layers)
        caps = [spectral_norm(W) / d for W in layers]
        for _ in range(1000):
            Us = []
            for W, cap in zip(layers, caps):
                U = rng.normal(size=W.shape)
                U *= rng.uniform(0.0, 1.0) * cap / spectral_norm(U)
                Us.append(U)
            x = rng.normal(size=4)
            lhs, rhs = perturbation_bound_check(layers, Us, x)
            assert lhs <= rhs + 1e-12

    def test_bias_columns_count_the_bias_unit(self, rng):
        # at x = 0 only the bias units drive the net, so a bound with B = ||x|| would read 0
        net = build_layered([2, 3, 1], bias=True)
        for _ in range(20):
            layers = [np.abs(W) for W in netgraph.layer_views(net, random_theta(net, rng))]
            Us = [rng.normal(size=W.shape) for W in layers]
            Us = [0.9 * spectral_norm(W) / 2 * U / spectral_norm(U) for W, U in zip(layers, Us)]
            lhs, rhs = perturbation_bound_check(layers, Us, np.zeros(2))
            assert 0.0 < lhs <= rhs

    def test_inadmissible_rejected(self, rng):
        layers = [rng.normal(size=(3, 2)), rng.normal(size=(1, 3))]
        U0 = rng.normal(size=(3, 2))
        U0 *= 2.0 * spectral_norm(layers[0]) / spectral_norm(U0)
        with pytest.raises(InvalidPerturbation):
            perturbation_bound_check(layers, [U0, np.zeros((1, 3))], np.array([1.0, 0.0]))


class TestConditions:
    def test_identity_layers_all_active(self):
        layers = [np.eye(3), np.eye(3), np.eye(3)]
        X = np.array([[1.0, 2.0, 0.5]])
        rep = check_conditions(layers, X)
        assert rep.mu_c1 == 1.0

    def test_trained_four_layer_net_qualitative(self):
        # a fitted deep net keeps strong layer interactions (mu >= 1/4),
        # few near-flip activations and non-spiky units; random init is of
        # the same order (qualitative reproduction)
        import warnings

        warnings.filterwarnings("ignore")
        from pathgeo.data import downsample, gen_cluster_images
        from pathgeo.invariance import layer_matrices
        from pathgeo.protocols import mlp_for, mlp_protocol_config
        from pathgeo.train import init_params, train

        ds = downsample(gen_cluster_images(500, 21, noise=0.5), side=10)
        net = mlp_for(ds, [32, 32, 16], bias=False)
        theta0 = init_params(net, 0)
        theta, hist, _ = train(net, ds, mlp_protocol_config("sgd", 0, epochs=60))
        assert hist[-1]["train_err"] == 0.0
        X = ds.flat_inputs()[:20]
        X = X / np.linalg.norm(X, axis=1, keepdims=True)
        grid = (0.05, 0.1, 0.5)
        trained = check_conditions(layer_matrices(net, theta), X, delta_grid=grid)
        rand = check_conditions(layer_matrices(net, theta0), X, delta_grid=grid)
        assert trained.mu_c1 >= 0.25
        assert all(r <= 3.0 for r in trained.c3_per_layer)
        assert np.isfinite(trained.c2_max)
        # random init comparable to the trained net on every condition
        assert 0.1 <= rand.mu_c1 / trained.mu_c1 <= 10.0
        assert 0.1 <= rand.c3_max / trained.c3_max <= 10.0
        assert 0.1 <= rand.c2_max / max(trained.c2_max, 1e-9) <= 10.0

    def test_zero_bias_columns_give_the_bias_free_report(self, rng):
        from pathgeo.invariance import layer_matrices

        net = build_layered([6, 5, 3], bias=True)
        mats = layer_matrices(net, random_theta(net, rng))
        for W in mats:
            W[:, -1] = 0.0
        X = rng.normal(size=(4, 6))
        got, want = check_conditions(mats, X), check_conditions([W[:, :-1] for W in mats], X)
        assert got.mu_c1 == pytest.approx(want.mu_c1, rel=1e-12)
        assert got.c2_curve == want.c2_curve
        np.testing.assert_allclose(got.c3_per_layer, want.c3_per_layer, rtol=1e-12)
        lhs, _ = perturbation_bound_check(mats, [np.zeros_like(W) for W in mats], X[0])
        assert lhs == 0.0

    def test_bias_unit_enters_mu(self):
        W1, W2 = np.array([[1.0, 0.5], [2.0, -1.0]]), np.array([[1.0, -1.0, 0.25]])
        rep = check_conditions([W1, W2], np.array([[1.0]]))
        # h1 = relu(W1 [x; 1]) = (1.5, 1) and f = W2 [h1; 1] = 0.75; the only triple is (0, 1, 2)
        assert rep.mu_c1 == pytest.approx(np.sqrt(2.0) * 0.75 / (np.linalg.norm(W2) * np.hypot(1.5, 1.0)), rel=1e-12)

    def test_report_fields_sane(self, rng):
        layers = [rng.normal(size=(8, 5)) / np.sqrt(5), rng.normal(size=(6, 8)) / np.sqrt(8), rng.normal(size=(3, 6)) / np.sqrt(6)]
        X = rng.normal(size=(6, 5))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        rep = check_conditions(layers, X, delta_grid=(0.05, 0.2, 1.0))
        assert 0.0 < rep.mu_c1 <= 1.0
        assert all(v >= 0.0 for _, v in rep.c2_curve)
        assert all(r >= 0.0 for r in rep.c3_per_layer)
        assert len(rep.c3_per_layer) == 3
