"""Acceptance suite: one test per release criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  The two training-based criteria (11, 13) dominate the runtime;
the whole module is budgeted well under its stated limits on commodity
hardware.
"""

import time
import warnings

import numpy as np
import pytest

warnings.filterwarnings("ignore")

from pathgeo.data import gen_addition
from pathgeo.invariance import (
    build_shattering_net,
    check_function_equal,
    degrees_of_freedom,
    random_rescaling,
    rescale_feedforward,
    rescale_rnn,
    shattering_psi_bound,
)
from pathgeo.measures import perturbation_bound_check, spectral_norm
from pathgeo.netgraph import (
    RNNSpec,
    build_layered,
    build_random_dag,
    build_rnn_unrolled,
    backward,
    count_paths,
    forward,
    rnn_forward,
)
from pathgeo.optim import (
    OptimizerConfig,
    batch_loss_grad,
    ddp_norm_forward_backward,
    ddp_norm_step,
    fisher_diag_mc,
    path_sgd_step,
    sgd_step,
)
from pathgeo.pathnorm import (
    ddp_kappa,
    kappa1,
    kappa2_rnn,
    kappa_bruteforce,
    path_reg_bruteforce,
    path_reg_dp,
)
from pathgeo import protocols

from conftest import safe_eval_point


def report(tag, ok, detail=""):
    print(f"\n[{tag}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{tag} failed: {detail}"


def test_ac01_path_regularizer_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        net = build_random_dag(rng, depth_max=5, width_max=6)
        theta = rng.normal(0.0, 0.8, size=net.n_param)
        _, dp = path_reg_dp(net, theta)
        bf = path_reg_bruteforce(net, theta)
        worst = max(worst, abs(dp - bf) / max(abs(bf), 1e-300))
    elapsed = time.time() - t0
    report("AC-01 path regularizer DP vs brute force",
           worst <= 1e-12 and elapsed < 10.0,
           f"rel_err={worst:.2e} time={elapsed:.1f}s")


def test_ac02_kappa_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(202)
    worst_pair = 0.0
    worst_fd = 0.0

    def second_diff(gamma2_of, theta, i):
        h = 1e-4 * max(abs(theta[i]), 1.0)
        tp, tm = theta.copy(), theta.copy()
        tp[i] += h
        tm[i] -= h
        return (gamma2_of(tp) - 2.0 * gamma2_of(theta) + gamma2_of(tm)) / (2.0 * h * h)

    cases = []
    for dims in ([2, 3, 2], [3, 2, 2, 1]):
        cases.append(("layered", build_layered(dims), None))
    for hidden, T in ((1, 3), (2, 3), (3, 4)):
        spec = RNNSpec(n_in=2, hidden=(hidden,), n_out=1, T=T, output_times=(T,))
        cases.append(("rnn", build_rnn_unrolled(spec), spec))

    for kind, net, spec in cases:
        theta = rng.normal(0.0, 0.8, size=net.n_param)
        fast = kappa1(net, theta)
        if spec is not None:
            fast = fast + kappa2_rnn(spec, theta)
        bf = kappa_bruteforce(net, theta)
        scale = max(float(np.abs(bf.kappa).max()), 1e-300)
        worst_pair = max(worst_pair, float(np.abs(fast - bf.kappa).max()) / scale)

        gamma2_of = lambda t: path_reg_dp(net, t)[1]
        for i in range(net.n_param):
            fd = second_diff(gamma2_of, theta, i)
            worst_fd = max(worst_fd, abs(fast[i] - fd) / max(1.0, abs(fd)))
    elapsed = time.time() - t0
    report("AC-02 kappa oracle + second differences",
           worst_pair <= 1e-9 and worst_fd <= 1e-5 and elapsed < 30.0,
           f"pair={worst_pair:.2e} fd={worst_fd:.2e} time={elapsed:.1f}s")


def test_ac03_gradient_checks():
    t0 = time.time()
    rng = np.random.default_rng(303)
    losses = ("cross_entropy", "truncated_cross_entropy", "squared", "margin")
    worst = 0.0
    for trial in range(50):
        net = build_random_dag(rng, depth_max=4, width_max=4)
        theta, X = safe_eval_point(net, rng, n_inputs=2)
        n_out = len(net.output_nodes)
        for loss in losses:
            if loss == "squared":
                labels = rng.normal(size=(2, n_out))
            else:
                labels = rng.integers(0, n_out, size=2)
            cfg = OptimizerConfig(method="sgd", lr=0.1, loss=loss)
            _, grad, _ = batch_loss_grad(net, theta, X, labels, cfg)
            h = 1e-5
            for i in rng.choice(net.n_param, size=min(3, net.n_param), replace=False):
                tp, tm = theta.copy(), theta.copy()
                tp[i] += h
                tm[i] -= h
                vp, _, _ = batch_loss_grad(net, tp, X, labels, cfg)
                vm, _, _ = batch_loss_grad(net, tm, X, labels, cfg)
                fd = (vp - vm) / (2 * h)
                worst = max(worst, abs(grad[i] - fd) / max(1.0, abs(fd)))
    elapsed = time.time() - t0
    report("AC-03 loss gradients vs finite differences",
           worst <= 1e-6 and elapsed < 30.0,
           f"rel_err={worst:.2e} time={elapsed:.1f}s over 50 nets x 4 losses")


def test_ac04_function_invariance_under_rescaling():
    rng = np.random.default_rng(404)
    worst_ff = 0.0
    for bias in (False, True):
        net = build_layered([3, 5, 4, 2], bias=bias)
        theta = rng.normal(0.0, 0.8, size=net.n_param)
        beta = random_rescaling(net, rng, sigma_log=1.0)
        theta_r = rescale_feedforward(net, theta, beta)
        probes = rng.normal(size=(100, 3))
        _, dev = check_function_equal(net, theta, theta_r, probes, tol=np.inf)
        worst_ff = max(worst_ff, dev)

    spec = RNNSpec(n_in=2, hidden=(3, 2), n_out=2, T=4, output_times=(1, 2, 3, 4))
    theta = rng.normal(0.0, 0.8, size=spec.n_param)
    alpha = [rng.lognormal(0.0, 1.0, size=n) for n in spec.hidden]
    theta_r = rescale_rnn(spec, theta, alpha)
    seqs = rng.normal(size=(100, spec.T, spec.n_in))
    worst_rnn = float(np.max(np.abs(rnn_forward(spec, theta, seqs)[2] - rnn_forward(spec, theta_r, seqs)[2])))
    report("AC-04 rescaling preserves the function",
           worst_ff <= 1e-9 and worst_rnn <= 1e-9,
           f"feedforward={worst_ff:.2e} rnn={worst_rnn:.2e} over 100 probes")


def test_ac05_update_invariance_and_sgd_witness():
    rng = np.random.default_rng(505)
    net = build_layered([2, 4, 3])
    theta = rng.normal(0.0, 0.8, size=net.n_param)
    beta = random_rescaling(net, rng, sigma_log=0.7)
    theta_r = rescale_feedforward(net, theta, beta)
    cfg = OptimizerConfig(method="path_sgd", lr=0.05, loss="cross_entropy")
    t1, t2 = theta.copy(), theta_r.copy()
    for _ in range(50):
        X = rng.normal(size=(8, 2))
        y = rng.integers(0, 3, size=8)
        t1 = path_sgd_step(net, t1, X, y, cfg)
        t2 = path_sgd_step(net, t2, X, y, cfg)
    probes = rng.normal(size=(100, 2))
    f1 = forward(net, t1, probes).outputs()
    f2 = forward(net, t2, probes).outputs()
    dev_path = float(np.max(np.abs(f1 - f2)))

    wnet = build_layered([1, 1, 1])
    w_theta = np.array([10.0, 0.1])
    w_beta = np.ones(3)
    w_beta[wnet.internal_nodes[0]] = 0.1
    w_theta_r = rescale_feedforward(wnet, w_theta, w_beta)
    w_cfg = OptimizerConfig(method="sgd", lr=1.0, loss="squared")
    X, y = np.array([[1.0]]), np.array([[0.0]])
    s1 = sgd_step(wnet, w_theta, X, y, w_cfg)
    s2 = sgd_step(wnet, w_theta_r, X, y, w_cfg)
    w_probes = np.array([[1.0], [2.0], [-1.0]])
    dev_sgd = float(np.max(np.abs(forward(wnet, s1, w_probes).outputs() - forward(wnet, s2, w_probes).outputs())))
    report("AC-05 preconditioned update invariant, plain SGD not",
           dev_path <= 1e-6 and dev_sgd >= 1e-2,
           f"path_sgd 50-step dev={dev_path:.2e}, sgd witness one-step dev={dev_sgd:.2e}")


def test_ac06_rank_theorem():
    rng = np.random.default_rng(606)
    net = build_layered([2, 2, 2, 1])
    rank = degrees_of_freedom(net, rng.normal(size=net.n_param))
    hits = 0
    for _ in range(100):
        depth = int(rng.integers(2, 4))
        dims = [int(rng.integers(1, 4)) for _ in range(depth + 1)]
        g = build_layered(dims)
        expect = g.n_edges - len(g.internal_nodes)
        if degrees_of_freedom(g, rng.normal(size=g.n_param)) == expect:
            hits += 1
    report("AC-06 path Jacobian rank",
           rank == 6 and hits >= 95,
           f"[2,2,2,1] rank={rank} (expect 6); generic formula {hits}/100")


def test_ac07_shattering():
    t0 = time.time()
    ok = True
    details = []
    for n_in in (2, 3, 4):
        sh = build_shattering_net(n_in, p=2.0, q=2.0, d=2)
        m = 2**n_in
        # exact forward pieces: hidden activations are label independent
        hidden = forward(sh.net, sh.theta_for(np.ones(m)), sh.points)
        A = hidden.h[sh.net.internal_nodes].T  # (m points, m units)
        all_labels = np.array([[1.0 if (bits >> i) & 1 else -1.0 for i in range(m)] for bits in range(2**m)])
        outs = (all_labels / 2.0) @ A.T  # (2^m labelings, m points)
        margins = (outs * all_labels).min(axis=1)
        # spot-check the factored computation against the real forward pass
        rng = np.random.default_rng(707 + n_in)
        for bits in rng.integers(0, 2**m, size=min(200, 2**m)):
            lab = all_labels[bits]
            got = forward(sh.net, sh.theta_for(lab), sh.points).outputs()[:, 0]
            assert np.array_equal(got, outs[bits])
        bound = shattering_psi_bound(n_in, 2.0, 2.0)
        ok = ok and margins.min() >= 1.0 - 1e-12 and sh.psi_value <= np.sqrt(n_in) * m + 1e-9
        details.append(f"n={n_in}: min margin {margins.min():.12f}, psi {sh.psi_value:.2f} <= {np.sqrt(n_in) * m:.2f} (paper bound {bound:.2f})")
    elapsed = time.time() - t0
    report("AC-07 hypercube shattering with unit margin",
           ok and elapsed < 60.0,
           "; ".join(details) + f" time={elapsed:.1f}s")


def test_ac08_ddp_norm_orthogonality():
    rng = np.random.default_rng(808)
    net = build_layered([3, 4, 3], bias=True)
    w_t = rng.normal(0.0, 0.8, size=net.n_param)
    X_all = rng.normal(size=(64, 3))
    y_all = (X_all[:, 0] > 0).astype(int)
    cfg = OptimizerConfig(method="ddp_norm", lr=0.05, alpha=1.0, stat="second_moment", loss="cross_entropy")
    worst = 0.0
    for _ in range(100):
        idx = rng.integers(0, 64, size=16)
        _, _, grads, _, _ = ddp_norm_forward_backward(net, w_t, X_all[idx], y_all[idx], cfg.alpha, cfg.stat, cfg.loss)
        for v in net.internal_nodes:
            wv = w_t[net.in_edges[v][2]]
            gv = grads[int(v)]
            denom = np.linalg.norm(wv) * np.linalg.norm(gv)
            if denom > 0:
                worst = max(worst, abs(float(wv @ gv)) / denom)
        w_t = ddp_norm_step(net, w_t, X_all[idx], y_all[idx], cfg)
    report("AC-08 normalized-update orthogonality over 100 steps",
           worst <= 1e-8, f"max |cos| = {worst:.2e} at normalized nodes")


def test_ac09_fisher_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(909)
    net = build_layered([3, 4, 2])
    theta, X = safe_eval_point(net, rng, n_inputs=16, min_gap=5e-2)
    analytic = ddp_kappa(net, theta, X, alpha=1.0, stat="second_moment")
    mc = fisher_diag_mc(net, theta, X, n_samples=200000, seed=11)
    rel = np.abs(mc - analytic) / np.abs(analytic)
    elapsed = time.time() - t0
    report("AC-09 analytic kappa(alpha=1) equals MC Fisher diagonal",
           rel.max() <= 0.03 and elapsed < 120.0,
           f"max rel dev {rel.max():.3%} over {net.n_param} params, time={elapsed:.1f}s")


def test_ac10_perturbation_bound():
    rng = np.random.default_rng(1010)
    layers = [rng.normal(size=(6, 4)), rng.normal(size=(5, 6)), rng.normal(size=(4, 5)), rng.normal(size=(2, 4))]
    d = len(layers)
    caps = [spectral_norm(W) / d for W in layers]
    violations = 0
    min_slack = np.inf
    for _ in range(10**4):
        Us = []
        for W, cap in zip(layers, caps):
            U = rng.normal(size=W.shape)
            U *= rng.uniform(0.0, 1.0) * cap / spectral_norm(U)
            Us.append(U)
        x = rng.normal(size=4)
        lhs, rhs = perturbation_bound_check(layers, Us, x)
        min_slack = min(min_slack, rhs - lhs)
        if lhs > rhs + 1e-12:
            violations += 1
    report("AC-10 layerwise perturbation bound",
           violations == 0, f"0 violations over 10^4 draws, min slack {min_slack:.3g}")


def test_ac11_unbalanced_init_experiment():
    t0 = time.time()
    out = protocols.unbalanced_init_experiment(seed=0, hidden=100, m=2000, epochs=20)
    path_bal = np.array([h["train_loss"] for h in out["path_sgd"]["balanced"]])
    path_unb = np.array([h["train_loss"] for h in out["path_sgd"]["unbalanced"]])
    sgd_bal = out["sgd"]["balanced"][-1]["train_loss"]
    sgd_unb = out["sgd"]["unbalanced"][-1]["train_loss"]
    curve_dev = float(np.abs(path_bal - path_unb).max())
    elapsed = time.time() - t0
    report("AC-11 balanced vs unbalanced initialization",
           curve_dev <= 1e-6 and sgd_unb >= 2.0 * sgd_bal and elapsed < 600.0,
           f"path_sgd curve dev={curve_dev:.2e}; sgd loss {sgd_unb:.3g} vs {sgd_bal:.3g} "
           f"({sgd_unb / sgd_bal:.0f}x); time={elapsed:.0f}s")


def test_ac12_hidden_unit_sweep():
    t0 = time.time()
    rows = protocols.hidden_sweep([32, 512], seeds=[0, 1, 2], epochs=150, measure=False)
    by_h = {32: [], 512: []}
    zero_train = True
    for r in rows:
        by_h[r["H"]].append(r["test_err"])
        zero_train = zero_train and r["train_err"] == 0.0
    mean32, mean512 = np.mean(by_h[32]), np.mean(by_h[512])
    elapsed = time.time() - t0
    report("AC-12 wider nets generalize no worse",
           zero_train and mean512 <= mean32,
           f"test err H=512 {mean512:.4f} <= H=32 {mean32:.4f} (3-seed mean, all zero train error); time={elapsed:.0f}s")


def test_ac13_addition_problem():
    t0 = time.time()
    rows = protocols.addition_bench([50], methods=("path_sgd",), hidden=32, epochs=35, seed=0)
    mse = rows[0]["test_mse"]
    baseline = 1.0 / 6.0
    elapsed = time.time() - t0
    report("AC-13 masked-sum task at T=50",
           mse <= 0.05 and mse < baseline and elapsed < 1800.0,
           f"path_sgd test MSE {mse:.4f} <= 0.05 < baseline {baseline:.4f}; time={elapsed:.0f}s")


def test_ac14_complexity_ordering():
    t0 = time.time()
    wins = 0
    details = []
    for seed in (0, 1, 2):
        out = protocols.true_vs_random_experiment(seed=seed)
        assert out["true"]["train_err"] == 0.0 and out["random"]["train_err"] == 0.0
        ok = all(out["random"][k] > out["true"][k] for k in ("l2", "l1_path", "l2_path", "spectral"))
        wins += ok
        details.append(f"seed {seed}: {'all larger' if ok else 'ordering broken'}")
    elapsed = time.time() - t0
    report("AC-14 random-label complexity exceeds true-label",
           wins >= 2, "; ".join(details) + f" ({wins}/3 majority); time={elapsed:.0f}s")
