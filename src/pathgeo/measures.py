"""Complexity and sharpness measurement suite.

All norm-based quantities are reported divided by the margin squared, so
they are comparable across nets whose outputs differ only by scale.  Path
based measures are path sums of transformed weight matrices, one
matrix-vector product per layer; nothing here enumerates paths.  Spectral
norms are exact (LAPACK's SVD).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidEpsilon, InvalidPerturbation, MarginDegenerate
from .invariance import matrix_group_norm
from .netgraph import NetworkGraph, forward, predict
from .optim import loss_and_grad, point_margins


@dataclass
class ComplexityReport:
    margin: float
    l2_measure: float
    l1_path_measure: float
    l2_path_measure: float
    spectral_measure: float
    layer_frobenius: list[float]
    layer_spectral: list[float]
    layer_l1_inf: list[float]
    group_norms: dict = field(default_factory=dict)     # (p, q) -> mu_{p,q}
    product_norms: dict = field(default_factory=dict)   # (p, q) -> psi_{p,q}
    path_norms: dict = field(default_factory=dict)      # p -> phi_p

    def measures(self) -> dict:
        return {
            "l2": self.l2_measure,
            "l1_path": self.l1_path_measure,
            "l2_path": self.l2_path_measure,
            "spectral": self.spectral_measure,
        }


@dataclass
class SharpnessEstimate:
    value: float
    alpha: float
    loss_at_min: float
    loss_at_peak: float
    steps: int


@dataclass
class PacBayesCurve:
    alphas: np.ndarray
    kl: np.ndarray
    expected_sharpness: np.ndarray

    def rows(self):
        return list(zip(self.alphas.tolist(), self.kl.tolist(), self.expected_sharpness.tolist()))


@dataclass
class ConditionReport:
    mu_c1: float
    c2_curve: list[tuple[float, float]]  # (delta, max over layers of flip fraction / delta)
    c3_per_layer: list[float]

    @property
    def c2_max(self) -> float:
        return max((v for _, v in self.c2_curve), default=0.0)

    @property
    def c3_max(self) -> float:
        return max(self.c3_per_layer, default=0.0)


# -- margin ---------------------------------------------------------------------


def margin(scores: np.ndarray, labels: np.ndarray, eps: float = 0.05) -> float:
    """The (ceil(eps*m)+1)-th smallest per-point margin.

    Exactly ceil(eps*m) points fall strictly below the returned value when
    margins are distinct; ties resolve by sorted order, so an all-equal
    margin vector returns that common value.
    """
    if not 0.0 < eps < 1.0:
        raise InvalidEpsilon(f"eps={eps} outside (0, 1)")
    margins = np.sort(point_margins(scores, labels))
    m = len(margins)
    idx = int(np.ceil(eps * m))
    return float(margins[min(idx, m - 1)])


# -- spectral norm ----------------------------------------------------------------


def spectral_norm(W: np.ndarray) -> float:
    """Largest singular value of W; 0.0 when W is empty."""
    W = np.asarray(W, dtype=np.float64)
    return float(np.linalg.norm(W, 2)) if W.size else 0.0


# -- norm measures ------------------------------------------------------------------


def _path_total(mats: list[np.ndarray], bias: bool) -> float:
    """Sum over input->output paths of the product of matrix entries: 1^T M_d ... M_1 1, bias units carrying 1."""
    v = np.ones(mats[0].shape[1] - (1 if bias else 0))
    for M in mats:
        v = M @ (np.append(v, 1.0) if bias else v)
    return float(v.sum())


def norm_measures(layers: list[np.ndarray], gamma_margin: float, pq_grid=((1.0, np.inf), (2.0, np.inf), (2.0, 2.0), (1.0, 1.0)), bias: bool = False) -> ComplexityReport:
    """Margin-normalized capacity proxies of a layered net.

    layers: weight matrices W_k of shape (n_k, n_{k-1} + bias); bias
    columns, when present, join the path sums through their constant-one
    unit.  The four headline measures: product of squared Frobenius norms
    with a 4^d factor; squared path sum of |2 W|; path sum of 4 h W^2;
    product of h * squared spectral norms, all divided by the squared
    margin.
    """
    if gamma_margin <= 0.0:
        raise MarginDegenerate(f"margin {gamma_margin} must be positive")
    layers = [np.asarray(W, dtype=np.float64) for W in layers]
    g2 = gamma_margin**2
    widths = [W.shape[0] for W in layers]

    fro = [float(np.linalg.norm(W)) for W in layers]
    spec = [spectral_norm(W) for W in layers]
    l1inf = [float(np.abs(W).sum(axis=1).max()) for W in layers]

    l2_measure = float(np.prod([4.0 * f**2 for f in fro])) / g2
    l1_path = _path_total([2.0 * np.abs(W) for W in layers], bias) ** 2 / g2
    l2_path = _path_total([4.0 * h * W**2 for h, W in zip(widths, layers)], bias) / g2
    spectral_measure = float(np.prod([h * s**2 for h, s in zip(widths, spec)])) / g2

    report = ComplexityReport(
        margin=gamma_margin,
        l2_measure=l2_measure,
        l1_path_measure=l1_path,
        l2_path_measure=l2_path,
        spectral_measure=spectral_measure,
        layer_frobenius=fro,
        layer_spectral=spec,
        layer_l1_inf=l1inf,
    )
    for p, q in pq_grid:
        report.group_norms[(p, q)] = matrix_group_norm(layers, p, q)
        report.product_norms[(p, q)] = float(np.prod([matrix_group_norm([W], p, q) for W in layers]))
    for p in sorted({p for p, _ in pq_grid}):
        report.path_norms[p] = _path_total([np.abs(W) ** p for W in layers], bias) ** (1.0 / p)
    return report


# -- sharpness ------------------------------------------------------------------------


@dataclass
class AscentConfig:
    steps: int = 2000
    step_size: float = 0.01
    momentum: float = 0.9
    batch_size: int = 64
    seed: int = 0


def max_sharpness(net: NetworkGraph, theta: np.ndarray, X: np.ndarray, labels, alpha: float, cfg: AscentConfig | None = None, loss: str = "cross_entropy") -> SharpnessEstimate:
    """Largest training-loss increase under |u_i| <= alpha (|w_i| + 1).

    Projected stochastic gradient ascent inside the box; the endpoint loss
    is evaluated on the full set.  alpha = 0 returns exactly zero.
    """
    cfg = cfg or AscentConfig()
    theta = np.asarray(theta, dtype=np.float64)
    box = alpha * (np.abs(theta) + 1.0)
    base_loss = _full_loss(net, theta, X, labels, loss)
    if alpha == 0.0:
        return SharpnessEstimate(0.0, alpha, base_loss, base_loss, 0)
    rng = np.random.default_rng(cfg.seed)
    u = np.zeros_like(theta)
    vel = np.zeros_like(theta)
    from .netgraph import backward

    n = len(X)
    for step in range(cfg.steps):
        idx = rng.integers(0, n, size=min(cfg.batch_size, n))
        trace = forward(net, theta + u, X[idx])
        _, d_scores = loss_and_grad(loss, trace.outputs(), np.asarray(labels)[idx])
        g = backward(net, theta + u, trace, d_scores)
        vel = cfg.momentum * vel + g
        u = np.clip(u + cfg.step_size * vel, -box, box)
    peak_loss = _full_loss(net, theta + u, X, labels, loss)
    return SharpnessEstimate(max(peak_loss - base_loss, 0.0), alpha, base_loss, peak_loss, cfg.steps)


def _full_loss(net, theta, X, labels, loss):
    val, _ = loss_and_grad(loss, predict(net, theta, X), labels)
    return val


def pac_bayes_kl(theta: np.ndarray, alpha: float) -> float:
    """Closed form KL for the magnitude-scaled Gaussian perturbation."""
    theta = np.asarray(theta, dtype=np.float64)
    return float(np.sum((theta / (10.0 * np.abs(theta) + 1.0)) ** 2) / alpha**2)


def pac_bayes_curve(net: NetworkGraph, theta: np.ndarray, X: np.ndarray, labels, alpha_grid, n_perturb: int = 1000, seed: int = 0, batch_size: int | None = 64, loss: str = "cross_entropy") -> PacBayesCurve:
    """Expected sharpness and KL for perturbation scales sigma_i = alpha (10|w_i| + 1).

    Each draw perturbs every parameter with independent Gaussian noise and
    evaluates the loss on a seeded minibatch (or the full set when
    batch_size is None or exceeds the data).  Deterministic given the seed.
    """
    alpha_grid = np.asarray(sorted(alpha_grid), dtype=np.float64)
    if np.any(alpha_grid <= 0):
        raise InvalidEpsilon("alpha grid must be positive")
    theta = np.asarray(theta, dtype=np.float64)
    labels = np.asarray(labels)
    base_loss = _full_loss(net, theta, X, labels, loss)
    scale = 10.0 * np.abs(theta) + 1.0
    kl = np.array([pac_bayes_kl(theta, a) for a in alpha_grid])
    sharp = np.zeros_like(alpha_grid)
    n = len(X)
    use_batch = batch_size is not None and batch_size < n
    for j, a in enumerate(alpha_grid):
        rng = np.random.default_rng([seed, j])
        acc = 0.0
        for _ in range(n_perturb):
            u = rng.standard_normal(theta.shape) * (a * scale)
            if use_batch:
                idx = rng.integers(0, n, size=batch_size)
                Xb, yb = X[idx], labels[idx]
            else:
                Xb, yb = X, labels
            val, _ = loss_and_grad(loss, predict(net, theta + u, Xb), yb)
            acc += val
        sharp[j] = acc / n_perturb - base_loss
    return PacBayesCurve(alphas=alpha_grid, kl=kl, expected_sharpness=sharp)


# -- perturbation bound ------------------------------------------------------------


def perturbation_bound_check(layers: list[np.ndarray], perturbations: list[np.ndarray], x: np.ndarray, input_bound: float | None = None):
    """Both sides of the layerwise perturbation inequality.

    lhs = ||f_{w+u}(x) - f_w(x)||_2; rhs = e * B * prod ||W_i||_2 *
    sum ||U_i||_2 / ||W_i||_2, valid whenever every ||U_i||_2 <=
    ||W_i||_2 / d.  Raises when the precondition fails.  With bias columns,
    B and ||W_i||_2 are those of the bias-free net on [x; 1] whose hidden
    layers pass a constant-one unit on (each such W_i gains a row e_last).
    """
    layers = [np.asarray(W, dtype=np.float64) for W in layers]
    perturbations = [np.asarray(U, dtype=np.float64) for U in perturbations]
    if len(layers) != len(perturbations):
        raise InvalidPerturbation("need one perturbation per layer")
    d = len(layers)
    x = np.asarray(x, dtype=np.float64).ravel()
    B = float(np.linalg.norm(x)) if input_bound is None else float(input_bound)
    if np.linalg.norm(x) > B + 1e-12:
        raise InvalidPerturbation("||x|| exceeds the stated input bound")
    bias_free = layers
    if layers[0].shape[1] == x.size + 1:
        B = float(np.hypot(B, 1.0))
        bias_free = [np.vstack([W, np.eye(1, W.shape[1], W.shape[1] - 1)]) for W in layers[:-1]] + layers[-1:]
    w_specs = [spectral_norm(W) for W in bias_free]
    u_specs = [spectral_norm(U) for U in perturbations]
    for ws, us in zip(w_specs, u_specs):
        if us > ws / d + 1e-12:
            raise InvalidPerturbation("perturbation exceeds ||W||_2 / d")
    perturbed = [W + U for W, U in zip(layers, perturbations)]
    lhs = float(np.linalg.norm(_activation_stack(perturbed, x)[1][-1] - _activation_stack(layers, x)[1][-1]))
    prod = float(np.prod(w_specs))
    ratio = sum((us / ws if ws > 0 else 0.0) for us, ws in zip(u_specs, w_specs))
    rhs = float(np.e * B * prod * ratio)
    return lhs, rhs


# -- interaction / activation / spikiness conditions ----------------------------------


def check_conditions(layers: list[np.ndarray], X: np.ndarray, delta_grid=(0.01, 0.05, 0.1, 0.5, 1.0), max_triples: int = 10**4, seed: int = 0) -> ConditionReport:
    """Layer-interaction, activation-flip and spikiness diagnostics.

    For each input x: with D_i the 0/1 activation diagonal of layer i
    (identity at the linear output) and P(a, b) the product D_b W_b ... of
    layers a..b applied after setting W_0 = x, the interaction constant is
        mu = min over 0 <= a < c < b <= d of
             sqrt(h_c) ||P(a,b)||_F / (||P(c+1,b)||_F ||P(a,c)||_F),
    clipped to (0, 1].  The flip curve reports, per delta, the largest
    fraction of units with |pre-activation| <= delta divided by delta; the
    spikiness ratio compares the largest incoming row norm against the
    average active row norm per layer.  A bias column reads a constant-one
    unit; in P(a, b) it is 1 for a = 0 (x folded in) and starts no path
    otherwise, so zero bias weights give the bias-free report.
    """
    layers = [np.asarray(W, dtype=np.float64) for W in layers]
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    d = len(layers)
    bias = layers[0].shape[1] == X.shape[1] + 1
    mu_best = np.inf
    c2_acc = {float(dl): 0.0 for dl in delta_grid}
    c3_acc = [0.0] * d
    rng = np.random.default_rng(seed)

    triples = [(a, c, b) for a in range(0, d) for c in range(a + 1, d + 1) for b in range(c + 1, d + 1)]
    if len(triples) > max_triples:
        keep = rng.choice(len(triples), size=max_triples, replace=False)
        triples = [triples[i] for i in keep]

    for x in X:
        acts, pres = _activation_stack(layers, x)
        # P[a][b] = product of gated layers a..b (1-indexed); index 0 folds in x
        mats = {}
        for a in range(0, d + 1):
            run = None
            for b in range(a, d + 1):
                if b == 0:
                    run = x[:, None].copy()
                else:
                    gated = acts[b - 1][:, None] * layers[b - 1]
                    if run is not None and bias:
                        run = np.vstack([run, np.full((1, run.shape[1]), float(a == 0))])
                    run = gated.copy() if run is None else gated @ run
                mats[(a, b)] = run
        for a, c, b in triples:
            num = np.linalg.norm(mats[(a, b)])
            den = np.linalg.norm(mats[(c + 1, b)]) * np.linalg.norm(mats[(a, c)])
            if den == 0.0:
                continue
            h_c = mats[(a, c)].shape[0]
            mu_best = min(mu_best, np.sqrt(h_c) * num / den)
        for dl in c2_acc:
            for k in range(d - 1):  # ReLU layers only
                frac = float(np.mean(np.abs(pres[k]) <= dl))
                c2_acc[dl] = max(c2_acc[dl], frac / dl)
        for k in range(d):
            gated = (acts[k][:, None] * layers[k]) if k < d - 1 else layers[k]
            row_max = float(np.max(np.sum(layers[k] ** 2, axis=1)))
            den = float(np.sum(gated**2))
            if den > 0:
                h_k = layers[k].shape[0]
                c3_acc[k] = max(c3_acc[k], np.sqrt(row_max * h_k / den))

    mu = float(min(mu_best, 1.0)) if np.isfinite(mu_best) else 1.0
    return ConditionReport(
        mu_c1=mu,
        c2_curve=sorted(c2_acc.items()),
        c3_per_layer=c3_acc,
    )


def _activation_stack(layers, x):
    """Per ReLU layer: activation indicator and pre-activation vectors; a bias column reads an appended 1."""
    acts, pres = [], []
    h = x
    d = len(layers)
    for k, W in enumerate(layers):
        z = W @ (np.append(h, 1.0) if W.shape[1] == len(h) + 1 else h)
        pres.append(z)
        if k < d - 1:
            acts.append((z > 0).astype(np.float64))
            h = np.maximum(z, 0.0)
        else:
            acts.append(np.ones_like(z))
    return acts, pres
