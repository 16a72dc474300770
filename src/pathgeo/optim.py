"""Loss functions and the update-rule family.

All steps share one contract: given (net, theta, batch, config) return the
next parameter vector.  The preconditioned variants divide each gradient
coordinate by a per-parameter curvature scale (kappa or the Fisher
diagonal) floored away from zero; momentum, when enabled, accumulates the
preconditioned step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateNormalization, InsufficientData, InvalidLabel, UnsupportedCombination
from .netgraph import (
    NODE_BIAS,
    NODE_INTERNAL,
    NODE_OUTPUT,
    NetworkGraph,
    backward,
    forward,
    per_example_sq_grad,
)
from .pathnorm import (
    check_blend,
    ddp_kappa,
    fisher_diag_analytic,
    kappa1,
    kappa2_rnn,
)

METHODS = ("sgd", "path_sgd", "ddp_sgd", "ddp_norm", "diag_ng")
LOSS_KINDS = ("cross_entropy", "truncated_cross_entropy", "squared", "margin")

TRUNC_KNOT = -11.0
TRUNC_SCALE = np.exp(-11.0)
FISHER_MC_CHUNK = 4096  # samples per forward in `fisher_diag_mc`


@dataclass
class OptimizerConfig:
    method: str = "sgd"
    lr: float = 0.1
    alpha: float = 0.0
    stat: str = "second_moment"
    use_kappa2: bool = False
    kappa_floor: float | None = None  # None -> only exact zeros are replaced, by 1 (see floored)
    seed: int = 0
    momentum: float = 0.0
    loss: str = "cross_entropy"
    margin_gamma: float = 0.0

    def __post_init__(self):
        if self.method not in METHODS:
            raise UnsupportedCombination(f"unknown method {self.method!r}")
        if self.loss not in LOSS_KINDS:
            raise UnsupportedCombination(f"unknown loss {self.loss!r}")
        if not np.isfinite(self.lr) or self.lr <= 0:
            raise UnsupportedCombination("step size must be finite and positive")
        if self.kappa_floor is not None and self.kappa_floor < 0:
            raise UnsupportedCombination("kappa floor must be >= 0")
        if not 0.0 <= self.alpha <= 1.0:
            raise UnsupportedCombination("alpha must lie in [0, 1]")


@dataclass
class UpdateReport:
    step: int
    loss: float
    grad_norm: float
    kappa_min: float
    kappa_max: float


@dataclass
class OptimizerState:
    """Single-owner mutable state threaded through the step functions.

    Keeps the last step's report and the kappa range seen since the last
    `start_epoch`, so its size does not grow with the number of steps.
    """

    velocity: np.ndarray | None = None
    step: int = 0
    last: UpdateReport | None = None
    kappa_min: float | None = None
    kappa_max: float | None = None

    def start_epoch(self):
        self.kappa_min = self.kappa_max = None

    def record(self, report: UpdateReport):
        self.last = report
        self.kappa_min = report.kappa_min if self.kappa_min is None else min(self.kappa_min, report.kappa_min)
        self.kappa_max = report.kappa_max if self.kappa_max is None else max(self.kappa_max, report.kappa_max)


# -- losses --------------------------------------------------------------------


def _check_labels(labels, k):
    labels = np.asarray(labels)
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= k:
        raise InvalidLabel(f"labels outside [0, {k})")
    return labels.astype(np.int64)


def _trunc_f_fprime(x):
    """The truncated exponential and its derivative: exp above the knot, a quadratic ramp below."""
    f = np.exp(np.minimum(x, 700.0))
    fp = f.copy(order="K")  # keep the scores' layout, so the sums below add in the same order
    low = x < TRUNC_KNOT
    if np.any(low):
        t = np.maximum(x[low] + 13.0, 0.0)
        f[low] = TRUNC_SCALE * t * t / 4.0
        fp[low] = TRUNC_SCALE * t / 2.0
    return f, fp


def loss_and_grad(kind: str, scores: np.ndarray, labels, margin_gamma: float = 0.0):
    """Mean loss over the batch and its gradient w.r.t. the scores.

    kinds: "cross_entropy" ln sum_i exp(s_i - s_c); "truncated_cross_entropy"
    the same with exp replaced below the knot by a quadratic ramp, so zero
    loss is attainable at finite margins; "squared" 0.5 ||s - y||^2 with
    real targets; "margin" the gamma-margin error indicator (zero gradient
    almost everywhere, gamma = 0 gives the classification error).
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim == 1:
        scores = scores[:, None]
    m, k = scores.shape

    if kind == "squared":
        y = np.asarray(labels, dtype=np.float64).reshape(m, k)
        diff = scores - y
        return float(0.5 * np.sum(diff**2) / m), diff / m

    if kind == "margin":
        labels = _check_labels(labels, k)
        margins = point_margins(scores, labels)
        return float(np.mean(margins <= margin_gamma)), np.zeros_like(scores)

    labels = _check_labels(labels, k)
    rel = scores - scores[np.arange(m), labels][:, None]
    if kind == "cross_entropy":
        mx = rel.max(axis=1, keepdims=True)
        lse = mx[:, 0] + np.log(np.sum(np.exp(rel - mx), axis=1))
        p = np.exp(rel - mx)
        p /= p.sum(axis=1, keepdims=True)
        grad = p.copy()
        grad[np.arange(m), labels] -= 1.0
        return float(lse.mean()), grad / m
    if kind == "truncated_cross_entropy":
        f, fp = _trunc_f_fprime(rel)
        tot = f.sum(axis=1)
        grad = fp / tot[:, None]
        grad[np.arange(m), labels] -= fp.sum(axis=1) / tot
        return float(np.mean(np.log(tot))), grad / m
    raise UnsupportedCombination(f"unknown loss kind {kind!r}")


def point_margins(scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per point: the correct class's score minus the best other score."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    m = scores.shape[0]
    correct = scores[np.arange(m), labels]
    rest = scores.copy()
    rest[np.arange(m), labels] = -np.inf
    return correct - rest.max(axis=1)


def batch_loss_grad(net: NetworkGraph, theta: np.ndarray, X: np.ndarray, labels, cfg: OptimizerConfig):
    """Forward + loss + backward; returns (loss, grad wrt theta, trace)."""
    trace = forward(net, theta, X)
    loss, d_scores = loss_and_grad(cfg.loss, trace.outputs(), labels, cfg.margin_gamma)
    grad = backward(net, theta, trace, d_scores)
    return loss, grad, trace


# -- preconditioners -------------------------------------------------------------


def floored(kappa: np.ndarray, floor: float | None) -> np.ndarray:
    """Guard the curvature divisor.

    By default only exact zeros are replaced (by 1): kappa_e = 0 forces the
    corresponding gradient coordinate to zero as well, since both are built
    from the same vanishing path products, so any placeholder divisor gives
    the same (zero) step and the update stays invariant to node-wise
    rescaling.  An explicit positive floor clips kappa from below instead;
    that trades away exact invariance for bounded step amplification.
    """
    if floor is None:
        out = kappa.copy()
        out[out == 0.0] = 1.0
        return out
    return np.maximum(kappa, floor)


def path_kappa(net: NetworkGraph, theta: np.ndarray, use_kappa2: bool = False) -> np.ndarray:
    k = kappa1(net, theta)
    if use_kappa2 and net.rnn is not None:
        k = k + kappa2_rnn(net.rnn, theta)
    return k


# -- update rules ----------------------------------------------------------------


def _apply(theta, step_dir, cfg, state):
    if cfg.momentum > 0.0:
        if state.velocity is None:
            state.velocity = np.zeros_like(theta)
        state.velocity = cfg.momentum * state.velocity + step_dir
        step_dir = state.velocity
    return theta - cfg.lr * step_dir


def sgd_step(net, theta, X, labels, cfg: OptimizerConfig, state: OptimizerState | None = None):
    state = state if state is not None else OptimizerState()
    loss, grad, _ = batch_loss_grad(net, theta, X, labels, cfg)
    new = _apply(theta, grad, cfg, state)
    state.step += 1
    state.record(UpdateReport(state.step, loss, float(np.linalg.norm(grad)), 1.0, 1.0))
    return new


def path_sgd_step(net, theta, X, labels, cfg: OptimizerConfig, state: OptimizerState | None = None):
    """Divide each gradient coordinate by kappa before stepping."""
    state = state if state is not None else OptimizerState()
    loss, grad, _ = batch_loss_grad(net, theta, X, labels, cfg)
    kap = floored(path_kappa(net, theta, cfg.use_kappa2), cfg.kappa_floor)
    new = _apply(theta, grad / kap, cfg, state)
    state.step += 1
    state.record(UpdateReport(state.step, loss, float(np.linalg.norm(grad)), float(kap.min()), float(kap.max())))
    return new


def ddp_sgd_step(net, theta, X, labels, cfg: OptimizerConfig, state: OptimizerState | None = None):
    """Data-dependent diagonal steepest descent; alpha = 0 is exactly path SGD."""
    if cfg.alpha == 0.0:
        return path_sgd_step(net, theta, X, labels, replace(cfg, use_kappa2=False), state)
    state = state if state is not None else OptimizerState()
    loss, grad, _ = batch_loss_grad(net, theta, X, labels, cfg)
    kap = floored(ddp_kappa(net, theta, X, cfg.alpha, cfg.stat), cfg.kappa_floor)
    new = _apply(theta, grad / kap, cfg, state)
    state.step += 1
    state.record(UpdateReport(state.step, loss, float(np.linalg.norm(grad)), float(kap.min()), float(kap.max())))
    return new


def diag_ng_step(net, theta, X, labels, cfg: OptimizerConfig, state: OptimizerState | None = None):
    """Precondition by the diagonal of the Fisher matrix (Gaussian output model)."""
    state = state if state is not None else OptimizerState()
    loss, grad, _ = batch_loss_grad(net, theta, X, labels, cfg)
    fdiag = floored(fisher_diag_analytic(net, theta, X), cfg.kappa_floor)
    new = _apply(theta, grad / fdiag, cfg, state)
    state.step += 1
    state.record(UpdateReport(state.step, loss, float(np.linalg.norm(grad)), float(fdiag.min()), float(fdiag.max())))
    return new


STEP_FUNCS = {
    "sgd": sgd_step,
    "path_sgd": path_sgd_step,
    "ddp_sgd": ddp_sgd_step,
    "diag_ng": diag_ng_step,
}


def optimizer_step(net, theta, X, labels, cfg: OptimizerConfig, state: OptimizerState | None = None):
    try:
        fn = STEP_FUNCS[cfg.method]
    except KeyError:
        raise UnsupportedCombination(f"method {cfg.method!r} has no step function") from None
    return fn(net, theta, X, labels, cfg, state)


# -- Monte-Carlo Fisher oracle ----------------------------------------------------


def fisher_diag_mc(net: NetworkGraph, theta: np.ndarray, inputs: np.ndarray, n_samples: int, seed: int) -> np.ndarray:
    """Unbiased Monte-Carlo estimate of the Fisher diagonal.

    Draw x uniformly from `inputs`, y ~ N(f(x), I); average the squared
    per-sample score gradient d log q(y|x) / d theta.  Deterministic given
    the seed.  Requires a one-to-one param map, like `per_example_sq_grad`.
    """
    if n_samples < 1:
        raise UnsupportedCombination("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    total = np.zeros(net.n_param)
    done = 0
    while done < n_samples:
        b = min(FISHER_MC_CHUNK, n_samples - done)
        idx = rng.integers(0, len(inputs), size=b)
        X = inputs[idx]
        trace = forward(net, theta, X)
        f = trace.outputs()
        y = f + rng.standard_normal(f.shape)
        # d log q / d f = y - f; per-sample squared gradients
        total += per_example_sq_grad(net, theta, trace, y - f)
        done += b
    return total / n_samples


# -- DDP normalization -------------------------------------------------------------


def ddp_norm_forward_backward(net: NetworkGraph, w_tilde: np.ndarray, X: np.ndarray, labels, alpha: float, stat: str = "variance", loss: str = "cross_entropy", margin_gamma: float = 0.0):
    """Forward and gradient for the normalized reparametrization.

    Internal nodes use w = w_tilde / gamma_tilde_v with
    gamma_tilde_v^2 = alpha * S(z_tilde_v) + (1 - alpha) * ||w_tilde||^2
    estimated on the batch; output nodes stay un-normalized.  Returns
    (loss, grad vector, per-node grad dict, per-node outputs, gamma_tilde).
    At every normalized node the gradient is exactly orthogonal to the
    node's incoming w_tilde; output nodes, being un-normalized, are not.
    """
    check_blend(alpha, stat)
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    n = X.shape[0]
    if stat == "variance" and n < 2:
        raise InsufficientData("variance statistics need a batch of >= 2")
    if net.rnn is not None or net.dims is None:
        raise UnsupportedCombination("normalized training is defined on layered nets")

    V = net.n_nodes
    h = np.zeros((V, n))
    h[net.node_kind == NODE_BIAS] = 1.0
    h[net.input_nodes] = X.T
    z = np.zeros((V, n))
    gamma_t = np.ones(V)
    rw = {}  # R_v w_tilde per node
    w = np.asarray(w_tilde, dtype=np.float64)

    order = [v for v in net.topo if net.in_edges[v]]
    for v in order:
        eids, srcs, pids = net.in_edges[v]
        wt = w[pids]
        hv = h[srcs]
        zt = wt @ hv
        if net.node_kind[v] == NODE_OUTPUT:
            z[v] = zt
            h[v] = zt
            continue
        if stat == "variance":
            hc = hv - hv.mean(axis=1, keepdims=True)
            ztc = zt - zt.mean()
            s_rw = (hc * ztc).mean(axis=1)
            s_val = float((ztc**2).mean())
        else:
            s_rw = (hv * zt).mean(axis=1)
            s_val = float((zt**2).mean())
        g2 = alpha * s_val + (1.0 - alpha) * float(wt @ wt)
        if g2 <= 0.0:
            raise DegenerateNormalization(f"gamma_tilde at node {v} is zero")
        gv = np.sqrt(g2)
        gamma_t[v] = gv
        rw[v] = alpha * s_rw + (1.0 - alpha) * wt
        z[v] = zt / gv
        h[v] = np.maximum(z[v], 0.0)

    out_scores = h[net.output_nodes].T
    loss_val, d_scores = loss_and_grad(loss, out_scores, labels, margin_gamma)

    # backward: total derivative including the batch statistics
    d_z = np.zeros((V, n))
    d_z[net.output_nodes] = d_scores.T
    grad = np.zeros(net.n_param)
    for v in order[::-1]:
        eids, srcs, pids = net.in_edges[v]
        wt = w[pids]
        hv = h[srcs]
        dzv = d_z[v]
        if net.node_kind[v] == NODE_OUTPUT:
            grad[pids] = hv @ dzv
            d_h_src = np.outer(wt, dzv)
        else:
            gv = gamma_t[v]
            zv = z[v]
            c = float(dzv @ zv)
            grad[pids] = (hv @ dzv - c * rw[v] / gv) / gv
            zhat = zv - zv.mean() if stat == "variance" else zv
            d_h_src = np.outer(wt / gv, dzv - (alpha / n) * c * zhat)
        internal = (net.node_kind[srcs] == NODE_INTERNAL)[:, None]
        np.add.at(d_z, srcs, np.where(internal, d_h_src * (z[srcs] > 0), d_h_src))
    grads = {int(v): grad[net.in_edges[v][2]] for v in order}
    return loss_val, grad, grads, h, gamma_t


def ddp_norm_step(net, w_tilde, X, labels, cfg: OptimizerConfig, state: OptimizerState | None = None):
    """Plain SGD on the normalized parametrization (outputs included, un-normalized)."""
    state = state if state is not None else OptimizerState()
    loss, grad, _, _, _ = ddp_norm_forward_backward(net, w_tilde, X, labels, cfg.alpha, cfg.stat, cfg.loss, cfg.margin_gamma)
    new = _apply(w_tilde, grad, cfg, state)
    state.step += 1
    state.record(UpdateReport(state.step, loss, float(np.linalg.norm(grad)), 1.0, 1.0))
    return new


STEP_FUNCS["ddp_norm"] = ddp_norm_step
