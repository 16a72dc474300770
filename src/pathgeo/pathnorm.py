"""Path regularizer and its diagonal second derivatives.

gamma2_net is the sum over source->output paths of the product of squared
edge weights; kappa_i = 0.5 * d^2 gamma2_net / d theta_i^2 splits into a
per-edge term kappa1 and an interaction term kappa2 that is nonzero only
when a single path can traverse two edges sharing one parameter (time
unrolled recurrent nets).  Both are one forward and one reverse pass on
the squared-weight network: the net's own backend, picked once in
`NetworkGraph.__post_init__`, run on parameter values w^2 at input ones
(`netgraph.path_trace`); brute-force path enumeration is provided as the
oracle.  Nothing here chooses by net kind; only `kappa2_rnn` reads an RNN
spec, as its data.

The data-dependent variants blend the squared-weight recursion with batch
statistics of the pre-activations, node by node, and reduce to the
data-independent case at alpha=0.  At alpha=1 kappa is the diagonal of the
Fisher matrix, which `fisher_diag_analytic` computes on the backend's own
reverse pass: one `netgraph.per_example_sq_grad` per output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientData, UnsupportedCombination
from .netgraph import (
    DEFAULT_PATH_CAP,
    NODE_BIAS,
    NODE_INTERNAL,
    NODE_OUTPUT,
    NetworkGraph,
    RNNSpec,
    check_no_sharing,
    enumerate_paths,
    forward,
    path_sum,
    path_trace,
    per_example_sq_grad,
    rnn_cotangents,
    rnn_forward,
)

VALID_STATS = ("variance", "second_moment")


@dataclass
class GammaState:
    """Per-node squared path scale; gamma2_net sums the output nodes."""

    gamma2: np.ndarray  # (V,)
    gamma2_net: float


@dataclass
class KappaVector:
    kappa1: np.ndarray
    kappa2: np.ndarray

    @property
    def kappa(self) -> np.ndarray:
        return self.kappa1 + self.kappa2


# -- squared-weight network DP ------------------------------------------------


def path_reg_dp(net: NetworkGraph, theta: np.ndarray) -> tuple[GammaState, float]:
    """Path regularizer by a single forward DP: gamma2_v = sum gamma2_u w^2."""
    g = path_sum(net, theta**2)
    total = float(g[net.output_nodes].sum())
    return GammaState(gamma2=g, gamma2_net=total), total


def path_reg_bruteforce(net: NetworkGraph, theta: np.ndarray, cap: int = DEFAULT_PATH_CAP) -> float:
    """Oracle: enumerate every path and sum the squared-weight products."""
    w2 = theta[net.edges[:, 2]] ** 2
    return float(sum(w2[p].prod() if len(p) else 1.0 for p in enumerate_paths(net, cap).paths))


def kappa1(net: NetworkGraph, theta: np.ndarray) -> np.ndarray:
    """Per-parameter second-derivative term ignoring same-parameter interactions.

    Computed as the gradient of the squared-weight network's summed output
    at the all-ones input: kappa1_i = sum_{e in E_i} delta_{dst(e)} * gamma2_{src(e)}.
    The reverse pass is linear: a unit that no path reaches has z = 0 but
    its delta still counts.
    """
    w2 = theta**2
    trace = path_trace(net, w2)
    return net.backend.backward(w2, trace, np.ones((1, len(net.output_nodes))), linear=True)


def kappa2_rnn(spec: RNNSpec, theta: np.ndarray) -> np.ndarray:
    """Interaction term for the recurrent matrices; zero for W_in and W_out.

    For each recurrent parameter (j, k) of layer i, sum over ordered pairs
    of its time copies t_a < t_b of
        delta_{t_b}[j] * (Wrec^2)^{t_b-1-t_a}[k, j] * h_{t_a-1}[k]
    on the squared network, times 4: a factor 2 from differentiating the
    square and a factor 2 because both orderings of a copy pair carry the
    same weight in the second derivative.
    """
    out = np.zeros(spec.n_param)
    if spec.T < 3:
        return out
    w2 = theta**2
    # the squared net at input ones: per hidden layer, forward path sums and linear cotangents
    zs, hs, _ = rnn_forward(spec, w2, np.ones((1, spec.T, spec.n_in)))
    deltas = rnn_cotangents(spec, w2, zs, np.ones((1, len(spec.output_times), spec.n_out)), linear=True)
    for W2, g_rec, (h_i,), (delta_i,) in zip(spec.unpack(w2)[1], spec.unpack(out)[1], hs, deltas):
        acc = np.zeros_like(W2)
        # powers[s] = (W2^s)[k, j] indexed [k, j]
        power = np.eye(len(W2))
        for s in range(spec.T - 2):
            if s > 0:
                power = power @ W2
            inner = np.zeros_like(W2)
            for t_a in range(2, spec.T - s):
                # h at time t_a - 1, delta at time t_b = t_a + s + 1  (1-based times)
                inner += np.outer(delta_i[t_a + s], h_i[t_a - 2])
            acc += power.T * inner
        g_rec[:] = 4.0 * W2 * acc
    return out


def kappa_bruteforce(net: NetworkGraph, theta: np.ndarray, cap: int = DEFAULT_PATH_CAP) -> KappaVector:
    """Oracle kappa over enumerated paths; exact for any weight sharing.

    kappa1 sums, per path and per edge on it, the product of squared
    weights over the other edges; kappa2 sums over ordered pairs of
    distinct same-parameter edges the product excluding both, times
    2 * theta_i^2 (the true second derivative, matching central
    differences of gamma2_net).
    """
    pid_of_edge = net.edges[:, 2]
    w2 = theta**2
    k1 = np.zeros(net.n_param)
    k2 = np.zeros(net.n_param)
    for p in enumerate_paths(net, cap).paths:
        pids = pid_of_edge[p]
        facs = w2[pids]
        for a in range(len(pids)):
            k1[pids[a]] += np.prod(np.delete(facs, a)) if len(facs) > 1 else 1.0
            for b in range(len(pids)):
                if b == a or pids[b] != pids[a]:
                    continue
                rest = np.prod(np.delete(facs, [a, b])) if len(facs) > 2 else 1.0
                k2[pids[a]] += 2.0 * w2[pids[a]] * rest
    return KappaVector(kappa1=k1, kappa2=k2)


# -- data-dependent variants ---------------------------------------------------


def _batch_stat(z_rows: np.ndarray, stat: str) -> np.ndarray:
    """Biased (1/n) variance or second moment along the batch axis; `check_blend` vets `stat`."""
    return np.var(z_rows, axis=-1) if stat == "variance" else np.mean(z_rows**2, axis=-1)


def check_blend(alpha: float, stat: str):
    if stat not in VALID_STATS:
        raise UnsupportedCombination(f"unknown stat {stat!r}")
    if not 0.0 <= alpha <= 1.0:
        raise UnsupportedCombination(f"alpha={alpha} outside [0, 1]")


def _blended_gamma(net: NetworkGraph, blend_w2: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """(V,) per node: offset[v] + sum over incoming edges of blend_w2 * gamma_u; sources carry 1."""
    g = np.zeros(net.n_nodes)
    g[net.source_nodes] = 1.0
    for v in net.topo:
        if net.in_edges[v]:
            _, srcs, pids = net.in_edges[v]
            g[v] = offset[v] + blend_w2[pids] @ g[srcs]
    return g


def ddp_gamma(net: NetworkGraph, theta: np.ndarray, batch: np.ndarray, alpha: float, stat: str = "second_moment") -> GammaState:
    """Blended per-node measure: alpha * S(z_v) + (1-alpha) * sum gamma2_u w^2.

    Input nodes seed the data-independent recursion with 1.  S is the batch
    variance or second moment of the pre-activation at v.
    """
    check_blend(alpha, stat)
    if alpha > 0 and (batch is None or len(batch) == 0):
        raise InsufficientData("data-dependent measure needs a non-empty batch")
    if alpha == 0.0:
        state, _ = path_reg_dp(net, theta)
        return state
    trace = forward(net, theta, batch)
    g = _blended_gamma(net, (1.0 - alpha) * theta**2, alpha * _batch_stat(trace.z, stat))
    return GammaState(gamma2=g, gamma2_net=float(g[net.output_nodes].sum()))


def ddp_kappa(net: NetworkGraph, theta: np.ndarray, batch: np.ndarray, alpha: float, stat: str = "second_moment") -> np.ndarray:
    """0.5 * d^2 gamma2_net / d w_e^2 for the blended measure, per edge parameter.

    Requires a one-to-one parameter map when alpha > 0.  Propagates two
    backward quantities: A_v = d gamma2_net / d gamma2_v and, per example,
    the coefficient matrix B of pre-activation products; then
        kappa_{u->v} = (1-alpha) A_v gamma2_u + sum_i B_i[v, v] h_u(i)^2.

    With stat="second_moment" this is the exact second derivative (the
    batch statistic decouples over examples).  With stat="variance" the
    recursion runs on batch-centered quantities and drops the cross-example
    coupling through the batch mean, matching the usual per-example
    treatment of normalization statistics.
    """
    check_blend(alpha, stat)
    if alpha == 0.0:
        return kappa1(net, theta)
    check_no_sharing(net)
    if batch is None or len(batch) == 0:
        raise InsufficientData("data-dependent kappa needs a non-empty batch")

    trace = forward(net, theta, batch)
    n = trace.batch_size
    V = net.n_nodes
    w = theta[net.edges[:, 2]]

    blend_w2 = (1.0 - alpha) * theta**2
    gamma = _blended_gamma(net, blend_w2, alpha * _batch_stat(trace.z, stat))
    # A_v = d gamma2_net / d gamma2_v: sum over v->output paths of products of blend_w2
    A = np.zeros(V)
    A[net.output_nodes] = 1.0
    for v in net.topo[::-1]:
        if net.in_edges[v]:
            _, srcs, pids = net.in_edges[v]
            np.add.at(A, srcs, blend_w2[pids] * A[v])

    out_w = [[] for _ in range(V)]
    out_v = [[] for _ in range(V)]
    for e in range(net.n_edges):
        out_w[net.edges[e, 0]].append(w[e])
        out_v[net.edges[e, 0]].append(net.edges[e, 1])

    active = (trace.z > 0) | (net.node_kind == NODE_OUTPUT)[:, None]

    # B[v1, v2, i]: coefficient of z_{v1} z_{v2} (centered for variance) in
    # gamma2_net, with downstream dependence folded in.
    B = np.zeros((V, V, n))
    noninput = [v for v in net.topo[::-1] if net.node_kind[v] in (NODE_INTERNAL, NODE_OUTPUT)]
    for v in noninput:
        B[v, v] += alpha * A[v] / n
    for idx1, u1 in enumerate(noninput):
        ch1_w, ch1_v = out_w[u1], out_v[u1]
        if not ch1_w:
            continue
        for u2 in noninput[:idx1 + 1]:
            ch2_w, ch2_v = out_w[u2], out_v[u2]
            if not ch2_w:
                continue
            acc = np.zeros(n)
            for w1, v1 in zip(ch1_w, ch1_v):
                for w2_, v2 in zip(ch2_w, ch2_v):
                    acc += w1 * w2_ * B[v1, v2]
            contrib = acc * (active[u1] if u1 == u2 else active[u1] * active[u2])
            B[u1, u2] += contrib
            if u1 != u2:
                B[u2, u1] += contrib

    h = trace.h
    if stat == "variance":
        h = h - h.mean(axis=1, keepdims=True)
        h[net.node_kind == NODE_BIAS] = 0.0
    out = np.zeros(net.n_param)
    for e in range(net.n_edges):
        u, v, pid = net.edges[e]
        out[pid] = (1.0 - alpha) * A[v] * gamma[u] + float(B[v, v] @ (h[u] ** 2))
    return out


def fisher_diag_analytic(net: NetworkGraph, theta: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Diagonal of the Fisher matrix under the Gaussian output model.

    F[e] = mean_x sum_{v' in outputs} (d f(x)[v'] / d w_e)^2, evaluated on
    the empirical input distribution X: one forward, then per output one
    reverse pass with that output's one-hot cotangent, squared per example
    (`per_example_sq_grad`).  Requires a one-to-one param map.
    """
    trace = forward(net, theta, X)
    B, n_out = trace.batch_size, len(net.output_nodes)
    return sum(per_example_sq_grad(net, theta, trace, np.broadcast_to(e, (B, n_out))) for e in np.eye(n_out)) / B
