"""Node-wise rescaling transformations, balancing, and path-Jacobian rank.

A node-wise rescaling multiplies the incoming weights of a hidden unit by
a positive factor and divides its outgoing weights by the same factor; it
leaves the computed function unchanged.  On shared-weight nets a rescaling
is feasible only if edges sharing a parameter agree after the transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleRescaling, InvalidArchitecture, MarginDegenerate
from .netgraph import (
    DEFAULT_PATH_CAP,
    NODE_INTERNAL,
    NetworkGraph,
    RNNSpec,
    build_layered,
    enumerate_paths,
    layer_views,
    path_sum,
    predict,
)


@dataclass
class PathJacobian:
    """Derivatives of path-weight products w.r.t. edge weights.

    jac[p, e] = d pi_p(w) / d w_e; incidence[p, e] marks edge membership.
    Where no weight vanishes, jac = diag(w^-1) @ incidence @ diag(pi(w))
    entrywise.
    """

    jac: np.ndarray
    incidence: np.ndarray


def rescale_feedforward(net: NetworkGraph, theta: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Apply w'_{u->v} = (beta_v / beta_u) * w_{u->v} and return new parameters.

    beta must be positive, with beta = 1 at input, bias and output nodes.
    On shared nets the transformed copies of each parameter must agree
    exactly, otherwise the map is infeasible.
    """
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != (net.n_nodes,):
        raise InfeasibleRescaling(f"beta has shape {beta.shape}, expected ({net.n_nodes},)")
    if np.any(beta <= 0):
        raise InfeasibleRescaling("rescaling factors must be positive")
    fixed = net.node_kind != NODE_INTERNAL
    if np.any(beta[fixed] != 1.0):
        raise InfeasibleRescaling("beta must be 1 at input, bias and output nodes")
    src, dst, pid = net.edges[:, 0], net.edges[:, 1], net.edges[:, 2]
    per_edge = theta[pid] * (beta[dst] / beta[src])
    out = np.array(theta, dtype=np.float64)
    out[pid] = per_edge
    unequal = np.flatnonzero(out[pid] != per_edge)
    if unequal.size:
        raise InfeasibleRescaling(f"shared parameter {pid[unequal[0]]} receives unequal scaled copies")
    return out


def rescale_rnn(spec: RNNSpec, theta: np.ndarray, alpha: list[np.ndarray]) -> np.ndarray:
    """Feasible node-wise rescaling of a stacked RNN by per-unit factors.

    alpha[i] holds the positive factors for hidden layer i (0-based).
    Input matrices scale by alpha_j^i / alpha_k^{i-1} (layer 0 of alpha
    implicitly all ones), recurrent matrices by alpha_j^i / alpha_k^i and
    the output matrix by 1 / alpha_k^{d-1}.
    """
    alpha = [np.asarray(a, dtype=np.float64) for a in alpha]
    if len(alpha) != len(spec.hidden) or any(len(a) != n for a, n in zip(alpha, spec.hidden)):
        raise InfeasibleRescaling("alpha must give one factor per hidden unit per layer")
    if any(np.any(a <= 0) for a in alpha):
        raise InfeasibleRescaling("rescaling factors must be positive")
    w_in, w_rec, w_out = spec.unpack(theta)
    w_in = [m.copy() for m in w_in]
    w_rec = [m.copy() for m in w_rec]
    w_out = w_out.copy()
    for i in range(len(spec.hidden)):
        col = np.ones(spec.n_in) if i == 0 else alpha[i - 1]
        w_in[i] *= alpha[i][:, None] / col[None, :]
        w_rec[i] *= alpha[i][:, None] / alpha[i][None, :]
    w_out /= alpha[-1][None, :]
    return spec.pack(w_in, w_rec, w_out)


def random_rescaling(net: NetworkGraph, rng, sigma_log: float = 1.0) -> np.ndarray:
    """Random positive beta at internal nodes (log-normal), ones elsewhere."""
    beta = np.ones(net.n_nodes)
    beta[net.internal_nodes] = rng.lognormal(0.0, sigma_log, size=len(net.internal_nodes))
    return beta


def random_unbalance(net: NetworkGraph, theta: np.ndarray, seed: int, sigma_log: float = 1.0, n_draws: int | None = None) -> np.ndarray:
    """Compose random per-unit rescalings that leave the function unchanged.

    Draws internal nodes with replacement; each draw multiplies the node's
    incoming weights by 10c and divides its outgoing weights by 10c with
    c log-normal.  Per-layer norms change wildly, path products do not.
    """
    if sigma_log <= 0:
        raise InfeasibleRescaling("sigma_log must be positive")
    rng = np.random.default_rng(seed)
    internal = net.internal_nodes
    if n_draws is None:
        n_draws = len(internal)
    beta = np.ones(net.n_nodes)
    for _ in range(n_draws):
        v = int(rng.choice(internal))
        beta[v] *= 10.0 * rng.lognormal(0.0, sigma_log)
    return rescale_feedforward(net, theta, beta)


def check_function_equal(net: NetworkGraph, theta1: np.ndarray, theta2: np.ndarray, probes: np.ndarray, tol: float = 1e-9):
    """Compare the outputs on probe inputs; returns (equal, max_deviation)."""
    f1 = predict(net, theta1, probes)
    f2 = predict(net, theta2, probes)
    dev = float(np.max(np.abs(f1 - f2))) if f1.size else 0.0
    return dev <= tol, dev


# -- balancing ----------------------------------------------------------------


def _row_norms(W: np.ndarray, p: float) -> np.ndarray:
    """l_p norm of each row of W (each unit's incoming weights)."""
    return np.sum(np.abs(W) ** p, axis=1) ** (1.0 / p)


def matrix_group_norm(mats: list[np.ndarray], p: float, q: float) -> float:
    """l_p over each row (a unit's incoming weights), l_q across the rows of all mats."""
    rows = np.concatenate([_row_norms(W, p) for W in mats])
    if np.isinf(q):
        return float(rows.max())
    return float(np.sum(rows**q) ** (1.0 / q))


def layer_matrices(net: NetworkGraph, theta: np.ndarray) -> list[np.ndarray]:
    """Weight matrices (incl. bias column if present) of a layered net, as copies."""
    return [W.copy() for W in layer_views(net, theta)]


def pack_layers(net: NetworkGraph, mats: list[np.ndarray]) -> np.ndarray:
    return np.concatenate([m.ravel() for m in mats])


def group_norm(net: NetworkGraph, theta: np.ndarray, p: float, q: float) -> float:
    """mu_{p,q}: l_p over incoming weights per unit, l_q across all units."""
    return matrix_group_norm(layer_matrices(net, theta), p, q)


def product_norm(net: NetworkGraph, theta: np.ndarray, p: float, q: float) -> float:
    """psi_{p,q}: product over layers of the per-layer (p, q) group norm."""
    return float(np.prod([matrix_group_norm([W], p, q) for W in layer_matrices(net, theta)]))


def path_norm(net: NetworkGraph, theta: np.ndarray, p: float) -> float:
    """phi_p: (sum over paths of the product of |w|^p)^(1/p), by forward DP."""
    acc = path_sum(net, np.abs(theta) ** p)
    return float(acc[net.output_nodes].sum() ** (1.0 / p))


def balance_layers(net: NetworkGraph, theta: np.ndarray, p: float, q: float) -> np.ndarray:
    """Rescale whole layers to equal (p, q) norm without changing the function.

    Afterwards mu_{p,q} = d^{1/q} * psi_{p,q}^{1/d} with psi unchanged.
    """
    mats = layer_matrices(net, theta)
    norms = [matrix_group_norm([W], p, q) for W in mats]
    if any(n == 0.0 for n in norms):
        raise MarginDegenerate("cannot balance a zero-norm layer")
    psi_root = float(np.prod(norms)) ** (1.0 / len(mats))
    out = [W * (psi_root / n) for W, n in zip(mats, norms)]
    return pack_layers(net, out)


def balance_per_unit(net: NetworkGraph, theta: np.ndarray, p: float, max_sweeps: int = 100, tol: float = 1e-12) -> np.ndarray:
    """Give every internal unit incoming l_p norm 1 by node-wise rescaling.

    Bottom-up sweeps push each unit's scale into its outgoing weights; a
    unit with zero incoming norm is left untouched.  Afterwards the path
    norm phi_p equals the per-unit product norm psi_{p,infty}.
    """
    mats = layer_matrices(net, theta)
    d = len(mats)
    for _ in range(max_sweeps):
        worst = 0.0
        for k in range(d - 1):
            W = mats[k]
            r = _row_norms(W, p)
            live = r > 0
            worst = max(worst, float(np.abs(r[live] - 1.0).max(initial=0.0)))
            W[live] /= r[live, None]
            mats[k + 1][:, : W.shape[0]] *= np.where(live, r, 1.0)[None, :]
        if worst <= tol:
            break
    return pack_layers(net, mats)


def balance_weights(net: NetworkGraph, theta: np.ndarray, p: float, q: float) -> np.ndarray:
    """Function-preserving balancing: per-unit for q = inf, per-layer otherwise."""
    if np.isinf(q):
        return balance_per_unit(net, theta, p)
    return balance_layers(net, theta, p, q)


# -- path Jacobian and degrees of freedom --------------------------------------


def path_jacobian(net: NetworkGraph, theta: np.ndarray, cap: int = DEFAULT_PATH_CAP) -> PathJacobian:
    """J[p, e] = d pi_p / d w_e built from per-path exclusion products."""
    paths = enumerate_paths(net, cap)
    w = theta[net.edges[:, 2]]
    P, E = len(paths), net.n_edges
    jac = np.zeros((P, E))
    inc = np.zeros((P, E))
    for i, pth in enumerate(paths.paths):
        inc[i, pth] = 1.0
        facs = w[pth]
        for a, e in enumerate(pth):
            jac[i, e] = np.prod(np.delete(facs, a)) if len(facs) > 1 else 1.0
    return PathJacobian(jac=jac, incidence=inc)


def degrees_of_freedom(net: NetworkGraph, theta: np.ndarray, sv_threshold: float = 1e-10, cap: int = DEFAULT_PATH_CAP) -> int:
    """Numerical rank of the path Jacobian; generically |E| - |V_internal|."""
    J = path_jacobian(net, theta, cap=cap).jac
    if J.size == 0:
        return 0
    sv = np.linalg.svd(J, compute_uv=False)
    if sv[0] == 0.0:
        return 0
    return int(np.sum(sv > sv_threshold * sv[0]))


# -- shattering construction ----------------------------------------------------


@dataclass
class ShatteringNet:
    """Two-plus-layer net realizing every labeling of the +-1 hypercube.

    One first-layer unit per point fires (value 2) exactly on its point;
    for n_in >= 3 this needs a threshold implemented as a bias weight
    -(n_in - 2).  Output weights of +-1/2 then realize any labeling with
    margin exactly 1.
    """

    net: NetworkGraph
    points: np.ndarray        # (m, n_in) in {-1, +1}
    base_theta: np.ndarray    # first-layer (and any padding) weights; output layer zero
    psi_value: float          # psi_{p,q} of the realized nets (label independent)
    p: float
    q: float
    depth: int
    n_copies: int

    def theta_for(self, labels: np.ndarray) -> np.ndarray:
        """Weights realizing the labeling in {-1, +1}^m with unit margin."""
        labels = np.asarray(labels, dtype=np.float64)
        m = len(self.points)
        if labels.shape != (m,) or not np.all(np.abs(labels) == 1.0):
            raise InvalidArchitecture("labels must be a +-1 vector, one per point")
        theta = self.base_theta.copy()
        mats = layer_matrices(self.net, theta)
        if self.depth == 2:
            mats[1][0, :m] = labels / 2.0
        else:
            H = self.n_copies
            # H positive copies then H negative copies per sign trick
            mats[1][:H, :m] = labels[None, :] / 2.0
            mats[1][H:, :m] = -labels[None, :] / 2.0
        return pack_layers(self.net, mats)


def build_shattering_net(n_in: int, p: float = 2.0, q: float = 2.0, d: int = 2, n_copies: int = 4) -> ShatteringNet:
    """Construct the hypercube-shattering network and report its psi norm.

    Materializes all m = 2^n_in points, so n_in is capped at 12.  For
    d == 2 the net is [n_in, m, 1] (bias nodes used when n_in >= 3).  For
    d == 3 the top unit is replicated into n_copies positive and n_copies
    negative rectified copies averaged by the output, which divides the
    contribution of the top layers to psi by a power of n_copies.
    """
    if n_in > 12:
        raise InvalidArchitecture("n_in > 12 would materialize too many points")
    if d not in (2, 3):
        raise InvalidArchitecture("construction implemented for depth 2 and 3")
    m = 2**n_in
    pts = np.array([[1.0 if (s >> k) & 1 else -1.0 for k in range(n_in)] for s in range(m)])
    bias = n_in >= 3
    thr = float(n_in - 2)
    if d == 2:
        net = build_layered([n_in, m, 1], bias=bias)
        mats = layer_matrices(net, np.zeros(net.n_param))
        mats[0][:, :n_in] = pts
        if bias:
            mats[0][:, n_in] = -thr
        base = pack_layers(net, mats)
    else:
        H = n_copies
        net = build_layered([n_in, m, 2 * H, 1], bias=bias)
        mats = layer_matrices(net, np.zeros(net.n_param))
        mats[0][:, :n_in] = pts
        if bias:
            mats[0][:, n_in] = -thr
        mats[2][0, :H] = 1.0 / H
        mats[2][0, H : 2 * H] = -1.0 / H
        base = pack_layers(net, mats)

    # psi is independent of the labeling: output rows hold +-1/2 entries.
    probe = ShatteringNet(net=net, points=pts, base_theta=base, psi_value=0.0, p=p, q=q, depth=d, n_copies=n_copies)
    theta_any = probe.theta_for(np.ones(m))
    probe.psi_value = product_norm(net, theta_any, p, q)
    return probe


def shattering_psi_bound(n_in: int, p: float, q: float, d: int = 2, width: int = 1) -> float:
    """The advertised norm budget n^{1/p} m^{1/p+1/q} H^{-(d-2)[1/p*-1/q]+}."""
    m = 2.0**n_in
    p_star = p / (p - 1.0) if p > 1 else np.inf
    expo = max((1.0 / p_star if np.isfinite(p_star) else 0.0) - (0.0 if np.isinf(q) else 1.0 / q), 0.0)
    return float(n_in ** (1.0 / p) * m ** ((1.0 / p) + (0.0 if np.isinf(q) else 1.0 / q)) * width ** (-(d - 2) * expo))
