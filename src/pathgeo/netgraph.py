"""Explicit-DAG representation of ReLU networks with shared weights.

A network is a DAG whose nodes are partitioned into input, bias, internal
(ReLU) and output (linear) nodes.  Every edge carries a parameter id, so
weight sharing is the map edge -> param; the free parameters are a flat
float64 vector indexed by param id.

Layered fully connected nets and time-unrolled RNNs are built by helpers
that record their structure, which lets `forward`/`backward` dispatch to
vectorized implementations.  The generic per-node implementation is the
reference semantics and is what the oracles exercise.

`path_sum` / `path_sum_backward` are the one place that sums, over paths,
products of per-edge values; the path regularizer, kappa, the data
dependent blend, path norms and path counts are all that pair evaluated
on transformed weights, and the norm measures call its layered backend
`layered_path_sum` on their matrices.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ContractViolation,
    FormatError,
    InvalidArchitecture,
    NumericInputError,
    TooManyPaths,
)

NODE_INPUT = 0
NODE_INTERNAL = 1
NODE_OUTPUT = 2
NODE_BIAS = 3

DEFAULT_PATH_CAP = 10**6

_PGW_MAGIC = b"PGW1"


@dataclass(frozen=True)
class RNNSpec:
    """Shapes and unroll length of a stacked ReLU RNN.

    Layer 0 is the input; layers 1..d-1 are hidden with input matrices
    W_in^i (n_i x n_{i-1}) and recurrent matrices W_rec^i (n_i x n_i);
    a single output matrix W_out (n_out x n_{d-1}) reads the top hidden
    layer at each time step listed in `output_times`.  Hidden state at
    time 0 is zero.
    """

    n_in: int
    hidden: tuple[int, ...]
    n_out: int
    T: int
    output_times: tuple[int, ...] = ()

    def __post_init__(self):
        if self.T < 1:
            raise InvalidArchitecture("RNN length T must be >= 1")
        if len(self.hidden) < 1 or min(self.hidden) < 1:
            raise InvalidArchitecture("need at least one nonempty hidden layer")
        if self.n_in < 1 or self.n_out < 1:
            raise InvalidArchitecture("n_in and n_out must be >= 1")
        if not self.output_times:
            object.__setattr__(self, "output_times", (self.T,))
        if any(t < 1 or t > self.T for t in self.output_times):
            raise InvalidArchitecture("output_times must lie in [1, T]")

    @property
    def depth(self) -> int:
        return len(self.hidden) + 1

    def param_layout(self):
        """Slices of the flat parameter vector: per layer (w_in, w_rec), then w_out."""
        layout = []
        off = 0
        prev = self.n_in
        for n_i in self.hidden:
            s_in = slice(off, off + n_i * prev)
            off += n_i * prev
            s_rec = slice(off, off + n_i * n_i)
            off += n_i * n_i
            layout.append((s_in, s_rec))
            prev = n_i
        s_out = slice(off, off + self.n_out * prev)
        off += self.n_out * prev
        return layout, s_out, off

    @property
    def n_param(self) -> int:
        return self.param_layout()[2]

    def unpack(self, theta: np.ndarray):
        """Return ([W_in^i], [W_rec^i], W_out) views into theta."""
        layout, s_out, n = self.param_layout()
        if theta.shape != (n,):
            raise ContractViolation(f"theta has {theta.shape}, spec needs ({n},)")
        w_in, w_rec = [], []
        prev = self.n_in
        for (s_i, s_r), n_i in zip(layout, self.hidden):
            w_in.append(theta[s_i].reshape(n_i, prev))
            w_rec.append(theta[s_r].reshape(n_i, n_i))
            prev = n_i
        return w_in, w_rec, theta[s_out].reshape(self.n_out, prev)

    def pack(self, w_in, w_rec, w_out) -> np.ndarray:
        parts = []
        for a, b in zip(w_in, w_rec):
            parts.append(np.asarray(a, dtype=np.float64).ravel())
            parts.append(np.asarray(b, dtype=np.float64).ravel())
        parts.append(np.asarray(w_out, dtype=np.float64).ravel())
        return np.concatenate(parts)


@dataclass(eq=False)
class NetworkGraph:
    """DAG with a parameter map; see module docstring."""

    node_kind: np.ndarray  # (V,) int8
    edges: np.ndarray      # (E, 3) int64 rows [src, dst, param_id]
    n_param: int
    dims: tuple[int, ...] | None = None
    has_bias: bool = False
    rnn: RNNSpec | None = None
    allow_unused_params: bool = False

    # derived, filled by __post_init__
    topo: np.ndarray = field(init=False, repr=False)
    in_edges: list = field(init=False, repr=False)
    input_nodes: np.ndarray = field(init=False, repr=False)
    source_nodes: np.ndarray = field(init=False, repr=False)
    output_nodes: np.ndarray = field(init=False, repr=False)
    internal_nodes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.node_kind = np.asarray(self.node_kind, dtype=np.int8)
        self.edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 3)
        kinds = self.node_kind
        self.input_nodes = np.flatnonzero(kinds == NODE_INPUT)
        self.output_nodes = np.flatnonzero(kinds == NODE_OUTPUT)
        self.internal_nodes = np.flatnonzero(kinds == NODE_INTERNAL)
        self.source_nodes = np.flatnonzero((kinds == NODE_INPUT) | (kinds == NODE_BIAS))
        self._validate_and_index()

    # -- structure ---------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.node_kind)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def _validate_and_index(self):
        V, E = self.n_nodes, self.n_edges
        if len(self.input_nodes) == 0 or len(self.output_nodes) == 0:
            raise InvalidArchitecture("need at least one input and one output node")
        src, dst, pid = self.edges[:, 0], self.edges[:, 1], self.edges[:, 2]
        if E and (src.min() < 0 or src.max() >= V or dst.min() < 0 or dst.max() >= V):
            raise InvalidArchitecture("edge endpoint out of range")
        if np.any((self.node_kind[dst] == NODE_INPUT) | (self.node_kind[dst] == NODE_BIAS)):
            raise InvalidArchitecture("source nodes cannot have incoming edges")
        if np.any(self.node_kind[src] == NODE_OUTPUT):
            raise InvalidArchitecture("output nodes cannot have outgoing edges")
        if E:
            if pid.min() < 0 or pid.max() >= self.n_param:
                raise InvalidArchitecture("param id out of range")
            used = np.zeros(self.n_param, dtype=bool)
            used[pid] = True
            if not self.allow_unused_params and not used.all():
                raise InvalidArchitecture("unused parameter ids")

        # Kahn topological sort; doubles as the acyclicity check.
        indeg = np.zeros(V, dtype=np.int64)
        np.add.at(indeg, dst, 1)
        out_adj = [[] for _ in range(V)]
        for e in range(E):
            out_adj[src[e]].append(dst[e])
        order = []
        stack = sorted(np.flatnonzero(indeg == 0).tolist())
        indeg = indeg.copy()
        while stack:
            u = stack.pop()
            order.append(u)
            for v in out_adj[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    stack.append(v)
        if len(order) != V:
            raise InvalidArchitecture("graph contains a cycle")
        self.topo = np.asarray(order, dtype=np.int64)

        # incoming edges per node, sorted by edge id (fixed accumulation order)
        order_e = np.argsort(dst, kind="stable")
        self.in_edges = [() for _ in range(V)]
        start = 0
        sorted_dst = dst[order_e]
        for v in range(V):
            stop = start
            while stop < E and sorted_dst[stop] == v:
                stop += 1
            if stop > start:
                eids = np.sort(order_e[start:stop])
                self.in_edges[v] = (eids, src[eids], pid[eids])
            start = stop

        # every internal node must sit on some source->output path
        fwd = np.zeros(V, dtype=bool)
        fwd[self.source_nodes] = True
        for v in self.topo:
            if not fwd[v] and self.in_edges[v]:
                fwd[v] = bool(fwd[self.in_edges[v][1]].any())
        bwd = np.zeros(V, dtype=bool)
        bwd[self.output_nodes] = True
        for v in self.topo[::-1]:
            if bwd[v] and self.in_edges[v]:
                bwd[self.in_edges[v][1]] = True
        dangling = self.internal_nodes[~(fwd & bwd)[self.internal_nodes]]
        if dangling.size:
            raise InvalidArchitecture(f"internal nodes off any input->output path: {dangling.tolist()}")

    def layer_nodes(self) -> list[np.ndarray]:
        """Node ids per layer for layered nets (bias node last in its layer)."""
        if self.dims is None:
            raise ContractViolation("not a layered network")
        out, nid = [], 0
        for k, n in enumerate(self.dims):
            extra = 1 if (self.has_bias and k < len(self.dims) - 1) else 0
            out.append(np.arange(nid, nid + n + extra))
            nid += n + extra
        return out

    def layer_param_slices(self):
        """Per layer k>=1: slice of theta holding row-major (n_k, fan_in) weights."""
        if self.dims is None:
            raise ContractViolation("not a layered network")
        slices, off = [], 0
        for k in range(1, len(self.dims)):
            fan_in = self.dims[k - 1] + (1 if self.has_bias else 0)
            size = self.dims[k] * fan_in
            slices.append(slice(off, off + size))
            off += size
        return slices


@dataclass
class ForwardTrace:
    """Per-node pre-activations and outputs for a batch, plus provenance."""

    z: np.ndarray  # (V, B)
    h: np.ndarray  # (V, B)
    net: NetworkGraph
    theta: np.ndarray

    @property
    def batch_size(self) -> int:
        return self.z.shape[1]

    def outputs(self) -> np.ndarray:
        """(B, n_out) network outputs."""
        return self.h[self.net.output_nodes].T


@dataclass
class PathSet:
    """Exhaustive list of source->output paths as edge-id sequences."""

    paths: list[np.ndarray]
    head: np.ndarray  # (P,) first node of each path
    tail: np.ndarray  # (P,) output node of each path

    def __len__(self):
        return len(self.paths)


# -- builders ---------------------------------------------------------------


def build_layered(dims, bias: bool = False) -> NetworkGraph:
    """Fully connected layered DAG with one parameter per edge.

    dims[0] inputs, dims[-1] linear outputs, ReLU layers in between.  With
    bias=True every non-output layer gets a constant-one bias node wired to
    the whole next layer; bias edges are ordinary parameters.
    """
    dims = tuple(int(d) for d in dims)
    if len(dims) < 2 or min(dims) < 1:
        raise InvalidArchitecture(f"invalid layer dims {dims}")
    d = len(dims) - 1
    kinds, ids = [], []
    nid = 0
    for k, n in enumerate(dims):
        if k == 0:
            kinds += [NODE_INPUT] * n
        elif k == d:
            kinds += [NODE_OUTPUT] * n
        else:
            kinds += [NODE_INTERNAL] * n
        ids.append(np.arange(nid, nid + n))
        nid += n
        if bias and k < d:
            kinds.append(NODE_BIAS)
            nid += 1
    edges, pid = [], 0
    for k in range(1, len(dims)):
        prev = ids[k - 1]
        bias_node = prev[-1] + 1 if bias else None
        for j in ids[k]:
            for i in prev:
                edges.append((i, j, pid))
                pid += 1
            if bias:
                edges.append((bias_node, j, pid))
                pid += 1
    return NetworkGraph(
        node_kind=np.array(kinds, dtype=np.int8),
        edges=np.array(edges, dtype=np.int64),
        n_param=pid,
        dims=dims,
        has_bias=bias,
    )


def build_rnn_unrolled(spec: RNNSpec) -> NetworkGraph:
    """Time-unroll an RNN into a DAG; all time copies of an edge share one param.

    At T=1 the recurrent parameters have no unrolled edges (hidden state at
    time 0 is identically zero), so unused param ids are permitted here.
    """
    layout, s_out, n_param = spec.param_layout()
    sizes = (spec.n_in,) + spec.hidden
    node_of = {}
    kinds = []
    nid = 0
    for t in range(1, spec.T + 1):
        for k in range(spec.n_in):
            node_of[(t, 0, k)] = nid
            kinds.append(NODE_INPUT)
            nid += 1
        for i, n_i in enumerate(spec.hidden, start=1):
            for j in range(n_i):
                node_of[(t, i, j)] = nid
                kinds.append(NODE_INTERNAL)
                nid += 1
        if t in spec.output_times:
            for m in range(spec.n_out):
                node_of[(t, "out", m)] = nid
                kinds.append(NODE_OUTPUT)
                nid += 1
    edges = []
    for t in range(1, spec.T + 1):
        for i, n_i in enumerate(spec.hidden, start=1):
            s_in, s_rec = layout[i - 1]
            n_prev = sizes[i - 1]
            for j in range(n_i):
                for k in range(n_prev):
                    edges.append((node_of[(t, i - 1, k)], node_of[(t, i, j)], s_in.start + j * n_prev + k))
                if t >= 2:
                    for k in range(n_i):
                        edges.append((node_of[(t - 1, i, k)], node_of[(t, i, j)], s_rec.start + j * n_i + k))
        if t in spec.output_times:
            n_top = sizes[-1]
            for m in range(spec.n_out):
                for k in range(n_top):
                    edges.append((node_of[(t, spec.depth - 1, k)], node_of[(t, "out", m)], s_out.start + m * n_top + k))
    return NetworkGraph(
        node_kind=np.array(kinds, dtype=np.int8),
        edges=np.array(edges, dtype=np.int64),
        n_param=n_param,
        rnn=spec,
        allow_unused_params=True,
    )


def build_random_dag(rng, depth_max: int = 5, width_max: int = 6, extra_edge_prob: float = 0.25) -> NetworkGraph:
    """Random connected layered-skeleton DAG with skip edges, one param per edge.

    Used by oracles and audits; every internal node is kept on a path by
    construction (each node gets >=1 incoming from the previous level and
    >=1 outgoing to the next).
    """
    depth = int(rng.integers(2, depth_max + 1))
    widths = [int(rng.integers(1, width_max + 1)) for _ in range(depth + 1)]
    kinds, levels = [], []
    nid = 0
    for lvl, w in enumerate(widths):
        kind = NODE_INPUT if lvl == 0 else (NODE_OUTPUT if lvl == depth else NODE_INTERNAL)
        kinds += [kind] * w
        levels.append(np.arange(nid, nid + w))
        nid += w
    edge_set = set()
    for lvl in range(1, depth + 1):
        for v in levels[lvl]:
            edge_set.add((int(rng.choice(levels[lvl - 1])), int(v)))
    for lvl in range(depth):
        for u in levels[lvl]:
            edge_set.add((int(u), int(rng.choice(levels[lvl + 1]))))
    for lo in range(depth):
        for hi in range(lo + 1, depth + 1):
            for u in levels[lo]:
                for v in levels[hi]:
                    if rng.random() < extra_edge_prob * (0.5 if hi > lo + 1 else 1.0):
                        edge_set.add((int(u), int(v)))
    edges = [(u, v, i) for i, (u, v) in enumerate(sorted(edge_set))]
    return NetworkGraph(
        node_kind=np.array(kinds, dtype=np.int8),
        edges=np.array(edges, dtype=np.int64),
        n_param=len(edges),
    )


# -- evaluation -------------------------------------------------------------


def _check_finite(name, arr):
    if not np.isfinite(arr).all():
        raise NumericInputError(f"non-finite values in {name}")


def forward(net: NetworkGraph, theta: np.ndarray, X: np.ndarray) -> ForwardTrace:
    """Run the network on a batch X of shape (B, n_inputs).

    Returns the full per-node trace; `trace.outputs()` is f(x) per example.
    """
    theta = np.ascontiguousarray(theta, dtype=np.float64)
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if theta.shape != (net.n_param,):
        raise ContractViolation(f"theta shape {theta.shape}, expected ({net.n_param},)")
    n_in = len(net.input_nodes)
    if X.shape[1] != n_in:
        raise ContractViolation(f"input dim {X.shape[1]}, expected {n_in}")
    _check_finite("theta", theta)
    _check_finite("X", X)

    B = X.shape[0]
    V = net.n_nodes
    z = np.zeros((V, B))
    h = np.zeros((V, B))
    h[net.node_kind == NODE_BIAS] = 1.0
    h[net.input_nodes] = X.T

    if net.dims is not None:
        _layered_forward(net, theta, z, h)
    elif net.rnn is not None:
        _rnn_unrolled_forward(net, theta, X, z, h)
    else:
        w = theta[net.edges[:, 2]]
        kinds = net.node_kind
        for v in net.topo:
            if kinds[v] in (NODE_INPUT, NODE_BIAS):
                continue
            eids, srcs, _ = net.in_edges[v] if net.in_edges[v] else (None, None, None)
            if eids is None:
                zv = np.zeros(B)
            else:
                zv = w[eids] @ h[srcs]
            z[v] = zv
            h[v] = zv if kinds[v] == NODE_OUTPUT else np.maximum(zv, 0.0)
    return ForwardTrace(z=z, h=h, net=net, theta=theta.copy())


def layer_views(net: NetworkGraph, values: np.ndarray) -> list[np.ndarray]:
    """Per layer k>=1 of a layered net: the (n_k, fan_in) view of a per-param vector."""
    slices = net.layer_param_slices()
    fan_in = [n + (1 if net.has_bias else 0) for n in net.dims[:-1]]
    return [values[s].reshape(n, f) for s, n, f in zip(slices, net.dims[1:], fan_in)]


def _layered_forward(net, theta, z, h):
    layers = net.layer_nodes()
    d = len(net.dims) - 1
    for k, W in enumerate(layer_views(net, theta), start=1):
        src = layers[k - 1]
        tgt = layers[k][: net.dims[k]]
        zk = W @ h[src]
        z[tgt] = zk
        h[tgt] = zk if k == d else np.maximum(zk, 0.0)


def _rnn_unrolled_forward(net, theta, X, z, h):
    spec = net.rnn
    B = X.shape[0]
    seqs = X.reshape(B, spec.T, spec.n_in)
    zs, hs, outs = rnn_forward(spec, theta, seqs)
    nid = 0
    out_idx = 0
    for t in range(1, spec.T + 1):
        nid += spec.n_in
        for i, n_i in enumerate(spec.hidden):
            z[nid : nid + n_i] = zs[i][:, t - 1].T
            h[nid : nid + n_i] = hs[i][:, t - 1].T
            nid += n_i
        if t in spec.output_times:
            z[nid : nid + spec.n_out] = outs[:, out_idx].T
            h[nid : nid + spec.n_out] = outs[:, out_idx].T
            nid += spec.n_out
            out_idx += 1


def rnn_forward(spec: RNNSpec, theta: np.ndarray, seqs: np.ndarray):
    """Direct matrix recursion h_t^i = relu(W_in h_t^{i-1} + W_rec h_{t-1}^i).

    seqs: (B, T, n_in).  Returns (zs, hs, outs) with zs[i], hs[i] of shape
    (B, T, n_i) and outs of shape (B, len(output_times), n_out).
    """
    w_in, w_rec, w_out = spec.unpack(theta)
    B = seqs.shape[0]
    zs, hs = [], []
    prev = np.ascontiguousarray(np.transpose(seqs, (1, 0, 2)))  # (T, B, n)
    for i, n_i in enumerate(spec.hidden):
        z_i = np.empty((spec.T, B, n_i))
        h_i = np.empty((spec.T, B, n_i))
        h_prev_t = np.zeros((B, n_i))
        for t in range(spec.T):
            zt = prev[t] @ w_in[i].T + h_prev_t @ w_rec[i].T
            z_i[t] = zt
            h_prev_t = np.maximum(zt, 0.0)
            h_i[t] = h_prev_t
        zs.append(np.transpose(z_i, (1, 0, 2)))
        hs.append(np.transpose(h_i, (1, 0, 2)))
        prev = h_i
    outs = np.stack([hs[-1][:, t - 1] @ w_out.T for t in spec.output_times], axis=1)
    return zs, hs, outs


def rnn_backward(spec: RNNSpec, theta: np.ndarray, seqs: np.ndarray, zs, hs, dL_douts: np.ndarray) -> np.ndarray:
    """BPTT gradient of a scalar loss w.r.t. the shared parameters.

    dL_douts: (B, len(output_times), n_out).  Shared parameters accumulate
    over their time copies.  ReLU subgradient at exactly zero is zero.
    """
    w_in, w_rec, w_out = spec.unpack(theta)
    B = seqs.shape[0]
    g_in = [np.zeros_like(m) for m in w_in]
    g_rec = [np.zeros_like(m) for m in w_rec]
    g_out = np.zeros_like(w_out)
    d_h = [np.zeros((B, spec.T, n_i)) for n_i in spec.hidden]
    for j, t in enumerate(spec.output_times):
        g_out += dL_douts[:, j].T @ hs[-1][:, t - 1]
        d_h[-1][:, t - 1] += dL_douts[:, j] @ w_out
    for i in reversed(range(len(spec.hidden))):
        below = seqs if i == 0 else hs[i - 1]
        dz_all = np.zeros((B, spec.T, spec.hidden[i]))
        for t in reversed(range(spec.T)):
            dz = d_h[i][:, t] * (zs[i][:, t] > 0)
            dz_all[:, t] = dz
            if t > 0:
                d_h[i][:, t - 1] += dz @ w_rec[i]
            if i > 0:
                d_h[i - 1][:, t] += dz @ w_in[i]
        for t in range(spec.T):
            g_in[i] += dz_all[:, t].T @ below[:, t]
            if t > 0:
                g_rec[i] += dz_all[:, t].T @ hs[i][:, t - 1]
    return spec.pack(g_in, g_rec, g_out)


def backward(net: NetworkGraph, theta: np.ndarray, trace: ForwardTrace, dL_doutputs: np.ndarray) -> np.ndarray:
    """Reverse-mode gradient of a scalar loss w.r.t. theta.

    dL_doutputs has shape (B, n_out) and already carries any batch-mean
    factor from the loss.  Shared parameters accumulate over their edges.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if trace.net is not net or not np.array_equal(trace.theta, theta):
        raise ContractViolation("trace was produced under different (net, theta)")
    dL = np.ascontiguousarray(dL_doutputs, dtype=np.float64)
    if dL.ndim == 1:
        dL = dL[None, :]
    n_out = len(net.output_nodes)
    if dL.shape != (trace.batch_size, n_out):
        raise ContractViolation(f"dL_doutputs shape {dL.shape}, expected ({trace.batch_size}, {n_out})")

    if net.dims is not None:
        return _layered_backward(net, theta, trace, dL)
    if net.rnn is not None:
        spec = net.rnn
        B = trace.batch_size
        seqs = trace.h[net.input_nodes].T.reshape(B, spec.T, spec.n_in)
        zs, hs, _ = rnn_forward(spec, theta, seqs)
        return rnn_backward(spec, theta, seqs, zs, hs, dL.reshape(B, len(spec.output_times), spec.n_out))

    V, B = trace.z.shape
    w = theta[net.edges[:, 2]]
    d_h = np.zeros((V, B))
    d_h[net.output_nodes] = dL.T
    grad = np.zeros(net.n_param)
    kinds = net.node_kind
    for v in net.topo[::-1]:
        if kinds[v] in (NODE_INPUT, NODE_BIAS) or not net.in_edges[v]:
            continue
        dz = d_h[v] if kinds[v] == NODE_OUTPUT else d_h[v] * (trace.z[v] > 0)
        eids, srcs, pids = net.in_edges[v]
        np.add.at(grad, pids, trace.h[srcs] @ dz)
        d_h_update = np.outer(w[eids], dz)
        np.add.at(d_h, srcs, d_h_update)
    return grad


def _layered_backward(net, theta, trace, dL):
    layers = net.layer_nodes()
    slices = net.layer_param_slices()
    mats = layer_views(net, theta)
    d = len(net.dims) - 1
    grad = np.zeros(net.n_param)
    d_h = dL.T  # (n_d, B) at the output layer
    for k in range(d, 0, -1):
        W = mats[k - 1]
        tgt = layers[k][: net.dims[k]]
        dz = d_h if k == d else d_h * (trace.z[tgt] > 0)
        grad[slices[k - 1]] = (dz @ trace.h[layers[k - 1]].T).ravel()
        if k > 1:
            d_h = (W[:, : net.dims[k - 1]].T @ dz)
    return grad


# -- path machinery ----------------------------------------------------------


def path_sum(net: NetworkGraph, edge_values: np.ndarray, offset: np.ndarray | None = None) -> np.ndarray:
    """(V,) per node v: sum over source->v paths of the product of edge values.

    edge_values is per edge, in `net.edges` order.  Sources carry 1.  With
    `offset` (V,), every node with incoming edges also adds offset[v], so a
    path may start at any such node u with weight offset[u].  Layered nets
    take one matrix-vector product per layer; every other net walks the
    topological order, which is the reference semantics.
    """
    if net.dims is not None:
        offsets = None
        if offset is not None:
            offsets = [offset[ids[:n]] for ids, n in zip(net.layer_nodes()[1:], net.dims[1:])]
        return np.concatenate(layered_path_sum(layer_views(net, edge_values), net.has_bias, offsets))
    g = np.zeros(net.n_nodes)
    g[net.source_nodes] = 1.0
    for v in net.topo:
        if net.in_edges[v]:
            eids, srcs, _ = net.in_edges[v]
            through = edge_values[eids] @ g[srcs]
            g[v] = through if offset is None else offset[v] + through
    return g


def path_sum_backward(net: NetworkGraph, edge_values: np.ndarray) -> np.ndarray:
    """(V,) per node v: sum over v->output paths of the product of edge values."""
    if net.dims is not None:
        delta = [np.ones(net.dims[-1])]
        for M in reversed(layer_views(net, edge_values)):
            delta.insert(0, M.T @ delta[0][: M.shape[0]])  # a bias entry has no incoming edges
        return np.concatenate(delta)
    delta = np.zeros(net.n_nodes)
    delta[net.output_nodes] = 1.0
    for v in net.topo[::-1]:
        if net.in_edges[v]:
            eids, srcs, _ = net.in_edges[v]
            np.add.at(delta, srcs, edge_values[eids] * delta[v])
    return delta


def layered_path_sum(mats: list[np.ndarray], bias: bool = False, offsets: list[np.ndarray] | None = None) -> list[np.ndarray]:
    """Forward path sums through a chain of per-layer edge-value matrices.

    mats[k-1] has shape (n_k, n_{k-1} + bias).  Entry k of the result holds,
    per unit of layer k, the sum over paths ending there of the product of
    matrix entries: M_k ... M_1 1.  With bias=True every non-output entry
    ends in the constant-one bias unit, which starts new paths at the next
    layer, so the entries concatenate to the node order of `build_layered`.
    offsets[k-1], when given, is added to layer k's sums.
    """
    v = np.ones(mats[0].shape[1] - (1 if bias else 0))
    out = []
    for k, M in enumerate(mats):
        if bias:
            v = np.append(v, 1.0)
        out.append(v)
        v = M @ v
        if offsets is not None:
            v = offsets[k] + v
    out.append(v)
    return out


def count_paths(net: NetworkGraph) -> int:
    """Number of source->output paths: the path sum of all-ones edge values."""
    c = path_sum(net, np.ones(net.n_edges))
    total = c[net.output_nodes].sum()
    if not np.isfinite(total) or total > 2**62:
        raise TooManyPaths("path count overflow")
    return int(round(total))


def enumerate_paths(net: NetworkGraph, cap: int = DEFAULT_PATH_CAP) -> PathSet:
    """Exhaustive, duplicate-free list of source->output paths.

    Raises TooManyPaths when the DP count exceeds `cap`; the efficient code
    paths never enumerate, this exists for oracles on small nets.
    """
    n = count_paths(net)
    if n > cap:
        raise TooManyPaths(f"{n} paths exceeds cap {cap}")
    paths, heads, tails = [], [], []
    # walk backwards from outputs along incoming edges
    for out in net.output_nodes:
        stack = [(out, [])]
        while stack:
            v, suffix = stack.pop()
            if not net.in_edges[v]:
                paths.append(np.array(suffix[::-1], dtype=np.int64))
                heads.append(v)
                tails.append(out)
                continue
            eids, srcs, _ = net.in_edges[v]
            for e, u in zip(eids, srcs):
                stack.append((int(u), suffix + [int(e)]))
    return PathSet(paths=paths, head=np.array(heads), tail=np.array(tails))


def path_weight_products(net: NetworkGraph, theta: np.ndarray, paths: PathSet) -> np.ndarray:
    """pi_p(w): product of edge weights along each path."""
    w = theta[net.edges[:, 2]]
    return np.array([w[p].prod() if len(p) else 1.0 for p in paths.paths])


def path_activities(net: NetworkGraph, trace: ForwardTrace, paths: PathSet) -> np.ndarray:
    """g_p(x): (P, B) indicator that every ReLU along the path is active."""
    B = trace.batch_size
    active = trace.z > 0
    out = np.ones((len(paths), B))
    dst = net.edges[:, 1]
    for idx, p in enumerate(paths.paths):
        for e in p:
            v = dst[e]
            if net.node_kind[v] == NODE_INTERNAL:
                out[idx] *= active[v]
    return out


def path_sum_outputs(net: NetworkGraph, theta: np.ndarray, trace: ForwardTrace, paths: PathSet) -> np.ndarray:
    """Oracle forward: sum over paths of g_p(x) * pi_p(w) * x[head(p)], per output."""
    prod = path_weight_products(net, theta, paths)
    act = path_activities(net, trace, paths)
    x_head = trace.h[paths.head]  # bias heads carry constant 1
    contrib = act * (prod[:, None] * x_head)
    out = np.zeros((trace.batch_size, len(net.output_nodes)))
    out_index = {int(v): i for i, v in enumerate(net.output_nodes)}
    for idx in range(len(paths)):
        out[:, out_index[int(paths.tail[idx])]] += contrib[idx]
    return out


# -- serialization -----------------------------------------------------------


def net_to_json(net: NetworkGraph) -> str:
    doc = {
        "nodes": net.node_kind.tolist(),
        "edges": net.edges.tolist(),
        "n_param": net.n_param,
        "dims": list(net.dims) if net.dims is not None else None,
        "has_bias": net.has_bias,
        "rnn_spec": None,
    }
    if net.rnn is not None:
        doc["rnn_spec"] = {
            "n_in": net.rnn.n_in,
            "hidden": list(net.rnn.hidden),
            "n_out": net.rnn.n_out,
            "T": net.rnn.T,
            "output_times": list(net.rnn.output_times),
        }
    return json.dumps(doc, sort_keys=True)


def net_from_json(text: str) -> NetworkGraph:
    doc = json.loads(text)
    rnn = None
    if doc.get("rnn_spec"):
        s = doc["rnn_spec"]
        rnn = RNNSpec(
            n_in=s["n_in"], hidden=tuple(s["hidden"]), n_out=s["n_out"],
            T=s["T"], output_times=tuple(s["output_times"]),
        )
    return NetworkGraph(
        node_kind=np.array(doc["nodes"], dtype=np.int8),
        edges=np.array(doc["edges"], dtype=np.int64).reshape(-1, 3),
        n_param=doc["n_param"],
        dims=tuple(doc["dims"]) if doc.get("dims") else None,
        has_bias=bool(doc.get("has_bias", False)),
        rnn=rnn,
        allow_unused_params=rnn is not None,
    )


def save_params(path, theta: np.ndarray) -> None:
    """Little-endian float64 dump with a 16-byte header: magic, count, padding."""
    theta = np.asarray(theta, dtype=np.float64)
    with open(path, "wb") as fh:
        fh.write(_PGW_MAGIC)
        fh.write(struct.pack("<Q", theta.size))
        fh.write(b"\x00" * 4)
        fh.write(theta.astype("<f8").tobytes())


def load_params(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16 or header[:4] != _PGW_MAGIC:
            raise FormatError("bad weight-file magic")
        (n,) = struct.unpack("<Q", header[4:12])
        body = fh.read()
    if len(body) != 8 * n:
        raise FormatError(f"weight file truncated: expected {8*n} payload bytes, got {len(body)}")
    return np.frombuffer(body, dtype="<f8").astype(np.float64)
