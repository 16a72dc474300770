"""Explicit-DAG representation of ReLU networks with shared weights.

A network is a DAG whose nodes are partitioned into input, bias, internal
(ReLU) and output (linear) nodes.  Every edge carries a parameter id, so
weight sharing is the map edge -> param; the free parameters are a flat
float64 vector indexed by param id.

Layered fully connected nets and time-unrolled RNNs are built by helpers
that record their structure (`dims`, `rnn`).  `NetworkGraph.__post_init__`
reads it once and attaches one backend per net kind: `LayeredBackend`
(one matrix product per layer), `RNNBackend` (the RNN's own matrix
recursion) or `DagBackend` (topological walks, the reference semantics the
other two are checked against and the one the oracles exercise).  That is
the only place an implementation is chosen by net kind: `forward`,
`predict`, `backward`, `per_example_sq_grad` (the same reverse pass,
squared per example), `path_sum` and the initialization in
`train.init_params` all delegate to `net.backend`.

`forward` keeps what `backward` needs in a `ForwardTrace`, in the backend's
own layout: per-layer arrays on layered nets and the recursion's arrays on
RNNs, from which the per-node (V, B) arrays are built only when read.
`predict` is the outputs-only path, run in fixed row chunks, for every caller
that reads only f(x).

A path sum (over paths, the product of nonnegative per-parameter values) is
the same forward pass on the net weighted by those values, at input ones:
there every pre-activation is nonnegative and the ReLU is the identity.
`path_trace` runs it and `path_sum` reads its node outputs; `backward` on
that trace with `linear=True` (no ReLU mask) differentiates the summed
outputs.  The path regularizer, kappa, path norms and path counts are that
pair on transformed weights.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    ContractViolation,
    FormatError,
    InvalidArchitecture,
    NumericInputError,
    TooManyPaths,
    UnsupportedCombination,
)

NODE_INPUT = 0
NODE_INTERNAL = 1
NODE_OUTPUT = 2
NODE_BIAS = 3

DEFAULT_PATH_CAP = 10**6

PREDICT_CHUNK = 1000  # rows per backend forward in `predict`

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
        if any(a >= b for a, b in zip(self.output_times, self.output_times[1:])):
            raise InvalidArchitecture("output_times must be strictly increasing")

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
    backend: DagBackend = field(init=False, repr=False)

    def __post_init__(self):
        self.node_kind = np.asarray(self.node_kind, dtype=np.int8)
        self.edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 3)
        kinds = self.node_kind
        self.input_nodes = np.flatnonzero(kinds == NODE_INPUT)
        self.output_nodes = np.flatnonzero(kinds == NODE_OUTPUT)
        self.internal_nodes = np.flatnonzero(kinds == NODE_INTERNAL)
        self.source_nodes = np.flatnonzero((kinds == NODE_INPUT) | (kinds == NODE_BIAS))
        self._validate_and_index()
        if self.dims is not None:
            self.backend = LayeredBackend(self)
        elif self.rnn is not None:
            self.backend = RNNBackend(self)
        else:
            self.backend = DagBackend(self)

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
    """What a forward pass on a batch computed, plus provenance.

    `native` is what the net's backend keeps for `backward`, in its own
    layout: the per-layer (zs, hs) of a layered net, the recursion's
    (seqs, zs, hs, outs) of an RNN net, the (V, B) z and h of a DAG net.
    `outputs()` reads it directly.  `z` and `h` are the per-node (V, B)
    arrays; a layered or RNN trace builds them from `native` on first read.
    When only the outputs are needed, call `predict` instead of `forward`:
    it keeps no trace.
    """

    net: NetworkGraph
    theta: np.ndarray
    batch_size: int
    native: tuple

    @cached_property
    def _node_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.net.backend.node_arrays(self.native)

    @property
    def z(self) -> np.ndarray:
        """(V, B) pre-activations."""
        return self._node_arrays[0]

    @property
    def h(self) -> np.ndarray:
        """(V, B) node outputs; sources hold the inputs and bias ones."""
        return self._node_arrays[1]

    def outputs(self) -> np.ndarray:
        """(B, n_out) network outputs."""
        return self.net.backend.outputs(self.native)


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


def rnn_node_ids(spec: RNNSpec):
    """Node ids of the unrolled RNN, numbered step by step: inputs, hidden layers, outputs.

    Returns (layers, outputs): layers holds the inputs (T, n_in), then
    (T, n_i) per hidden layer bottom-up; outputs is (len(output_times), n_out).
    """
    sizes = (spec.n_in,) + spec.hidden
    is_out = np.isin(np.arange(1, spec.T + 1), spec.output_times)
    start = np.arange(spec.T) * sum(sizes) + spec.n_out * (np.cumsum(is_out) - is_out)
    first = np.cumsum((0,) + sizes)
    layers = [start[:, None] + first[i] + np.arange(n) for i, n in enumerate(sizes)]
    outputs = start[np.asarray(spec.output_times) - 1, None] + first[-1] + np.arange(spec.n_out)
    return layers, outputs


def _dense_edges(src, dst, p0) -> np.ndarray:
    """(len(dst), len(src), 3) edge rows [src[k], dst[j], p0 + j * len(src) + k]."""
    shape = (len(dst), len(src))
    pid = p0 + np.arange(shape[0] * shape[1]).reshape(shape)
    return np.stack([np.broadcast_to(src, shape), np.broadcast_to(dst[:, None], shape), pid], axis=-1)


def build_rnn_unrolled(spec: RNNSpec) -> NetworkGraph:
    """Time-unroll an RNN into a DAG; all time copies of an edge share one param.

    At T=1 the recurrent parameters have no unrolled edges (hidden state at
    time 0 is identically zero), so unused param ids are permitted here.
    """
    layout, s_out, n_param = spec.param_layout()
    layers, outputs = rnn_node_ids(spec)
    kinds = np.full(sum(ids.size for ids in layers) + outputs.size, NODE_INTERNAL, dtype=np.int8)
    kinds[layers[0]] = NODE_INPUT
    kinds[outputs] = NODE_OUTPUT
    edges = []
    for t in range(spec.T):
        for i, (s_in, s_rec) in enumerate(layout):
            below, layer = layers[i], layers[i + 1]
            blocks = [_dense_edges(below[t], layer[t], s_in.start)]
            if t:
                blocks.append(_dense_edges(layer[t - 1], layer[t], s_rec.start))
            edges.append(np.concatenate(blocks, axis=1).reshape(-1, 3))
        if t + 1 in spec.output_times:
            top = _dense_edges(layers[-1][t], outputs[spec.output_times.index(t + 1)], s_out.start)
            edges.append(top.reshape(-1, 3))
    return NetworkGraph(
        node_kind=kinds,
        edges=np.concatenate(edges),
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


def _checked_inputs(net: NetworkGraph, theta: np.ndarray, X: np.ndarray):
    """theta and X as contiguous float64, X as (B, n_inputs); raises on bad shapes or values."""
    theta = np.ascontiguousarray(theta, dtype=np.float64)
    X = np.atleast_2d(np.ascontiguousarray(X, dtype=np.float64))
    if theta.shape != (net.n_param,):
        raise ContractViolation(f"theta shape {theta.shape}, expected ({net.n_param},)")
    n_in = len(net.input_nodes)
    if X.shape[1] != n_in:
        raise ContractViolation(f"input dim {X.shape[1]}, expected {n_in}")
    _check_finite("theta", theta)
    _check_finite("X", X)
    return theta, X


def forward(net: NetworkGraph, theta: np.ndarray, X: np.ndarray) -> ForwardTrace:
    """Run the network on a batch X of shape (B, n_inputs) and keep what `backward` needs.

    `trace.outputs()` is f(x) per example.  A caller that reads only the
    outputs should call `predict`, which keeps no trace.
    """
    theta, X = _checked_inputs(net, theta, X)
    return ForwardTrace(net=net, theta=theta.copy(), batch_size=X.shape[0], native=net.backend.forward(theta, X))


def predict(net: NetworkGraph, theta: np.ndarray, X: np.ndarray) -> np.ndarray:
    """(B, n_out) network outputs f(x): the outputs-only path.

    Call this instead of `forward` when only the outputs are read.  It runs
    PREDICT_CHUNK rows at a time and keeps no trace, so its memory is
    bounded by the chunk, not by B.  Validation is that of `forward`, and the
    result equals `forward(net, theta, X).outputs()`.
    """
    theta, X = _checked_inputs(net, theta, X)
    backend = net.backend
    # output-major like a (V, B) trace's output rows, so reductions over the result sum in the same order
    out = np.empty((len(net.output_nodes), X.shape[0]))
    for i in range(0, X.shape[0], PREDICT_CHUNK):
        out[:, i : i + PREDICT_CHUNK] = backend.outputs(backend.forward(theta, X[i : i + PREDICT_CHUNK])).T
    return out.T


def layer_views(net: NetworkGraph, values: np.ndarray) -> list[np.ndarray]:
    """Per layer k>=1 of a layered net: the (n_k, fan_in) view of a per-param vector."""
    slices = net.layer_param_slices()
    fan_in = [n + (1 if net.has_bias else 0) for n in net.dims[:-1]]
    return [values[s].reshape(n, f) for s, n, f in zip(slices, net.dims[1:], fan_in)]


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


def rnn_cotangents(spec: RNNSpec, theta: np.ndarray, zs, dL_douts: np.ndarray, linear: bool = False) -> list[np.ndarray]:
    """BPTT cotangents d L / d z per hidden layer, each (B, T, n_i).

    dL_douts: (B, len(output_times), n_out).  ReLU subgradient at exactly
    zero is zero; with `linear` the mask is dropped (identity activation).
    """
    w_in, w_rec, w_out = spec.unpack(theta)
    B = dL_douts.shape[0]
    d_h = [np.zeros((B, spec.T, n_i)) for n_i in spec.hidden]
    for j, t in enumerate(spec.output_times):
        d_h[-1][:, t - 1] += dL_douts[:, j] @ w_out
    dzs = [None] * len(spec.hidden)
    for i in reversed(range(len(spec.hidden))):
        dz_all = np.zeros((B, spec.T, spec.hidden[i]))
        for t in reversed(range(spec.T)):
            dz = d_h[i][:, t] if linear else d_h[i][:, t] * (zs[i][:, t] > 0)
            dz_all[:, t] = dz
            if t > 0:
                d_h[i][:, t - 1] += dz @ w_rec[i]
            if i > 0:
                d_h[i - 1][:, t] += dz @ w_in[i]
        dzs[i] = dz_all
    return dzs


def rnn_backward(spec: RNNSpec, theta: np.ndarray, seqs: np.ndarray, zs, hs, dL_douts: np.ndarray, linear: bool = False) -> np.ndarray:
    """BPTT gradient of a scalar loss w.r.t. the shared parameters.

    dL_douts: (B, len(output_times), n_out).  Shared parameters accumulate
    over their time copies; the cotangents come from `rnn_cotangents`.
    """
    dzs = rnn_cotangents(spec, theta, zs, dL_douts, linear)
    w_in, w_rec, w_out = spec.unpack(theta)
    g_in = [np.zeros_like(m) for m in w_in]
    g_rec = [np.zeros_like(m) for m in w_rec]
    g_out = np.zeros_like(w_out)
    for j, t in enumerate(spec.output_times):
        g_out += dL_douts[:, j].T @ hs[-1][:, t - 1]
    for i, dz_all in enumerate(dzs):
        below = seqs if i == 0 else hs[i - 1]
        for t in range(spec.T):
            g_in[i] += dz_all[:, t].T @ below[:, t]
            if t > 0:
                g_rec[i] += dz_all[:, t].T @ hs[i][:, t - 1]
    return spec.pack(g_in, g_rec, g_out)


def _checked_cotangent(net: NetworkGraph, theta: np.ndarray, trace: ForwardTrace, dL_doutputs: np.ndarray):
    """(theta, trace, dL) with theta and dL as float64, dL as (B, n_out); raises on a foreign trace or bad shapes."""
    theta = np.asarray(theta, dtype=np.float64)
    if trace.net is not net or not np.array_equal(trace.theta, theta):
        raise ContractViolation("trace was produced under different (net, theta)")
    dL = np.atleast_2d(np.ascontiguousarray(dL_doutputs, dtype=np.float64))
    n_out = len(net.output_nodes)
    if dL.shape != (trace.batch_size, n_out):
        raise ContractViolation(f"dL_doutputs shape {dL.shape}, expected ({trace.batch_size}, {n_out})")
    return theta, trace, dL


def backward(net: NetworkGraph, theta: np.ndarray, trace: ForwardTrace, dL_doutputs: np.ndarray) -> np.ndarray:
    """Reverse-mode gradient of a scalar loss w.r.t. theta.

    dL_doutputs has shape (B, n_out) and already carries any batch-mean
    factor from the loss.  Shared parameters accumulate over their edges.
    """
    return net.backend.backward(*_checked_cotangent(net, theta, trace, dL_doutputs))


def check_no_sharing(net: NetworkGraph):
    """Raise UnsupportedCombination unless every parameter sits on exactly one edge."""
    if np.bincount(net.edges[:, 2]).max(initial=0) > 1:
        raise UnsupportedCombination("per-edge quantities are undefined for shared weights")


def per_example_sq_grad(net: NetworkGraph, theta: np.ndarray, trace: ForwardTrace, dL_doutputs: np.ndarray) -> np.ndarray:
    """Sum over examples i of (d L_i / d theta)^2, row i of dL_doutputs being d L_i / d f(x_i).

    `backward`'s reverse pass, accumulating h^2 @ dz^2 where it accumulates
    h @ dz (Goodfellow 2015, arXiv:1510.01799).  That squares per edge, so
    shared parameters raise UnsupportedCombination.
    """
    check_no_sharing(net)
    return net.backend.backward(*_checked_cotangent(net, theta, trace, dL_doutputs), squares=True)


# -- path machinery ----------------------------------------------------------


def path_trace(net: NetworkGraph, values: np.ndarray) -> ForwardTrace:
    """The backend's forward trace of the net weighted by nonnegative per-parameter `values`, at input ones.

    Each node's output is then the sum over source->node paths of the
    product of edge values; the backend's `backward(..., linear=True)` on
    it is the gradient of the summed outputs.  Negative values raise
    ContractViolation: there the ReLU would not be the identity.
    """
    if values.shape != (net.n_param,):
        raise ContractViolation(f"values shape {values.shape}, expected ({net.n_param},)")
    if np.any(values < 0):
        raise ContractViolation("path sums need nonnegative values")
    native = net.backend.forward(values, np.ones((1, len(net.input_nodes))))
    return ForwardTrace(net=net, theta=values, batch_size=1, native=native)


def path_sum(net: NetworkGraph, values: np.ndarray) -> np.ndarray:
    """(V,) per node v: sum over source->v paths of the product of nonnegative edge values.

    values is per parameter (length n_param); an edge takes the value of its
    parameter.  Sources carry 1.
    """
    return path_trace(net, values).h[:, 0]


def count_paths(net: NetworkGraph) -> int:
    """Number of source->output paths: the path sum of all-ones parameter values."""
    c = path_sum(net, np.ones(net.n_param))
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


# -- backends: one per net kind, chosen in NetworkGraph.__post_init__ --------------


def _source_arrays(net: NetworkGraph, X: np.ndarray):
    """(V, B) zero pre-activations z and outputs h, with the inputs and bias ones set in h."""
    z = np.zeros((net.n_nodes, X.shape[0]))
    h = np.zeros_like(z)
    h[net.node_kind == NODE_BIAS] = 1.0
    h[net.input_nodes] = X.T
    return z, h


class DagBackend:
    """Generic DAG: walks in topological order, the reference semantics.

    A backend serves one net.  `forward` returns the trace's `native` part,
    which `outputs` (the (B, n_out) outputs, output-major), `node_arrays`
    (the (V, B) z and h) and `backward` read; `init` draws balanced initial
    parameters.
    """

    def __init__(self, net: NetworkGraph):
        self.net = net

    def forward(self, theta, X):
        """The (V, B) pre-activations z and outputs h."""
        net = self.net
        z, h = _source_arrays(net, X)
        w = theta[net.edges[:, 2]]
        for v in net.topo:
            if net.in_edges[v]:  # sources have none; an output without any stays 0
                eids, srcs, _ = net.in_edges[v]
                z[v] = w[eids] @ h[srcs]
                h[v] = z[v] if net.node_kind[v] == NODE_OUTPUT else np.maximum(z[v], 0.0)
        return z, h

    def node_arrays(self, native):
        return native

    def outputs(self, native):
        return native[1][self.net.output_nodes].T

    def backward(self, theta, trace, dL, squares=False, linear=False):
        """The gradient; with `squares`, the sum over examples of its squared per-edge terms; with `linear`, no ReLU mask."""
        net = self.net
        w = theta[net.edges[:, 2]]
        d_h = np.zeros_like(trace.z)
        d_h[net.output_nodes] = dL.T
        grad = np.zeros(net.n_param)
        for v in net.topo[::-1]:
            if net.in_edges[v]:
                dz = d_h[v] if linear or net.node_kind[v] == NODE_OUTPUT else d_h[v] * (trace.z[v] > 0)
                eids, srcs, pids = net.in_edges[v]
                h = trace.h[srcs]
                np.add.at(grad, pids, h**2 @ dz**2 if squares else h @ dz)
                np.add.at(d_h, srcs, np.outer(w[eids], dz))
        return grad

    def init(self, rng):
        """N(0, 1/fan-in) on the incoming parameters of each node."""
        theta = np.zeros(self.net.n_param)
        for v in range(self.net.n_nodes):
            if self.net.in_edges[v]:
                _, _, pids = self.net.in_edges[v]
                theta[pids] = rng.normal(0.0, 1.0 / np.sqrt(len(pids)), size=len(pids))
        return theta


class LayeredBackend(DagBackend):
    """Fully connected layered nets: one matrix product per layer."""

    def forward(self, theta, X):
        """Per layer: the (n_k, B) pre-activation and the C-contiguous (fan_in, B) input, ones row last with bias."""
        zs, hs = [], []
        for k, (W, n) in enumerate(zip(layer_views(self.net, theta), self.net.dims)):
            h = np.empty((W.shape[1], X.shape[0]))
            if k == 0:
                h[:n] = X.T
            else:
                np.maximum(zs[-1], 0.0, out=h[:n])
            h[n:] = 1.0
            hs.append(h)
            zs.append(W @ h)
        return zs, hs

    def node_arrays(self, native):
        zs, hs = native
        net = self.net
        z, h = _source_arrays(net, hs[0][: net.dims[0]].T)
        for k, ids in enumerate(net.layer_nodes()[1:], start=1):
            tgt = ids[: net.dims[k]]
            z[tgt] = zs[k - 1]
            h[tgt] = hs[k][: net.dims[k]] if k < len(hs) else zs[k - 1]
        return z, h

    def outputs(self, native):
        return native[0][-1].T

    def backward(self, theta, trace, dL, squares=False, linear=False):
        net = self.net
        zs, hs = trace.native
        mats = layer_views(net, theta)
        grad = np.zeros(net.n_param)
        grads = layer_views(net, grad)
        d_h = dL.T  # (n_d, B) at the output layer
        for k in range(len(mats), 0, -1):
            dz = d_h if linear or k == len(mats) else d_h * (zs[k - 1] > 0)
            h = hs[k - 1]
            grads[k - 1][:] = dz**2 @ (h**2).T if squares else dz @ h.T
            if k > 1:
                d_h = mats[k - 1][:, : net.dims[k - 1]].T @ dz
        return grad

    def init(self, rng):
        """N(0, 1/fan-in) per unit, zero bias weights."""
        theta = np.zeros(self.net.n_param)
        for W, fan_in in zip(layer_views(self.net, theta), self.net.dims[:-1]):
            W[:] = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=W.shape)
            if self.net.has_bias:
                W[:, -1] = 0.0
        return theta


class RNNBackend(DagBackend):
    """Time-unrolled RNNs: the RNN's own matrix recursions over the shared weights."""

    def __init__(self, net: NetworkGraph):
        super().__init__(net)
        self.spec = net.rnn
        self.layer_ids, self.output_ids = rnn_node_ids(net.rnn)

    def forward(self, theta, X):
        """The recursion's own (seqs, zs, hs, outs), laid out as `rnn_forward` returns them."""
        seqs = X.reshape(X.shape[0], self.spec.T, self.spec.n_in)
        return (seqs, *rnn_forward(self.spec, theta, seqs))

    def node_arrays(self, native):
        seqs, zs, hs, outs = native
        z, h = _source_arrays(self.net, seqs.reshape(seqs.shape[0], -1))
        for ids, z_i, h_i in zip(self.layer_ids[1:], zs, hs):
            z[ids] = np.moveaxis(z_i, 0, -1)
            h[ids] = np.moveaxis(h_i, 0, -1)
        z[self.output_ids] = h[self.output_ids] = np.moveaxis(outs, 0, -1)
        return z, h

    def outputs(self, native):
        outs = native[3]  # output node order is time order, as output_times is increasing
        # output-major like the (V, B) rows a DAG trace reads its outputs from, so losses sum in the same order
        return np.asfortranarray(outs.reshape(outs.shape[0], -1))

    def backward(self, theta, trace, dL, squares=False, linear=False):
        if squares:  # BPTT sums over time copies; per-edge terms come from the DAG walk
            return super().backward(theta, trace, dL, squares)
        spec = self.spec
        seqs, zs, hs, _ = trace.native
        return rnn_backward(spec, theta, seqs, zs, hs, dL.reshape(-1, len(spec.output_times), spec.n_out), linear)

    def init(self, rng):
        """N(0, 1/fan-in) per unit for every input, recurrent and output matrix."""
        theta = np.zeros(self.spec.n_param)
        w_in, w_rec, w_out = self.spec.unpack(theta)
        draw_order = [W for pair in zip(w_in, w_rec) for W in pair] + [w_out]
        for W in draw_order:
            W[:] = rng.normal(0.0, 1.0 / np.sqrt(W.shape[1]), size=W.shape)
        return theta


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
