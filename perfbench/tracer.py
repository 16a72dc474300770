"""Span tracing around the public functions of each pathgeo module.

The traced run replaces every listed function with a recording wrapper in
every ``pathgeo`` module namespace that holds it (``from .netgraph import
forward`` binds a separate name in each importer) and in module-level
dispatch tables such as ``optim.STEP_FUNCS``.  Calls resolved through
module globals, including the ones a function makes into its own module,
are therefore caught.

A span is ``[function, start, end, parent span, repetition, child time]``.
Spans stay in memory and are written once, when the run ends.  A
repetition is one set-up or one workload body; per-layer totals are
reported per repetition (mean per set-up plus mean per body), so counts do
not depend on how many bodies fit into the measured window.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

LAYERS = {
    "netgraph": ("forward", "backward", "rnn_forward", "rnn_backward", "build_layered", "build_rnn_unrolled", "net_from_json"),
    "pathnorm": ("kappa1", "path_reg_dp", "ddp_gamma", "ddp_kappa", "fisher_diag_analytic"),
    "optim": ("optimizer_step", "loss_and_grad", "sgd_step", "path_sgd_step", "ddp_sgd_step", "diag_ng_step", "ddp_norm_step"),
    "train": ("train", "evaluate", "init_params"),
    "data": ("gen_cluster_images", "gen_addition", "downsample", "minibatches"),
    "measures": ("margin", "norm_measures", "spectral_norm", "pac_bayes_curve", "max_sharpness"),
    "invariance": ("rescale_feedforward", "random_unbalance", "balance_per_unit", "path_norm", "check_function_equal"),
    "protocols": ("unbalanced_init_experiment",),
    "cli": ("cmd_measure", "cmd_invariance_check", "write_json", "write_csv"),
}

# Functions called once or more per update step: their per-call latency is reported.
PER_CALL = ("netgraph.forward", "netgraph.backward", "netgraph.rnn_forward", "pathnorm.kappa1",
            "pathnorm.ddp_kappa", "pathnorm.fisher_diag_analytic", "optim.optimizer_step", "train.evaluate")
STEP_METHODS = ("sgd", "path_sgd", "ddp_sgd", "diag_ng", "ddp_norm")
STEPS = tuple(f"optim.{m}_step" for m in STEP_METHODS)
# Functions whose peak allocation is probed with tracemalloc after the window.
MEMORY_PROBED = ("pathnorm.ddp_kappa", "train.evaluate")

MIB = 2.0**20


def metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for module, funcs in LAYERS.items():
        for fn in funcs:
            key = f"{module}.{fn}"
            specs += [(f"{key}.calls", "count", "lower"), (f"{key}.self_s", "s", "lower")]
            if key in PER_CALL:
                specs += [(f"{key}.ms_p50", "ms", "lower"), (f"{key}.ms_p99", "ms", "lower")]
            elif key in STEPS:
                specs.append((f"{key}.ms_p50", "ms", "lower"))
    specs += [
        ("netgraph.forward.trace_mb", "MB", "lower"),
        ("netgraph.forward.output_share", "fraction", "higher"),
        ("netgraph.forward.gflop_per_s", "GFLOP/s", "higher"),
        ("netgraph.rnn_forward.calls_per_step", "count", "lower"),
        ("pathnorm.ddp_kappa.peak_mb", "MB", "lower"),
    ]
    specs += [(f"optim.{m}_over_sgd", "ratio", "lower") for m in STEP_METHODS[1:]]
    specs += [
        ("optim.forward_calls_per_step", "count", "lower"),
        ("optim.nonfinite_steps", "count", "lower"),
        ("train.evaluate.peak_mb", "MB", "lower"),
        ("trace.run_s", "s", "lower"),
        ("trace.uncovered_share", "fraction", "lower"),
    ]
    return specs


class Tracer:
    """Records spans while ``enabled``; ``rep`` labels the current repetition."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.stack = []
        self.rep = ""
        self.enabled = False
        self.forward_bytes = []  # (trace bytes, output bytes, 2*E*B) per forward call
        self.nonfinite_steps = 0
        self.probe_args = {}  # key -> (duration, function, args, kwargs) of the slowest call

    def install(self):
        """Wrap every function in LAYERS wherever a pathgeo module refers to it."""
        modules = [m for name, m in sorted(sys.modules.items()) if name == "pathgeo" or name.startswith("pathgeo.")]
        for module_name, funcs in LAYERS.items():
            home = sys.modules[f"pathgeo.{module_name}"]
            for fn_name in funcs:
                key = f"{module_name}.{fn_name}"
                original = getattr(home, fn_name)
                wrapper = self._wrap(key, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                        elif isinstance(value, dict):
                            for k, v in list(value.items()):
                                if v is original:
                                    value[k] = wrapper

    def _wrap(self, key, fn):
        fid = len(self.names)
        self.names.append(key)
        observe = self._observe_forward if key == "netgraph.forward" else self._observe_step if key in STEPS else None
        probed = key in MEMORY_PROBED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = self.stack[-1] if self.stack else -1
            span = [fid, 0.0, 0.0, parent, self.rep, 0.0]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                span[1], span[2] = start, end
                if parent >= 0:
                    self.spans[parent][5] += end - start
            if observe is not None:
                observe(args, result)
            if probed and end - start > self.probe_args.get(key, (0.0,))[0]:
                self.probe_args[key] = (end - start, fn, args, kwargs)
            return result

        return wrapper

    def _observe_forward(self, args, trace):
        net, B = args[0], trace.z.shape[1]
        self.forward_bytes.append((trace.z.nbytes + trace.h.nbytes, B * len(net.output_nodes) * 8, 2 * net.n_edges * B))

    def _observe_step(self, args, theta):
        if not np.isfinite(theta).all():
            self.nonfinite_steps += 1

    def probe_peaks(self):
        """Peak allocation in MiB of one untraced re-call of each memory-probed function.

        The re-call reuses the arguments of the slowest traced call (for
        evaluate, the training set) and runs after the measured window, so
        tracemalloc does not slow the timed calls.
        """
        peaks = {}
        for key, (_, fn, args, kwargs) in self.probe_args.items():
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                peaks[key] = tracemalloc.get_traced_memory()[1] / MIB
            finally:
                tracemalloc.stop()
        return peaks

    def write(self, path, run_id):
        """Write the spans as JSON lines: a header, then one span per line."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"run_id": run_id, "fields": ["name", "start", "end", "parent", "rep"]}) + "\n")
            for fid, start, end, parent, rep, _ in self.spans:
                fh.write(json.dumps([self.names[fid], start, end, parent, rep]) + "\n")

    def metrics(self, n_setup, n_body, body_seconds, peak_mb):
        """Per-layer metrics of a finished traced run."""
        names = self.names
        calls = defaultdict(lambda: [0, 0])
        self_s = defaultdict(lambda: [0.0, 0.0])
        durations = defaultdict(list)
        for fid, start, end, parent, rep, child in self.spans:
            phase = 0 if rep.startswith("setup") else 1
            calls[fid][phase] += 1
            self_s[fid][phase] += end - start - child
            durations[fid].append((end - start) * 1e3)

        def per_rep(pair):
            return pair[0] / n_setup + pair[1] / n_body

        out = {}
        for fid, key in enumerate(names):
            out[f"{key}.calls"] = per_rep(calls[fid])
            out[f"{key}.self_s"] = per_rep(self_s[fid])
            d = durations[fid]
            if key in PER_CALL or key in STEPS:
                out[f"{key}.ms_p50"] = float(np.percentile(d, 50)) if d else 0.0
            if key in PER_CALL:
                out[f"{key}.ms_p99"] = float(np.percentile(d, 99)) if d else 0.0

        fwd = np.array(self.forward_bytes, dtype=np.float64).reshape(-1, 3)
        fwd_self = sum(self_s[names.index("netgraph.forward")])
        out["netgraph.forward.trace_mb"] = float(fwd[:, 0].max()) / MIB if len(fwd) else 0.0
        out["netgraph.forward.output_share"] = float(fwd[:, 1].sum() / fwd[:, 0].sum()) if len(fwd) else 0.0
        out["netgraph.forward.gflop_per_s"] = float(fwd[:, 2].sum()) / fwd_self / 1e9 if fwd_self > 0 else 0.0

        # Forward passes per update step, attributed to the innermost step function.
        step_ids = [names.index(key) for key in STEPS]
        step_calls = {fid: sum(calls[fid]) for fid in step_ids if sum(calls[fid])}
        step_of = self._nearest_step(set(step_ids))
        fwd_id, rnn_id = names.index("netgraph.forward"), names.index("netgraph.rnn_forward")
        fwd_in_step = defaultdict(int)
        rnn_in_step = 0
        for i, span in enumerate(self.spans):
            if i in step_of:
                fwd_in_step[step_of[i]] += span[0] == fwd_id
                rnn_in_step += span[0] == rnn_id
        n_steps = sum(step_calls.values())
        out["netgraph.rnn_forward.calls_per_step"] = rnn_in_step / n_steps if n_steps else 0.0
        out["pathnorm.ddp_kappa.peak_mb"] = peak_mb.get("pathnorm.ddp_kappa", 0.0)
        sgd_p50 = out["optim.sgd_step.ms_p50"]
        for m in STEP_METHODS[1:]:
            p50 = out[f"optim.{m}_step.ms_p50"]
            out[f"optim.{m}_over_sgd"] = p50 / sgd_p50 if p50 and sgd_p50 else 0.0
        # The most forward passes any update rule in the workload spends per step.
        out["optim.forward_calls_per_step"] = max((fwd_in_step[fid] / n for fid, n in step_calls.items()), default=0.0)
        out["optim.nonfinite_steps"] = self.nonfinite_steps
        out["train.evaluate.peak_mb"] = peak_mb.get("train.evaluate", 0.0)

        covered = sum(end - start for _, start, end, parent, rep, _ in self.spans if parent < 0 and rep.startswith("body"))
        out["trace.run_s"] = float(np.median(body_seconds))
        out["trace.uncovered_share"] = max(0.0, 1.0 - covered / sum(body_seconds))
        return out

    def _nearest_step(self, step_ids):
        """Span index -> function id of its nearest enclosing optim *_step span."""
        nearest = {}
        for i, (fid, _, _, parent, _, _) in enumerate(self.spans):
            if parent < 0:
                continue
            pfid = self.spans[parent][0]
            if pfid in step_ids:
                nearest[i] = pfid
            elif parent in nearest:
                nearest[i] = nearest[parent]
        return nearest
