"""Experiment runner: train | measure | invariance-check | kappa-audit | sweep-hidden | addition-bench.

Configuration is a JSON file with --kebab-case flag overrides; every
output embeds the config hash and master seed, and rerunning a config
reproduces the output files byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import protocols
from .data import dataset_from_manifest
from .errors import PathGeoError
from .invariance import (
    balance_weights,
    check_function_equal,
    layer_matrices,
    path_norm,
    random_rescaling,
    rescale_feedforward,
    rescale_rnn,
)
from .measures import margin as margin_fn
from .measures import norm_measures, pac_bayes_curve
from .netgraph import (
    NetworkGraph,
    RNNSpec,
    build_layered,
    build_rnn_unrolled,
    count_paths,
    load_params,
    net_from_json,
    net_to_json,
    predict,
    save_params,
)
from .optim import OptimizerConfig, path_kappa, path_sgd_step
from .pathnorm import kappa_bruteforce, path_reg_bruteforce, path_reg_dp
from .train import Checkpoint, TrainConfig, init_params, train


def config_hash(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True, default=str).encode()).hexdigest()[:12]


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_csv(path, rows, fieldnames, meta: dict) -> None:
    """RFC-4180 CSV; the config hash and seed ride along as columns."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(fieldnames) + ["config_hash", "seed"])
        for row in rows:
            writer.writerow([_fmt(row[k]) for k in fieldnames] + [meta["config_hash"], meta["seed"]])


def write_json(path, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def net_from_config(doc: dict) -> NetworkGraph:
    if "dims" in doc:
        return build_layered(doc["dims"], bias=doc.get("bias", True))
    if "rnn" in doc:
        r = doc["rnn"]
        return build_rnn_unrolled(RNNSpec(
            n_in=r["n_in"], hidden=tuple(r["hidden"]), n_out=r["n_out"],
            T=r["T"], output_times=tuple(r.get("output_times", [])),
        ))
    raise PathGeoError("net config needs 'dims' or 'rnn'")


def load_config(args) -> dict:
    doc = {}
    if args.config:
        with open(args.config) as fh:
            doc = json.load(fh)
    for key, val in vars(args).items():
        if key in ("config", "func", "out_dir") or val is None:
            continue
        doc[key.replace("-", "_")] = val
    return doc


def optimizer_from_config(doc: dict) -> OptimizerConfig:
    return OptimizerConfig(
        method=doc.get("method", "sgd"),
        lr=doc.get("lr", 0.1),
        alpha=doc.get("alpha", 0.0),
        stat=doc.get("stat", "second_moment"),
        use_kappa2=doc.get("use_kappa2", False),
        kappa_floor=doc.get("kappa_floor"),
        seed=doc.get("seed", 0),
        momentum=doc.get("momentum", 0.0),
        loss=doc.get("loss", "truncated_cross_entropy"),
        margin_gamma=doc.get("margin_gamma", 0.0),
    )


def _present(doc: dict, keys) -> dict:
    """The entries of doc under keys, so that absent keys take the callee's defaults."""
    return {k: doc[k] for k in keys if k in doc}


def train_config_from(doc: dict) -> TrainConfig:
    schedule = ("epochs", "batch_size", "seed", "lr_decay", "momentum_start", "momentum_max", "momentum_step")
    return TrainConfig(optimizer=optimizer_from_config(doc), **_present(doc, schedule))


METRIC_FIELDS = ("step", "epoch", "train_loss", "train_err", "test_err", "kappa_min", "kappa_max", "gamma2_net")


def cmd_train(args) -> int:
    doc = load_config(args)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta = {"config_hash": config_hash(doc), "seed": doc.get("seed", 0)}
    net = net_from_config(doc["net"])
    dataset = dataset_from_manifest(doc["dataset"])
    test_set = dataset_from_manifest(doc["test_dataset"]) if "test_dataset" in doc else None
    cfg = train_config_from(doc)

    start = None
    theta0 = None
    if doc.get("resume"):
        ck = np.load(doc["resume"])
        start = Checkpoint(theta=ck["theta"], velocity=ck["velocity"] if ck["has_velocity"] else None, epoch=int(ck["epoch"]), step=int(ck["step"]))
    elif doc.get("init_weights"):
        theta0 = load_params(doc["init_weights"])
    theta, history, ckpt = train(net, dataset, cfg, test_set=test_set, theta0=theta0, start=start)

    write_csv(out / "metrics.csv", history, METRIC_FIELDS, meta)
    save_params(out / "final.pgw", theta)
    np.savez(
        out / "checkpoint.npz",
        theta=ckpt.theta,
        velocity=ckpt.velocity if ckpt.velocity is not None else np.zeros(0),
        has_velocity=ckpt.velocity is not None,
        epoch=ckpt.epoch,
        step=ckpt.step,
    )
    (out / "net.json").write_text(net_to_json(net))
    write_json(out / "config.json", {**doc, **meta})
    return 0


def cmd_measure(args) -> int:
    doc = load_config(args)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta = {"config_hash": config_hash(doc), "seed": doc.get("seed", 0)}
    net = net_from_json(Path(doc["net"]).read_text())
    theta = load_params(doc["weights"])
    dataset = dataset_from_manifest(doc["dataset"])
    eps = doc.get("epsilon", 0.05)
    scores = predict(net, theta, dataset.flat_inputs())
    gamma = margin_fn(scores, dataset.labels, eps=eps)
    report = norm_measures(layer_matrices(net, theta), gamma, bias=net.has_bias)
    write_json(out / "complexity.json", {
        "margin": gamma,
        "epsilon": eps,
        "measures": report.measures(),
        "layer_frobenius": report.layer_frobenius,
        "layer_spectral": report.layer_spectral,
        "layer_l1_inf": report.layer_l1_inf,
        "group_norms": {f"{p},{q}": v for (p, q), v in report.group_norms.items()},
        "product_norms": {f"{p},{q}": v for (p, q), v in report.product_norms.items()},
        "path_norms": {str(p): v for p, v in report.path_norms.items()},
        **meta,
    })
    grid = doc.get("alpha_grid", [5e-4, 1e-3, 2e-3, 5e-3])
    curve = pac_bayes_curve(net, theta, dataset.flat_inputs(), dataset.labels, grid, n_perturb=doc.get("n_perturb", 200), seed=doc.get("seed", 0))
    rows = [{"alpha": a, "kl": k, "expected_sharpness": s} for a, k, s in curve.rows()]
    write_csv(out / "pac_bayes.csv", rows, ("alpha", "kl", "expected_sharpness"), meta)
    return 0


def cmd_invariance_check(args) -> int:
    doc = load_config(args)
    net = net_from_json(Path(doc["net"]).read_text())
    theta = load_params(doc["weights"]) if doc.get("weights") else init_params(net, doc.get("seed", 0))
    seed = doc.get("seed", 0)
    rng = np.random.default_rng(seed)
    probes = rng.normal(size=(100, len(net.input_nodes)))
    checks = []

    theta_r = None
    if net.rnn is not None:
        alpha = [rng.lognormal(0.0, 1.0, size=n) for n in net.rnn.hidden]
        theta_a = rescale_rnn(net.rnn, theta, alpha)
        ok, dev = check_function_equal(net, theta, theta_a, rng.normal(size=probes.shape), tol=1e-9)
        checks.append({"name": "rnn_rescaling_preserves_function", "max_dev": dev, "pass": bool(ok)})
    else:
        beta = random_rescaling(net, rng)
        try:
            theta_r = rescale_feedforward(net, theta, beta)
            ok, dev = check_function_equal(net, theta, theta_r, probes, tol=1e-9)
            checks.append({"name": "rescaling_preserves_function", "max_dev": dev, "pass": bool(ok)})
        except PathGeoError as exc:
            checks.append({"name": "rescaling_preserves_function", "skipped": str(exc), "pass": True})

    if net.dims is not None:
        bal = balance_weights(net, theta, 2.0, np.inf)
        ok, dev = check_function_equal(net, theta, bal, probes, tol=1e-9)
        phi_rel = abs(path_norm(net, bal, 2.0) / path_norm(net, theta, 2.0) - 1.0)
        checks.append({"name": "balancing_preserves_function", "max_dev": dev, "pass": bool(ok)})
        checks.append({"name": "balancing_preserves_path_norm", "max_dev": phi_rel, "pass": bool(phi_rel <= 1e-10)})

    if theta_r is not None and net.dims is not None:
        cfg = OptimizerConfig(method="path_sgd", lr=0.01, loss="squared")
        X = rng.normal(size=(16, len(net.input_nodes)))
        y = predict(net, theta, X) + rng.normal(size=(16, len(net.output_nodes)))
        t1 = path_sgd_step(net, theta, X, y, cfg)
        t2 = path_sgd_step(net, theta_r, X, y, cfg)
        _, dev = check_function_equal(net, t1, t2, probes, tol=1e-6)
        checks.append({"name": "path_sgd_update_invariant", "max_dev": dev, "pass": bool(dev <= 1e-6)})

    verdict = all(c["pass"] for c in checks)
    doc_out = {"pass": bool(verdict), "checks": checks, "seed": seed, "config_hash": config_hash(doc)}
    if args.out:
        write_json(args.out, doc_out)
    else:
        print(json.dumps(doc_out, indent=2, default=str))
    return 0 if verdict else 1


def cmd_kappa_audit(args) -> int:
    doc = load_config(args)
    net = net_from_json(Path(doc["net"]).read_text())
    theta = load_params(doc["weights"]) if doc.get("weights") else init_params(net, doc.get("seed", 0))
    n_paths = count_paths(net)
    if n_paths > doc.get("path_cap", 10**5):
        print(f"net has {n_paths} paths; audit runs on small nets only", file=sys.stderr)
        return 2
    gamma_state, dp = path_reg_dp(net, theta)
    bf = path_reg_bruteforce(net, theta)
    gamma_rel = abs(dp - bf) / max(abs(bf), 1e-300)
    k_fast = path_kappa(net, theta, use_kappa2=True)
    k_bf = kappa_bruteforce(net, theta).kappa
    scale = max(float(np.abs(k_bf).max()), 1e-300)
    kappa_rel = float(np.abs(k_fast - k_bf).max() / scale)
    out_doc = {
        "n_paths": n_paths,
        "gamma2_dp": dp,
        "gamma2_bruteforce": bf,
        "gamma2_rel_err": gamma_rel,
        "kappa_rel_err": kappa_rel,
        "kappa": k_fast.tolist(),
        "kappa_bruteforce": k_bf.tolist(),
        "gamma2_per_node": gamma_state.gamma2.tolist(),
        "pass": bool(gamma_rel <= 1e-12 and kappa_rel <= 1e-9),
        "config_hash": config_hash(doc),
        "seed": doc.get("seed", 0),
    }
    if args.out:
        write_json(args.out, out_doc)
    else:
        print(json.dumps(out_doc, indent=2))
    return 0 if out_doc["pass"] else 1


def _parse_list(text, cast=int):
    return [cast(tok) for tok in str(text).split(",") if tok]


def cmd_sweep_hidden(args) -> int:
    doc = load_config(args)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta = {"config_hash": config_hash(doc), "seed": doc.get("seed", 0)}
    h_list = _parse_list(doc.get("h_list", "32,64,128"))
    seeds = _parse_list(doc.get("seeds", str(doc.get("seed", 0))))
    rows = protocols.hidden_sweep(h_list, seeds, **_present(doc, ("m_train", "m_test", "epochs", "method", "lr", "mnist_dir")))
    fields = ("H", "seed", "train_err", "test_err", "train_loss", "margin", "l2", "l1_path", "l2_path", "spectral")
    write_csv(out / "sweep_hidden.csv", rows, fields, meta)
    return 0


def cmd_addition_bench(args) -> int:
    doc = load_config(args)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta = {"config_hash": config_hash(doc), "seed": doc.get("seed", 0)}
    t_list = _parse_list(doc.get("t_list", "10,50"))
    methods = tuple(str(doc.get("methods", "path_sgd,sgd")).split(","))
    rows = protocols.addition_bench(
        t_list, methods=methods,
        **_present(doc, ("hidden", "m_train", "m_test", "epochs", "seed")),
    )
    write_csv(out / "addition_bench.csv", rows, ("T", "method", "test_mse", "train_loss"), meta)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="pathgeo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run a training config, emit metrics CSV + weights")
    p.add_argument("--config")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--resume")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--method")
    p.add_argument("--seed", type=int)
    p.add_argument("--batch-size", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("measure", help="complexity report + PAC-Bayes curve for trained weights")
    p.add_argument("--config")
    p.add_argument("--net")
    p.add_argument("--weights")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("invariance-check", help="rescaling/balancing/update invariance suite")
    p.add_argument("--config")
    p.add_argument("--net")
    p.add_argument("--weights")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_invariance_check)

    p = sub.add_parser("kappa-audit", help="compare DP kappa/gamma against brute force on a small net")
    p.add_argument("--config")
    p.add_argument("--net")
    p.add_argument("--weights")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_kappa_audit)

    p = sub.add_parser("sweep-hidden", help="train/test error and measures across hidden sizes")
    p.add_argument("--config")
    p.add_argument("--h-list")
    p.add_argument("--seeds")
    p.add_argument("--epochs", type=int)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_sweep_hidden)

    p = sub.add_parser("addition-bench", help="masked-sum RNN benchmark across lengths")
    p.add_argument("--config")
    p.add_argument("--t-list")
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_addition_bench)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PathGeoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
