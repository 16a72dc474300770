"""Desk-scale experiment protocols shared by the CLI, scripts and tests.

Each driver is a deterministic function of its seeds and returns plain
rows/dicts ready for CSV or JSON serialization.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset, downsample, gen_addition, mnist_or_synthetic, randomize_labels
from .invariance import layer_matrices, random_unbalance
from .measures import margin as margin_fn
from .measures import norm_measures
from .netgraph import NetworkGraph, RNNSpec, build_layered, build_rnn_unrolled, predict
from .optim import OptimizerConfig
from .train import TrainConfig, evaluate, init_params, substream, train


def image_dataset(m: int, seed: int, side: int = 10, mnist_dir: str | None = None, noise: float = 0.35) -> Dataset:
    """m grayscale examples downsampled to side*side pixels, flattened later."""
    base = mnist_or_synthetic(m, seed, mnist_dir, noise=noise)
    if base.inputs.shape[1] != side:
        base = downsample(base, side=side)
    return base


def mlp_for(dataset: Dataset, hidden, bias: bool = True) -> NetworkGraph:
    hidden = [hidden] if np.isscalar(hidden) else list(hidden)
    n_in = int(np.prod(dataset.inputs.shape[1:]))
    return build_layered([n_in, *hidden, dataset.n_classes], bias=bias)


def mlp_protocol_config(method: str, seed: int, epochs: int = 20, lr: float = 0.1, loss: str = "truncated_cross_entropy", batch_size: int = 100, use_kappa2: bool = False) -> TrainConfig:
    """Mini-batches of 100, step 0.1 with 0.99 decay, momentum ramp 0.5 -> 0.9."""
    return TrainConfig(
        optimizer=OptimizerConfig(method=method, lr=lr, loss=loss, use_kappa2=use_kappa2, seed=seed),
        epochs=epochs,
        batch_size=batch_size,
        seed=seed,
        lr_decay=0.99,
        momentum_start=0.5,
        momentum_max=0.9,
        momentum_step=0.02,
    )


# -- balanced vs unbalanced initialization --------------------------------------


def unbalanced_init_experiment(seed: int = 0, hidden: int = 100, m: int = 2000, epochs: int = 20, side: int = 10, sigma_log: float = 1.0, lr: float = 0.1, mnist_dir: str | None = None):
    """Train from a balanced init and its rescaling-equivalent unbalanced twin.

    Returns {method: {"balanced": history, "unbalanced": history}} for
    plain and preconditioned descent with identical batch sequences.
    """
    data_seed = int(substream(seed, "data").integers(2**31))
    ds = image_dataset(m, data_seed, side=side, mnist_dir=mnist_dir)
    net = mlp_for(ds, hidden)
    theta0 = init_params(net, seed)
    unb_seed = int(substream(seed, "unbalance").integers(2**31))
    theta_u = random_unbalance(net, theta0, seed=unb_seed, sigma_log=sigma_log)
    out = {}
    for method in ("path_sgd", "sgd"):
        runs = {}
        for tag, t0 in (("balanced", theta0), ("unbalanced", theta_u)):
            cfg = mlp_protocol_config(method, seed, epochs=epochs, lr=lr)
            _, history, _ = train(net, ds, cfg, theta0=t0)
            runs[tag] = history
        out[method] = runs
    return out


# -- hidden unit sweep ------------------------------------------------------------


def _sweep_point(job):
    """One (seed, H) training run; module level so process pools can map it."""
    seed, H, m_train, m_test, epochs, method, lr, side, mnist_dir, noise, measure = job
    data_seed = int(substream(seed, "data").integers(2**31))
    full = image_dataset(m_train + m_test, data_seed, side=side, mnist_dir=mnist_dir, noise=noise)
    train_set = full.subset(np.arange(m_train))
    test_set = full.subset(np.arange(m_train, m_train + m_test))
    net = mlp_for(train_set, H)
    cfg = mlp_protocol_config(method, seed, epochs=epochs, lr=lr)
    theta, history, _ = train(net, train_set, cfg, test_set=test_set)
    row = {
        "H": int(H),
        "seed": int(seed),
        "train_err": history[-1]["train_err"],
        "test_err": history[-1]["test_err"],
        "train_loss": history[-1]["train_loss"],
    }
    if measure:
        row.update(measure_complexity(net, theta, train_set))
    return row


def hidden_sweep(h_list, seeds, m_train: int = 2000, m_test: int = 1000, epochs: int = 150, method: str = "sgd", lr: float = 0.1, side: int = 10, mnist_dir: str | None = None, measure: bool = True, noise: float = 0.7):
    """Rows of (H, seed, train_err, test_err, measures...) per sweep point.

    Sweep points are independent; PATHGEO_THREADS > 1 runs them in a
    process pool.  Each point is internally deterministic, so the result
    does not depend on the degree of parallelism.
    """
    import os

    jobs = [(int(seed), int(H), m_train, m_test, epochs, method, lr, side, mnist_dir, noise, measure)
            for seed in seeds for H in h_list]
    workers = int(os.environ.get("PATHGEO_THREADS", "1"))
    if workers > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_sweep_point, jobs))
    return [_sweep_point(job) for job in jobs]


def measure_complexity(net: NetworkGraph, theta: np.ndarray, dataset: Dataset, eps: float = 0.05):
    scores = predict(net, theta, dataset.flat_inputs())
    gamma = margin_fn(scores, dataset.labels, eps=eps)
    if gamma <= 0:
        return {"margin": gamma, "l2": np.nan, "l1_path": np.nan, "l2_path": np.nan, "spectral": np.nan}
    rep = norm_measures(layer_matrices(net, theta), gamma, bias=net.has_bias)
    return {"margin": gamma, **rep.measures()}


# -- true vs random labels ----------------------------------------------------------


def true_vs_random_experiment(seed: int = 0, hidden: int = 128, m: int = 1000, max_epochs: int = 500, lr: float = 0.1, side: int = 10, mnist_dir: str | None = None, noise: float = 0.8):
    """Train to zero training error on true and on fully random labels.

    Returns per-variant dicts with the epoch count, final errors and the
    margin-normalized complexity measures.  Training continues in stages
    of 100 epochs until the error reaches zero (or max_epochs), with a
    slow step decay so late memorization still makes progress.
    """
    data_seed = int(substream(seed, "data").integers(2**31))
    ds_true = image_dataset(m, data_seed, side=side, mnist_dir=mnist_dir, noise=noise)
    ds_rand = randomize_labels(ds_true, 1.0, seed=data_seed + 1)
    out = {}
    for tag, ds in (("true", ds_true), ("random", ds_rand)):
        net = mlp_for(ds, hidden)
        cfg = TrainConfig(
            optimizer=OptimizerConfig(method="sgd", lr=lr, loss="truncated_cross_entropy", seed=seed),
            epochs=100,
            batch_size=100,
            seed=seed,
            lr_decay=0.997,
            momentum_start=0.5,
            momentum_max=0.9,
            momentum_step=0.02,
        )
        theta, history, ckpt = train(net, ds, cfg)
        while history[-1]["train_err"] > 0.0 and cfg.epochs < max_epochs:
            cfg.epochs += 100
            theta, more, ckpt = train(net, ds, cfg, start=ckpt)
            history += more
        out[tag] = {
            "epochs": len(history),
            "train_err": history[-1]["train_err"],
            "train_loss": history[-1]["train_loss"],
            **measure_complexity(net, theta, ds),
        }
    return out


# -- addition problem ----------------------------------------------------------------


def addition_net(T: int, hidden: int = 32) -> NetworkGraph:
    return build_rnn_unrolled(RNNSpec(n_in=2, hidden=(hidden,), n_out=1, T=T))


def addition_init(spec: RNNSpec, seed: int, scale: float = 0.1) -> np.ndarray:
    """Identity recurrent matrix; in/out weights uniform in [-scale, scale].

    The identity start preserves long-range signal through the unroll; the
    in/out scale keeps the path curvature away from zero so preconditioned
    steps stay sane.
    """
    rng = np.random.default_rng(seed)
    w_in = [rng.uniform(-scale, scale, size=(n, m)) for n, m in zip(spec.hidden, (spec.n_in,) + spec.hidden[:-1])]
    w_rec = [np.eye(n) for n in spec.hidden]
    w_out = rng.uniform(-scale, scale, size=(spec.n_out, spec.hidden[-1]))
    return spec.pack(w_in, w_rec, w_out)


def addition_bench(T_list, methods=("path_sgd", "sgd"), hidden: int = 32, m_train: int = 50000, m_test: int = 1000, epochs: int = 35, batch_size: int = 100, lr: float | None = None, seed: int = 0):
    """Final test MSE per (T, method) on the masked-sum task.

    Defaults reproduce the desk-scale protocol: T = 50 with the
    preconditioned update crosses below the mean-prediction baseline a few
    epochs after escaping its plateau and lands under 0.05.
    """
    rows = []
    for T in T_list:
        data_seed = int(substream(seed, "data").integers(2**31))
        train_set = gen_addition(T, m_train, data_seed)
        test_set = gen_addition(T, m_test, data_seed + 1)
        for method in methods:
            net = addition_net(T, hidden)
            step = lr if lr is not None else (1e-5 if method == "path_sgd" else 1e-2)
            cfg = TrainConfig(
                optimizer=OptimizerConfig(method=method, lr=step, loss="squared", seed=seed),
                epochs=epochs,
                batch_size=batch_size,
                seed=seed,
                momentum_start=0.9,
                momentum_max=0.9,
                momentum_step=0.0,
                log_gamma=False,
            )
            theta0 = addition_init(net.rnn, seed)
            theta, history, _ = train(net, train_set, cfg, test_set=test_set, theta0=theta0)
            if np.isfinite(theta).all():
                _, test_mse = evaluate(net, theta, test_set, "squared")
            else:
                test_mse = np.inf
            rows.append({"T": int(T), "method": method, "test_mse": float(test_mse), "train_loss": history[-1]["train_loss"]})
    return rows
