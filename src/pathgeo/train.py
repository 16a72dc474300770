"""Training loop with the desk-scale experiment schedule.

One master seed feeds named substreams (data, init, batches, perturbation,
ascent) so components can be varied independently; the per-epoch batch
order is a pure function of (seed, epoch), which is what makes checkpoint
resume bit-identical to an uninterrupted run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, minibatches
from .netgraph import NetworkGraph, predict
from .optim import OptimizerConfig, OptimizerState, loss_and_grad, optimizer_step
from .pathnorm import path_reg_dp

SUBSTREAMS = {"data": 0, "init": 1, "batches": 2, "perturbation": 3, "ascent": 4, "unbalance": 5}


def substream(master_seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([int(master_seed), SUBSTREAMS[name]])


@dataclass
class TrainConfig:
    optimizer: OptimizerConfig
    epochs: int = 20
    batch_size: int = 100
    seed: int = 0
    lr_decay: float = 1.0           # multiplicative, per epoch
    momentum_start: float | None = None
    momentum_max: float = 0.9
    momentum_step: float = 0.02
    log_gamma: bool = True


def init_params(net: NetworkGraph, seed: int) -> np.ndarray:
    """Balanced init: incoming weights N(0, 1/fan-in) per unit, zero bias weights.

    Drawn by the net's backend from the seed's "init" substream.
    """
    return net.backend.init(substream(seed, "init"))


def evaluate(net: NetworkGraph, theta: np.ndarray, dataset: Dataset, loss_kind: str, margin_gamma: float = 0.0):
    """(mean loss, error) on a dataset; error is MSE for regression tasks."""
    X = dataset.flat_inputs()
    outs = predict(net, theta, X)
    if dataset.task == "regression":
        targets = dataset.labels.reshape(len(dataset), -1)
        loss, _ = loss_and_grad("squared", outs, targets)
        err = float(np.mean((outs - targets) ** 2))
    else:
        loss, _ = loss_and_grad(loss_kind, outs, dataset.labels, margin_gamma)
        err = float(np.mean(outs.argmax(axis=1) != dataset.labels))
    return float(loss), err


@dataclass
class Checkpoint:
    theta: np.ndarray
    velocity: np.ndarray | None
    epoch: int
    step: int


def train(net: NetworkGraph, train_set: Dataset, cfg: TrainConfig, test_set: Dataset | None = None, theta0: np.ndarray | None = None, start: Checkpoint | None = None):
    """Run the schedule and return (theta, per-epoch history rows, checkpoint).

    The per-epoch row holds the global step, the full-set training loss at
    the epoch's end (from `evaluate`), the train/test error, the epoch's
    kappa range and the path regularizer value at the epoch boundary.
    """
    if start is not None:
        theta = start.theta.copy()
        state = OptimizerState(velocity=None if start.velocity is None else start.velocity.copy(), step=start.step)
        first_epoch = start.epoch
    else:
        theta = theta0.copy() if theta0 is not None else init_params(net, cfg.seed)
        state = OptimizerState()
        first_epoch = 0

    is_regression = train_set.task == "regression"
    targets = train_set.labels.reshape(len(train_set), -1) if is_regression else train_set.labels
    X_all = train_set.flat_inputs()
    history = []
    for epoch in range(first_epoch, cfg.epochs):
        opt = replace(
            cfg.optimizer,
            lr=cfg.optimizer.lr * (cfg.lr_decay**epoch),
            momentum=(min(cfg.momentum_max, cfg.momentum_start + cfg.momentum_step * epoch) if cfg.momentum_start is not None else cfg.optimizer.momentum),
        )
        state.start_epoch()
        diverged = False
        for idx in minibatches(train_set, cfg.batch_size, cfg.seed, epoch):
            theta = optimizer_step(net, theta, X_all[idx], targets[idx], opt, state)
            if not np.isfinite(theta).all():
                diverged = True
                break
        if diverged:
            history.append({
                "step": state.step, "epoch": epoch, "train_loss": np.inf,
                "train_err": np.inf, "test_err": np.inf,
                "kappa_min": np.nan, "kappa_max": np.nan, "gamma2_net": np.nan,
                "diverged": True,
            })
            break
        train_loss, train_err = evaluate(net, theta, train_set, opt.loss, opt.margin_gamma)
        test_loss, test_err = (np.nan, np.nan)
        if test_set is not None:
            test_loss, test_err = evaluate(net, theta, test_set, opt.loss, opt.margin_gamma)
        row = {
            "step": state.step,
            "epoch": epoch,
            "train_loss": train_loss,
            "train_err": train_err,
            "test_err": test_err,
            "kappa_min": np.nan if state.kappa_min is None else state.kappa_min,
            "kappa_max": np.nan if state.kappa_max is None else state.kappa_max,
            "gamma2_net": path_reg_dp(net, theta)[1] if cfg.log_gamma else np.nan,
        }
        history.append(row)
    return theta, history, Checkpoint(theta=theta.copy(), velocity=None if state.velocity is None else state.velocity.copy(), epoch=cfg.epochs, step=state.step)
