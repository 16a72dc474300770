"""The four benchmark workloads.

Each workload is built from the workload seed alone and has three parts:
``build`` (the set-up: data, nets, initial weights), ``body(i)`` (one
repetition of a fixed schedule, the unit that ``run_s`` times) and the
output checks, which run outside the timed body.  ``examples`` is the number
of examples the schedule of one body pushes through a forward pass; it comes
from the schedule, not from counting calls, so removing a redundant internal
forward pass shows up as a higher ``examples_per_s``.

Workloads call pathgeo through module attributes (``optim.optimizer_step``)
so the traced run's wrappers see every call.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from pathgeo import cli, data, invariance, measures, netgraph, optim, pathnorm, protocols, train

# Tolerances of the acceptance suite (tests/test_acceptance.py).
AC11_CURVE_DEV = 1e-6     # path_sgd loss curves, balanced vs rescaled start
AC11_SGD_RATIO = 2.0      # sgd final loss, rescaled over balanced start
AC02_ORACLE_REL = 1e-9    # fast kappa vs path-enumeration oracle, relative to the largest entry


def _data_seed(seed: int) -> int:
    return int(train.substream(seed, "data").integers(2**31))


def _max_rel_dev(fast, oracle) -> float:
    return float(np.abs(fast - oracle).max() / max(float(np.abs(oracle).max()), 1e-300))


def _finite_rows(history, keys) -> bool:
    return all(not row.get("diverged") and np.isfinite([row[k] for k in keys]).all() for row in history)


class MlpRescaled:
    """AC-11: path_sgd and sgd, each from a balanced init and its rescaled twin.

    Body i runs the protocol at seed + i, so a run covers a block of
    consecutive seeds starting at the workload seed.  The protocol makes its
    own data and nets, so the set-up is the import alone.
    """

    HIDDEN, M, EPOCHS = 100, 2000, 20
    # 2 methods x 2 starts; every epoch steps through the training set, then evaluates it.
    examples = 4 * EPOCHS * 2 * M

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed

    def build(self):
        pass

    def body(self, i):
        return protocols.unbalanced_init_experiment(seed=self.seed + i, hidden=self.HIDDEN, m=self.M, epochs=self.EPOCHS)

    def check(self, i, out):
        finite = all(_finite_rows(h, ("train_loss", "train_err")) for runs in out.values() for h in runs.values())
        bal, unb = (np.array([r["train_loss"] for r in out["path_sgd"][tag]]) for tag in ("balanced", "unbalanced"))
        curve_dev = float(np.abs(bal - unb).max()) if bal.shape == unb.shape else np.inf
        sgd_bal, sgd_unb = (out["sgd"][tag][-1]["train_loss"] for tag in ("balanced", "unbalanced"))
        return [finite, curve_dev <= AC11_CURVE_DEV, sgd_unb >= AC11_SGD_RATIO * sgd_bal]

    def final_checks(self):
        return []


class RnnAddition:
    """AC-13 net and optimizer on the masked-sum task; body i trains epoch i.

    Each epoch is 200 path_sgd steps followed by evaluation of the training
    and test sets, and continues from the previous epoch's checkpoint.
    """

    T, HIDDEN, M_TRAIN, M_TEST, BATCH = 50, 32, 20000, 1000, 100
    examples = 2 * M_TRAIN + M_TEST

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed

    def build(self):
        data_seed = _data_seed(self.seed)
        self.train_set = data.gen_addition(self.T, self.M_TRAIN, data_seed)
        self.test_set = data.gen_addition(self.T, self.M_TEST, data_seed + 1)
        self.net = protocols.addition_net(self.T, self.HIDDEN)
        theta0 = protocols.addition_init(self.net.rnn, self.seed)
        self.ckpt = train.Checkpoint(theta=theta0, velocity=None, epoch=0, step=0)
        self.cfg = train.TrainConfig(
            optimizer=optim.OptimizerConfig(method="path_sgd", lr=1e-5, loss="squared", seed=self.seed),
            epochs=0, batch_size=self.BATCH, seed=self.seed,
            momentum_start=0.9, momentum_max=0.9, momentum_step=0.0, log_gamma=False,
        )

    def body(self, i):
        cfg = replace(self.cfg, epochs=i + 1)
        _, history, self.ckpt = train.train(self.net, self.train_set, cfg, test_set=self.test_set, start=self.ckpt)
        return history

    def check(self, i, history):
        return [len(history) == 1 and _finite_rows(history, ("train_loss", "train_err", "test_err"))]

    def final_checks(self):
        spec = netgraph.RNNSpec(n_in=2, hidden=(3,), n_out=1, T=4)
        net = netgraph.build_rnn_unrolled(spec)
        theta = np.random.default_rng(self.seed).normal(0.0, 0.8, size=spec.n_param)
        oracle = pathnorm.kappa_bruteforce(net, theta).kappa1
        return [_max_rel_dev(pathnorm.kappa1(net, theta), oracle) <= AC02_ORACLE_REL]


class Curvature:
    """The update family at [100,100,10] with bias, B=100, on the AC-11 data.

    Body i takes, for every method, a fixed number of optimizer steps from
    the same initial weights on the first batches of epoch i.  sgd and
    path_sgd run on the same batches as the base of the cost ratios.
    """

    HIDDEN, M, BATCH = 100, 2000, 100
    STEPS = {"sgd": 10, "path_sgd": 10, "ddp_sgd": 1, "diag_ng": 1, "ddp_norm": 10}
    CONFIGS = {
        "sgd": optim.OptimizerConfig(method="sgd", lr=0.1, loss="truncated_cross_entropy"),
        "path_sgd": optim.OptimizerConfig(method="path_sgd", lr=0.1, loss="truncated_cross_entropy"),
        "ddp_sgd": optim.OptimizerConfig(method="ddp_sgd", lr=0.1, alpha=0.5, stat="second_moment", loss="truncated_cross_entropy"),
        "diag_ng": optim.OptimizerConfig(method="diag_ng", lr=0.1, loss="truncated_cross_entropy"),
        "ddp_norm": optim.OptimizerConfig(method="ddp_norm", lr=0.1, alpha=0.5, stat="variance", loss="truncated_cross_entropy"),
    }
    examples = BATCH * sum(STEPS.values())

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed

    def build(self):
        self.dataset = protocols.image_dataset(self.M, _data_seed(self.seed))
        self.net = protocols.mlp_for(self.dataset, self.HIDDEN)
        self.theta0 = train.init_params(self.net, self.seed)
        self.X = self.dataset.flat_inputs()

    def body(self, i):
        batches = data.minibatches(self.dataset, self.BATCH, self.seed, i)
        finals = {}
        for method, n_steps in self.STEPS.items():
            theta, state = self.theta0, optim.OptimizerState()
            for idx in batches[:n_steps]:
                theta = optim.optimizer_step(self.net, theta, self.X[idx], self.dataset.labels[idx], self.CONFIGS[method], state)
            finals[method] = theta
        return finals

    def check(self, i, finals):
        # A non-finite intermediate step makes the next step's forward pass raise.
        return [bool(np.isfinite(theta).all()) for theta in finals.values()]

    def final_checks(self):
        rng = np.random.default_rng(self.seed)
        net = netgraph.build_layered([3, 4, 2])
        theta = rng.normal(0.0, 0.8, size=net.n_param)
        X = rng.normal(size=(16, 3))
        kappa = pathnorm.ddp_kappa(net, theta, X, alpha=1.0, stat="second_moment")
        return [_max_rel_dev(kappa, pathnorm.fisher_diag_analytic(net, theta, X)) <= AC02_ORACLE_REL]


class MeasureReport:
    """`pathgeo measure` and `invariance-check` on a trained AC-11 net.

    The set-up trains a short sgd run to a positive-margin net and writes
    net.json, the PGW1 weights and the measure config.  measures.check_conditions
    is left out: it rejects layered nets with bias columns.
    """

    HIDDEN, M, EPOCHS = 100, 2000, 5
    ALPHAS = (5e-4, 1e-3, 2e-3, 5e-3)
    N_PERTURB, PERTURB_BATCH = 400, 64
    ASCENT_STEPS, ASCENT_BATCH = 400, 64
    # measure: margin and PAC-Bayes base loss on the full set, one batch per draw;
    # invariance-check: 100 probes x 2 nets x 3 checks, a 16-example target and two 16-example steps;
    # max_sharpness: base and peak loss on the full set, one batch per ascent step.
    examples = (2 * M + len(ALPHAS) * N_PERTURB * PERTURB_BATCH
                + 3 * 2 * 100 + 3 * 16
                + 2 * M + ASCENT_STEPS * ASCENT_BATCH)

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.dir = work_dir

    def build(self):
        self.dir.mkdir(parents=True, exist_ok=True)
        manifest = {"kind": "cluster_images", "m": self.M, "seed": _data_seed(self.seed), "transforms": [["downsample", 10]]}
        self.dataset = data.dataset_from_manifest(manifest)
        self.net = protocols.mlp_for(self.dataset, self.HIDDEN)
        cfg = protocols.mlp_protocol_config("sgd", self.seed, epochs=self.EPOCHS)
        self.theta, _, _ = train.train(self.net, self.dataset, cfg)
        self.net_path, self.weights_path = self.dir / "net.json", self.dir / "weights.pgw"
        self.net_path.write_text(netgraph.net_to_json(self.net))
        netgraph.save_params(self.weights_path, self.theta)
        self.config_path = self.dir / "measure.json"
        self.config_path.write_text(json.dumps({
            "net": str(self.net_path), "weights": str(self.weights_path), "dataset": manifest,
            "alpha_grid": list(self.ALPHAS), "n_perturb": self.N_PERTURB, "seed": self.seed,
        }))
        self.out_dir, self.invariance_path = self.dir / "measure", self.dir / "invariance.json"

    def body(self, i):
        rc_measure = cli.main(["measure", "--config", str(self.config_path), "--out-dir", str(self.out_dir)])
        rc_invariance = cli.main(["invariance-check", "--net", str(self.net_path), "--weights", str(self.weights_path),
                                  "--seed", str(self.seed), "--out", str(self.invariance_path)])
        ascent = measures.AscentConfig(steps=self.ASCENT_STEPS, batch_size=self.ASCENT_BATCH, seed=self.seed + i)
        measures.max_sharpness(self.net, self.theta, self.dataset.flat_inputs(), self.dataset.labels, 5e-4, ascent)
        unbalanced = invariance.random_unbalance(self.net, self.theta, seed=self.seed + i)
        invariance.path_norm(self.net, invariance.balance_per_unit(self.net, unbalanced, 2.0), 2.0)
        return rc_measure, rc_invariance

    def check(self, i, codes):
        verdict = json.loads(self.invariance_path.read_text())
        margin = json.loads((self.out_dir / "complexity.json").read_text())["margin"]
        return [codes[0] == 0, codes[1] == 0, verdict["pass"] is True, margin > 0]

    def final_checks(self):
        return []


WORKLOADS = {
    "mlp_rescaled": MlpRescaled,
    "rnn_addition": RnnAddition,
    "curvature": Curvature,
    "measure_report": MeasureReport,
}
