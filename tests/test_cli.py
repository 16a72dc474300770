import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pathgeo import protocols
from pathgeo.cli import main, optimizer_from_config, train_config_from


BASE_CONFIG = {
    "net": {"dims": [16, 8, 3], "bias": True},
    "dataset": {"kind": "cluster_images", "m": 90, "seed": 5, "side": 4, "n_classes": 3, "noise": 0.1},
    "method": "path_sgd",
    "lr": 0.1,
    "epochs": 4,
    "batch_size": 30,
    "seed": 1,
    "loss": "truncated_cross_entropy",
}


def write_config(tmp_path, extra=None):
    doc = {**BASE_CONFIG, **(extra or {})}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestTrain:
    def test_outputs_and_reproducibility(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "a")]) == 0
        assert main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "metrics.csv").read_bytes()
        b = (tmp_path / "b" / "metrics.csv").read_bytes()
        assert a == b
        rows = read_rows(tmp_path / "a" / "metrics.csv")
        assert len(rows) == 4
        assert {"step", "epoch", "train_loss", "train_err", "config_hash", "seed"} <= set(rows[0])
        assert (tmp_path / "a" / "final.pgw").exists()

    def test_resume_matches_straight_run(self, tmp_path):
        cfg = write_config(tmp_path, {"epochs": 6})
        main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "full")])
        cfg_half = write_config(tmp_path, {"epochs": 3})
        main(["train", "--config", str(cfg_half), "--out-dir", str(tmp_path / "half")])
        cfg_resume = write_config(tmp_path, {"epochs": 6, "resume": str(tmp_path / "half" / "checkpoint.npz")})
        main(["train", "--config", str(cfg_resume), "--out-dir", str(tmp_path / "resumed")])
        full = np.frombuffer((tmp_path / "full" / "final.pgw").read_bytes()[16:])
        resumed = np.frombuffer((tmp_path / "resumed" / "final.pgw").read_bytes()[16:])
        assert np.array_equal(full, resumed)
        # resumed metric rows equal the tail of the straight run exactly
        # (config_hash differs: the resume config is a different config)
        strip = lambda line: line.rsplit(",", 2)[0]
        full_rows = [strip(r) for r in (tmp_path / "full" / "metrics.csv").read_text().splitlines()]
        res_rows = [strip(r) for r in (tmp_path / "resumed" / "metrics.csv").read_text().splitlines()]
        assert full_rows[4:] == res_rows[1:]

    def test_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "o"), "--epochs", "2"])
        assert len(read_rows(tmp_path / "o" / "metrics.csv")) == 2


class TestMeasure:
    def test_report_and_curve(self, tmp_path):
        cfg = write_config(tmp_path, {"epochs": 40})
        main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "t")])
        rc = main([
            "measure",
            "--config", str(cfg),
            "--net", str(tmp_path / "t" / "net.json"),
            "--weights", str(tmp_path / "t" / "final.pgw"),
            "--out-dir", str(tmp_path / "m"),
        ])
        assert rc == 0
        doc = json.loads((tmp_path / "m" / "complexity.json").read_text())
        assert doc["margin"] > 0
        for key in ("l2", "l1_path", "l2_path", "spectral"):
            assert doc["measures"][key] > 0
        rows = read_rows(tmp_path / "m" / "pac_bayes.csv")
        kl = [float(r["kl"]) for r in rows]
        assert kl == sorted(kl, reverse=True)


class TestChecks:
    def test_invariance_check_passes(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "t")])
        out = tmp_path / "inv.json"
        rc = main([
            "invariance-check",
            "--net", str(tmp_path / "t" / "net.json"),
            "--weights", str(tmp_path / "t" / "final.pgw"),
            "--seed", "3",
            "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["pass"] and len(doc["checks"]) >= 3

    def test_kappa_audit(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "t")])
        out = tmp_path / "kap.json"
        rc = main([
            "kappa-audit",
            "--net", str(tmp_path / "t" / "net.json"),
            "--weights", str(tmp_path / "t" / "final.pgw"),
            "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["pass"]
        assert doc["gamma2_rel_err"] <= 1e-12
        assert doc["kappa_rel_err"] <= 1e-9


def test_optimizer_config_keeps_margin_gamma():
    assert optimizer_from_config({"loss": "margin", "margin_gamma": 0.25}).margin_gamma == 0.25


def test_train_config_schedule_defaults_to_train_config():
    cfg = train_config_from({"momentum": 0.0, "lr": 0.1})
    assert cfg.momentum_start is None and cfg.lr_decay == 1.0


def test_addition_bench_keeps_protocol_defaults(tmp_path, monkeypatch):
    seen = {}
    monkeypatch.setattr(protocols, "addition_bench", lambda t_list, **kw: seen.update(kw) or [])
    cfg = tmp_path / "ab.json"
    cfg.write_text(json.dumps({"t_list": "4", "hidden": 8}))
    assert main(["addition-bench", "--config", str(cfg), "--out-dir", str(tmp_path / "ab")]) == 0
    assert seen["hidden"] == 8
    assert "m_train" not in seen and "epochs" not in seen


class TestSweeps:
    def test_sweep_hidden_csv(self, tmp_path):
        cfg = write_config(tmp_path, {"m_train": 60, "m_test": 30, "epochs": 3, "h_list": "4,8", "seeds": "0"})
        rc = main(["sweep-hidden", "--config", str(cfg), "--out-dir", str(tmp_path / "s")])
        assert rc == 0
        rows = read_rows(tmp_path / "s" / "sweep_hidden.csv")
        assert [r["H"] for r in rows] == ["4", "8"]

    def test_addition_bench_csv(self, tmp_path):
        cfg = write_config(tmp_path, {"t_list": "4", "methods": "sgd", "hidden": 4, "m_train": 200, "m_test": 50, "epochs": 2})
        rc = main(["addition-bench", "--config", str(cfg), "--out-dir", str(tmp_path / "ab")])
        assert rc == 0
        rows = read_rows(tmp_path / "ab" / "addition_bench.csv")
        assert rows[0]["method"] == "sgd" and float(rows[0]["test_mse"]) > 0


def test_thread_cap_does_not_change_results(tmp_path, monkeypatch):
    from pathgeo.protocols import hidden_sweep

    kwargs = dict(m_train=80, m_test=40, epochs=2, measure=False, noise=0.3)
    monkeypatch.delenv("PATHGEO_THREADS", raising=False)
    serial = hidden_sweep([4, 8], seeds=[0], **kwargs)
    monkeypatch.setenv("PATHGEO_THREADS", "2")
    parallel = hidden_sweep([4, 8], seeds=[0], **kwargs)
    assert serial == parallel


def test_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "pathgeo.cli", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    for name in ("train", "measure", "invariance-check", "kappa-audit", "sweep-hidden", "addition-bench"):
        assert name in proc.stdout
