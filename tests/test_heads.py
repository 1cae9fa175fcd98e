"""Probe heads, per-seed reports, and the seed fan-out helper."""
import numpy as np
import pytest

from seqrep.evaluation.heads import (
    MetricReport,
    MlpProbe,
    ProbeConfig,
    n_threads,
    run_seeds,
)


def blobs(rng, n=300, d=6, gap=6.0):
    """Two well-separated Gaussian clusters."""
    y = rng.integers(0, 2, size=n)
    x = rng.normal(size=(n, d))
    x[y == 1, 0] += gap
    return x, y


def test_probe_learns_separable_data(rng):
    x, y = blobs(rng)
    probe = MlpProbe(x.shape[1], 2,
                     ProbeConfig(hidden=16, epochs=30, batch_size=32),
                     seed=0).fit(x, y, seed=0)
    proba = probe.predict_proba(x)
    assert proba.shape == (300, 2)
    np.testing.assert_allclose(proba.sum(axis=1), np.ones(300), rtol=1e-9)
    acc = float((proba.argmax(axis=1) == y).mean())
    assert acc > 0.95


def test_probe_is_deterministic(rng):
    x, y = blobs(rng, n=120)

    def run():
        p = MlpProbe(x.shape[1], 2, ProbeConfig(hidden=8, epochs=3),
                     seed=7).fit(x, y, seed=7)
        return p.predict_proba(x)

    np.testing.assert_array_equal(run(), run())


def test_probe_seed_changes_result(rng):
    x, y = blobs(rng, n=120)
    a = MlpProbe(x.shape[1], 2, ProbeConfig(hidden=8, epochs=1), seed=0).fit(x, y, seed=0)
    b = MlpProbe(x.shape[1], 2, ProbeConfig(hidden=8, epochs=1), seed=1).fit(x, y, seed=1)
    assert not np.array_equal(a.predict_proba(x), b.predict_proba(x))


def test_probe_multiclass_shapes(rng):
    n, d, k = 90, 4, 3
    x = rng.normal(size=(n, d))
    y = rng.integers(0, k, size=n)
    p = MlpProbe(d, k, ProbeConfig(hidden=8, epochs=2), seed=0).fit(x, y, seed=0)
    assert p.predict_proba(x).shape == (n, k)


def test_probe_rejects_bad_labels(rng):
    x = rng.normal(size=(10, 3))
    with pytest.raises(ValueError):
        MlpProbe(3, 2, ProbeConfig(epochs=1), seed=0).fit(x, np.full(10, 5), seed=0)


def test_metric_report_statistics():
    rep = MetricReport()
    rep.add(0, {"roc_auc": 0.8, "accuracy": 0.7})
    rep.add(1, {"roc_auc": 0.6, "accuracy": 0.9})
    assert rep.mean()["roc_auc"] == pytest.approx(0.7)
    assert rep.std()["accuracy"] == pytest.approx(np.std([0.7, 0.9]))
    s = rep.summary()
    assert s["seeds"] == [0, 1]
    assert s["per_seed"]["1"]["roc_auc"] == 0.6


def test_run_seeds_orders_results():
    rep = run_seeds(lambda s: {"value": s * 10.0}, [3, 1, 2])
    assert sorted(rep.per_seed) == [1, 2, 3]
    assert rep.per_seed[3]["value"] == 30.0
    assert rep.mean()["value"] == pytest.approx(20.0)


def test_run_seeds_rejects_duplicates():
    with pytest.raises(ValueError):
        run_seeds(lambda s: s, [1, 1])


def test_run_seeds_parallel_matches_serial(monkeypatch):
    def work(seed):
        return {"v": seed ** 2}

    monkeypatch.delenv("SEQREP_THREADS", raising=False)
    serial = run_seeds(work, [0, 1, 2, 3])
    monkeypatch.setenv("SEQREP_THREADS", "4")
    parallel = run_seeds(work, [0, 1, 2, 3])
    assert serial.per_seed == parallel.per_seed


def test_n_threads_parsing(monkeypatch):
    monkeypatch.delenv("SEQREP_THREADS", raising=False)
    assert n_threads() == 1
    monkeypatch.setenv("SEQREP_THREADS", "6")
    assert n_threads() == 6
    monkeypatch.setenv("SEQREP_THREADS", "0")
    assert n_threads() == 1
