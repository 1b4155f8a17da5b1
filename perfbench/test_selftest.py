"""Self-test of the benchmark, run from the repository root with

    python3 -m pytest perfbench -q

Every workload runs at a tiny size, untraced and traced, through the same
child processes the benchmark uses.  A runner that returns a wrong product
must show up in failed_checks.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import pytest
import run
import tracer

sys.path.insert(0, str(run.ROOT / "src"))

import measure  # noqa: E402  (needs shiftadd on sys.path)

from shiftadd.bits import Word  # noqa: E402
from shiftadd.datapath import simulate  # noqa: E402

TINY = {
    "sweep_uniform_mixed": dataclasses.replace(run.WORKLOADS["sweep_uniform_mixed"], trials=40),
    "sweep_sparse_narrow": dataclasses.replace(run.WORKLOADS["sweep_sparse_narrow"], trials=40),
    "verify_w8": run.Workload("verify", (4,)),
}


def _bench(name: str, trace: bool, seed: int = 3) -> tuple[dict, dict]:
    return run.bench(TINY[name], seed, seconds=0, trace=trace)


def test_benchmark_json_matches_the_metrics_emitted():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("name", list(TINY))
def test_end_to_end_metrics_emitted_and_checks_pass(name):
    result, record = _bench(name, trace=False)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 1
    assert list(result["metrics"]) == list(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["nproc"] >= 1 and record["python"] and record["seed"] == 3
    if name.startswith("sweep"):
        assert record["rng"] and len(record["report_sha256"]) == 64


@pytest.mark.parametrize("name", list(TINY))
def test_per_layer_metrics_emitted_and_add_up(name):
    result, record = _bench(name, trace=True)
    assert result["correct"], record["failures"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == list(run.PER_LAYER)
    widths = TINY[name].widths
    loop = tracer.VERIFY if name == "verify_w8" else tracer.SWEEP
    measured = [tracer.GEN, tracer.WORD, tracer.CONV, tracer.LOW, loop]
    if name != "verify_w8":
        measured += [tracer.LEDGER_ADD, tracer.POWER]
    for prefix in [""] + [f"w{w}." for w in widths if w in run.TRACED_WIDTHS]:
        for layer in measured:
            assert metrics[f"{prefix}{layer}.self_s"] > 0, prefix + layer
        assert metrics[f"{prefix}{tracer.CONV}.ns_per_cycle"] > 0
        assert 0 < metrics[f"{prefix}{tracer.LOW}.add_cycle_ratio"] < 1
    total_self = sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert total_self == pytest.approx(metrics["trace.wall_s"], rel=1e-6)
    pairs = TINY[name].pairs
    assert metrics[f"{tracer.GEN}.pairs"] == pairs
    assert metrics[f"{tracer.CONV}.calls"] == metrics[f"{tracer.LOW}.calls"] == pairs
    if name == "verify_w8":
        assert metrics[f"{tracer.LEDGER_ADD}.calls"] == 0
        assert metrics[f"{tracer.POWER}.calls"] == 0
    else:
        assert metrics[f"{tracer.LEDGER_ADD}.calls"] == 2 * pairs
        assert metrics[f"{tracer.EMIT}.bytes"] > 0
    names = [span["name"] for span in record["spans"]]
    assert names[-1] == "workload"
    assert [n for n in names if "." not in n and n != "workload"] == [f"w{w}" for w in widths]


def test_same_seed_same_report_digest():
    first = _bench("sweep_sparse_narrow", trace=False, seed=5)[1]
    again = _bench("sweep_sparse_narrow", trace=False, seed=5)[1]
    other = _bench("sweep_sparse_narrow", trace=False, seed=6)[1]
    assert first["report_sha256"] == again["report_sha256"] != other["report_sha256"]


def _wrong_product(a, b, cfg):
    result = simulate(a, b, cfg)
    return dataclasses.replace(result, product=Word(result.product.value ^ 1, result.product.width))


@pytest.mark.parametrize("name", list(TINY))
def test_wrong_product_counted_in_failed_checks(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    spec = TINY[name].spec(seed=3, out="report.csv")
    assert measure.run(spec, 0.0, str(run.ROOT / "src"))["failed"] == 0
    sample = measure.run(spec, 0.0, str(run.ROOT / "src"), runner=_wrong_product)
    if name == "verify_w8":
        # every product is wrong, and the command exits 1
        assert sample["failed"] == 2 * TINY[name].pairs + 1
    else:
        checked = 2 * len(TINY[name].widths) * min(measure.PRODUCT_SAMPLES, TINY[name].trials)
        assert sample["failed"] == checked
