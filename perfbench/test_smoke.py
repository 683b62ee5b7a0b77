"""Smoke test of the benchmark at the smallest testbed.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q -p no:cacheprovider

Each registered workload is shrunk to testbedXS and run in both modes;
every metric ``BENCHMARK.json`` registers must come out as a number. A
WarpGate that returns its results in the wrong order, or a D3L whose
queries raise, must make the run exit non-zero without crashing it, and
so must a checkout that holds only the benchmark.
"""
from __future__ import annotations

import importlib.util
import json
import math
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod
    spec.loader.exec_module(mod)
    return mod


run = _load_run()
REGISTERED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    xs = run.Workload("XS", rows_scale=0.01, size_scale=0.15)
    monkeypatch.setattr(run, "WORKLOADS", {name: xs for name in run.WORKLOADS})
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    monkeypatch.setattr(run, "WARMUP_QUERIES", 2)


def _main(capsys, workload: str, trace: int) -> tuple[int, dict]:
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    )
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_workloads_match_registry():
    assert sorted(run.WORKLOADS) == sorted(w["name"] for w in REGISTERED["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_emits_every_metric(tiny, capsys, workload, trace):
    code, out = _main(capsys, workload, trace)
    assert code == 0
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    registered = REGISTERED["per_layer" if trace else "end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in registered]
    for m in registered:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])


def _ascending(query):
    def wrapped(self, col_id, *, k=None):
        results, timing = query(self, col_id, k=k)
        return results[::-1], timing

    return wrapped


def _raising(query):
    def wrapped(self, col_id, *, k=None):
        raise RuntimeError("injected failure")

    return wrapped


@pytest.mark.parametrize(
    "system, broken, trace",
    [("WarpGate", _ascending, 0), ("D3L", _raising, 0), ("WarpGate", _ascending, 1)],
    ids=["order", "raise", "order-traced"],
)
def test_failed_query_exits_nonzero(tiny, capsys, monkeypatch, system, broken, trace):
    cls = getattr(run, system)
    monkeypatch.setattr(cls, "query", broken(cls.query))
    code, out = _main(capsys, sorted(run.WORKLOADS)[0], trace)
    assert code != 0
    assert out["correct"] is False and out["failed"] > 0


def test_benchmark_alone_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    cmd = REGISTERED["command"] + ["--workload", "wide_full", "--seed", "1"]
    cmd += ["--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
