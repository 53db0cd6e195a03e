"""Tests of the benchmark itself: self time on synthetic spans, and a
tiny run of every workload whose outputs must all pass their oracles."""

import json
from pathlib import Path

import numpy as np
import pytest

from tracing import outermost, self_times
from worker import run_workload

SPEC = json.loads((Path(__file__).resolve().parents[1]
                   / "BENCHMARK.json").read_text())


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9];
    # c [11, 12] is a second root
    start = np.array([0.0, 1.0, 2.0, 5.0, 11.0])
    end = np.array([10.0, 4.0, 3.0, 9.0, 12.0])
    parent = np.array([-1, 0, 1, 0, -1])
    assert self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0, 1.0]
    member = np.array([False, True, True, False, True])
    assert outermost(parent, member).tolist() == [False, True, False, False,
                                                  True]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_passes_its_oracles(workload, trace, tmp_path):
    result = run_workload(workload, seed=7, seconds=0.01, trace=trace,
                          workdir=str(tmp_path), min_ops=2, block=2)
    assert result["attempted"] >= 2
    assert result["failed"] == 0, result["first_error"]
    if trace:
        names = {m["name"] for m in SPEC["per_layer"]}
        computed = set(result["per_layer"]) | {"cli.cold_start_ms"}
        assert computed == names
        layers = {name.split(".")[0] for name in names} - {"trace"}
        assert layers == {"bessel", "state", "observables", "uncertainty",
                          "mwp", "cli"}
    else:
        assert result["op_p50_ms"] <= result["op_p90_ms"]
