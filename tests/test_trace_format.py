"""Golden format of trace.csv: the column writer against csv.writer.

The reference below is the row-by-row csv.writer formatting the trace
format was defined with; write_trace must reproduce its bytes exactly.
"""

import csv
import io
from dataclasses import replace

import numpy as np
import pytest

from affinesim import ScenarioSpec, run_scenario
from affinesim.fileio import TRACE_HEADER, read_trace, write_trace

from conftest import EXACT_WEIGHTS, FOLLOWER_START


def reference_trace(result) -> bytes:
    _, n, d = result.states.shape
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRACE_HEADER)
    rows = zip(result.states, result.deltas, result.converged_flags, result.diverged_flags)
    for k, (state, delta, converged, diverged) in enumerate(rows):
        for agent in range(1, n + 1):
            for coord in range(d):
                writer.writerow(
                    (
                        k,
                        agent,
                        coord,
                        repr(float(state[agent - 1, coord])),
                        repr(float(delta)),
                        int(converged),
                        int(diverged),
                    )
                )
    return buf.getvalue().encode()


def spec(framework, partition, **overrides):
    base = dict(
        framework=framework,
        partition=partition,
        law="stationary",
        T=1.0,
        initial_followers=FOLLOWER_START,
        weights=EXACT_WEIGHTS,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def test_converging_trace_matches_csv_writer(framework, partition, tmp_path):
    result = run_scenario(spec(framework, partition))
    assert result.converged_at is not None
    write_trace(result, tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_bytes() == reference_trace(result)
    rows = read_trace(tmp_path / "trace.csv")
    assert len(rows) == (result.steps + 1) * 5 * 2
    assert rows[-1][5:] == ("1", "0")


def test_diverged_trace_matches_csv_writer(framework, partition, tmp_path):
    # A huge period overflows the disagreement norm on the first step.
    with np.errstate(over="ignore"):
        result = run_scenario(spec(framework, partition, T=1e300))
    assert result.diverged and result.steps == 1
    assert result.final_delta == np.inf
    write_trace(result, tmp_path / "inf.csv")
    data = (tmp_path / "inf.csv").read_bytes()
    assert data == reference_trace(result)
    assert data.endswith(b",inf,0,1\n")

    # Non-finite states and a nan delta format the same way.
    states = result.states.copy()
    states[-1, 3] = (np.nan, -np.inf)
    nan_result = replace(result, states=states, deltas=np.array([result.deltas[0], np.nan]))
    write_trace(nan_result, tmp_path / "nan.csv")
    data = (tmp_path / "nan.csv").read_bytes()
    assert data == reference_trace(nan_result)
    assert b"\n1,4,0,nan,nan,0,1\n1,4,1,-inf,nan,0,1\n" in data


@pytest.mark.parametrize("value", [0.1, -0.0, 1e-300, 5e-324, 1.7976931348623157e308, 123456789.0])
def test_values_round_trip(framework, partition, tmp_path, value):
    result = run_scenario(spec(framework, partition, budget=1))
    states = np.full_like(result.states, value)
    odd = replace(result, states=states)
    write_trace(odd, tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_bytes() == reference_trace(odd)
    assert {float(row[3]) for row in read_trace(tmp_path / "trace.csv")} == {value}
