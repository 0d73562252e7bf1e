"""Golden format of trace.csv: the column writer against csv.writer.

The reference below is the row-by-row csv.writer formatting the trace
format was defined with; write_trace must reproduce its bytes exactly, on
one CPU and on two. On two, the helper is the forked child that formats
the rows from rows // 2 on.
"""

import csv
import io
import json
import os
import signal
import subprocess
import time
from dataclasses import replace

import numpy as np
import pytest

from affinesim import ScenarioSpec, fileio, floattext, run_scenario, workers
from affinesim.cli import main
from affinesim.engine import DIVERGENCE_LIMIT
from affinesim.fileio import SPLIT_VALUES, TRACE_HEADER, load_scenario, write_trace

from conftest import EXACT_WEIGHTS, FOLLOWER_START, assert_no_child, count_forks, write_benchmark_files


def repr_strings(values, calls=None) -> list:
    """[repr(float(x)) for x in values], from floattext.repr_text: its rows
    as strings, and repr() at each index it leaves to repr; the values
    there are appended to the list calls, if given."""
    x = np.asarray(values, dtype=np.float64).reshape(-1)
    lines = np.empty((len(x), floattext.WIDTH + 1), np.uint8)
    lines[:, floattext.WIDTH] = ord("\n")
    slow = floattext.repr_text(x, lines[:, : floattext.WIDTH])
    strings = lines.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]
    for i in slow:
        strings[i] = repr(float(x[i]))
    if calls is not None:
        calls += [float(x[i]) for i in slow]
    return strings


def reference_trace(result) -> bytes:
    _, n, d = result.states.shape
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRACE_HEADER)
    # The stepping loop's tests on each row's delta.
    in_tolerance = result.deltas <= result.run.spec.tolerance
    past_limit = ~(result.deltas <= DIVERGENCE_LIMIT)
    rows = zip(result.states, result.deltas, in_tolerance, past_limit)
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


def read_trace(path):
    """The trace's rows as tuples of strings, after its header."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        assert tuple(next(reader)) == TRACE_HEADER
        return [tuple(row) for row in reader]


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


# Values where repr_strings' arithmetic switches: the ends of its range and
# their neighbours, a power of two (a gap below half the one above), the
# double below 0.1 (scaled by 10**17 it rounds up to 1e16), a tie between
# two 17-digit decimals and one between two 16-digit decimals (both go to
# the even one), 17 significant digits and one.
EDGES = [1e-4, np.nextafter(1e-4, 0), np.nextafter(1e-4, 1), 1e15, np.nextafter(1e15, 0), 2.0**-13,
         np.nextafter(0.1, 0), 1 + 2.0**-17, 8.634536743164062, 1 / 3, 5.0]
# Below 1e-4, in e-notation: the low end of the range and its neighbours,
# where 10**k stops being one exact double (1e-6 and below take a second
# product) and where it would take a third (1e-28), the double below a
# power of ten (1e-6), a power of two, the smallest normal double, and
# zero.
TINY_EDGES = [1e-25, np.nextafter(1e-25, 0), np.nextafter(1e-25, 1), 1e-6, np.nextafter(1e-6, 0),
              np.nextafter(1e-6, 1), 1e-28, np.nextafter(1e-28, 1), 9.5367431640625e-07, 2.2250738585072014e-308,
              1.2345678901234567e-17, 0.0]


@pytest.mark.parametrize("value", [0.1, -0.0, 1e-300, 5e-324, 1.7976931348623157e308, 123456789.0, *EDGES,
                                   *TINY_EDGES])
def test_values_round_trip(framework, partition, tmp_path, value):
    result = run_scenario(spec(framework, partition, budget=1))
    states = np.full_like(result.states, value)
    odd = replace(result, states=states)
    write_trace(odd, tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_bytes() == reference_trace(odd)
    assert {float(row[3]) for row in read_trace(tmp_path / "trace.csv")} == {value}


# Values at each switch of repr's notation: nan, the infinities, signed
# zero, a subnormal, EDGES negated, and both bounds of the positional form,
# then some of TINY_EDGES, negated.
SPECIALS = [np.nan, np.inf, -np.inf, -0.0, 5e-324, *(-v for v in EDGES), 1e16, 9999999999999998.0, 1e-5, 0.0001,
            *(-v for v in TINY_EDGES[3:9])]


def around(values, steps=2):
    """values, the doubles up to steps away from each on either side, and
    all of them negated."""
    values = np.array(values, dtype=np.float64)
    near = [values]
    for direction in (np.inf, -np.inf):
        step = values
        for _ in range(steps):
            step = np.nextafter(step, direction)
            near.append(step)
    near = np.concatenate(near)
    return np.concatenate((near, -near))


def test_repr_strings_match_repr_at_each_switch():
    # Powers of two and of ten with their neighbours, from 1e-30, the
    # range's ends, and decimals of 1 to 17 significant digits across the
    # range; and the doubles around 10**-k for each k where the product by
    # 10**k takes one more exact double, with each such double's
    # neighbours scaled into the range.
    digits = "7319284650192837465"
    chunks = [10.0**-22, 10.0**-44]
    values = np.concatenate((
        around([2.0**e for e in range(-100, 64)] + [float(f"1e{e}") for e in range(-30, 19)] + [1e-4, 1e15]),
        around([c * 10.0**e for c in chunks for e in range(16, 20)]),
        [float(f"0.{digits[:n]}e{e}") for n in range(1, 18) for e in range(-26, 16)],
        around(TINY_EDGES + [np.finfo(float).tiny, 5e-324]),
        EDGES,
    ))
    assert repr_strings(values) == [repr(v) for v in values.tolist()]


def test_tiny_values_are_formatted_without_repr():
    calls = []
    values = 10.0 ** np.random.default_rng(5).uniform(-25, -4, 10**4)
    values = np.concatenate((values, -values, [0.0, -0.0]))
    assert repr_strings(values, calls) == [repr(v) for v in values.tolist()]
    assert calls == []
    # Below the range, a power of two below 1e-4, and above the range.
    values = [1e-26, 2.0**-20, 1e15]
    assert repr_strings(values, calls) == [repr(v) for v in values]
    assert calls == values


def test_values_whose_decisions_are_near_go_to_repr(monkeypatch):
    # With NEAR at 1/2 every value below 1e-4 is near one of its decisions.
    monkeypatch.setattr(floattext, "NEAR", 0.5)
    calls = []
    tiny = 10.0 ** np.random.default_rng(6).uniform(-25, -4, 1000)
    values = np.concatenate((tiny, np.random.default_rng(7).uniform(1e-4, 1e3, 1000)))
    assert repr_strings(values, calls) == [repr(v) for v in values.tolist()]
    assert calls == tiny.tolist()


def test_repr_strings_match_repr_on_any_float():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    arrays = pytest.importorskip("hypothesis.extra.numpy").arrays
    # Floats of every magnitude from 1e-30 to 1e18, mixed in one array.
    magnitudes = st.builds(lambda m, e: m * 10.0**e, st.floats(-10, 10), st.integers(-30, 18))

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(st.lists(st.floats()), arrays(np.float64, st.integers(0, 100), elements=st.one_of(
        st.floats(), magnitudes)))
    def check(values, array):
        assert repr_strings(values) == [repr(v) for v in values]
        assert repr_strings(array) == [repr(v) for v in array.tolist()]

    check()


def synthetic(result, rows, n=16, d=2, seed=3, marked=()):
    """result with a random trace of rows steps of n agents in d dimensions,
    SPECIALS in each marked row (and the i-th of them as its delta), and a
    diverged last row."""
    states = np.random.default_rng(seed).normal(scale=1e3, size=(rows, n, d))
    deltas = np.geomspace(1e3, 1e-12, rows)
    for i, k in enumerate(marked):
        states[k].flat[: len(SPECIALS)] = SPECIALS
        states[k, -1, :2] = SPECIALS[-2:]
        deltas[k] = SPECIALS[i]
    deltas[-1] = np.inf
    assert (deltas <= result.run.spec.tolerance).any()
    return replace(result, states=states, deltas=deltas)


def test_repr_texts_land_in_their_rows(framework, partition, tmp_path):
    # A 16-agent planar block holds BLOCK_VALUES // 32 steps. Around the
    # first block boundary, the last step of a block and the first of the
    # next hold several SPECIALS, which go to repr, and a delta norm that
    # goes to repr (nan, inf); a step before them has a delta norm that
    # goes to repr (1e-30, below the numpy range) and no such value.
    steps = fileio.BLOCK_VALUES // 32
    base = run_scenario(spec(framework, partition, budget=1))
    result = synthetic(base, 3 * steps, marked=(steps - 1, steps))
    assert result.states.size < SPLIT_VALUES
    deltas = result.deltas.copy()
    deltas[5] = 1e-30
    result = replace(result, deltas=deltas)
    text = np.empty((2 * 32, floattext.WIDTH), np.uint8)
    assert floattext.repr_text(result.states[5], text[:32]) == []
    assert len(floattext.repr_text(result.states[steps - 1 : steps + 1], text)) > 4
    write_trace(result, tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_bytes() == reference_trace(result)


def test_step_of_more_values_than_a_block_holds(framework, partition, tmp_path):
    # Each step of 2 * (BLOCK_VALUES // 2 + 5) values is a block of its own.
    base = run_scenario(spec(framework, partition, budget=1))
    result = synthetic(base, 7, n=fileio.BLOCK_VALUES // 2 + 5, marked=(2, 3))
    assert fileio.BLOCK_VALUES < result.states[0].size and result.states.size < SPLIT_VALUES
    write_trace(result, tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_bytes() == reference_trace(result)


@pytest.fixture
def large_result(framework, partition):
    """A 1100-step, 16-agent planar trace, above the two-CPU split size,
    with SPECIALS in the first half, on both sides of the split and in the
    second half, and a diverged last row."""
    rows = 1100
    split = rows // 2
    result = synthetic(run_scenario(spec(framework, partition, budget=1)), rows, marked=(7, split - 1, split, rows - 3))
    assert result.states.size >= SPLIT_VALUES
    return result


def on_two_cpus(monkeypatch, fail_at=None):
    """Take the two-CPU path on any host; return the forks started, the
    call numbered fail_at refused with OSError."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return count_forks(monkeypatch, fail_at)


def patch_rows(monkeypatch, child, here=None):
    """Make write_rows call child() in a forked process and here(), if
    given, in this one, before it writes its rows."""
    pid, write_rows = os.getpid(), fileio.write_rows

    def rows(*args):
        if os.getpid() != pid:
            child()
        elif here is not None:
            here()
        write_rows(*args)

    monkeypatch.setattr(fileio, "write_rows", rows)


def no_room():
    raise OSError("no room for the tail")


def killed():
    os.kill(os.getpid(), signal.SIGKILL)


def stalls():
    time.sleep(60)  # unless it is killed first


def disk_on_fire():
    raise RuntimeError("disk on fire")


def test_two_cpu_trace_matches_csv_writer(large_result, monkeypatch, tmp_path):
    started = on_two_cpus(monkeypatch)
    monkeypatch.setattr(subprocess, "Popen", lambda *args, **kwargs: pytest.fail("spawned a process"))
    write_trace(large_result, tmp_path / "trace.csv")
    assert len(started) == 1
    data = (tmp_path / "trace.csv").read_bytes()
    assert data == reference_trace(large_result)
    assert data.endswith(b",inf,0,1\n")
    assert_no_child()


def test_small_trace_stays_on_one_cpu(framework, partition, monkeypatch, tmp_path):
    started = on_two_cpus(monkeypatch)
    write_trace(run_scenario(spec(framework, partition)), tmp_path / "trace.csv")
    assert started == []


def test_trace_written_by_a_batch_worker_stays_on_one_cpu(large_result, monkeypatch, tmp_path):
    # Each share of a two-worker split, this process's and the forked
    # worker's, writes a large trace and reports the forks it has seen.
    started = on_two_cpus(monkeypatch)

    def share(indices):
        for i in indices:
            write_trace(large_result, tmp_path / f"trace{i}.csv")
        return [len(started)] * len(indices)

    assert workers.split(2, share) == [1, 1]
    assert len(started) == 1
    for i in range(2):
        assert (tmp_path / f"trace{i}.csv").read_bytes() == reference_trace(large_result)
    assert_no_child()


def test_helper_that_cannot_start_falls_back(large_result, monkeypatch, tmp_path):
    started = on_two_cpus(monkeypatch, fail_at=1)
    write_trace(large_result, tmp_path / "trace.csv")
    assert len(started) == 1
    assert (tmp_path / "trace.csv").read_bytes() == reference_trace(large_result)
    assert_no_child()


def test_helper_that_fails_raises(large_result, monkeypatch, tmp_path):
    started = on_two_cpus(monkeypatch)
    patch_rows(monkeypatch, no_room)
    with pytest.raises(OSError, match="^no room for the tail$"):
        write_trace(large_result, tmp_path / "trace.csv")
    assert len(started) == 1
    assert_no_child()


def test_helper_that_is_killed_raises(large_result, monkeypatch, tmp_path):
    started = on_two_cpus(monkeypatch)
    patch_rows(monkeypatch, killed)
    with pytest.raises(OSError, match=rf"^worker \d+ exited with status {-signal.SIGKILL}$"):
        write_trace(large_result, tmp_path / "trace.csv")
    assert len(started) == 1
    assert_no_child()


def test_helper_is_killed_when_this_process_fails(large_result, monkeypatch, tmp_path):
    started = on_two_cpus(monkeypatch)
    patch_rows(monkeypatch, stalls, disk_on_fire)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="disk on fire"):
        write_trace(large_result, tmp_path / "trace.csv")
    assert time.monotonic() - start < 30
    assert len(started) == 1
    assert_no_child()


def large_batch(tmp_path):
    """A one-run batch whose stationary run exhausts a 4000-step budget:
    40010 trace values, above the two-CPU split size."""
    scenario = write_benchmark_files(tmp_path)
    scenario.write_text(json.dumps({**json.loads(scenario.read_text()), "T": 0.005, "budget": 4000}))
    return ["batch", str(scenario), "--out", str(tmp_path / "batch")], tmp_path / "batch" / "scenario" / "trace.csv"


def reference_run_trace(tmp_path) -> bytes:
    return reference_trace(run_scenario(load_scenario(tmp_path / "scenario.json")))


def test_small_batch_stays_on_one_cpu(monkeypatch, tmp_path, capsys):
    # A batch of one run forks no worker, and its short trace forks no helper.
    started = on_two_cpus(monkeypatch)
    scenario = write_benchmark_files(tmp_path)
    assert main(["batch", str(scenario), "--out", str(tmp_path / "batch")]) == 0
    assert started == []
    assert (tmp_path / "batch" / "scenario" / "trace.csv").read_bytes() == reference_run_trace(tmp_path)
    capsys.readouterr()


def test_batch_helper_that_cannot_start_falls_back(monkeypatch, tmp_path, capsys):
    # A batch of one run keeps the row split of its one large trace.
    started = on_two_cpus(monkeypatch)
    argv, trace = large_batch(tmp_path)
    assert main(argv) == 4
    assert len(started) == 1
    reference = reference_run_trace(tmp_path)
    assert trace.read_bytes() == reference
    started = count_forks(monkeypatch, fail_at=1)
    trace.unlink()
    assert main(argv) == 4
    assert len(started) == 1
    assert trace.read_bytes() == reference
    assert_no_child()
    capsys.readouterr()


def test_batch_helper_that_fails_raises(monkeypatch, tmp_path, capsys):
    started = on_two_cpus(monkeypatch)
    patch_rows(monkeypatch, no_room)
    argv, _ = large_batch(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: no room for the tail\n"
    assert len(started) == 1
    assert_no_child()


def test_batch_helper_is_killed_when_this_process_fails(monkeypatch, tmp_path):
    started = on_two_cpus(monkeypatch)
    patch_rows(monkeypatch, stalls, disk_on_fire)
    argv, _ = large_batch(tmp_path)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="disk on fire"):
        main(argv)
    assert time.monotonic() - start < 30
    assert len(started) == 1
    assert_no_child()
