"""File formats: framework, stress, weights, schedule and scenario JSON,
trace CSV, run summaries, and run manifests.

All numeric file output uses decimal round-trip formatting, so re-reading
a written file reproduces the exact binary64 values.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np

from . import __version__, floattext, workers
from .control import LinearPlant
from .engine import DIVERGENCE_LIMIT, RunResult, ScenarioSpec, shared
from .framework import Configuration, Framework, Graph, LeaderPartition, is_integer
from .maneuvers import ManoeuvreSchedule, ScheduleSegment
from .stress import StressMatrix, normalize_weights

TRACE_HEADER = ("k", "agent_id", "coord_index", "value", "delta_norm", "converged", "diverged")
# A trace with at least this many values is formatted on two CPUs, where
# the fork of the second (about 2 ms) is a small part of the work it takes.
SPLIT_VALUES = 2**15
# write_rows formats and writes a trace in blocks of whole steps that hold
# at most this many values.
BLOCK_VALUES = 2**12
# The widest repr of a float64: "-2.2250738585072014e-308".
REPR_WIDTH = 24
# Keys a scenario mapping may hold: ScenarioSpec's init fields, with q for
# q_matrix and the framework's leaders for partition.
SCENARIO_KEYS = frozenset(
    {f.name for f in dataclasses.fields(ScenarioSpec) if f.init} - {"partition", "q_matrix"} | {"q"}
)
# Scenario keys that ScenarioSpec has no default for, in its field order.
REQUIRED_KEYS = tuple(
    f.name
    for f in dataclasses.fields(ScenarioSpec)
    if f.init and f.default is dataclasses.MISSING and f.name != "partition"
)
# Scenario keys whose null means the key is absent.
NULLABLE_KEYS = frozenset(("weights", "schedule", "plant", "q", "epsilon", "riccati_tol"))
SEGMENT_KEYS = frozenset(("k0", "k1", "kind", "params", "interp"))
# Keys a manifest may hold, manifest_dict's.
MANIFEST_KEYS = frozenset(("kind", "tool_version", "inputs", "out_dir", "scenario"))


class ParseError(ValueError):
    """Input file is malformed: bad JSON, missing keys, or wrong shapes."""


def _load_json(path) -> dict:
    path = Path(path)
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _dumps(data) -> str:
    """data as one line of strict JSON (RFC 8259) with sorted keys.

    json.dumps without indent runs the C encoder; nan and inf raise
    ValueError."""
    return json.dumps(data, sort_keys=True, allow_nan=False)


def _write_json(data, path):
    """Write _dumps(data) to path; nan and inf raise before the file is opened."""
    _write_text(_dumps(data), path)


def _write_text(text, path):
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _reject_unknown(data, known: frozenset, context: str):
    unknown = sorted(set(data) - known) if isinstance(data, dict) else []
    if unknown:
        raise ParseError(f"{context}: unknown keys {unknown}")


def _require(data: dict, key: str, context: str):
    if not isinstance(data, dict) or key not in data:
        raise ParseError(f"{context}: missing required key {key!r}")
    return data[key]


def framework_from_dict(data: dict):
    """Build (Framework, LeaderPartition or None) from the framework mapping.

    Expected shape: {"d": int, "positions": [[...], ...], "edges": [[i, j],
    ...], "leaders": [i, ...]}; agent ids are 1-based, leaders optional.
    """
    d = _require(data, "d", "framework")
    if not is_integer(d):
        raise ParseError(f"framework: d must be an integer, got {d!r}")
    positions = _require(data, "positions", "framework")
    edges = _require(data, "edges", "framework")
    try:
        config = Configuration(positions)
        graph = Graph(len(config.positions), [tuple(e) for e in edges])
        framework = Framework(graph, config)
    except (ValueError, TypeError) as exc:
        raise ParseError(f"framework: {exc}") from exc
    if config.d != d:
        raise ParseError(f"framework: positions are {config.d}-dimensional, header says {d}")
    partition = None
    if data.get("leaders") is not None:
        try:
            partition = LeaderPartition.from_leaders(data["leaders"], config.n)
        except (ValueError, TypeError) as exc:
            raise ParseError(f"framework: {exc}") from exc
    return framework, partition


def framework_to_dict(framework: Framework, partition=None) -> dict:
    data = {
        "d": framework.config.d,
        "positions": framework.config.positions.tolist(),
        "edges": [list(e) for e in sorted(framework.graph.edges)],
    }
    if partition is not None:
        data["leaders"] = list(partition.leaders)
    return data


def load_framework(path):
    return framework_from_dict(_load_json(path))


def stress_from_dict(data: dict) -> StressMatrix:
    """Build a StressMatrix from {"n": int, "entries": [[...], ...]}."""
    n = _require(data, "n", "stress")
    if not is_integer(n):
        raise ParseError(f"stress: n must be an integer, got {n!r}")
    entries = _require(data, "entries", "stress")
    try:
        stress = StressMatrix(entries)
    except (ValueError, TypeError) as exc:
        raise ParseError(f"stress: {exc}") from exc
    if stress.n != n:
        raise ParseError(f"stress: entries are {stress.n}x{stress.n}, header says {n}")
    return stress


def load_stress(path) -> StressMatrix:
    return stress_from_dict(_load_json(path))


def weights_from_dict(data: dict) -> dict:
    """Build an edge -> weight mapping from {"edges": [[i, j, w], ...]}."""
    rows = _require(data, "edges", "weights")
    for row in rows:
        if len(row) != 3:
            raise ParseError(f"weights: row {row!r} is not [i, j, w]")
    try:
        return normalize_weights(((i, j), w) for i, j, w in rows)
    except ValueError as exc:
        raise ParseError(f"weights: {exc}") from exc


def weights_to_dict(weights: dict) -> dict:
    rows = [[i, j, float(w)] for (i, j), w in sorted(weights.items())]
    return {"edges": rows}


def load_weights(path) -> dict:
    return weights_from_dict(_load_json(path))


def save_weights(weights: dict, path):
    _write_json(weights_to_dict(weights), path)


def schedule_from_dict(data: dict) -> ManoeuvreSchedule:
    """Build a ManoeuvreSchedule from {"segments": [{...}, ...]}."""
    segments = []
    for raw in _require(data, "segments", "schedule"):
        _reject_unknown(raw, SEGMENT_KEYS, "schedule segment")
        try:
            segments.append(
                ScheduleSegment(
                    k0=_require(raw, "k0", "schedule segment"),
                    k1=_require(raw, "k1", "schedule segment"),
                    kind=str(_require(raw, "kind", "schedule segment")),
                    params=dict(raw.get("params", {})),
                    interp=str(raw.get("interp", "hold")),
                )
            )
        except (ValueError, TypeError) as exc:
            raise ParseError(f"schedule: {exc}") from exc
    try:
        return ManoeuvreSchedule(tuple(segments))
    except ValueError as exc:
        raise ParseError(f"schedule: {exc}") from exc


def schedule_to_dict(schedule: ManoeuvreSchedule) -> dict:
    return {
        "segments": [
            {
                "k0": seg.k0,
                "k1": seg.k1,
                "kind": seg.kind,
                "params": dict(seg.params),
                "interp": seg.interp,
            }
            for seg in schedule.segments
        ]
    }


def _resolve(value, base_dir: Path, parse, memo):
    """parse() of an inline mapping, or of the file a path string names
    (relative to the referencing file), once per memo (engine.shared): a
    file is keyed by its absolute path, an inline mapping by its JSON text.
    Symlinks are not followed: an alias is parsed again, which costs time
    but never mixes files."""
    if not isinstance(value, str):
        return shared(memo, (parse, json.dumps(value, sort_keys=True)), lambda: parse(value))
    path = Path(value)
    if not path.is_absolute():
        path = base_dir / path
    return shared(memo, (parse, path.absolute()), lambda: parse(_load_json(path)))


def _plant_from_dict(raw: dict) -> LinearPlant:
    try:
        return LinearPlant(_require(raw, "A", "plant"), _require(raw, "B", "plant"))
    except (ValueError, TypeError) as exc:
        raise ParseError(f"plant: {exc}") from exc


def scenario_to_dict(spec: ScenarioSpec) -> dict:
    """Fully-inline scenario mapping (no external file references)."""
    return {
        "framework": framework_to_dict(spec.framework, spec.partition),
        "weights": None if spec.weights is None else weights_to_dict(spec.weights),
        **_run_dict(spec),
    }


def _run_dict(spec: ScenarioSpec) -> dict:
    """scenario_to_dict without its framework and weights."""
    data = {
        "law": spec.law,
        "T": spec.T,
        "initial_followers": spec.initial_followers.tolist(),
        "schedule": schedule_to_dict(spec.schedule),
        "budget": spec.budget,
        "tolerance": spec.tolerance,
    }
    if spec.plant is not None:
        data["plant"] = {"A": spec.plant.A.tolist(), "B": spec.plant.B.tolist()}
        data["q"] = spec.q_matrix.tolist()
        data["epsilon"] = spec.epsilon
        data["riccati_tol"] = spec.riccati_tol
    return data


def load_scenario(path, memo=None) -> ScenarioSpec:
    """Load a scenario or manifest file into a ScenarioSpec.

    The keys the file holds go to ScenarioSpec, which holds the defaults
    and checks the values. The framework, weights, schedule and plant
    fields accept either inline mappings or path strings relative to the
    file. Omitted weights request synthesis. Unknown keys, of the scenario
    and of a manifest, are refused. memo is engine.shared's: scenarios
    loaded with one memo, as a batch's are, share each framework, weights,
    schedule or plant they reference, a file or an equal inline mapping
    parsed once, and the memo goes on to ScenarioSpec.
    """
    path = Path(path)
    data = _load_json(path)
    if "scenario" in data:
        _reject_unknown(data, MANIFEST_KEYS, "manifest")
        data = _require(data, "scenario", "manifest")
    _reject_unknown(data, SCENARIO_KEYS, "scenario")
    for key in REQUIRED_KEYS:
        _require(data, key, "scenario")
    base_dir = path.parent
    framework, partition = _resolve(data["framework"], base_dir, framework_from_dict, memo)
    if partition is None:
        raise ParseError("scenario: framework must declare leaders")
    fields = {"framework": framework, "partition": partition}
    parsers = {"weights": weights_from_dict, "schedule": schedule_from_dict, "plant": _plant_from_dict}
    for key, value in data.items():
        if key == "framework" or (value is None and key in NULLABLE_KEYS):
            continue
        if key in parsers:
            value = _resolve(value, base_dir, parsers[key], memo)
        fields["q_matrix" if key == "q" else key] = value
    try:
        return ScenarioSpec(**fields, memo=memo)
    except (ValueError, TypeError) as exc:
        raise ParseError(f"scenario: {exc}") from exc


def manifest_dict(spec: ScenarioSpec, scenario_path, out_dir) -> dict:
    return _manifest(scenario_to_dict(spec), scenario_path, out_dir)


def _manifest(scenario, scenario_path, out_dir) -> dict:
    return {
        "kind": "run-manifest",
        "tool_version": __version__,
        "inputs": {"scenario": str(scenario_path)},
        "out_dir": str(out_dir),
        "scenario": scenario,
    }


def save_manifest(spec: ScenarioSpec, scenario_path, out_dir, path, memo=None):
    """Write _dumps(manifest_dict(spec, scenario_path, out_dir)) to path.

    memo is engine.shared's: the manifests written with one memo encode
    the text of each framework with its leaders, and of each weights, once,
    and splice it into every manifest that holds it."""
    framework, partition, weights = spec.framework, spec.partition, spec.weights
    texts = {
        "framework": shared(memo, ("framework text", id(framework), partition),
                            lambda: _dumps(framework_to_dict(framework, partition)), framework),
        "weights": "null" if weights is None else shared(memo, ("weights text", id(weights)),
                                                         lambda: _dumps(weights_to_dict(weights)), weights),
    }
    scenario = _object_text(_run_dict(spec), texts)
    _write_text(_object_text(_manifest(None, scenario_path, out_dir), {"scenario": scenario}), path)


def _object_text(data: dict, texts: dict) -> str:
    """_dumps of data with texts' keys added, their values given as their
    JSON texts: the C encoder's sorted keys and separators, value by value."""
    return "{" + ", ".join(f"{json.dumps(key)}: {texts[key] if key in texts else _dumps(data[key])}"
                           for key in sorted(data.keys() | texts.keys())) + "}"


def write_rows(fh, result: RunResult, start, stop):
    """Write the trace's rows from step start to step stop to fh, a file
    opened in binary mode, one per (step, agent, coordinate).

    The rows go out in blocks of whole steps, at most BLOCK_VALUES values
    (or one step, if a step holds more), one write per block. A block's
    values are formatted by floattext.repr_text, in the same bytes as
    repr: with numpy for signed zeros and 1e-25 <= |x| < 1e15, e-notation
    below 1e-4 included, and by repr for every other value and the rare
    one whose digits its arithmetic cannot settle. The block is laid out
    as one (steps, n * d, width) uint8 array whose rows hold the step's
    "k," head, the column's "agent,coord," cell, the value and the step's
    ",delta,converged,diverged" tail with its newline, each field padded
    with NUL. A step's flags are the stepping loop's tests on its delta:
    converged when delta <= result.run.spec.tolerance, diverged when
    delta <= DIVERGENCE_LIMIT fails. The heads and tails are made with %
    formatting, one per step (%a writes a float as repr does), and
    broadcast to the step's rows; repr_text writes the values into their
    field, and repr's text goes into the field of each value it leaves to
    repr. One bytes.translate drops every NUL. The bytes are what
    csv.writer produces for the same rows, as no field needs quoting."""
    _, n, d = result.states.shape
    tolerance = result.run.spec.tolerance
    cells = _padded([b"%d,%d," % (agent, coord) for agent in range(1, n + 1) for coord in range(d)])
    width = len(cells)
    steps = max(1, BLOCK_VALUES // width)
    for first in range(start, stop, steps):
        last = min(first + steps, stop)
        values = result.states[first:last].reshape(-1)
        heads = _padded([b"%d," % k for k in range(first, last)])
        deltas = result.deltas[first:last]
        flags = zip(deltas.tolist(), (deltas <= tolerance).tolist(), (~(deltas <= DIVERGENCE_LIMIT)).tolist())
        tails = _padded([b",%a,%d,%d\n" % row for row in flags])
        value = heads.shape[1] + cells.shape[1]
        tail = value + REPR_WIDTH
        block = np.empty((last - first, width, tail + tails.shape[1]), np.uint8)
        block[:, :, : heads.shape[1]] = heads[:, None]
        block[:, :, heads.shape[1] : value] = cells
        # Only repr's widest texts reach the value field's last byte.
        block[:, :, tail - 1] = 0
        block[:, :, tail:] = tails[:, None]
        rows = block.reshape(len(values), -1)
        for i in floattext.repr_text(values, rows[:, value : tail - 1]):
            rows[i, value:tail] = np.frombuffer(repr(float(values[i])).encode().ljust(REPR_WIDTH, b"\0"), np.uint8)
        fh.write(block.tobytes().translate(None, b"\0"))


def _padded(texts) -> np.ndarray:
    """The byte strings texts as the rows of a uint8 array, NUL-padded to the longest."""
    size = max(map(len, texts))
    return np.frombuffer(b"".join(text.ljust(size, b"\0") for text in texts), np.uint8).reshape(len(texts), size)


def write_trace(result: RunResult, path):
    """Write a run's trace to a CSV file, opened in binary mode, one row per
    (step, agent, coordinate), in the bytes csv.writer produces for the
    same rows.

    A trace that holds at least SPLIT_VALUES values (K * n * d) is cut at
    rows // 2 and its halves go to workers.split: where that forks, the
    child formats the rows from the cut on, with the same write_rows, into
    a temporary binary file opened before the fork, while this process writes the
    header and the rows before the cut to path; the tail is then appended
    to path in bounded pieces. On one CPU, inside a batch worker's share,
    or when the fork fails, this process formats both halves; the bytes
    are the same either way. A child that fails makes this raise OSError,
    and a failure here kills the child.
    """
    rows = len(result.deltas)
    if result.states.size < SPLIT_VALUES:
        _write_head(result, path, rows)
        return
    start = rows // 2
    with tempfile.TemporaryFile() as tail:

        def half(indices):
            for i in indices:
                if i == 0:
                    _write_head(result, path, start)
                else:
                    write_rows(tail, result, start, rows)
                    tail.flush()
            return [None] * len(indices)

        workers.split(2, half)
        tail.seek(0)
        with open(path, "ab") as fh:
            shutil.copyfileobj(tail, fh)


def _write_head(result, path, stop):
    """Write the trace's header and its rows before stop to a new file."""
    with open(path, "wb") as fh:
        fh.write(",".join(TRACE_HEADER).encode() + b"\n")
        write_rows(fh, result, 0, stop)


def _json_safe(value):
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, float) and not np.isfinite(value):
        return repr(value)
    return value


def summary_dict(result: RunResult, partition: LeaderPartition) -> dict:
    final = result.final_positions()
    return _json_safe(
        {
            "final_delta": result.final_delta,
            "steps": result.steps,
            "converged_at": result.converged_at,
            "theorem_flags": result.run.stability_flags,
            "diverged": result.diverged,
            "budget_exhausted": result.budget_exhausted,
            "final_followers": [final[i - 1].tolist() for i in partition.followers],
            "final_leaders": [final[i - 1].tolist() for i in partition.leaders],
        }
    )


def write_summary(result: RunResult, partition: LeaderPartition, path):
    _write_json(summary_dict(result, partition), path)
