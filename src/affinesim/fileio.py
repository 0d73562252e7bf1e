"""File formats: framework, stress, weights, schedule and scenario JSON,
trace CSV, run summaries, and run manifests.

All numeric file output uses decimal round-trip formatting, so re-reading
a written file reproduces the exact binary64 values.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path

import numpy as np

from . import __version__
from .control import LinearPlant
from .engine import RunResult, ScenarioSpec
from .framework import Configuration, Framework, Graph, LeaderPartition, is_integer, real_array
from .maneuvers import ManoeuvreSchedule, ScheduleSegment
from .stress import StressMatrix, normalize_weights

TRACE_HEADER = ("k", "agent_id", "coord_index", "value", "delta_norm", "converged", "diverged")
# Keys a scenario mapping may hold: ScenarioSpec's init fields, with q for
# q_matrix and the framework's leaders for partition; a legacy seed is
# accepted and ignored.
SCENARIO_KEYS = frozenset(
    {f.name for f in dataclasses.fields(ScenarioSpec) if f.init} - {"partition", "q_matrix"} | {"q", "seed"}
)
# Scenario keys whose null means the key is absent.
NULLABLE_KEYS = frozenset(("weights", "schedule", "plant", "q", "riccati_tol"))
SEGMENT_KEYS = frozenset(("k0", "k1", "kind", "params", "interp"))


class ParseError(ValueError):
    """Input file is malformed: bad JSON, missing keys, or wrong shapes."""


def _load_json(path) -> dict:
    path = Path(path)
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _write_json(data, path):
    """Write data as one line of strict JSON (RFC 8259) with sorted keys.

    json.dumps without indent runs the C encoder; nan and inf raise
    ValueError before the file is opened."""
    text = json.dumps(data, sort_keys=True, allow_nan=False)
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


def save_stress(stress: StressMatrix, path):
    _write_json({"n": stress.n, "entries": stress.entries.tolist()}, path)


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


def _resolve(value, base_dir: Path, parse, parsed: dict):
    """parse() of an inline mapping, or of the file a path string names
    (relative to the referencing file); a file is parsed once per parsed
    dict, which is keyed by its absolute path. Symlinks are not followed:
    an alias is parsed again, which costs time but never mixes files."""
    if not isinstance(value, str):
        return parse(value)
    path = Path(value)
    if not path.is_absolute():
        path = base_dir / path
    key = (parse, path.absolute())
    if key not in parsed:
        parsed[key] = parse(_load_json(path))
    return parsed[key]


def _plant_from_dict(raw: dict) -> LinearPlant:
    try:
        return LinearPlant(_require(raw, "A", "plant"), _require(raw, "B", "plant"))
    except (ValueError, TypeError) as exc:
        raise ParseError(f"plant: {exc}") from exc


def scenario_to_dict(spec: ScenarioSpec) -> dict:
    """Fully-inline scenario mapping (no external file references)."""
    data = {
        "framework": framework_to_dict(spec.framework, spec.partition),
        "law": spec.law,
        "T": spec.T,
        "initial_followers": spec.initial_followers.tolist(),
        "weights": None if spec.weights is None else weights_to_dict(spec.weights),
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


def load_scenario(path, *, _parsed=None) -> ScenarioSpec:
    """Load a scenario or manifest file into a ScenarioSpec.

    The keys the file holds go to ScenarioSpec, which holds the defaults
    and checks the values. The framework, weights, schedule and plant
    fields accept either inline mappings or path strings relative to the
    file. Omitted weights request synthesis. Unknown keys are refused, but
    a `seed` key, written by older versions, is ignored.
    _parsed is a batch's: scenarios loaded with the same dict share each
    framework, weights, schedule or plant file they reference, parsed once.
    """
    path = Path(path)
    data = _load_json(path)
    if "scenario" in data:
        data = _require(data, "scenario", "manifest")
    _reject_unknown(data, SCENARIO_KEYS, "scenario")
    base_dir, parsed = path.parent, {} if _parsed is None else _parsed
    framework, partition = _resolve(
        _require(data, "framework", "scenario"), base_dir, framework_from_dict, parsed
    )
    if partition is None:
        raise ParseError("scenario: framework must declare leaders")
    fields = {"framework": framework, "partition": partition}
    parsers = {"weights": weights_from_dict, "schedule": schedule_from_dict, "plant": _plant_from_dict}
    for key, value in data.items():
        if key in ("framework", "seed") or (value is None and key in NULLABLE_KEYS):
            continue
        if key in parsers:
            value = _resolve(value, base_dir, parsers[key], parsed)
        fields["q_matrix" if key == "q" else key] = value
    try:
        return ScenarioSpec(**fields)
    except (ValueError, TypeError) as exc:
        raise ParseError(f"scenario: {exc}") from exc


def manifest_dict(spec: ScenarioSpec, scenario_path, out_dir) -> dict:
    return {
        "kind": "run-manifest",
        "tool_version": __version__,
        "inputs": {"scenario": str(scenario_path)},
        "out_dir": str(out_dir),
        "scenario": scenario_to_dict(spec),
    }


def save_manifest(spec: ScenarioSpec, scenario_path, out_dir, path):
    _write_json(manifest_dict(spec, scenario_path, out_dir), path)


def load_matrix(path) -> np.ndarray:
    data = _load_json(path)
    if isinstance(data, dict):
        data = _require(data, "matrix", "matrix file")
    try:
        mat = real_array(data, str(path))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    if mat.ndim == 1:
        mat = mat.reshape(1, -1) if mat.size else mat.reshape(0, 0)
    if mat.ndim != 2:
        raise ParseError(f"{path}: expected a 2-D array")
    return mat


def write_trace(result: RunResult, path):
    """Write a run's trace to CSV, one row per (step, agent, coordinate).

    Formats from the columns with one write per step; the bytes are what
    csv.writer produces for the same rows, as no field needs quoting.
    """
    _, n, d = result.states.shape
    cells = [f"{agent},{coord}," for agent in range(1, n + 1) for coord in range(d)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRACE_HEADER) + "\n")
        rows = zip(
            result.states,
            result.deltas.tolist(),
            result.converged_flags.tolist(),
            result.diverged_flags.tolist(),
        )
        for k, (state, delta, converged, diverged) in enumerate(rows):
            head = f"{k},"
            tail = f",{delta!r},{int(converged)},{int(diverged)}\n"
            values = map(repr, state.ravel().tolist())
            fh.write(head + (tail + head).join(map(str.__add__, cells, values)) + tail)


def read_trace(path):
    """Read back a trace CSV as a list of row tuples (strings preserved)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != TRACE_HEADER:
            raise ParseError(f"{path}: unexpected trace header {header}")
        return [tuple(row) for row in reader]


def _json_safe(value):
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (np.floating, float)):
        value = float(value)
        return value if np.isfinite(value) else repr(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def summary_dict(result: RunResult, partition: LeaderPartition) -> dict:
    final = result.final_positions()
    return _json_safe(
        {
            "final_delta": result.final_delta,
            "steps": result.steps,
            "converged_at": result.converged_at,
            "theorem_flags": result.stability_flags,
            "diverged": result.diverged,
            "budget_exhausted": result.budget_exhausted,
            "final_followers": [final[i - 1].tolist() for i in partition.followers],
            "final_leaders": [final[i - 1].tolist() for i in partition.leaders],
        }
    )


def write_summary(result: RunResult, partition: LeaderPartition, path):
    _write_json(summary_dict(result, partition), path)
