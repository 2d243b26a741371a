"""Batch command-line front end.

Subcommands:

* ``oqw validate <config>``  build the scenario and print the per-node
  completeness report (exit 1 when rejected)
* ``oqw run <config>``       evolve and emit occupation trajectories
* ``oqw steady <config>``    iterate to the fixed point and emit a JSON
  report (exit 2 when the walk never settles, which is the expected
  outcome for the line walk)
* ``oqw scenarios``          list scenario names and their parameters

A configuration is a single JSON document (file path or ``-`` for
stdin) with the scenario name, its parameters and the run settings,
e.g. ``{"scenario": "line", "theta_cos": 0.8, "steps": 100}``. The
``--scenario``/``--set`` flags build the same configuration from the
command line. The environment variable OQW_TOL overrides the default
tolerance 1e-10.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import analysis
from .core import (
    WalkerState,
    WalkSpec,
    find_steady_state,
    mixed_state,
    pure_state,
    run,
    validate_walk,
)
from .io import ket_from_json, matrix_from_json, state_to_dict
from .linalg import (
    BELL_PHI_MINUS,
    BELL_PHI_PLUS,
    BELL_PSI_MINUS,
    BELL_PSI_PLUS,
    CNOT,
    DEFAULT_TOL,
    HADAMARD,
    IDENTITY_2,
    KET_MINUS,
    KET_PLUS,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    S_GATE,
    T_GATE,
    basis_ket,
    normalized,
)
from .scenarios import (
    BELL_NODE_STATES,
    SCENARIO_NAMES,
    build_bell_grid,
    build_dqc_chain,
    build_gate_walk,
    build_line_walk,
    build_state_prep,
    build_transport_chain,
    state_prep_targets,
)

DEFAULT_MAX_ITER = 10 ** 6

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NO_CONVERGENCE = 2


class ConfigError(ValueError):
    """Malformed or out-of-range configuration."""


NAMED_GATES = {
    "I": IDENTITY_2,
    "X": PAULI_X,
    "Y": PAULI_Y,
    "Z": PAULI_Z,
    "H": HADAMARD,
    "S": S_GATE,
    "T": T_GATE,
    "CNOT": CNOT,
}

NAMED_KETS = {
    "0": basis_ket(2, 0),
    "1": basis_ket(2, 1),
    "+": KET_PLUS.copy(),
    "-": KET_MINUS.copy(),
    "00": basis_ket(4, 0),
    "01": basis_ket(4, 1),
    "10": basis_ket(4, 2),
    "11": basis_ket(4, 3),
    "psi+": BELL_PSI_PLUS.copy(),
    "psi-": BELL_PSI_MINUS.copy(),
    "phi+": BELL_PHI_PLUS.copy(),
    "phi-": BELL_PHI_MINUS.copy(),
}


@dataclass
class RunConfig:
    scenario: str
    params: dict
    steps: int = 0
    record_every: int = 1
    mode: str = "run"
    output: str | None = None
    fmt: str = "csv"
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER


@dataclass
class ScenarioPlan:
    """Everything execute() needs: the walk plus reporting hooks."""

    spec: WalkSpec
    initial: WalkerState
    steady_report: Callable[[WalkerState], dict] = field(default=lambda state: {})


RESERVED_KEYS = {"scenario", "steps", "record_every", "mode", "output",
                 "format", "tol", "max_iter"}


def _is_int(value) -> bool:
    """True for a JSON integer; JSON true/false are bools, not counts."""
    return isinstance(value, int) and not isinstance(value, bool)


def _env_tol() -> float:
    """The OQW_TOL tolerance, or DEFAULT_TOL when it is unset."""
    raw = os.environ.get("OQW_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"OQW_TOL must be a number, got {raw!r}") from None


def parse_config(doc) -> RunConfig:
    """Validate a JSON document (text or parsed dict) into a RunConfig."""
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON configuration: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a JSON object")
    scenario = doc.get("scenario")
    if scenario not in SCENARIO_NAMES:
        raise ConfigError(
            f"unknown scenario {scenario!r}; valid scenarios: "
            + ", ".join(SCENARIO_NAMES))
    steps = doc.get("steps", 0)
    record_every = doc.get("record_every", 1)
    if not _is_int(steps) or steps < 0:
        raise ConfigError("steps must be a non-negative integer")
    if not _is_int(record_every) or record_every < 1:
        raise ConfigError("record_every must be a positive integer")
    mode = doc.get("mode", "run")
    if mode not in ("run", "steady"):
        raise ConfigError("mode must be 'run' or 'steady'")
    fmt = doc.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError("format must be 'csv' or 'json'")
    tol = doc["tol"] if "tol" in doc else _env_tol()
    if not (isinstance(tol, (int, float)) and not isinstance(tol, bool)
            and tol > 0):
        raise ConfigError("tol must be a positive number")
    max_iter = doc.get("max_iter", DEFAULT_MAX_ITER)
    if not _is_int(max_iter) or max_iter < 1:
        raise ConfigError("max_iter must be a positive integer")
    params = {k: v for k, v in doc.items() if k not in RESERVED_KEYS}
    return RunConfig(scenario=scenario, params=params, steps=steps,
                     record_every=record_every, mode=mode,
                     output=doc.get("output"), fmt=fmt, tol=float(tol),
                     max_iter=max_iter)


def _parse_ket(value, dim: int | None = None) -> np.ndarray:
    if isinstance(value, str):
        if value not in NAMED_KETS:
            raise ConfigError(
                f"unknown state name {value!r}; named states: "
                + ", ".join(sorted(NAMED_KETS)))
        ket = NAMED_KETS[value]
    else:
        try:
            ket = normalized(ket_from_json(value))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad state vector: {exc}") from exc
    if dim is not None and ket.size != dim:
        raise ConfigError(
            f"state has dimension {ket.size}, scenario expects {dim}")
    return ket


def _parse_gate(params: dict) -> np.ndarray:
    if "gate" in params and "matrix" in params:
        raise ConfigError("give either 'gate' or 'matrix', not both")
    if "gate" in params:
        name = params["gate"]
        if name not in NAMED_GATES:
            raise ConfigError(
                f"unknown gate {name!r}; named gates: "
                + ", ".join(sorted(NAMED_GATES)))
        return NAMED_GATES[name]
    if "matrix" in params:
        try:
            return matrix_from_json(params["matrix"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad gate matrix: {exc}") from exc
    raise ConfigError("gate scenario needs a 'gate' name or a 'matrix'")


def _hop_probability(params: dict, default: float | None = None) -> float:
    """Resolve p / q / sqrt_p parameter spellings into p."""
    given = [k for k in ("p", "q", "sqrt_p") if k in params]
    if len(given) > 1:
        raise ConfigError("give only one of 'p', 'q', 'sqrt_p'")
    if not given:
        if default is None:
            raise ConfigError("missing probability parameter 'p'")
        return default
    key = given[0]
    value = params[key]
    if not isinstance(value, (int, float)):
        raise ConfigError(f"'{key}' must be a number")
    if key == "p":
        p = float(value)
    elif key == "q":
        p = 1.0 - float(value)
    else:
        p = float(value) ** 2
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"'{key}' puts p = {p} outside [0, 1]")
    return p


def _check_param_names(params: dict, allowed: set, scenario: str) -> None:
    unknown = set(params) - allowed
    if unknown:
        raise ConfigError(
            f"unknown parameter(s) for scenario '{scenario}': "
            + ", ".join(sorted(unknown)))


def _plan_line(cfg: RunConfig) -> ScenarioPlan:
    params = cfg.params
    _check_param_names(params, {"theta", "theta_cos", "window"}, "line")
    if "theta" in params and "theta_cos" in params:
        raise ConfigError("give either 'theta' or 'theta_cos', not both")
    if "theta" in params:
        theta = float(params["theta"])
    elif "theta_cos" in params:
        c = float(params["theta_cos"])
        if not -1.0 <= c <= 1.0:
            raise ConfigError("theta_cos must lie in [-1, 1]")
        theta = math.acos(c)
    else:
        raise ConfigError("line scenario needs 'theta' or 'theta_cos'")
    window = params.get("window", max(cfg.steps, 1))
    if not _is_int(window) or window < 1:
        raise ConfigError("window must be a positive integer")
    if window < cfg.steps:
        raise ConfigError(
            f"window {window} is smaller than steps {cfg.steps}; the "
            "window must cover the whole run")
    spec, initial = build_line_walk(theta, window)
    return ScenarioPlan(spec, initial)


def _plan_gate(cfg: RunConfig) -> ScenarioPlan:
    params = cfg.params
    _check_param_names(params, {"gate", "matrix", "p", "q", "sqrt_p", "psi0"},
                       "gate")
    gate = _parse_gate(params)
    p = _hop_probability(params)
    try:
        spec = build_gate_walk(gate, p)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    psi0 = _parse_ket(params.get("psi0", basis_ket(gate.shape[0], 0)),
                      gate.shape[0])
    initial = pure_state(1, psi0)
    expected = gate @ psi0

    def report(state: WalkerState) -> dict:
        return {
            "readout_node": 2,
            "readout_probability": analysis.readout_probability(state, 2),
            "gate_fidelity": analysis.node_fidelity(state, 2, expected),
        }

    return ScenarioPlan(spec, initial, report)


def _plan_state_prep(cfg: RunConfig) -> ScenarioPlan:
    params = cfg.params
    _check_param_names(params, {"alpha", "beta", "p", "q", "psi0"},
                       "state_prep")
    alpha = float(params.get("alpha", 0.0))
    beta = float(params.get("beta", 0.0))
    p = _hop_probability(params, default=0.5)
    if not 0.0 < p < 1.0:
        raise ConfigError("state_prep needs p strictly inside (0, 1)")
    spec = build_state_prep(alpha, beta, p)
    if "psi0" in params:
        initial = pure_state(1, _parse_ket(params["psi0"], 2))
    else:
        initial = mixed_state(1, 2)
    target, _ = state_prep_targets(alpha, beta)

    def report(state: WalkerState) -> dict:
        return {
            "readout_node": 2,
            "readout_probability": analysis.readout_probability(state, 2),
            "target_fidelity": analysis.node_fidelity(state, 2, target),
        }

    return ScenarioPlan(spec, initial, report)


def _plan_bell(cfg: RunConfig) -> ScenarioPlan:
    params = cfg.params
    _check_param_names(params, {"start_node"}, "bell")
    start = params.get("start_node", "UL")
    if start not in BELL_NODE_STATES:
        raise ConfigError(
            "start_node must be one of " + ", ".join(BELL_NODE_STATES))
    spec = build_bell_grid()
    initial = mixed_state(start, 4)

    def report(state: WalkerState) -> dict:
        fidelities = {}
        for node, bell in BELL_NODE_STATES.items():
            if analysis.readout_probability(state, node) > 1e-12:
                fidelities[node] = analysis.node_fidelity(state, node, bell)
        return {"bell_fidelities": fidelities}

    return ScenarioPlan(spec, initial, report)


def _plan_transport(cfg: RunConfig) -> ScenarioPlan:
    params = cfg.params
    _check_param_names(params, {"N", "p", "q", "sqrt_p", "psi1", "psi2",
                                "psi0"}, "transport")
    n_nodes = params.get("N")
    if not _is_int(n_nodes) or n_nodes < 2:
        raise ConfigError("transport needs an integer node count N >= 2")
    p = _hop_probability(params)
    psi1 = _parse_ket(params["psi1"]) if "psi1" in params else None
    psi2 = _parse_ket(params["psi2"]) if "psi2" in params else None
    try:
        spec, initial = build_transport_chain(n_nodes, p, psi1, psi2)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if "psi0" in params:
        initial = pure_state(1, _parse_ket(params["psi0"], spec.dim))

    def report(state: WalkerState) -> dict:
        return {
            "readout_node": n_nodes,
            "readout_probability": analysis.readout_probability(state, n_nodes),
        }

    return ScenarioPlan(spec, initial, report)


def _plan_dqc(cfg: RunConfig) -> ScenarioPlan:
    params = cfg.params
    _check_param_names(params, {"omega", "T", "unitaries", "psi0"}, "dqc")
    omega = params.get("omega")
    if not isinstance(omega, (int, float)) or not 0.0 < omega < 1.0:
        raise ConfigError("dqc needs omega strictly inside (0, 1)")
    t_final = params.get("T")
    if not _is_int(t_final) or t_final < 1:
        raise ConfigError("dqc needs an integer register count T >= 1")
    raw = params.get("unitaries", ["H"] * t_final)
    if not isinstance(raw, list) or len(raw) != t_final:
        raise ConfigError("'unitaries' must be a list of T entries")
    gates = []
    for entry in raw:
        if isinstance(entry, str):
            if entry not in NAMED_GATES:
                raise ConfigError(f"unknown gate {entry!r} in 'unitaries'")
            gates.append(NAMED_GATES[entry])
        else:
            gates.append(matrix_from_json(entry))
    psi0 = _parse_ket(params["psi0"]) if "psi0" in params else None
    try:
        spec, initial = build_dqc_chain(gates, float(omega), psi0)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # expected output: the whole gate sequence applied to psi0
    vec = psi0 if psi0 is not None else basis_ket(spec.dim, 0)
    for g in gates:
        vec = g @ vec

    def report(state: WalkerState) -> dict:
        return {
            "readout_node": t_final,
            "readout_probability": analysis.readout_probability(state, t_final),
            "predicted_readout": analysis.dqc_predicted_readout(float(omega), t_final),
            "output_fidelity": analysis.node_fidelity(state, t_final, vec),
        }

    return ScenarioPlan(spec, initial, report)


_PLANNERS = {
    "line": _plan_line,
    "gate": _plan_gate,
    "state_prep": _plan_state_prep,
    "bell": _plan_bell,
    "transport": _plan_transport,
    "dqc": _plan_dqc,
}


def build_plan(cfg: RunConfig) -> ScenarioPlan:
    return _PLANNERS[cfg.scenario](cfg)


def occupation_records(trajectory, nodes) -> list[tuple[int, dict]]:
    """Per-snapshot occupation maps, ordered by the spec's node order."""
    return [(step_index, analysis.occupation(state, nodes))
            for step_index, state in trajectory]


def emit_csv(records) -> str:
    lines = ["step,node,probability"]
    for step_index, occ in records:
        for node, prob in occ.items():
            lines.append(f"{step_index},{node},{prob:.12f}")
    return "\n".join(lines) + "\n"


def emit_json(records) -> str:
    payload = [
        {"step": step_index,
         "occupations": {str(node): round(prob, 12) for node, prob in occ.items()}}
        for step_index, occ in records
    ]
    return json.dumps(payload, indent=2) + "\n"


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def execute(cfg: RunConfig) -> int:
    """Run a validated configuration; returns the process exit status."""
    try:
        plan = build_plan(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    report = validate_walk(plan.spec, tol=cfg.tol)
    if not report.ok:
        print("walk validation failed:", file=sys.stderr)
        print(str(report), file=sys.stderr)
        return EXIT_INVALID

    if cfg.mode == "run":
        trajectory = run(plan.spec, plan.initial, cfg.steps, cfg.record_every)
        records = occupation_records(trajectory, plan.spec.nodes)
        text = emit_csv(records) if cfg.fmt == "csv" else emit_json(records)
        try:
            _write_output(text, cfg.output)
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return EXIT_INVALID
        return EXIT_OK

    # steady mode
    result = find_steady_state(plan.spec, plan.initial, tol=cfg.tol,
                               max_iter=cfg.max_iter)
    if not result.converged:
        print(
            f"no steady state within {cfg.max_iter} iterations "
            f"(last residual {result.residual:.3e})", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    occ = analysis.occupation(result.state, plan.spec.nodes)
    payload = {
        "scenario": cfg.scenario,
        "converged": True,
        "iterations": result.iterations,
        "residual": result.residual,
        "occupation": {str(n): round(p, 12) for n, p in occ.items()},
        "blocks": state_to_dict(result.state)["blocks"],
        "report": plan.steady_report(result.state),
    }
    try:
        _write_output(json.dumps(payload, indent=2) + "\n", cfg.output)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_INVALID
    return EXIT_OK


SCENARIO_HELP = {
    "line": "theta | theta_cos, window (>= steps)",
    "gate": "gate (X,Y,Z,H,S,T,CNOT) | matrix, p | q | sqrt_p, psi0",
    "state_prep": "alpha, beta, p | q, psi0 (default: mixed at node 1)",
    "bell": "start_node (UL, UR, DL, DR)",
    "transport": "N, p | q | sqrt_p, psi1, psi2, psi0 (default: mixed)",
    "dqc": "omega, T, unitaries (default: T Hadamards), psi0",
}


class _Parser(argparse.ArgumentParser):
    # usage problems are configuration errors: exit 1, not argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)


def _add_common(sub):
    sub.add_argument("config", nargs="?", default=None,
                     help="JSON configuration file, or '-' for stdin")
    sub.add_argument("--scenario", help="scenario name (quick mode)")
    sub.add_argument("--set", dest="assignments", action="append", default=[],
                     metavar="KEY=VALUE",
                     help="scenario parameter (repeatable); values parsed as JSON")
    sub.add_argument("--steps", type=int, default=None)
    sub.add_argument("--record-every", type=int, default=None)
    sub.add_argument("--output", "-o", default=None)
    sub.add_argument("--format", dest="fmt", choices=("csv", "json"),
                     default=None)


def _document_from_args(args) -> dict:
    if args.config is not None and args.scenario is not None:
        raise ConfigError("give a config file or --scenario, not both")
    if args.config is not None:
        if args.config == "-":
            text = sys.stdin.read()
        else:
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigError(f"cannot read config: {exc}") from exc
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON configuration: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("configuration must be a JSON object")
    elif args.scenario is not None:
        doc = {"scenario": args.scenario}
        for item in args.assignments:
            key, sep, raw = item.partition("=")
            if not sep:
                raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
            try:
                doc[key] = json.loads(raw)
            except json.JSONDecodeError:
                doc[key] = raw
    else:
        raise ConfigError("a config file or --scenario is required")
    # command-line settings override the document
    if args.steps is not None:
        doc["steps"] = args.steps
    if args.record_every is not None:
        doc["record_every"] = args.record_every
    if args.output is not None:
        doc["output"] = args.output
    if args.fmt is not None:
        doc["format"] = args.fmt
    return doc


def main(argv=None) -> int:
    parser = _Parser(prog="oqw",
                     description="Open-quantum-walk simulator")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, desc in (("validate", "check a scenario's completeness relation"),
                       ("run", "evolve and emit occupation trajectories"),
                       ("steady", "iterate to the steady state")):
        sub = subs.add_parser(name, help=desc)
        _add_common(sub)
    subs.add_parser("scenarios", help="list scenarios and parameters")

    args = parser.parse_args(argv)

    if args.command == "scenarios":
        for name in SCENARIO_NAMES:
            print(f"{name}: {SCENARIO_HELP[name]}")
        return EXIT_OK

    try:
        doc = _document_from_args(args)
        if args.command in ("run", "steady"):
            doc["mode"] = args.command
        cfg = parse_config(doc)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID

    if args.command == "validate":
        try:
            plan = build_plan(cfg)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INVALID
        report = validate_walk(plan.spec, tol=cfg.tol)
        print(str(report))
        return EXIT_OK if report.ok else EXIT_INVALID

    return execute(cfg)


if __name__ == "__main__":
    sys.exit(main())
