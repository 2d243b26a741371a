"""Batch command-line front end.

Subcommands:

* ``oqw validate <config>``  build the scenario and print the per-node
  completeness report, or write it to ``-o`` (exit 1 when rejected)
* ``oqw run <config>``       evolve and stream occupation trajectories;
  only ``run`` takes ``--steps``, ``--record-every`` and ``--format``
* ``oqw steady <config>``    iterate to the fixed point and emit a JSON
  report (exit 2 when the walk never settles, which is the expected
  outcome for the line walk)
* ``oqw scenarios``          list scenario names and their parameters

A configuration is a single JSON document (file path or ``-`` for
stdin) with the scenario name, its parameters and the run settings,
e.g. ``{"scenario": "line", "theta_cos": 0.8, "steps": 100}``. The
``--scenario``/``--set KEY=VALUE`` flags (VALUE parsed as JSON, else
kept as a string) build the same document from the command line;
``--set`` also overrides keys of a config file; ``tol`` (default
1e-10) comes only from the configuration, like every other setting.

Each ``SCENARIOS`` entry holds a scenario's parameters (spellings,
typed parsers, defaults) and an adapter that calls its builder. Numbers
and counts are parsed by linalg's rules, as in the builders. Bad input
and usage errors raise ``ConfigError``. It and a walk that ``run`` or
``steady`` rejects each print one ``error:`` line with exit status 1.
``main(argv)`` returns every exit status; only ``-h`` leaves through
``SystemExit``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from . import analysis
from .core import (
    DEFAULT_MAX_ITER,
    WalkerState,
    WalkSpec,
    find_steady_state,
    iter_run,
    mixed_state,
    pure_state,
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
    KET_ONE,
    KET_PLUS,
    KET_ZERO,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    S_GATE,
    T_GATE,
    _count,
    _matrix,
    _real,
    _vector,
    basis_ket,
    normalized,
)
from .scenarios import (
    BELL_NODE_STATES,
    build_bell_grid,
    build_dqc_chain,
    build_gate_walk,
    build_line_walk,
    build_state_prep,
    build_transport_chain,
    state_prep_targets,
)

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
    "0": KET_ZERO,
    "1": KET_ONE,
    "+": KET_PLUS,
    "-": KET_MINUS,
    "00": basis_ket(4, 0),
    "01": basis_ket(4, 1),
    "10": basis_ket(4, 2),
    "11": basis_ket(4, 3),
    "psi+": BELL_PSI_PLUS,
    "psi-": BELL_PSI_MINUS,
    "phi+": BELL_PHI_PLUS,
    "phi-": BELL_PHI_MINUS,
}
# read-only like the linalg constants above, which both tables share
for _k in ("00", "01", "10", "11"):
    NAMED_KETS[_k].setflags(write=False)
del _k


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


# Typed parsers: (key, JSON value) -> value, or a ConfigError naming the key
def _checked(rule: Callable, *bounds, **options):
    """The parser of linalg's rule `rule` with `bounds`: its TypeError or
    ValueError, which starts with the key, as a ConfigError."""
    def parse(key: str, value):
        try:
            return rule(value, key, *bounds, **options)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
    return parse


def _acos(key: str, value) -> float:
    return math.acos(_checked(_real, -1, 1)(key, value))


def _text(key: str, value) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string")
    return value


def _named(table: dict):
    def parse(key: str, value):
        # check the type first: a list is unhashable
        if not isinstance(value, str) or value not in table:
            raise ConfigError(f"{key} must be one of " + ", ".join(table))
        return table[value]
    return parse


def _literal(key: str, value, table: dict, from_json: Callable):
    """A name in `table`, or a JSON literal that `from_json` decodes."""
    if isinstance(value, str):
        return _named(table)(key, value)
    try:
        return from_json(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad literal for {key}: {exc}") from exc


def _gate(key: str, value) -> np.ndarray:
    gate = _literal(key, value, NAMED_GATES, matrix_from_json)
    # a literal is checked here too, so that its error names the key given
    return gate if isinstance(value, str) else _checked(_matrix)(key, gate)


def _ket(key: str, value) -> np.ndarray:
    return _literal(key, value, NAMED_KETS, lambda v: normalized(ket_from_json(v)))


def _gates(key: str, value) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{key} must be a list of gates")
    return [_gate(f"{key}[{k}]", entry) for k, entry in enumerate(value)]


# run settings: key -> parser (defaults in RunConfig); others are parameters
_SETTINGS = {
    "steps": _checked(_count, 0),
    "record_every": _checked(_count, 1),
    "mode": _named({"run": "run", "steady": "steady"}),
    "format": _named({"csv": "csv", "json": "json"}),
    "output": _text,
    "tol": _checked(_real, 0, open_interval=True),
    "max_iter": _checked(_count, 1),
}


def _decode(doc) -> dict:
    """The configuration object of JSON text, or `doc` itself."""
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except ValueError as exc:
            raise ConfigError(f"malformed JSON configuration: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a JSON object")
    return doc


def parse_config(doc) -> RunConfig:
    """Validate a JSON document (text or parsed dict) into a RunConfig."""
    doc = _decode(doc)
    scenario = doc.get("scenario")
    # check the type first: a list is unhashable
    if not isinstance(scenario, str) or scenario not in SCENARIOS:
        raise ConfigError(
            f"unknown scenario {scenario!r}; valid scenarios: "
            + ", ".join(SCENARIOS))
    settings = {"fmt" if key == "format" else key: parse(key, doc[key])
                for key, parse in _SETTINGS.items() if key in doc}
    params = {k: v for k, v in doc.items()
              if k != "scenario" and k not in _SETTINGS}
    return RunConfig(scenario=scenario, params=params, **settings)


_REQUIRED = object()


class Param(NamedTuple):
    """A parameter's spellings, each with its parser, and its default:
    ``_REQUIRED``, a value, or None for one the adapter works out. The
    value is stored under the first spelling, whichever is given."""

    spellings: dict
    default: object = None


def _describe(param: Param) -> str:
    note = ("" if param.default is None else " (required)"
            if param.default is _REQUIRED else f" (default {param.default})")
    return " | ".join(param.spellings) + note


def _resolve(params: tuple, given: dict, scenario: str) -> dict:
    """Parse `given` against a scenario's parameters into name -> value."""
    unknown = set(given).difference(*(p.spellings for p in params))
    if unknown:
        raise ConfigError(
            f"unknown parameter(s) for scenario '{scenario}': "
            + ", ".join(sorted(unknown)))
    values = {}
    for param in params:
        found = [key for key in param.spellings if key in given]
        if len(found) > 1:
            raise ConfigError("give only one of " + ", ".join(map(repr, found)))
        if not found and param.default is _REQUIRED:
            raise ConfigError(f"scenario '{scenario}' needs "
                              + " or ".join(map(repr, param.spellings)))
        name = next(iter(param.spellings))
        values[name] = (param.spellings[found[0]](found[0], given[found[0]])
                        if found else param.default)
    return values


def _readout(state: WalkerState, node, **extra) -> dict:
    return {"readout_node": node,
            "readout_probability": analysis.readout_probability(state, node),
            **extra}


def _fidelity(state: WalkerState, node, key: str, target: np.ndarray) -> dict:
    """{key: the conditional fidelity at node}, or {} for an empty node."""
    try:
        return {key: analysis.node_fidelity(state, node, target)}
    except ValueError:  # the node's weight is below node_fidelity's floor
        return {}


def _line(values: dict, cfg: RunConfig) -> ScenarioPlan:
    window = max(cfg.steps, 1) if values["window"] is None else values["window"]
    if window < cfg.steps:
        raise ConfigError(
            f"window {window} is smaller than steps {cfg.steps}; the "
            "window must cover the whole run")
    try:
        return ScenarioPlan(*build_line_walk(values["theta"], window))
    except (OverflowError, MemoryError):  # past the index range, or too many sites
        raise ConfigError(f"window = {window} is too large to build") from None


def _gate_walk(values: dict, cfg: RunConfig) -> ScenarioPlan:
    gate, psi0 = values["gate"], values["psi0"]
    spec = build_gate_walk(gate, values["p"])
    psi0 = (basis_ket(spec.dim, 0) if psi0 is None
            else _vector(psi0, "psi0", spec.dim))
    return ScenarioPlan(spec, pure_state(1, psi0), lambda state: _readout(
        state, 2, **_fidelity(state, 2, "gate_fidelity", gate @ psi0)))


def _state_prep(values: dict, cfg: RunConfig) -> ScenarioPlan:
    spec = build_state_prep(values["alpha"], values["beta"], values["p"])
    psi0 = values["psi0"]
    initial = (mixed_state(1, 2) if psi0 is None
               else pure_state(1, _vector(psi0, "psi0", 2)))
    target, _ = state_prep_targets(values["alpha"], values["beta"])
    return ScenarioPlan(spec, initial, lambda state: _readout(
        state, 2, **_fidelity(state, 2, "target_fidelity", target)))


def _bell(values: dict, cfg: RunConfig) -> ScenarioPlan:
    return ScenarioPlan(
        build_bell_grid(), mixed_state(values["start_node"], 4),
        lambda state: {"bell_fidelities": {
            node: fid for node, bell in BELL_NODE_STATES.items()
            for fid in _fidelity(state, node, node, bell).values()}})


def _transport(values: dict, cfg: RunConfig) -> ScenarioPlan:
    try:
        spec, initial = build_transport_chain(values["N"], values["p"],
                                              values["psi1"], values["psi2"])
    except (OverflowError, MemoryError):  # past the index range, or too many sites
        raise ConfigError(f"N = {values['N']} is too large to build") from None
    if values["psi0"] is not None:
        initial = pure_state(1, _vector(values["psi0"], "psi0", spec.dim))
    return ScenarioPlan(spec, initial, lambda state: _readout(state, values["N"]))


def _dqc(values: dict, cfg: RunConfig) -> ScenarioPlan:
    omega, t_final, psi0 = values["omega"], values["T"], values["psi0"]
    try:
        gates = values["unitaries"]
        if gates is None:
            gates = [NAMED_GATES["H"]] * t_final
        elif len(gates) != t_final:
            raise ConfigError("unitaries must be a list of T entries")
        spec, initial = build_dqc_chain(gates, omega, psi0)
    except (OverflowError, MemoryError):  # past the index range, or too long
        raise ConfigError(f"T = {t_final} is too large to build") from None

    def report(state: WalkerState) -> dict:
        # expected output: the whole gate sequence applied to psi0, formed
        # only here, since validate and run never print it
        vec = psi0 if psi0 is not None else basis_ket(spec.dim, 0)
        for g in gates:
            vec = g @ vec
        return _readout(state, t_final,
                        predicted_readout=analysis.dqc_predicted_readout(omega, t_final),
                        **_fidelity(state, t_final, "output_fidelity", vec))
    return ScenarioPlan(spec, initial, report)


_REAL = _checked(_real)


def _p_or_q(*bounds, **options) -> dict:
    """The spellings p and q = 1 - p. The builder checks p; q is checked
    here against the same bounds, and so is the p it gives (a q below
    ~1e-16 rounds p to 1), so both errors name q."""
    check = _checked(_real, *bounds, **options)

    def from_q(key: str, value) -> float:
        q = check(key, value)
        try:
            return check("p", 1.0 - q)
        except ConfigError as exc:
            raise ConfigError(f"{key} = {q}: {exc}") from exc
    return {"p": _REAL, "q": from_q}


_HOP = {**_p_or_q(0, 1), "sqrt_p": lambda key, value: _checked(_real, 0, 1)(key, value) ** 2}

# scenario name -> (its parameters, its adapter); an adapter takes the
# resolved values and the RunConfig and returns the ScenarioPlan
SCENARIOS = {
    "line": ((Param({"theta": _REAL, "theta_cos": _acos}, _REQUIRED),
              Param({"window": _checked(_count, 1)})), _line),
    "gate": ((Param({"gate": _gate, "matrix": _gate}, _REQUIRED),
              Param(_HOP, _REQUIRED),
              Param({"psi0": _ket})), _gate_walk),
    "state_prep": ((Param({"alpha": _REAL}, 0.0),
                    Param({"beta": _REAL}, 0.0),
                    Param(_p_or_q(0, 1, open_interval=True), 0.5),
                    Param({"psi0": _ket})), _state_prep),
    "bell": ((Param({"start_node": _named({n: n for n in BELL_NODE_STATES})},
                    "UL"),), _bell),
    "transport": ((Param({"N": _checked(_count, 2)}, _REQUIRED),
                   Param(_HOP, _REQUIRED),
                   Param({"psi1": _ket}),
                   Param({"psi2": _ket}),
                   Param({"psi0": _ket})), _transport),
    "dqc": ((Param({"omega": _REAL}, _REQUIRED),
             Param({"T": _checked(_count, 1)}, _REQUIRED),
             Param({"unitaries": _gates}),
             Param({"psi0": _ket})), _dqc),
}


def build_plan(cfg: RunConfig) -> ScenarioPlan:
    params, adapter = SCENARIOS[cfg.scenario]
    values = _resolve(params, cfg.params, cfg.scenario)
    try:
        return adapter(values, cfg)
    except ValueError as exc:  # a builder's range check
        raise ConfigError(str(exc)) from exc


def emit_csv(snapshots, nodes: tuple) -> Iterator[str]:
    """CSV text of (step, WalkerState) snapshots, a piece per snapshot: a
    row per occupied node, in the order of the spec's node tuple ``nodes``."""
    yield "step,node,probability\n"
    # a row template per node, a % in its label escaped, and one
    # %-format per snapshot
    rows = ["," + str(node).replace("%", "%%") + ",%.12f\n" for node in nodes]
    for step_index, state in snapshots:
        pos, tr = state.trace_rows(nodes)
        s = str(step_index)
        yield (s + s.join(map(rows.__getitem__, pos))) % tuple(tr) if pos else ""


def _occupations(state: WalkerState, nodes: tuple) -> dict:
    """Node label -> occupation rounded to 12 digits, over the spec's nodes."""
    return {str(node): round(prob, 12) for node, prob in state.traces(nodes).items()}


def emit_json(snapshots, nodes: tuple) -> Iterator[str]:
    """``json.dumps(payload, indent=2) + "\\n"`` of the (step, WalkerState)
    snapshots, a piece per snapshot: exact, as json escapes the newlines
    inside strings."""
    sep = "[\n  "
    for step_index, state in snapshots:
        entry = {"step": step_index, "occupations": _occupations(state, nodes)}
        yield sep + json.dumps(entry, indent=2).replace("\n", "\n  ")
        sep = ",\n  "
    yield "[]\n" if sep == "[\n  " else "\n]\n"  # "[]" for no records


def execute(cfg: RunConfig) -> int:
    """Run a validated configuration; returns the process exit status."""
    try:
        plan = build_plan(cfg)
    except ConfigError as exc:
        return _fail(exc)
    report = validate_walk(plan.spec, tol=cfg.tol)
    if not report.ok:  # the per-node report is what `oqw validate` prints
        node = max(report.residuals, key=report.residuals.get)
        return _fail(f"walk validation failed: node {node!r} has residual "
                     f"{report.residuals[node]:.3e} > tol {cfg.tol:g}")

    if cfg.mode == "run":
        snapshots = iter_run(plan.spec, plan.initial, cfg.steps, cfg.record_every)
        emit = emit_csv if cfg.fmt == "csv" else emit_json
        return _write_output(emit(snapshots, plan.spec.nodes), cfg.output)

    result = find_steady_state(plan.spec, plan.initial, tol=cfg.tol,
                               max_iter=cfg.max_iter)
    if not result.converged:
        print(
            f"no steady state within {cfg.max_iter} iterations "
            f"(last residual {result.residual:.3e})", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    payload = {
        "scenario": cfg.scenario,
        "converged": True,
        "iterations": result.iterations,
        "residual": result.residual,
        "occupation": _occupations(result.state, plan.spec.nodes),
        "blocks": state_to_dict(result.state)["blocks"],
        "report": plan.steady_report(result.state),
    }
    return _write_output([json.dumps(payload, indent=2) + "\n"], cfg.output)


def _write_output(pieces: Iterable[str], output: str | None) -> int:
    """Write text pieces to the output file or stdout; returns the exit status."""
    try:
        if output is None:
            sys.stdout.writelines(pieces)
        else:
            with open(output, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
    except OSError as exc:
        return _fail(f"cannot write output: {exc}")
    return EXIT_OK


def _fail(message) -> int:
    """Print `message` as the one ``error:`` line of an exit 1, newlines
    escaped: it may quote a key or an argument as the user typed it."""
    print("error: " + str(message).replace("\n", "\\n"), file=sys.stderr)
    return EXIT_INVALID


class _Parser(argparse.ArgumentParser):
    # a usage error is a configuration error: exit 1, not argparse's 2
    def error(self, message):
        raise ConfigError(message)


def _document_from_args(args) -> dict:
    if args.config is not None and args.scenario is not None:
        raise ConfigError("give a config file or --scenario, not both")
    if args.config is not None:
        try:
            if args.config == "-":
                text = sys.stdin.read()
            else:
                with open(args.config, "r", encoding="utf-8") as fh:
                    text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        doc = _decode(text)
    elif args.scenario is not None:
        doc = {"scenario": args.scenario}
    else:
        raise ConfigError("a config file or --scenario is required")
    # command-line settings override the document, named flags last
    for item in args.assignments:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        try:
            doc[key] = json.loads(raw)
        except json.JSONDecodeError:
            doc[key] = raw
    for key in ("steps", "record_every", "output", "format"):
        value = getattr(args, key, None)  # only `run` has all four flags
        if value is not None:
            doc[key] = value
    return doc


@functools.cache
def _parser() -> _Parser:
    """The ``oqw`` parser, built once per process: each option it adds
    asks for the terminal size. Parsing leaves it unchanged."""
    parser = _Parser(prog="oqw",
                     description="Open-quantum-walk simulator")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, desc in (("validate", "check a scenario's completeness relation"),
                       ("run", "evolve and emit occupation trajectories"),
                       ("steady", "iterate to the steady state")):
        sub = subs.add_parser(name, help=desc)
        sub.add_argument("config", nargs="?", default=None,
                         help="JSON configuration file, or '-' for stdin")
        sub.add_argument("--scenario", help="scenario name (quick mode)")
        sub.add_argument("--set", dest="assignments", action="append",
                         default=[], metavar="KEY=VALUE", help="scenario "
                         "parameter (repeatable); values parsed as JSON")
        sub.add_argument("--output", "-o", default=None)
        if name == "run":  # run settings that `validate` and `steady` never read
            sub.add_argument("--steps", type=int, default=None)
            sub.add_argument("--record-every", type=int, default=None)
            sub.add_argument("--format", choices=("csv", "json"), default=None)
    subs.add_parser("scenarios", help="list scenarios and parameters")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.command == "scenarios":
            for name, (params, _) in SCENARIOS.items():
                print(f"{name}: " + "; ".join(map(_describe, params)))
            print("named gates: " + ", ".join(NAMED_GATES))
            print("named states: " + ", ".join(NAMED_KETS))
            return EXIT_OK
        doc = _document_from_args(args)
        if args.command in ("run", "steady"):
            doc["mode"] = args.command
        cfg = parse_config(doc)
        if args.command == "validate":
            report = validate_walk(build_plan(cfg).spec, tol=cfg.tol)
            # only -o: a config's "output" names the run's output file
            status = _write_output([str(report) + "\n"], args.output)
            return status if report.ok else EXIT_INVALID
    except ConfigError as exc:
        return _fail(exc)
    return execute(cfg)


if __name__ == "__main__":
    sys.exit(main())
