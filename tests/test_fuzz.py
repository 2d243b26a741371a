"""Seeded fuzz of the ``oqw`` exit contract, the library builders and
the io parsers.

Each case mutates a scenario's valid base document and flag list and
runs ``main`` in process. Every invocation must exit 0, 1 or 2. On exit
1 stderr is exactly one line starting ``error: ``, and on any non-zero
exit stdout is empty and no output file exists. The one exception is
``oqw validate`` rejecting a walk: the per-node report is its output,
so it goes to stdout or ``-o`` with an empty stderr. An exception that
escapes ``main`` would be a traceback, and fails the case.

Values are raw JSON texts, so NaN, Infinity and 1e400 reach the parser
as written. ``N``, ``T`` and ``window`` stay at most 60 (or far past
the index range, which fails before allocating), ``steps`` at most 50
and ``max_iter`` at most 2000, so that no case runs long.

Each ``build_*`` call with odd Python and numpy inputs must raise
``ValueError`` or ``TypeError``, or return a walk that passes
``validate_walk`` at 1e-12 and a finite start state of trace 1. Each
``WalkerState``, ``pure_state`` and ``mixed_state`` call must raise
``ValueError`` or ``TypeError``, or return a state of finite blocks
(of trace 1 to 1e-12 from ``pure_state``). Each call of the closed forms
in ``oqwalk.analysis`` must raise ``ValueError`` or ``TypeError``, or
return finite floats; counts that set a loop length stay at most 60.
"""

import contextlib
import copy
import io
import json
import math
import os
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from oqwalk.analysis import (
    dqc_predicted_readout,
    position_moments,
    state_prep_predicted_pss,
    transport_predicted_arrival,
)
from oqwalk.cli import main
from oqwalk.core import WalkerState, mixed_state, pure_state, validate_walk
from oqwalk.io import spec_from_dict, spec_to_dict, state_from_dict, state_to_dict
from oqwalk.linalg import CNOT, HADAMARD, KET_MINUS, KET_PLUS, PAULI_X
from oqwalk.scenarios import (
    build_bell_grid,
    build_dqc_chain,
    build_gate_walk,
    build_line_walk,
    build_state_prep,
    build_transport_chain,
)

CASES = 300

# scenario -> its valid base document (values as JSON text)
BASES = {
    "line": {"theta_cos": "0.8", "window": "8", "steps": "6", "max_iter": "200"},
    "gate": {"gate": '"H"', "p": "0.3", "psi0": '"+"', "steps": "4",
             "max_iter": "2000"},
    "state_prep": {"alpha": "0.4", "beta": "0.2", "q": "0.5", "psi0": '"0"',
                   "max_iter": "2000"},
    "bell": {"start_node": '"UR"', "steps": "3", "max_iter": "2000"},
    "transport": {"N": "6", "sqrt_p": "0.8", "psi1": '"0"', "psi2": '"1"',
                  "steps": "8", "max_iter": "2000"},
    "dqc": {"omega": "0.5", "T": "3", "unitaries": '["H", "X", "S"]',
            "psi0": '"+"', "max_iter": "2000"},
}

# other spellings of a parameter the base documents already give
CLASHES = {"theta_cos": ["theta"], "gate": ["matrix"], "p": ["q", "sqrt_p"],
           "q": ["p"], "sqrt_p": ["p", "q"]}

HUGE = ["1000000000000000000", "1000000000000000000000000000000",
        "-1000000000000000000000000000000"]
VALUES = [
    '"abc"', '"H"', '"UL"', '"psi+"', '"10"', "[1]", "{}", "null",
    "[[1, 0], [0, 1]]", "[[0, 1], [1, 0]]", "[[1, 0], [0, 2]]", "[1, 0]",
    "[[1, 0], [0, [true, false]]]", '[["H"], "X"]', '["H", "X", "H"]',
    "true", "false", "0", "1", "2", "3", "-1", "60", "0.5", "1.5",
    "-0.25", "1e-300", "1e400", "NaN", "Infinity", "-Infinity", *HUGE,
]
SETTINGS = ["steps", "record_every", "mode", "format", "output", "tol",
            "max_iter"]
UNKNOWN = ["bogus", "", "a\nb", "STEPS", "scenario2", "p "]
CAPS = {"N": 60, "T": 60, "window": 60, "steps": 50, "max_iter": 2000}


def _value(raw: str):
    """What ``--set`` makes of `raw`: its JSON value, else the text."""
    try:
        return json.loads(raw)
    except ValueError:
        return raw


def _capped(doc: dict) -> bool:
    """False when a count would make the case run long."""
    if "max_iter" not in doc:  # the default 10**6 never ends a line walk
        return False
    for key, cap in CAPS.items():
        value = _value(doc.get(key, "0"))
        # a walk this large fails before allocating; a run this long does not
        if type(value) is int and value > cap and not (
                key in ("N", "T", "window") and value >= 10 ** 18):
            return False
    return True


def _mutate(rng: random.Random, doc: dict, out: str) -> None:
    """Apply one mutation to `doc` in place."""
    key = rng.choice(sorted(doc))
    kind = rng.randrange(8)
    if kind == 0:  # type swap, booleans, NaN, Infinity, huge integers
        doc[key] = rng.choice(VALUES)
    elif kind == 1:  # a number or boolean written as a string
        doc[key] = json.dumps(doc[key])
    elif kind == 2:  # nested lists
        depth = rng.randint(1, 2)
        doc[key] = "[" * depth + doc[key] + "]" * depth
    elif kind == 3 and key != "max_iter":
        del doc[key]
    elif kind == 4 and key in CLASHES:
        doc[rng.choice(CLASHES[key])] = rng.choice([doc[key], "0.5", "0.8"])
    elif kind == 5:
        doc[rng.choice(UNKNOWN)] = rng.choice(VALUES)
    elif kind == 6:  # below rounding: most walks fail validation
        doc["tol"] = "1e-300"
    else:  # a run setting; an output file only ever under tmp_path
        setting = rng.choice(SETTINGS)
        choices = {"output": [json.dumps(out), "true", "1", '["a"]'],
                   "tol": ["1e-300", "1e-14", "0.001", "0", "-1e-10", "1e400"]}
        doc[setting] = rng.choice(choices.get(setting, VALUES + [
            '"csv"', '"json"', '"run"', '"steady"']))


def _case(rng: random.Random, tmp_path, k: int):
    """(argv, stdin text, output paths) of the k-th case."""
    command = rng.choice(["validate", "run", "steady"])
    scenario = rng.choice(sorted(BASES))
    out = str(tmp_path / f"out{k}")
    missing = str(tmp_path / "missing" / f"out{k}")
    while True:
        doc = dict(BASES[scenario])
        for _ in range(rng.randint(0, 2)):
            _mutate(rng, doc, out)
        if _capped(doc):
            break
    flags = []
    for _ in range(rng.choice([0, 0, 0, 0, 0, 1, 2])):
        flags += rng.choice([
            ["--steps", rng.choice(["2", "0", "-1", "abc", "1e3"])],
            ["--record-every", rng.choice(["1", "3", "0"])],
            ["--format", rng.choice(["csv", "json", "xml"])],
            ["-o", missing], ["-o", out], ["--set", "bogus"], ["--bogus"],
            ["extra.json"],
        ])
    stdin = None
    form = rng.randrange(3)
    if form == 0:  # quick mode
        argv = [command, "--scenario", scenario]
        for key, raw in doc.items():
            argv += ["--set", f"{key}={raw}"]
    else:  # a config file, or the same text on stdin
        text = "{" + ", ".join(
            [f'"scenario": "{scenario}"']
            + [f"{json.dumps(key)}: {raw}" for key, raw in doc.items()]) + "}"
        if form == 1:
            config = tmp_path / f"config{k}.json"
            config.write_text(text)
            argv = [command, str(config)]
        else:
            argv, stdin = [command, "-"], text
    return argv + flags, stdin, (out, missing)


def _run(argv, stdin, monkeypatch):
    """(exit status, stdout, stderr) of main(argv), run in process."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin or ""))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    assert not out.closed  # main never closes the process's stdout
    return status, out.getvalue(), err.getvalue()


def _violation(argv, status, stdout, stderr, outputs):
    """What the case breaks of the exit contract, "rejected" for a
    report of a rejected walk, or None."""
    files = [Path(p) for p in outputs if os.path.exists(p)]
    if status not in (0, 1, 2):
        return f"exit status {status!r}"
    if argv[0] == "validate" and status == 1 and stderr == "":
        # a rejected walk: the report is the output
        text = stdout or "".join(p.read_text() for p in files)
        return "rejected" if text.endswith("rejected\n") else "no report"
    if status == 1 and not (stderr.startswith("error: ")
                            and stderr.count("\n") == 1
                            and stderr.endswith("\n")):
        return f"stderr {stderr!r}"
    if "Traceback" in stderr:
        return "traceback"
    if status != 0 and (stdout or files):
        return f"stdout {stdout[:80]!r}, files {files}"
    return None


def test_cli_exit_contract(tmp_path, monkeypatch):
    rng = random.Random(20140113)
    failures, seen = [], set()
    for k in range(CASES):
        argv, stdin, outputs = _case(rng, tmp_path, k)
        status, stdout, stderr = _run(argv, stdin, monkeypatch)
        problem = _violation(argv, status, stdout, stderr, outputs)
        seen.add("rejected" if problem == "rejected" else status)
        if problem not in (None, "rejected"):
            failures.append((argv, stdin, problem))
    assert not failures, failures[:5]
    assert seen == {0, 1, 2, "rejected"}  # every outcome is reached


# values a mutated io document may hold: what json.loads can return
IO_VALUES = ["abc", "1", None, True, False, 0, -1, 1.5, 10 ** 30,
             float("inf"), float("nan"), [], {}, [[1]], [1, 2, 3], [[1, 0]]]


def _slots(data, found):
    """Every (container, key) pair under `data`, depth first."""
    items = data.items() if isinstance(data, dict) else enumerate(data)
    for key, value in list(items):
        found.append((data, key))
        if isinstance(value, (dict, list)):
            _slots(value, found)
    return found


def _mutate_tree(rng: random.Random, doc) -> None:
    """Apply one mutation anywhere in the JSON tree `doc`, in place."""
    slots = _slots(doc, [])
    if not slots:  # every key deleted
        return
    container, key = rng.choice(slots)
    kind = rng.randrange(5)
    if kind == 0:
        container[key] = copy.deepcopy(rng.choice(IO_VALUES))
    elif kind == 1:
        del container[key]
    elif kind == 2:
        container[key] = [container[key]]
    elif kind == 3:
        container[key] = json.dumps(container[key])
    elif isinstance(container, list):  # a repeated entry
        container.append(copy.deepcopy(container[key]))
    else:
        container[rng.choice(["bogus", "1", "UL"])] = copy.deepcopy(container[key])


def test_io_parsers_raise_only_value_error():
    spec = build_gate_walk(HADAMARD, 0.3)
    grid = build_bell_grid()
    bases = [(spec_from_dict, spec_to_dict(spec), None),
             (spec_from_dict, spec_to_dict(grid), None),
             (state_from_dict, state_to_dict(pure_state(1, KET_PLUS)), None),
             (state_from_dict, state_to_dict(mixed_state("UL", 4)), grid.nodes)]
    rng = random.Random(3305)
    outcomes = set()
    for k in range(CASES):
        parse, base, nodes = bases[k % len(bases)]
        doc = json.loads(json.dumps(base))
        for _ in range(rng.randint(1, 3)):
            _mutate_tree(rng, doc)
        try:
            parse(doc) if nodes is None else parse(doc, nodes=nodes)
            outcomes.add("parsed")
        except ValueError:
            outcomes.add("rejected")
    assert outcomes == {"parsed", "rejected"}


# odd library inputs: angles and probabilities, counts (at most 60),
# kets and gates
NAN, INF = float("nan"), float("inf")
REALS = [0.3, 0.0, 1.0, 0.5, -0.25, 1.5, NAN, INF, -INF, 10 ** 30,
         10 ** 400, -10 ** 400,
         np.float64(0.7), np.float32(0.2), np.array(0.4), True, False,
         0.5 + 0.5j, np.complex128(0.5), np.array(0.5 + 0j), [0.5],
         np.array([0.5]), "0.5", None]
COUNTS = [1, 2, 5, 60, 0, -1, True, np.int64(4), np.array(3), 2.5, NAN,
          "3", None]
KETS = [None, KET_PLUS, KET_MINUS, [1, 0], [0, 1], [1j, 0], np.array([[0, 1]]),
        [NAN, 0], [NAN, 1], [INF, 0], [1, 1], [0, 0], [], [1, 0, 0],
        [0, 1, 0], [1, 1e-11], [1e-11, 1], [1, 0.0 + 1e-13j], "0", [[1, 0], [0, 1]],
        np.array(1.0), np.float64(1.0)]
GATES = [HADAMARD, PAULI_X, CNOT, np.eye(3), np.eye(1), [[NAN, 0], [0, 1]],
         [[INF, 0], [0, 1]], [[1, 0], [0, 2]], np.ones((2, 2)), [[1, 0]],
         [1, 0], np.array(1.0), HADAMARD * (1 + 1e-11),
         HADAMARD * (1 + 1e-14), [[1, 0], [0, 1j]],
         [[True, False], [False, True]], "H", None]


# the unitaries of a dqc chain: one gate, a valid gate then another,
# or an odd container
UNITARIES = ([[gate] for gate in GATES] + [[HADAMARD, gate] for gate in GATES]
             + [[], "H", HADAMARD, None, np.array([HADAMARD, PAULI_X])])

# builder -> (valid arguments, the odd values of each argument)
BUILDERS = {
    "line": (build_line_walk, (0.6, 5), (REALS, COUNTS)),
    "gate": (build_gate_walk, (HADAMARD, 0.5), (GATES, REALS)),
    "state_prep": (build_state_prep, (0.4, 1.9, 0.3), (REALS, REALS, REALS)),
    "bell": (build_bell_grid, (), ()),
    "transport": (build_transport_chain, (6, 0.5, [1, 0], [0, 1]),
                  (COUNTS, REALS, KETS, KETS)),
    "dqc": (build_dqc_chain, ([HADAMARD, PAULI_X], 0.5, None),
            (UNITARIES, REALS, KETS)),
}


def _calls(rng: random.Random, good: tuple, pools: tuple):
    """Each odd value in place of one valid argument, then random mixes
    in which each argument is valid half of the time."""
    for k, pool in enumerate(pools):
        for value in pool:
            yield good[:k] + (value,) + good[k + 1:]
    for _ in range(CASES // 5):
        yield tuple(arg if rng.random() < 0.5 else rng.choice(pool)
                    for arg, pool in zip(good, pools))


def _built_problem(built):
    """What a returned walk breaks of the builders' promise, or None."""
    spec, initial = built if isinstance(built, tuple) else (built, None)
    report = validate_walk(spec, tol=1e-12)
    if not report.ok:  # np.max, unlike max(), keeps a NaN
        return f"residual {np.max(list(report.residuals.values())):.3e}"
    if initial is not None:
        blocks = np.array(list(initial.blocks.values()))
        trace = np.trace(blocks, axis1=1, axis2=2).real.sum()
        if not (np.isfinite(blocks).all() and abs(trace - 1) <= 1e-12):
            return f"start state of trace {trace!r}"
    return None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf and NaN arithmetic
def test_builders_raise_or_keep_their_promise():
    rng = random.Random(1401)
    failures, outcomes = [], {}
    for name, (build, good, pools) in BUILDERS.items():
        for args in _calls(rng, good, pools):
            # a bool is no number: it raises TypeError, unless another odd
            # argument is rejected first, and never passes as 0 or 1
            bools = {k for k, (arg, pool) in enumerate(zip(args, pools))
                     if (pool is REALS or pool is COUNTS)
                     and isinstance(arg, (bool, np.bool_))}
            try:
                built = build(*args)
            except (ValueError, TypeError) as exc:
                outcomes.setdefault(name, set()).add("rejected")
                if bools and not isinstance(exc, TypeError) and all(
                        arg is valid for k, (arg, valid) in enumerate(zip(args, good))
                        if k not in bools):
                    failures.append((name, args, repr(exc)))
                continue
            if bools:
                failures.append((name, args, "built from a bool"))
                continue
            outcomes.setdefault(name, set()).add("built")
            problem = _built_problem(built)
            if problem is not None:
                failures.append((name, args, problem))
    assert not failures, failures[:5]
    assert outcomes == {name: {"built"} if name == "bell"
                        else {"built", "rejected"} for name in BUILDERS}


# odd entries of a block, a ket or a dimension, and odd whole blocks
ENTRIES = [0, 1, 0.5, -1j, NAN, INF, -INF, complex(0, NAN), 1e200, 1e-320,
           True, np.float32(0.5), None, "1", "x", [1], 10 ** 400]
BLOCKS = [np.eye(2) / 2, np.eye(3) / 3, np.eye(1), [[1]], [[0, 1], [1, 0]],
          [], [[]], [1, 0], [[1, 0]], np.ones((2, 2, 2)), np.array(0.5),
          [[1, 0], [0]], "abc", None, {}, [[NAN]], [[INF, 0], [0, 0]]]
DIMS = [1, 2, 3, 0, -1, True, np.int64(2), np.array(3), 2.5, NAN, "3", None]
NODES = [0, 1, "a", (1, 2), None, -3, 2.5, np.int64(4)]
# kets off unit norm by more than 1e-12, and arguments that map nothing
UNNORMALIZED = [[1, 1], [0.5, 0], [2, 0, 0], [1, 2e-6], [1 + 1e-11, 0],
                [1e-200, 0], [0, 0]]
NOT_MAPPINGS = [[1], [(1, np.eye(2) / 2)], (1,), (), None, "ab",
                np.eye(2) / 2, np.array([0.5])]


def _odd_block(rng: random.Random):
    if rng.random() < 0.5:
        return rng.choice(BLOCKS)
    dim = rng.choice((1, 2, 3))
    block = [[rng.choice((0.0, 0.25, 1j)) for _ in range(dim)] for _ in range(dim)]
    block[rng.randrange(dim)][rng.randrange(dim)] = rng.choice(ENTRIES)
    return block


def _state_calls(rng: random.Random):
    """(constructor, arguments) cases: every odd value once, then mixes."""
    for entry in ENTRIES:
        yield pure_state, (1, [entry, 0])
        yield WalkerState, ({0: np.eye(2) / 2, 1: [[entry, 0], [0, 0.5]]},)
    for block in BLOCKS:
        yield WalkerState, ({1: block},)
        yield pure_state, (1, block)
    for dim in DIMS:
        yield mixed_state, (0, dim)
    for ket in UNNORMALIZED:
        yield pure_state, (1, ket)
    for value in NOT_MAPPINGS:
        yield WalkerState, (value,)
    for _ in range(CASES):
        kind = rng.randrange(3)
        if kind == 0:
            nodes = rng.sample(NODES, rng.randrange(4))
            yield WalkerState, ({n: _odd_block(rng) for n in nodes},)
        elif kind == 1:
            yield pure_state, (rng.choice(NODES),
                               [rng.choice(ENTRIES) for _ in range(rng.randrange(4))])
        else:
            yield mixed_state, (rng.choice(NODES), rng.choice(DIMS))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf and NaN arithmetic
@pytest.mark.filterwarnings("ignore::numpy.exceptions.ComplexWarning")
def test_states_raise_or_hold_finite_blocks():
    rng = random.Random(1402)
    failures, outcomes = [], set()
    for make, args in _state_calls(rng):
        try:
            state = make(*args)
        except (ValueError, TypeError):
            outcomes.add("rejected")
            continue
        outcomes.add("built")
        blocks = list(state.blocks.values())
        finite = all(np.isfinite(b).all() and b.ndim == 2
                     and b.shape[0] == b.shape[1] >= 1 for b in blocks)
        if not (finite and np.isfinite(state.total_trace())):
            failures.append((make.__name__, args))
        elif make is pure_state and not abs(state.total_trace() - 1) <= 1e-12:
            failures.append((make.__name__, args, state.total_trace()))
    assert not failures, failures[:5]
    assert outcomes == {"built", "rejected"}


# odd weights and distributions for the closed forms; the transport
# counts also go past the float range, which sets no loop length there
WEIGHTS = [(1, 0, 0, 0), (0.25,) * 4, (0.5, 0, 0.5, -1e-17), [0, 1, 0, 0],
           np.array([0.5, 0, 0.5, 0]), (1e308,) * 4, (1, 0, 0), (1, 0, 0, 0, 0),
           (NAN, 0, 0, 0), (INF, 0, 0, 0), (1j, 0, 0, 0), ("1", 0, 0, 0),
           (10 ** 400, 0, 0, 0), (-1, 2, 0, 0), 1.0, "abcd", None]
DISTS = [{0: 1.0}, {1: 0.68, -1: 0.32}, {np.int64(3): 0.5, 4: 0.5},
         {0: NAN}, {0: INF}, {0: 0.0}, {0: -1.0}, {0: 1j}, {0: "1"},
         {0: 1e308, 1: 1e308}, {0: 5e-324}, {10 ** 400: 1.0},
         {10 ** 200: 1.0, -10 ** 200: 1.0}, {2 ** 62: 1.0, -2 ** 62: 1.0},
         {"a": 1.0}, {0.5: 1.0}, {True: 1.0}, {}, [1], [(0, 1.0)], (1, 2), None,
         "ab", np.array([0.5, 0.5])]
BIG = [10 ** 400, 10 ** 400 - 1, 10 ** 30]

# closed form -> (valid arguments, the odd values of each argument)
CLOSED_FORMS = {
    "dqc_predicted_readout": (dqc_predicted_readout, (0.5, 9),
                              (REALS + [1e-300, 1e-10, 1 - 1e-16], COUNTS)),
    "transport_predicted_arrival": (transport_predicted_arrival, (6, 0.5, 5),
                                    (COUNTS + BIG, REALS, COUNTS + BIG)),
    "state_prep_predicted_pss": (state_prep_predicted_pss, ((0.25,) * 4, 0.5, 3),
                                 (WEIGHTS, REALS, COUNTS)),
    "position_moments": (position_moments, ({1: 0.5, -1: 0.5},), (DISTS,)),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf and NaN arithmetic
def test_closed_forms_raise_or_return_finite_values():
    rng = random.Random(1403)
    failures, outcomes = [], {}
    for name, (form, good, pools) in CLOSED_FORMS.items():
        for args in _calls(rng, good, pools):
            try:
                value = form(*args)
            except (ValueError, TypeError):
                outcomes.setdefault(name, set()).add("rejected")
                continue
            outcomes.setdefault(name, set()).add("returned")
            values = value if isinstance(value, tuple) else (value,)
            if not all(isinstance(v, float) and math.isfinite(v) for v in values):
                failures.append((name, args, value))
    assert not failures, failures[:5]
    assert outcomes == {name: {"returned", "rejected"} for name in CLOSED_FORMS}
