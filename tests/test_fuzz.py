"""Seeded fuzz of the ``oqw`` exit contract and of the io parsers.

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
"""

import contextlib
import copy
import io
import json
import os
import random
import sys
from pathlib import Path

from oqwalk.cli import main
from oqwalk.core import mixed_state, pure_state
from oqwalk.io import spec_from_dict, spec_to_dict, state_from_dict, state_to_dict
from oqwalk.linalg import HADAMARD, KET_PLUS
from oqwalk.scenarios import build_bell_grid, build_gate_walk

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
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
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
    monkeypatch.delenv("OQW_TOL", raising=False)
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
