import json
import os
import re
import sys
import tracemalloc

import numpy as np
import pytest

from oqwalk.cli import (
    SCENARIOS,
    ConfigError,
    RunConfig,
    build_plan,
    emit_csv,
    emit_json,
    execute,
    main,
    parse_config,
)
from oqwalk.core import WalkerState, WalkSpec, mixed_state, run, validate_walk
from oqwalk.scenarios import SCENARIO_NAMES

from oracles import random_kraus_family


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------- parsing


def test_parse_config_line():
    cfg = parse_config('{"scenario": "line", "theta_cos": 0.8, "steps": 100}')
    assert cfg.scenario == "line"
    assert cfg.steps == 100
    assert cfg.params == {"theta_cos": 0.8}
    assert cfg.fmt == "csv" and cfg.mode == "run"


def test_parse_config_dqc():
    cfg = parse_config({"scenario": "dqc", "omega": 0.5, "T": 4, "mode": "steady"})
    assert cfg.scenario == "dqc"
    assert cfg.mode == "steady"
    plan = build_plan(cfg)
    assert plan.spec.node_count == 5


def test_parse_config_unknown_scenario_lists_names():
    with pytest.raises(ConfigError) as err:
        parse_config('{"scenario": "nope"}')
    msg = str(err.value)
    for name in ("line", "gate", "state_prep", "bell", "transport", "dqc"):
        assert name in msg


def test_parse_config_malformed_json():
    with pytest.raises(ConfigError):
        parse_config("{not json")


def test_parse_config_range_checks():
    with pytest.raises(ConfigError):
        parse_config({"scenario": "line", "steps": -1})
    with pytest.raises(ConfigError):
        parse_config({"scenario": "line", "record_every": 0})
    with pytest.raises(ConfigError):
        parse_config({"scenario": "line", "format": "xml"})
    with pytest.raises(ConfigError):
        parse_config({"scenario": "line", "mode": "loop"})


def test_plan_rejects_out_of_range_probability():
    cfg = parse_config({"scenario": "gate", "gate": "X", "p": 1.5})
    with pytest.raises(ConfigError):
        build_plan(cfg)


def test_plan_rejects_unknown_parameter():
    cfg = parse_config({"scenario": "bell", "start": "UL"})
    with pytest.raises(ConfigError):
        build_plan(cfg)


def test_plan_line_window_must_cover_run():
    cfg = parse_config({"scenario": "line", "theta_cos": 0.8, "steps": 10,
                        "window": 5})
    with pytest.raises(ConfigError):
        build_plan(cfg)


def test_plan_gate_matrix_input():
    cfg = parse_config({
        "scenario": "gate",
        "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
        "p": 0.5,
    })
    plan = build_plan(cfg)
    assert plan.spec.dim == 2


# ------------------------------------------------------------------ emit


def test_emit_csv_single_snapshot():
    text = "".join(emit_csv([(0, mixed_state(0, 1))], (0,)))
    assert text == "step,node,probability\n0,0,1.000000000000\n"


def test_emit_csv_two_step_line():
    cfg = parse_config({"scenario": "line", "theta_cos": 0.8, "steps": 2})
    plan = build_plan(cfg)
    text = "".join(emit_csv(run(plan.spec, plan.initial, 2), plan.spec.nodes))
    lines = text.strip().split("\n")
    step2 = [ln for ln in lines if ln.startswith("2,")]
    assert len(step2) == 3
    assert step2[0].startswith("2,-2,0.2048")
    assert step2[1].startswith("2,0,0.2304")
    assert step2[2].startswith("2,2,0.5648")


def csv_of_traces(snapshots, nodes) -> str:
    """The CSV text as one f-string per row of ``state.traces(nodes)``."""
    return "step,node,probability\n" + "".join(
        f"{k},{n},{p:.12f}\n" for k, state in snapshots
        for n, p in state.traces(nodes).items())


def test_emit_csv_equals_rows_of_traces():
    # labels that are tuples or hold a %, snapshot 0 from a dict whose
    # order is not the spec's, snapshots that empty out through a sink,
    # and a final partial interval of record_every
    rng = np.random.default_rng(5)
    nodes = ("a%s", (1, "%d"), "100%", (2,), 7, "%%", "sink")
    hops = {("%%", "sink"): np.eye(2)}  # the sink has no out-edges
    for k in range(5):
        near, far = random_kraus_family(2, 2, rng)
        hops[(nodes[k], nodes[k + 1])] = near
        hops[(nodes[k], nodes[k + 2])] = far
    spec = WalkSpec(nodes, 2, hops)
    initial = WalkerState({"100%": np.eye(2) / 4, "a%s": np.eye(2) / 4,
                           (1, "%d"): np.eye(2) / 2})
    for n_steps, every in ((0, 1), (3, 1), (40, 3), (41, 4)):
        snapshots = run(spec, initial, n_steps, every)
        assert "".join(emit_csv(iter(snapshots), nodes)) == csv_of_traces(
            snapshots, nodes)
    first, second, last = (snapshots[k][1].traces(nodes) for k in (0, 1, -1))
    assert list(first) == ["a%s", (1, "%d"), "100%"]
    assert len(second) > 1 and last == {}
    empty = [(0, WalkerState({}))]
    assert "".join(emit_csv(empty, nodes)) == csv_of_traces(empty, nodes)


def test_emit_json_round_trip():
    nodes = (-1, 0, 1)
    records = [(0, {0: 1.0}), (1, {1: 17 / 25, -1: 8 / 25})]
    snapshots = [(k, WalkerState({n: [[p]] for n, p in occ.items()}))
                 for k, occ in records]
    payload = json.loads("".join(emit_json(snapshots, nodes)))
    assert payload[0] == {"step": 0, "occupations": {"0": 1.0}}
    for (step_index, occ), entry in zip(records, payload):
        assert entry["step"] == step_index
        for node, prob in occ.items():
            assert abs(entry["occupations"][str(node)] - prob) <= 1e-12
    assert list(payload[1]["occupations"]) == ["-1", "1"]
    assert "".join(emit_json([], nodes)) == json.dumps([], indent=2) + "\n"


@pytest.mark.parametrize("doc", [
    {"scenario": "line", "theta_cos": 0.8, "steps": 0},
    {"scenario": "line", "theta_cos": 0.8, "steps": 5},
    {"scenario": "line", "theta_cos": 0.8, "steps": 3, "record_every": 7},
    {"scenario": "bell", "steps": 4},
    {"scenario": "bell", "steps": 4, "record_every": 3},
])
def test_main_run_output_equals_text_of_whole_run(tmp_path, capsys, doc):
    # the streamed output has the bytes of the text made from all
    # snapshots at once: one json.dumps, or one f-string per CSV row
    from oqwalk.core import run

    plan = build_plan(parse_config(doc))
    records = [(k, state.traces(plan.spec.nodes)) for k, state in run(
        plan.spec, plan.initial, doc["steps"], doc.get("record_every", 1))]
    expected = {
        "json": json.dumps([{"step": k, "occupations": {
            str(n): round(p, 12) for n, p in occ.items()}}
            for k, occ in records], indent=2) + "\n",
        "csv": "step,node,probability\n" + "".join(
            f"{k},{n},{p:.12f}\n" for k, occ in records for n, p in occ.items()),
    }
    for fmt, text in expected.items():
        path = write_config(tmp_path, {**doc, "format": fmt})
        assert main(["run", path]) == 0
        assert capsys.readouterr().out == text
        out = tmp_path / f"run.{fmt}"
        assert main(["run", path, "-o", str(out)]) == 0
        assert out.read_text() == text


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_main_run_memory_grows_with_one_snapshot(tmp_path, fmt):
    # a line run's state grows linearly with the step count, a whole-run
    # buffer with its square: 4x the steps must cost less than 5x the peak
    def peak(steps):
        tracemalloc.start()
        try:
            assert main(["run", "--scenario", "line", "--set", "theta_cos=0.8",
                         "--steps", str(steps), "--format", fmt,
                         "-o", str(tmp_path / "out")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(800) / peak(200) < 5


# --------------------------------------------------------------- execute


def test_execute_run_csv_file(tmp_path):
    out = tmp_path / "line.csv"
    cfg = RunConfig(scenario="line", params={"theta_cos": 0.8}, steps=2,
                    output=str(out))
    assert execute(cfg) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "step,node,probability"
    assert "2,2,0.564800000000" in lines


def test_execute_run_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        cfg = RunConfig(scenario="line", params={"theta_cos": 0.8}, steps=20,
                        output=str(out))
        assert execute(cfg) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_execute_steady_state_prep(tmp_path):
    out = tmp_path / "prep.json"
    cfg = RunConfig(scenario="state_prep",
                    params={"alpha": np.pi / 3, "beta": np.pi / 4, "q": 0.5},
                    mode="steady", output=str(out))
    assert execute(cfg) == 0
    payload = json.loads(out.read_text())
    assert payload["converged"] is True
    assert payload["report"]["readout_node"] == 2
    assert abs(payload["report"]["target_fidelity"] - 1.0) <= 1e-9
    assert abs(payload["report"]["readout_probability"] - 1.0) <= 1e-9
    assert "blocks" in payload and "2" in payload["blocks"]


def test_execute_steady_line_never_converges(capsys):
    cfg = RunConfig(scenario="line", params={"theta_cos": 0.8, "window": 40},
                    mode="steady", max_iter=30)
    assert execute(cfg) == 2
    assert "no steady state" in capsys.readouterr().err


def test_execute_unwritable_output(tmp_path, capsys):
    cfg = RunConfig(scenario="line", params={"theta_cos": 0.8}, steps=1,
                    output=str(tmp_path / "missing" / "out.csv"))
    assert execute(cfg) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output:") and err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


# ------------------------------------------------------------------ main


def test_main_run_from_config_file(tmp_path, capsys):
    path = write_config(tmp_path, {"scenario": "line", "theta_cos": 0.8,
                                   "steps": 2})
    assert main(["run", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("step,node,probability\n")
    assert "2,2,0.564800000000" in out


def test_main_steady_dqc_report(tmp_path):
    out = tmp_path / "dqc.json"
    path = write_config(tmp_path, {"scenario": "dqc", "omega": 0.5, "T": 4,
                                   "output": str(out)})
    assert main(["steady", path]) == 0
    payload = json.loads(out.read_text())
    assert abs(payload["report"]["readout_probability"] - 0.2) <= 1e-8
    assert abs(payload["report"]["predicted_readout"] - 0.2) <= 1e-12
    assert abs(payload["report"]["output_fidelity"] - 1.0) <= 1e-9


def test_main_validate_reports_rejection(capsys):
    # a gate walk is accepted
    assert main(["validate", "--scenario", "gate", "--set", "gate=X",
                 "--set", "p=0.5"]) == 0
    assert "accepted" in capsys.readouterr().out


def test_main_validate_writes_output_file(tmp_path, capsys):
    args = ["validate", "--scenario", "gate", "--set", "gate=X", "--set", "p=0.5"]
    assert main(args) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "report.txt"
    assert main([*args, "-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == printed
    assert main([*args, "-o", str(tmp_path / "missing" / "report.txt")]) == 1
    assert capsys.readouterr().err.startswith("error: cannot write output:")
    # a config's own output file is the run's, not the report's
    run_out = tmp_path / "line.csv"
    path = write_config(tmp_path, {"scenario": "line", "theta_cos": 0.8,
                                   "output": str(run_out)})
    assert main(["validate", path]) == 0
    assert capsys.readouterr().out.endswith("accepted\n")
    assert not run_out.exists()


def test_main_set_overrides_config_file(tmp_path, capsys):
    out = tmp_path / "line.csv"
    path = write_config(tmp_path, {"scenario": "line", "theta_cos": 0.8,
                                   "steps": 5})
    assert main(["run", path, "--set", "steps=1", "-o", str(out)]) == 0
    assert out.read_text().splitlines()[-1].startswith("1,")
    # named flags come after --set
    assert main(["run", path, "--set", "steps=1", "--steps", "2",
                 "-o", str(out)]) == 0
    assert out.read_text().splitlines()[-1].startswith("2,")
    capsys.readouterr()
    assert main(["run", path, "--set", "steps=1", "--set", "bogus=3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "error: unknown parameter(s) for scenario 'line': bogus\n"


def test_main_quick_mode_equals_config_file(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    path = write_config(tmp_path, {"scenario": "transport", "N": 6,
                                   "sqrt_p": 0.8, "steps": 8,
                                   "output": str(out1)})
    assert main(["run", path]) == 0
    assert main(["run", "--scenario", "transport", "--set", "N=6",
                 "--set", "sqrt_p=0.8", "--steps", "8",
                 "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_main_line_100_step_soliton_row(tmp_path):
    out = tmp_path / "line.csv"
    path = write_config(tmp_path, {"scenario": "line", "theta_cos": 0.8,
                                   "steps": 100, "record_every": 100,
                                   "output": str(out)})
    assert main(["run", path]) == 0
    rows = out.read_text().strip().split("\n")
    # the deterministic right-mover parks half the weight at site +100
    assert "100,100,0.500000000000" in rows


def test_main_transport_steady_report(tmp_path):
    out = tmp_path / "chain.json"
    path = write_config(tmp_path, {"scenario": "transport", "N": 100,
                                   "sqrt_p": 0.8, "output": str(out)})
    assert main(["steady", path]) == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["readout_node"] == 100
    assert payload["report"]["readout_probability"] >= 0.999
    assert payload["iterations"] <= 102


def test_main_unknown_scenario_exit_code(capsys):
    assert main(["run", "--scenario", "warp"]) == 1
    assert "valid scenarios" in capsys.readouterr().err


def test_main_missing_config(capsys):
    assert main(["run"]) == 1


def test_main_config_not_utf8(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"scenario": "line", "theta_cos": 0.8, "x": "\xff"}')
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config") and err.count("\n") == 1


def test_main_scenarios_listing(capsys):
    assert main(["scenarios"]) == 0
    out = capsys.readouterr().out
    for name in ("line", "gate", "state_prep", "bell", "transport", "dqc"):
        assert name in out


def test_main_stdin_config(tmp_path, capsys, monkeypatch):
    import io as _io

    monkeypatch.setattr("sys.stdin", _io.StringIO(
        '{"scenario": "bell", "mode": "steady"}'))
    out = tmp_path / "bell.json"
    assert main(["steady", "-", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    fids = payload["report"]["bell_fidelities"]
    assert set(fids) == {"UL", "UR", "DL", "DR"}
    assert all(abs(f - 1.0) <= 1e-9 for f in fids.values())


@pytest.mark.parametrize("value", [None, "1e-4", "abc", "0"])
def test_main_reads_no_environment_tolerance(capsys, monkeypatch, value):
    # tol comes only from the configuration: OQW_TOL changes nothing
    if value is not None:
        monkeypatch.setenv("OQW_TOL", value)
    assert parse_config({"scenario": "line", "theta_cos": 0.8}).tol == 1e-10
    assert main(["steady", "--scenario", "dqc", "--set", "omega=0.5",
                 "--set", "T=6"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and json.loads(captured.out)["iterations"] == 210


BASE_DOCS = {
    "steps": {"scenario": "line", "theta_cos": 0.8},
    "record_every": {"scenario": "line", "theta_cos": 0.8, "steps": 2},
    "max_iter": {"scenario": "gate", "gate": "X", "p": 0.5},
    "window": {"scenario": "line", "theta_cos": 0.8, "steps": 1},
    "N": {"scenario": "transport", "p": 0.5},
    "T": {"scenario": "dqc", "omega": 0.5},
    "tol": {"scenario": "gate", "gate": "X", "p": 0.5},
    "p": {"scenario": "gate", "gate": "X"},
    "q": {"scenario": "gate", "gate": "X"},
    "sqrt_p": {"scenario": "gate", "gate": "X"},
    "theta": {"scenario": "line", "steps": 1},
    "theta_cos": {"scenario": "line", "steps": 1},
    "alpha": {"scenario": "state_prep"},
    "beta": {"scenario": "state_prep"},
    "omega": {"scenario": "dqc", "T": 2},
    "start_node": {"scenario": "bell"},
    "gate": {"scenario": "gate", "p": 0.5},
    "unitaries": {"scenario": "dqc", "omega": 0.5, "T": 1},
    "psi0": {"scenario": "gate", "gate": "X", "p": 0.5},
}


@pytest.mark.parametrize("key", sorted(BASE_DOCS))
def test_main_rejects_boolean_counts(tmp_path, capsys, key):
    # JSON true is a bool, and Python's bool is an int: it must not pass
    # as the count (or tolerance) 1
    path = write_config(tmp_path, {**BASE_DOCS[key], key: True})
    mode = "steady" if key in ("max_iter", "tol") else "run"
    assert main([mode, path, "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert key in err
    assert not (tmp_path / "out").exists()


# non-boolean values that must be rejected, each added as raw JSON text
# to the key's base document (BASE_DOCS, or the line walk for "output",
# which takes no -o flag since -o would override it)
REJECTED = [
    ("theta", '"abc"'), ("theta", "[1]"), ("theta", "Infinity"),
    ("alpha", '"pi"'), ("start_node", '["UL"]'), ("gate", '["X"]'),
    ("unitaries", "[5]"), ("unitaries", '[[["a"]]]'),
    ("unitaries", "[[[1, 0], [0]]]"), ("tol", "1e400"),
    ("output", "true"), ("output", "1"), ("output", '["a"]'),
    ("psi0", "[true, false]"), ("psi0", '["1", "0"]'), ("psi0", "[NaN, 1]"),
    ("psi0", "[1e300, 1e300]"),
    ("gate", '[[0, 1], ["1", 0]]'), ("gate", "[[0, [true, false]], [1, 0]]"),
    ("gate", "[[1, 2, 3]]"), ("gate", "[]"),
    ("unitaries", "[[[1, 0], [0, 1], [0, 0]]]"),
]


@pytest.mark.parametrize("key,raw", REJECTED)
def test_main_rejects_bad_values(tmp_path, capsys, key, raw):
    # exit 1 with one line naming the key: no traceback, no coercion,
    # no output file, and the process's stdout is left open
    doc = BASE_DOCS.get(key, BASE_DOCS["steps"])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc)[:-1] + f', "{key}": {raw}}}')
    argv = ["run", str(path)]
    if key != "output":
        argv += ["-o", str(tmp_path / "out")]
    assert main(argv) == 1
    os.fstat(1)
    assert not sys.stdout.closed
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert re.search(rf"\b{re.escape(key)}\b", captured.err)
    assert not (tmp_path / "out").exists()


def test_main_names_the_gate_spelling_given(capsys):
    # "matrix" spells the gate too: a bad literal's error names the key given
    for key in ("gate", "matrix"):
        argv = ["validate", "--scenario", "gate", "--set", f"{key}=[[1, 2, 3]]", "--set", "p=0.5"]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {key} must be a square matrix, got shape (1, 3)\n"


BIG =str(sys.maxsize * 10 ** 12)  # past the index range: fails before allocating


@pytest.mark.parametrize("command,argv,key", [
    *[(command, ["--scenario", scenario, "--set", f"sqrt_p={value}", *extra],
       "sqrt_p")
      for command in ("validate", "run", "steady")
      for scenario, extra in (("gate", ["--set", "gate=X"]),
                              ("transport", ["--set", "N=5"]))
      for value in ("-0.5", "1.5", "1e200")],
    *[(command, argv, None) for command in ("validate", "run", "steady")
      for argv in (["--scenario", "line", "--set", "theta_cos=0.8",
                    "--set", f"window={BIG}"],
                   ["--scenario", "dqc", "--set", "omega=0.5", "--set", f"T={BIG}"])],
    ("run", ["--scenario", "line", "--set", "theta_cos=0.8", "--steps", BIG], None),
])
def test_main_rejects_out_of_range_values(capsys, command, argv, key):
    # exit 1 with one error: line, never a traceback or a coerced value
    assert main([command, *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert key is None or key in captured.err


@pytest.mark.parametrize("command", ["validate", "run", "steady"])
@pytest.mark.parametrize("argv,key", [
    (["--scenario", "line", "--set", "theta_cos=0.8"], "window"),
    (["--scenario", "dqc", "--set", "omega=0.5"], "T"),
    (["--scenario", "transport", "--set", "sqrt_p=0.5"], "N"),
])
@pytest.mark.parametrize("value", ["1000000000000000000000000000000",
                                   "1000000000000000000"])
def test_main_rejects_counts_too_large_to_build(capsys, command, argv, key,
                                                value):
    # 10^30 is past the index range; 10^18 fits it but asks for a list
    # of 10^18 entries. Both fail before allocating, and both name the key.
    assert main([command, *argv, "--set", f"{key}={value}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {key} = {value} is too large to build\n"


@pytest.mark.parametrize("scenario,extra", [("gate", ["--set", "gate=X"]),
                                            ("transport", ["--set", "N=5"])])
def test_main_accepts_sqrt_p_bounds(capsys, scenario, extra):
    for value in ("0", "1", "0.5"):
        argv = ["validate", "--scenario", scenario, "--set", f"sqrt_p={value}"]
        assert main(argv + extra) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command", ["validate", "run", "steady"])
@pytest.mark.parametrize("argv,message", [
    (["--scenario", "gate", "--set", "gate=X", "--set", "q=1.5"],
     "q must lie in [0, 1], got 1.5"),
    (["--scenario", "transport", "--set", "N=5", "--set", "q=-0.5"],
     "q must lie in [0, 1], got -0.5"),
    (["--scenario", "state_prep", "--set", "q=0"], "q must lie in (0, 1), got 0.0"),
    (["--scenario", "state_prep", "--set", "q=1"], "q must lie in (0, 1), got 1.0"),
])
def test_main_checks_q_under_its_own_key(capsys, command, argv, message):
    # q stands for p = 1 - q: an out-of-range q is reported as the q
    # given, against the scenario's own bounds for p
    assert main([command, *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize("scenario,extra,values", [
    ("gate", ["--set", "gate=X"], ("0", "1", "0.25")),
    ("transport", ["--set", "N=5"], ("0", "1", "0.25")),
    ("state_prep", [], ("1e-9", "0.25", "0.999")),
])
def test_main_q_matches_one_minus_p(capsys, scenario, extra, values):
    for value in values:
        for assignment in (f"q={value}", f"p={1 - float(value)!r}"):
            argv = ["validate", "--scenario", scenario, "--set", assignment]
            assert main(argv + extra) == 0
        q_report, p_report = capsys.readouterr().out.split("accepted\n")[:2]
        assert q_report == p_report


@pytest.mark.parametrize("assignments,node,key", [
    (["--scenario", "gate", "--set", "gate=X", "--set", "p=0"], "2",
     "gate_fidelity"),
    (["--scenario", "gate", "--set", "gate=H", "--set", "p=1e-16"], "2",
     "gate_fidelity"),
    (["--scenario", "dqc", "--set", "omega=0.05", "--set", "T=12"], "12",
     "output_fidelity"),
])
def test_main_steady_report_skips_empty_readout_node(tmp_path, assignments,
                                                     node, key):
    # the read-out node's weight is below node_fidelity's floor, so the
    # conditional fidelity is undefined and left out of the report
    out = tmp_path / "steady.json"
    assert main(["steady", *assignments, "-o", str(out)]) == 0
    report = json.loads(out.read_text())["report"]
    assert key not in report
    assert report["readout_node"] == int(node)
    assert report["readout_probability"] < 1e-14


ACCEPTED_KEYS = {
    "line": ["theta", "theta_cos", "window"],
    "gate": ["gate", "matrix", "p", "q", "sqrt_p", "psi0"],
    "state_prep": ["alpha", "beta", "p", "q", "psi0"],
    "bell": ["start_node"],
    "transport": ["N", "p", "q", "sqrt_p", "psi1", "psi2", "psi0"],
    "dqc": ["omega", "T", "unitaries", "psi0"],
}


def test_main_scenarios_follow_registry(capsys):
    assert tuple(SCENARIOS) == SCENARIO_NAMES
    assert main(["scenarios"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split(":")[0] for ln in lines[:len(SCENARIO_NAMES)]] \
        == list(SCENARIO_NAMES)
    for name, line in zip(SCENARIO_NAMES, lines):
        for key in ACCEPTED_KEYS[name]:
            assert re.search(rf"\b{re.escape(key)}\b", line), (name, key)


@pytest.mark.parametrize("mode", ["run", "steady"])
def test_main_probability_spellings_same_bytes(tmp_path, mode):
    # p = 1/4, q = 3/4 and sqrt_p = 1/2 are exact in binary
    outputs = []
    steps = ["--steps", "5"] if mode == "run" else []
    for assignment in ("p=0.25", "q=0.75", "sqrt_p=0.5"):
        out = tmp_path / assignment
        assert main([mode, "--scenario", "gate", "--set", "gate=X",
                     "--set", assignment, *steps, "-o", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_main_steps_flag_overrides_invalid_config_steps(tmp_path):
    out = tmp_path / "line.csv"
    path = write_config(tmp_path, {"scenario": "line", "theta_cos": 0.8,
                                   "steps": -1})
    assert main(["run", path, "--steps", "2", "-o", str(out)]) == 0
    assert "2,2,0.564800000000" in out.read_text()


@pytest.mark.parametrize("flag", [["--steps", "5"], ["--record-every", "2"],
                                  ["--format", "csv"]])
def test_main_run_only_flags(tmp_path, capsys, flag):
    # validate and steady read no run settings, so they refuse the flags
    argv = ["--scenario", "gate", "--set", "gate=X", "--set", "p=0.5", *flag]
    out = tmp_path / "out"
    for command in ("validate", "steady"):
        assert main([command, *argv, "-o", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unrecognized arguments: ")
        assert captured.err.count("\n") == 1 and flag[0] in captured.err
        assert not out.exists()
    assert main(["run", *argv, "-o", str(out)]) == 0
    assert out.read_text().startswith("step,node,probability\n")


@pytest.mark.parametrize("argv", [
    ["run", "--scenario", "line", "--set", "theta_cos=0.8", "--steps", "abc"],
    ["run", "--scenario", "line", "--set", "theta_cos=0.8", "--format", "xml"],
    ["run", "--scenario", "line", "--set", "theta_cos=0.8", "--bogus\nflag"],
    ["run", "--scenario", "line", "--set", "theta_cos=0.8", "--set", "a\nb=1"],
    ["walk"],
    ["scenarios", "--bogus"],
    [],
])
def test_main_usage_and_config_errors_print_one_line(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [["-h"], ["run", "-h"], ["steady", "--help"]])
def test_main_help_exits_zero(capsys, argv):
    # -h is the one outcome that leaves main through SystemExit
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: oqw") and captured.err == ""


@pytest.mark.parametrize("doc", [
    {"scenario": "gate", "gate": "H", "p": 0.3},
    {"scenario": "state_prep"},
    {"scenario": "transport", "N": 5, "p": 0.5},
])
def test_main_rejected_walk_names_worst_node(tmp_path, capsys, doc):
    # run and steady give one line naming the worst node; validate keeps
    # the full per-node report as its output, with an empty stderr
    doc = {**doc, "tol": 1e-300}
    argv = ["--scenario", doc["scenario"]]
    for key, value in doc.items():
        argv += [] if key == "scenario" else ["--set", f"{key}={json.dumps(value)}"]
    report = validate_walk(build_plan(parse_config(doc)).spec, tol=1e-300)
    residuals = report.residuals
    # the first node in report order with the largest residual
    worst = next(node for node, r in residuals.items()
                 if r == max(residuals.values()))
    assert residuals[worst] > 1e-300
    for command in ("run", "steady"):
        out = tmp_path / command
        assert main([command, *argv, "-o", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == (
            f"error: walk validation failed: node {worst!r} has residual "
            f"{residuals[worst]:.3e} > tol 1e-300\n")
    assert main(["validate", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out == f"{report}\n"
