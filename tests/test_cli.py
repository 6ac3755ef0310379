"""Command-line interface: scenario validation, artifacts, exit codes."""

import gc
import hashlib
import json
import math
import os
import shutil
import subprocess
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from mas import cli
from mas.cli import (_CSV_CHUNK, _write_trajectory_csv, load_scenario, main,
                     stage_abstract, stage_bounds, stage_synthesize,
                     word_from_json)
from mas.errors import (ParseError, SchemaError, SemanticError,
                        UnsupportedNesting)
from mas.simulate import integrate_plans

from conftest import bench_families

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _pair_dict():
    return json.loads((SCENARIOS / "pair_line.json").read_text())


def _dump(tmp_path, obj, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


# --------------------------------------------------------------------------
# scenario loading
# --------------------------------------------------------------------------

def test_shipped_scenarios_load():
    for name in ("pair_line.json", "pair_line_unsat.json",
                 "path3_plane.json"):
        sc = load_scenario(SCENARIOS / name)
        assert sc.agent_count >= 2
        assert sorted(sc.formulas) == list(range(1, sc.agent_count + 1))


def test_structural_problems_are_collected_with_pointer_paths(tmp_path):
    broken = _pair_dict()
    del broken["agents"]
    broken["edges"][0] = [1]
    broken["formulas"] = ["F[0,1] port"]
    broken["regions"][0]["services"] = {"1": []}
    with pytest.raises(SchemaError) as exc:
        load_scenario(_dump(tmp_path, broken))
    msg = str(exc.value)
    for pointer in ("/agents", "/edges/0", "/formulas",
                    "/regions/0/services/1"):
        assert pointer in msg


def test_missing_or_malformed_file_is_a_schema_error(tmp_path):
    with pytest.raises(SchemaError, match="cannot read"):
        load_scenario(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    with pytest.raises(SchemaError, match="not valid JSON"):
        load_scenario(bad)


def test_overlapping_service_alphabets_are_rejected(tmp_path):
    sc = _pair_dict()
    sc["regions"][1]["services"] = {"2": ["port", "dock"]}
    with pytest.raises(SemanticError, match="assigned to both agent"):
        load_scenario(_dump(tmp_path, sc))


def test_initial_positions_must_lie_in_the_workspace(tmp_path):
    sc = _pair_dict()
    sc["initial_positions"][0] = [99.0]
    with pytest.raises(SemanticError, match="outside the workspace"):
        load_scenario(_dump(tmp_path, sc))


def test_formulas_may_only_use_own_services(tmp_path):
    sc = _pair_dict()
    sc["formulas"]["1"] = "F[0,1] dock"  # dock belongs to agent 2
    with pytest.raises(SemanticError, match="not assigned to it"):
        load_scenario(_dump(tmp_path, sc))


def test_formula_parse_errors_name_the_agent(tmp_path):
    sc = _pair_dict()
    sc["formulas"]["2"] = "F[2,1] dock"
    with pytest.raises(ParseError, match="formula for agent 2"):
        load_scenario(_dump(tmp_path, sc))


def test_formulas_outside_the_flat_fragment_are_refused(tmp_path, capsys):
    sc = _pair_dict()
    sc["formulas"]["1"] = "G[0,inf) F[0,1] port"
    path = _dump(tmp_path, sc)
    with pytest.raises(UnsupportedNesting,
                       match="formula for agent 1: .*flat fragment"):
        load_scenario(path)
    # a negation the translation cannot push inward
    sc["formulas"]["1"] = "!(port U[0,1] port)"
    with pytest.raises(UnsupportedNesting, match="formula for agent 1"):
        load_scenario(_dump(tmp_path, sc, "negated.json"))
    capsys.readouterr()
    for command in (["bounds"], ["abstract"], ["synthesize"], ["simulate"],
                    ["check", "--agent", "1"]):
        assert main([*command, "--scenario", path,
                     "--out", str(tmp_path / "out")]) == 1, command
        err = capsys.readouterr().err
        assert err.startswith("error: formula for agent 1: "), command
        assert "flat fragment" in err, command


def test_check_evaluates_a_formula_outside_the_flat_fragment(tmp_path,
                                                             capsys):
    # only scenario formulas need to be flat; --formula is evaluated as is
    out = tmp_path / "out"
    assert main(["synthesize", "--scenario", _pair_path(),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["check", "--scenario", _pair_path(), "--out", str(out),
                 "--agent", "1", "--formula", "F[0,2] F[0,1] port"]) == 0
    assert "SATISFIED" in capsys.readouterr().out


def test_parameter_ranges_are_policed(tmp_path):
    sc = _pair_dict()
    sc["parameters"]["safety"] = 1.0
    with pytest.raises(SemanticError, match="safety must exceed 1"):
        load_scenario(_dump(tmp_path, sc))
    sc = _pair_dict()
    sc["parameters"]["lambda"] = 1.0
    with pytest.raises(SemanticError, match=r"strictly in \(0, 1\)"):
        load_scenario(_dump(tmp_path, sc))
    sc = _pair_dict()
    sc["parameters"]["typo"] = 2.0
    with pytest.raises(SchemaError, match="/parameters/typo"):
        load_scenario(_dump(tmp_path, sc))


@pytest.mark.parametrize("alias", ["01", " 1", "+1"])
def test_agent_keys_must_be_canonical(tmp_path, alias):
    # each alias used to parse to agent 1 and silently overwrite "1"
    sc = _pair_dict()
    sc["regions"][0]["services"][alias] = ["port"]
    sc["formulas"][alias] = sc["formulas"]["1"]
    with pytest.raises(SchemaError) as exc:
        load_scenario(_dump(tmp_path, sc))
    assert [path for path, _ in exc.value.problems] == \
        [f"/regions/0/services/{alias}", f"/formulas/{alias}"]


# --------------------------------------------------------------------------
# subcommands and exit codes
# --------------------------------------------------------------------------

def _pair_path():
    return str(SCENARIOS / "pair_line.json")


def test_bounds_writes_the_report(tmp_path, capsys):
    assert main(["bounds", "--scenario", _pair_path(),
                 "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["bounds"]["k2"] == pytest.approx(1.0)
    assert report["bounds"]["r_bar"] == pytest.approx(105.0)
    assert report["bounds"]["hypothesis_satisfied"] is True
    assert report["discretization"]["dt"] == 0.0103
    assert "K2 = 1" in capsys.readouterr().out


def test_abstract_reports_per_agent_systems(tmp_path, capsys):
    assert main(["abstract", "--scenario", _pair_path(),
                 "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["abstraction"]["cells"] == 12
    assert [a["initial_cell"] for a in report["abstraction"]["agents"]] \
        == [6, 7]
    assert "12 cells" in capsys.readouterr().out


def test_oversized_workspace_is_refused(tmp_path, capsys):
    sc = _pair_dict()
    sc["v_max"] = 3.0  # M = 3.15 < workspace diameter 4.032
    del sc["parameters"]["cell_diameter"]
    del sc["parameters"]["dt"]
    assert main(["bounds", "--scenario", _dump(tmp_path, sc),
                 "--out", str(tmp_path)]) == 1
    assert "workspace too large" in capsys.readouterr().err


def test_unsound_override_is_refused(tmp_path, capsys):
    sc = _pair_dict()
    sc["parameters"]["r_bar_override"] = 90.0  # below K2 * v_max = 100
    assert main(["synthesize", "--scenario", _dump(tmp_path, sc),
                 "--out", str(tmp_path)]) == 1
    assert "refusing to synthesize" in capsys.readouterr().err


def test_synthesize_writes_identical_plans_on_reruns(tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["synthesize", "--scenario", _pair_path(),
                 "--out", str(out_a)]) == 0
    assert main(["synthesize", "--scenario", _pair_path(),
                 "--out", str(out_b)]) == 0
    plans_a = (out_a / "plans.json").read_bytes()
    assert plans_a == (out_b / "plans.json").read_bytes()
    payload = json.loads(plans_a)
    assert payload["dt"] == 0.0103
    assert payload["step_used"] == 3
    assert [a["agent"] for a in payload["agents"]] == [1, 2]
    assert "plans found" in capsys.readouterr().out


def test_unsatisfiable_scenario_exits_2(tmp_path, capsys):
    assert main(["synthesize",
                 "--scenario", str(SCENARIOS / "pair_line_unsat.json"),
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "unsatisfiable" in err
    # agent 1's own product already has no accepting lasso
    assert "agent 1 " in err


def test_exhausted_state_budget_exits_3(tmp_path, capsys):
    assert main(["synthesize", "--scenario", _pair_path(),
                 "--out", str(tmp_path), "--max-states", "10"]) == 3
    assert "budget exceeded" in capsys.readouterr().err


_PAIR = ["--scenario", str(SCENARIOS / "pair_line.json")]


@pytest.mark.parametrize("args,message", [
    (["synthesize", *_PAIR, "--max-states", "abc"],
     "argument --max-states: invalid count value: 'abc'"),
    (["synthesize", *_PAIR, "--max-states", "0"],
     "argument --max-states: must be at least 1, got 0"),
    (["abstract", *_PAIR, "--max-states", "-1"],
     "argument --max-states: must be at least 1, got -1"),
    (["synthesize", *_PAIR, "--max-iters", "-5"],
     "argument --max-iters: must be at least 0, got -5"),
    (["simulate", *_PAIR, "--max-iters", "-1"],
     "argument --max-iters: must be at least 0, got -1"),
    (["simulate", *_PAIR, "--substeps", "0"],
     "argument --substeps: must be at least 1, got 0"),
    (["simulate", *_PAIR, "--horizon", "-1"],
     "argument --horizon: must be at least 0, got -1"),
    (["synthesize"], "the following arguments are required: --scenario"),
])
def test_usage_errors_exit_1_before_any_work(tmp_path, capsys, args,
                                              message):
    # exit code 2 means unsatisfiable, so a bad command line must not use it
    assert main([*args, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: mas ") and message in err
    assert list(tmp_path.iterdir()) == []


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert main(["synthesize", "--help"]) == 0
    assert "--max-iters" in capsys.readouterr().out


def test_simulate_reuses_plans_and_rejects_stale_ones(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["synthesize", "--scenario", _pair_path(),
                 "--out", str(out)]) == 0
    assert main(["simulate", "--scenario", _pair_path(),
                 "--out", str(out), "--horizon", "-1"]) == 1
    assert "argument --horizon: must be at least 0, got -1" in \
        capsys.readouterr().err
    assert main(["simulate", "--scenario", _pair_path(),
                 "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "reusing" in stdout
    assert "all boundary cells match the plan" in stdout
    services = json.loads((out / "services.json").read_text())
    assert any(v["services"] == ["port"] for v in services["1"])
    assert any(v["services"] == ["dock"] for v in services["2"])
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,agent1_x1,agent2_x1"
    # a plans.json from different discretization parameters is refused
    stale = json.loads((out / "plans.json").read_text())
    stale["dt"] = 999.0
    (out / "plans.json").write_text(json.dumps(stale))
    assert main(["simulate", "--scenario", _pair_path(),
                 "--out", str(out)]) == 1
    assert "re-run synthesize" in capsys.readouterr().err


# two agents with two-window goals whose per-agent runs never combine, so
# synthesis rejects every combination and searches the joint product
STEP4_SCENARIO = {
    "name": "pair-twowindow-synth", "agents": 2, "dimension": 1,
    "edges": [[1, 2]], "v_max": 100.0,
    "workspace": {"lower": [0.0], "upper": [4.032]},
    "initial_positions": [[2.78155], [1.776972]],
    "regions": [
        {"lower": [0.672], "upper": [1.008], "services": {"1": ["port"]}},
        {"lower": [1.344], "upper": [1.68], "services": {"2": ["dock"]}}],
    "formulas": {"1": "F[0,1] port & F[1,2] port",
                 "2": "F[0,1] dock & G[0,0.5] !dock"},
    "parameters": {"safety": 1.05, "lambda": 0.5, "cell_diameter": 0.336,
                   "dt": 0.0103},
}

# sha256 of what abstract + synthesize + simulate write for the shipped
# scenarios and the step-4 scenario above (each command's report.json is
# hashed before the next command overwrites it, and simulate reuses the
# plans.json synthesize wrote); a change meant to keep results must keep
# these bytes
ARTIFACT_SHA256 = {
    "pair_line.json": {
        "abstract/report.json":
            "89d7ef826052a4beb1b0b3a7167585342155244ab643a56dc050534342d75cf2",
        "synthesize/report.json":
            "65029d531ea786e7f258ccfffa2338960ca249b9adaefbf50864227bb09543c3",
        "simulate/report.json":
            "d728938afa099872fd78a0e1d11a5b10deac7c7fd6c9804c21d4444a85e0471e",
        "plans.json":
            "bbcb7a2910eb5b477473c62f88102f511fed0920694f178b227083e3a28a5e67",
        "services.json":
            "88d9f194f4b00c940aa73216a514145ed9108a08653edf2ec8f94c4d54fc1bd1",
    },
    "path3_plane.json": {
        "abstract/report.json":
            "4baa3496d2838d3671fff4b41b44dab773696ab4512713ff4fb2b8cbb3441938",
        "synthesize/report.json":
            "a9b33d70827b02975e63daff16dfd484f7efbdff3bf29624f4e446b927412702",
        "simulate/report.json":
            "fecbc33b03afb8caf13cf831c354344722dcdad2ceb02dea8858870c7fb8a42e",
        "plans.json":
            "b09ed26af7228c5147c9a16338f191e2dbe274d0d2f2125b2f541a375c1b2457",
        "services.json":
            "70e03e0757ba6cf5831c1febed281394ab6d6bb8cca1017a6c4024240e49dc99",
    },
    "step4": {
        "abstract/report.json":
            "3db3f5dcbddd99591c9c336239894159d0389e2206f505e8d9eb585a7414e980",
        "synthesize/report.json":
            "45054ba02d5ee5360c66eeacd4ccb86029f2b2bbf6ba5a061375478b9cc3f6f2",
        "simulate/report.json":
            "a450102311b63dfad2e5909c4f036762ebea1893bad73c972a57955cb393b45f",
        "plans.json":
            "6d53f6865a24df068c63b9ae558cff22a00a1de33be9d02cf5f3159a2079da9d",
        "services.json":
            "f5edd4a24ebb0b12aeda41ddfe660148030bdaf675af6324a4ff326e6f2f1519",
    },
}


def _artifact_scenario(tmp_path, name):
    return _dump(tmp_path, STEP4_SCENARIO) if name == "step4" \
        else str(SCENARIOS / name)


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(ARTIFACT_SHA256))
def test_shipped_scenario_artifacts_are_byte_identical(tmp_path, capsys, name):
    scenario = _artifact_scenario(tmp_path, name)
    out = tmp_path / "run"
    digests = {}
    for command in ("abstract", "synthesize", "simulate"):
        assert main([command, "--scenario", scenario,
                     "--out", str(out)]) == 0
        digests[f"{command}/report.json"] = _sha256(out / "report.json")
    digests.update({f: _sha256(out / f) for f in ARTIFACT_SHA256[name]
                    if "/" not in f})
    assert digests == ARTIFACT_SHA256[name]
    if name == "step4":
        assert json.loads((out / "plans.json").read_text())["step_used"] == 4


# sha256 of the report.json that simulate writes when --out has no
# plans.json, so that it builds the abstraction and synthesizes first
FRESH_SIMULATE_REPORT_SHA256 = {
    "pair_line.json":
        "1e4c9ebad1567eaee74c884b114678dcd5380b9987ffeda8a78387ef9eb337fd",
    "path3_plane.json":
        "002e8052fecd35434ad2f0723c2add40f536c41a207ad7305132ab52c91499af",
    "step4":
        "5fa067787ac49430a56a66a23ba8efd48552b1b51ad341f9a8e3469f8295d36d",
}


def _report(out):
    return json.loads((out / "report.json").read_text())


@pytest.mark.parametrize("name", sorted(ARTIFACT_SHA256))
def test_simulate_from_saved_plans_drops_only_the_abstraction_section(
        tmp_path, capsys, name):
    scenario = _artifact_scenario(tmp_path, name)
    out = tmp_path / "run"
    common = ["--scenario", scenario, "--out", str(out)]
    assert main(["synthesize", *common]) == 0
    synthesized = _report(out)
    assert main(["simulate", *common]) == 0
    simulated = _report(out)
    assert "reusing" in capsys.readouterr().out
    del synthesized["abstraction"], synthesized["synthesis"]
    synthesized["simulation"] = simulated["simulation"]
    assert simulated == synthesized


@pytest.mark.parametrize("name", sorted(ARTIFACT_SHA256))
def test_simulate_builds_the_abstraction_only_to_synthesize(
        tmp_path, capsys, monkeypatch, name):
    out = tmp_path / "run"
    common = ["--scenario", _artifact_scenario(tmp_path, name),
              "--out", str(out)]
    # without plans.json: abstract, synthesize and report as before
    assert main(["simulate", *common]) == 0
    assert "synthesized plans" in capsys.readouterr().out
    assert "abstraction" in _report(out)
    assert _sha256(out / "report.json") == FRESH_SIMULATE_REPORT_SHA256[name]
    for f in ("plans.json", "services.json"):
        assert _sha256(out / f) == ARTIFACT_SHA256[name][f]
    executed = ("services.json", "trajectory.csv")
    want = {f: _sha256(out / f) for f in executed}
    for f in executed:
        (out / f).unlink()

    # reusing it: no transition system is built, the run is the same
    def refuse(*args, **kwargs):
        raise AssertionError("simulate built a transition system")

    monkeypatch.setattr("mas.cli.build_agent_wts", refuse)
    assert main(["simulate", *common]) == 0
    assert "reusing" in capsys.readouterr().out
    assert {f: _sha256(out / f) for f in executed} == want


# --------------------------------------------------------------------------
# trajectory.csv
# --------------------------------------------------------------------------

def _reference_trajectory_csv(path, traj, agent_count, dimension):
    """Every row formatted on its own: the writer before it reused the text
    of rows whose state did not move."""
    header = ["t"] + [f"agent{i}_x{k}" for i in range(1, agent_count + 1)
                      for k in range(1, dimension + 1)]
    rows = np.column_stack((traj.times,
                            traj.states.reshape(len(traj.times), -1)))
    path.write_text(",".join(header) + "\n" + "".join(
        ",".join(map(repr, row)) + "\n" for row in rows.tolist()))


def _assert_writers_agree(tmp_path, traj):
    _, agents, dimension = traj.states.shape
    _write_trajectory_csv(tmp_path / "fast.csv", traj, agents, dimension)
    _reference_trajectory_csv(tmp_path / "ref.csv", traj, agents, dimension)
    assert (tmp_path / "fast.csv").read_bytes() == \
        (tmp_path / "ref.csv").read_bytes()


_FLOATS = (0.0, -0.0, 1.0, -2.5, 0.1, 1 / 3, 123456.789, 1e-300, -5e-324,
           1.7976931348623157e308, math.nan, math.inf, -math.inf)


def _random_states(rng, rows, width):
    """Runs of repeated states, broken by one-column moves, zeros that flip
    sign and fresh rows."""
    states = np.empty((rows, width))
    states[0] = rng.choice(_FLOATS, width)
    for k in range(1, rows):
        states[k] = states[k - 1]
        col, u = rng.integers(width), rng.random()
        if u < 0.1:
            states[k, col] = rng.choice(_FLOATS) + rng.normal()
        elif u < 0.2:
            # a zero of the other sign: equal under ==, not in its repr
            states[k, col] = -np.copysign(0.0, states[k - 1, col])
        elif u < 0.23:
            states[k] = rng.choice(_FLOATS, width)
    return states


@pytest.mark.parametrize("seed", range(6))
def test_trajectory_writer_matches_the_per_row_oracle(tmp_path, seed):
    rng = np.random.default_rng(seed)
    agents, dimension = int(rng.integers(1, 4)), int(rng.integers(1, 3))
    rows = 2 * _CSV_CHUNK + int(rng.integers(1, 50))
    states = _random_states(rng, rows, agents * dimension)
    # a repeated run across the first chunk boundary
    states[_CSV_CHUNK - 3:_CSV_CHUNK + 3] = states[_CSV_CHUNK - 3]
    equal = (states[1:] == states[:-1]).all(axis=1)
    same_bits = (states[1:].view(np.uint64)
                 == states[:-1].view(np.uint64)).all(axis=1)
    assert same_bits.sum() > rows // 2
    assert (equal & ~same_bits).any()  # only the sign of a zero differs
    traj = SimpleNamespace(
        times=np.arange(rows) * rng.uniform(1e-4, 1e-2),
        states=states.reshape(rows, agents, dimension))
    _assert_writers_agree(tmp_path, traj)
    single = SimpleNamespace(times=traj.times[:1], states=traj.states[:1])
    _assert_writers_agree(tmp_path, single)


def test_trajectory_writer_matches_the_oracle_on_one_column(tmp_path):
    rng = np.random.default_rng(7)
    rows = _CSV_CHUNK + 100
    states = _random_states(rng, rows, 1)
    assert np.isnan(states).any() and np.isinf(states).any()
    traj = SimpleNamespace(times=np.arange(rows) * 1e-3,
                           states=states.reshape(rows, 1, 1))
    _assert_writers_agree(tmp_path, traj)


@pytest.mark.parametrize("width", [1, 6])
def test_trajectory_writer_matches_the_oracle_when_every_row_moves(
        tmp_path, width):
    """Rows 1 .. n - 1 all differ from the row above, across two chunk
    boundaries, so every tail is formatted."""
    rng = np.random.default_rng(width)
    rows = 2 * _CSV_CHUNK + 5
    states = rng.normal(size=(rows, width))
    states[::7] = rng.choice(_FLOATS, (len(states[::7]), width))
    bits = states.view(np.uint64)
    assert (bits[1:] != bits[:-1]).any(axis=1).all()
    traj = SimpleNamespace(times=np.arange(rows) * 2.5e-3,
                           states=states.reshape(rows, width, 1))
    _assert_writers_agree(tmp_path, traj)


@pytest.mark.parametrize("name,steps", [
    ("pair_line.json", None), ("pair_line.json", 0),
    ("path3_plane.json", None), ("plane3-closed-loop", None)])
def test_trajectory_writer_matches_the_oracle_on_closed_loop_runs(
        tmp_path, name, steps):
    if name == "plane3-closed-loop":
        wl = bench_families()[name](0)
        path, steps = _dump(tmp_path, wl.scenario), wl.horizon
    else:
        path = SCENARIOS / name
    sc = load_scenario(path)
    pipe = stage_abstract(stage_bounds(sc))
    plans = stage_synthesize(pipe).plans
    if steps is None:
        steps = plans[0].prefix_length + 2 * plans[0].cycle_length
    traj = integrate_plans(pipe.g, plans, pipe.decomp, sc.initial_positions,
                           sc.v_max, steps)
    assert len(traj.times) == 4 * steps + 1
    _assert_writers_agree(tmp_path, traj)


def _synthesized_pair_plans(tmp_path):
    out = tmp_path / "run"
    assert main(["synthesize", "--scenario", _pair_path(),
                 "--out", str(out)]) == 0
    return out, json.loads((out / "plans.json").read_text())


def test_simulate_matches_plans_to_agents_by_number(tmp_path, capsys):
    out, plans = _synthesized_pair_plans(tmp_path)
    assert main(["simulate", "--scenario", _pair_path(),
                 "--out", str(out)]) == 0
    want = {f: _sha256(out / f) for f in ("services.json", "trajectory.csv")}
    plans["agents"].reverse()
    (out / "plans.json").write_text(json.dumps(plans))
    assert main(["simulate", "--scenario", _pair_path(),
                 "--out", str(out)]) == 0
    assert {f: _sha256(out / f) for f in want} == want


@pytest.mark.parametrize("agents", [[1, 1], [2, 2], [1], [1, 2, 2], [1, 3]])
def test_simulate_needs_one_plan_per_agent(tmp_path, capsys, agents):
    out, plans = _synthesized_pair_plans(tmp_path)
    by_agent = {a["agent"]: a for a in plans["agents"]}
    plans["agents"] = [dict(by_agent[min(a, 2)], agent=a) for a in agents]
    (out / "plans.json").write_text(json.dumps(plans))
    capsys.readouterr()
    assert main(["simulate", "--scenario", _pair_path(),
                 "--out", str(out)]) == 1
    assert f"got plans for agents {sorted(agents)}" in capsys.readouterr().err


def test_simulate_refuses_cells_the_scenario_does_not_have(tmp_path, capsys):
    out, plans = _synthesized_pair_plans(tmp_path)
    cells = json.loads((out / "report.json").read_text())["abstraction"]["cells"]
    plan = plans["agents"][1]
    assert plan["agent"] == 2
    for step in plan["cycle"]:
        step["cell"] = 999
    (out / "plans.json").write_text(json.dumps(plans))
    capsys.readouterr()
    assert main(["simulate", "--scenario", _pair_path(),
                 "--out", str(out)]) == 1
    assert (f"agent 2's plan names cell 999 at step {len(plan['prefix'])}, "
            f"but the scenario has {cells} cells") in capsys.readouterr().err


def test_exhausted_combination_budget_counts_checked_combinations(tmp_path,
                                                                   capsys):
    scenario = _dump(tmp_path, STEP4_SCENARIO)
    # all 276 combinations are checked and rejected; a budget of 7 checks 7
    for budget, tried in ((10**4, 276), (7, 7)):
        assert main(["synthesize", "--scenario", scenario, "--out",
                     str(tmp_path), "--max-iters", str(budget)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["synthesis"]["step_used"] == 4
        assert report["synthesis"]["combinations_tried"] == tried


def test_check_judges_the_synthesized_plan_words(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["synthesize", "--scenario", _pair_path(),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["check", "--scenario", _pair_path(), "--out", str(out),
                 "--agent", "1"]) == 0
    assert "SATISFIED" in capsys.readouterr().out
    assert main(["check", "--scenario", _pair_path(), "--out", str(out),
                 "--agent", "1", "--formula", "G[0,1] port"]) == 2
    assert "VIOLATED" in capsys.readouterr().out
    assert main(["check", "--scenario", _pair_path(), "--out", str(out),
                 "--agent", "5"]) == 1
    assert "out of range" in capsys.readouterr().err


def test_check_reads_word_files_in_both_forms(tmp_path, capsys):
    compact = tmp_path / "compact.json"
    compact.write_text(json.dumps(
        {"dt": 0.5, "prefix": [["port"]], "cycle": [[]]}))
    assert main(["check", "--scenario", _pair_path(),
                 "--out", str(tmp_path), "--agent", "1",
                 "--word", str(compact), "--formula", "F[0,1] port"]) == 0
    explicit = tmp_path / "explicit.json"
    explicit.write_text(json.dumps({
        "prefix": [{"services": [], "time": 0},
                   {"services": ["port"], "time": "3/2"}],
        "cycle": [{"services": [], "duration": "1/2"}],
    }))
    capsys.readouterr()
    assert main(["check", "--scenario", _pair_path(),
                 "--out", str(tmp_path), "--agent", "1",
                 "--word", str(explicit), "--formula", "F[1,2] port"]) == 0
    assert "witnessed at t = 1.5" in capsys.readouterr().out


def test_malformed_word_files_fail_cleanly(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    time = "expected a number or an exact-ratio string"
    cases = [
        ({"dt": 1, "prefix": [], "cycle": []}, "malformed timed word"),
        ({"prefix": [{"services": [], "time": 0}], "cycle": []},
         "malformed timed word"),
        # no step is an object, so the word is compact and lacks dt
        ({"prefix": [], "cycle": []}, "/dt: required key is missing"),
        ({"prefix": [["port"]], "cycle": [[]]},
         "/dt: required key is missing"),
        # a boolean time used to be read as 1 or 0
        ({"dt": True, "prefix": [["port"]], "cycle": [[]]}, f"/dt: {time}"),
        ({"prefix": [{"services": ["port"], "time": False}],
          "cycle": [{"services": [], "duration": 1}]},
         f"/prefix/0/time: {time}"),
        ({"prefix": [{"services": ["port"], "time": 0}],
          "cycle": [{"services": [], "duration": True}]},
         f"/cycle/0/duration: {time}"),
    ]
    for word, message in cases:
        bad.write_text(json.dumps(word))
        assert main(["check", "--scenario", _pair_path(),
                     "--out", str(tmp_path), "--agent", "1",
                     "--word", str(bad), "--formula", "F[0,1] port"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, err
    with pytest.raises(SchemaError):
        word_from_json([1, 2, 3])


def test_check_refuses_a_schema_fault_in_another_agents_plan(tmp_path,
                                                             capsys):
    # check builds only the asked agent's plan, but still walks the file
    out, plans = _synthesized_pair_plans(tmp_path)
    assert plans["agents"][1]["agent"] == 2
    plans["agents"][1]["cycle"][0]["cell"] = 1.5
    (out / "plans.json").write_text(json.dumps(plans))
    capsys.readouterr()
    assert main(["check", "--scenario", _pair_path(), "--out", str(out),
                 "--agent", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid plans.json:")
    assert "/agents/1/cycle/0/cell" in err


def test_check_without_plans_points_at_synthesize(tmp_path, capsys):
    assert main(["check", "--scenario", _pair_path(),
                 "--out", str(tmp_path / "empty"), "--agent", "1"]) == 1
    assert "run synthesize first" in capsys.readouterr().err


@pytest.mark.parametrize("form", ["compact", "explicit"])
@pytest.mark.parametrize("letter", ["green", [""], [["port"]], {"port": 1},
                                    None])
def test_word_letters_must_be_arrays_of_service_names(tmp_path, capsys, form,
                                                      letter):
    # a string letter used to become the set of its characters
    if form == "compact":
        word = {"dt": 1, "prefix": [["port"]], "cycle": [letter]}
        where = "/cycle/0"
    else:
        word = {"prefix": [{"services": ["port"], "time": 0}],
                "cycle": [{"services": letter, "duration": 1}]}
        where = "/cycle/0/services"
    path = tmp_path / "word.json"
    path.write_text(json.dumps(word))
    assert main(["check", "--scenario", _pair_path(), "--out", str(tmp_path),
                 "--agent", "1", "--word", str(path),
                 "--formula", "F[0,5] g"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid timed word")
    assert f"{where}: expected an array of non-empty service names" in err


_BROKEN_PLANS = {
    "missing steps": ({"dt": 0.01, "agents": [{"agent": 1}]},
                      ["/agents/0/prefix", "/agents/0/cycle"]),
    "not an object": ([1, 2], [": expected a JSON object"]),
    "no agents": ({"dt": 0.01, "agents": []}, ["/agents"]),
    "bad steps": ({"dt": -1, "agents": [{"agent": 0, "prefix": [7], "cycle": [
        {"cell": 1.5, "action": ["1"], "services": "port"}]}]},
        ["/dt", "/agents/0/agent", "/agents/0/prefix/0",
         "/agents/0/cycle/0/cell", "/agents/0/cycle/0/action",
         "/agents/0/cycle/0/services"]),
    # these two used to end in a ZeroDivisionError traceback and in an
    # error without a pointer
    **{f"witness {wt}": ({"dt": 0.01, "agents": [{
        "agent": 1, "witness_time": wt, "prefix": [],
        "cycle": [{"cell": 1, "action": [1, 2], "services": []}]}]},
        ["/agents/0/witness_time: expected null or an exact-ratio string"])
       for wt in ("1/0", "abc")},
}


@pytest.mark.parametrize("command", ["check", "simulate"])
@pytest.mark.parametrize("case", sorted(_BROKEN_PLANS))
def test_malformed_plans_fail_with_a_schema_error(tmp_path, capsys, command,
                                                  case):
    plans, pointers = _BROKEN_PLANS[case]
    (tmp_path / "plans.json").write_text(json.dumps(plans))
    extra = ["--agent", "1"] if command == "check" else []
    assert main([command, "--scenario", _pair_path(), "--out", str(tmp_path),
                 *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid plans.json:")
    for pointer in pointers:
        assert pointer in err


def test_unknown_keys_are_rejected_in_every_file(tmp_path, capsys):
    # a misspelt "parameters" used to let the defaults apply, and synthesis
    # then found no plan (exit 2)
    sc = _pair_dict()
    sc["paramters"] = sc.pop("parameters")
    assert main(["synthesize", "--scenario", _dump(tmp_path, sc),
                 "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid scenario:")
    assert "/paramters: unknown key" in err
    sc = _pair_dict()
    sc["workspace"]["uper"] = [4.0]
    sc["regions"][0]["servces"] = {"1": ["port"]}
    with pytest.raises(SchemaError) as exc:
        load_scenario(_dump(tmp_path, sc))
    assert [path for path, _ in exc.value.problems] == \
        ["/workspace/uper", "/regions/0/servces"]
    out, plans = _synthesized_pair_plans(tmp_path)
    plans["agents"][0]["witnes_time"] = None
    plans["agents"][1]["cycle"][0]["cel"] = 3
    (out / "plans.json").write_text(json.dumps(plans))
    capsys.readouterr()
    assert main(["check", "--scenario", _pair_path(), "--out", str(out),
                 "--agent", "1"]) == 1
    err = capsys.readouterr().err
    assert "/agents/0/witnes_time: unknown key" in err
    assert "/agents/1/cycle/0/cel: unknown key" in err
    for word, where in (
            ({"dt": 1, "prefix": [], "cycle": [[]], "cylce": []}, "/cylce"),
            ({"dt": 1, "prefix": [], "cycle": [[]], "c/y~": []}, "/c~1y~0"),
            ({"prefix": [{"services": [], "time": 0, "duration": 1}],
              "cycle": [{"services": [], "duration": 1}]},
             "/prefix/0/duration")):
        with pytest.raises(SchemaError, match=f"{where}: unknown key"):
            word_from_json(word)


def test_numbers_must_be_finite(tmp_path, capsys):
    # json.loads reads NaN and Infinity; they used to surface as a nan
    # sampling range, a Fraction error and a malformed word without pointer,
    # and an integer too large for a float as an OverflowError traceback
    for v_max in (float("inf"), 10**400):
        sc = _pair_dict()
        sc["v_max"] = v_max
        assert main(["bounds", "--scenario", _dump(tmp_path, sc),
                     "--out", str(tmp_path)]) == 1
        assert "/v_max: expected a finite number" in capsys.readouterr().err
    out, plans = _synthesized_pair_plans(tmp_path)
    plans["dt"] = float("nan")
    (out / "plans.json").write_text(json.dumps(plans))
    capsys.readouterr()
    assert main(["check", "--scenario", _pair_path(), "--out", str(out),
                 "--agent", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid plans.json:")
    assert "/dt: expected a finite number" in err
    word = tmp_path / "word.json"
    word.write_text(json.dumps({"dt": float("inf"), "prefix": [["port"]],
                                "cycle": [[]]}))
    assert main(["check", "--scenario", _pair_path(), "--out", str(out),
                 "--agent", "1", "--word", str(word)]) == 1
    assert "/dt: expected a number or an exact-ratio string" in \
        capsys.readouterr().err


def test_repeated_commands_leave_no_cyclic_garbage(tmp_path, monkeypatch):
    # main pauses the cyclic collector, so a reference cycle built by a
    # command would pile up until the caller's next collection
    scenarios = {"pair_line": _pair_path(),
                 "path3_plane": str(SCENARIOS / "path3_plane.json"),
                 "pair_line_unsat": str(SCENARIOS / "pair_line_unsat.json"),
                 "step4": _dump(tmp_path, STEP4_SCENARIO)}
    commands = [["bounds"], ["abstract"], ["synthesize"], ["simulate"],
                ["check", "--agent", "1"], ["check", "--agent", "9"]]
    written = []
    write_json = cli._write_json
    monkeypatch.setattr(cli, "_write_json",
                        lambda path, obj: written.append((path, obj)) or
                        write_json(path, obj))
    for command in commands:  # warm-up: imports and caches of first use
        assert main([*command, "--scenario", _pair_path(),
                     "--out", str(tmp_path / "warm-up")]) in (0, 1)
    codes, left, files = {}, {}, set()
    for name, scenario in scenarios.items():
        common = ["--scenario", scenario, "--out", str(tmp_path / name)]
        for command in commands:
            case = f"{name}: {' '.join(command)}"
            written.clear()
            gc.collect()
            gc.set_debug(gc.DEBUG_SAVEALL)
            try:
                codes[case] = main([*command, *common])
                gc.collect()
                garbage = [type(o).__name__ for o in gc.garbage]
            finally:
                gc.set_debug(0)
                gc.garbage.clear()
            if garbage:
                left[case] = sorted(garbage)
            # each file is what the standard library's encoder writes
            for path, obj in written:
                assert path.read_text() == \
                    json.dumps(obj, indent=2, sort_keys=True) + "\n", case
                files.add(path.name)
    assert left == {}
    assert files == {"report.json", "services.json"}
    # the audit covers success paths, verdicts and errors
    assert codes["pair_line: simulate"] == 0
    assert codes["step4: synthesize"] == 0
    assert codes["pair_line_unsat: synthesize"] == 2
    assert codes["pair_line: check --agent 9"] == 1


@pytest.fixture
def collector():
    """Restores the cyclic collector's state after the test."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


_EXIT_CASES = {
    "exit 0": (["bounds", "--scenario", "{pair}", "--out", "{tmp}"], 0),
    "exit 1": (["bounds", "--scenario", "{tmp}/missing.json"], 1),
    "exit 2": (["synthesize", "--scenario", "{unsat}", "--out", "{tmp}"], 2),
    "exit 3": (["synthesize", "--scenario", "{pair}", "--out", "{tmp}",
                "--max-states", "10"], 3),
    "argparse error": (["synthesize", "--max-states", "0"], 1),
    "help": (["--help"], 0),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled",
                                                        "disabled"])
@pytest.mark.parametrize("case", sorted(_EXIT_CASES))
def test_main_leaves_the_collector_as_it_found_it(tmp_path, capsys,
                                                  collector, case, enabled):
    argv, code = _EXIT_CASES[case]
    names = {"pair": _pair_path(), "tmp": str(tmp_path),
             "unsat": str(SCENARIOS / "pair_line_unsat.json")}
    (gc.enable if enabled else gc.disable)()
    assert main([a.format(**names) for a in argv]) == code
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled",
                                                        "disabled"])
def test_commands_run_with_the_collector_paused(tmp_path, monkeypatch,
                                                collector, enabled):
    seen = []

    def command(args):
        seen.append(gc.isenabled())
        raise RuntimeError("escapes main")

    monkeypatch.setattr(cli, "cmd_bounds", command)
    (gc.enable if enabled else gc.disable)()
    with pytest.raises(RuntimeError):
        main(["bounds", "--scenario", _pair_path(), "--out", str(tmp_path)])
    assert seen == [False]
    assert gc.isenabled() is enabled


def test_no_collection_runs_inside_a_warm_synthesize(tmp_path, capsys,
                                                     collector):
    common = ["--scenario", _dump(tmp_path, STEP4_SCENARIO),
              "--out", str(tmp_path / "out")]
    gc.enable()
    assert main(["synthesize", *common]) == 0
    collections = []

    def record(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.callbacks.append(record)
    try:
        assert main(["synthesize", *common]) == 0
    finally:
        gc.callbacks.remove(record)
    assert collections == []


@pytest.mark.parametrize("command", ["bounds", "abstract", "synthesize",
                                     "simulate", "check"])
def test_commands_replaced_after_the_parser_is_built_are_called(
        tmp_path, monkeypatch, command):
    # Tracing wraps the cmd_* functions on the module after earlier calls
    # have built the cached parser; the wrapper must be what runs.
    common = ["--scenario", _pair_path(), "--out", str(tmp_path)]
    assert main(["bounds", *common]) == 0  # builds the parser
    seen = []
    monkeypatch.setattr(f"mas.cli.cmd_{command}",
                        lambda args: seen.append(args.command) or 0)
    extra = ["--agent", "1"] if command == "check" else []
    assert main([command, *common, *extra]) == 0
    assert seen == [command]


def test_console_script_is_installed(tmp_path):
    exe = shutil.which("mas")
    assert exe, "the 'mas' console script should be on PATH"
    proc = subprocess.run(
        [exe, "bounds", "--scenario", _pair_path(), "--out", str(tmp_path)],
        capture_output=True, text=True,
        env={**os.environ, "MAS_LOG": "INFO"})
    assert proc.returncode == 0
    assert "K2" in proc.stdout
