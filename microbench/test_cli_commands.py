"""Microbenchmarks of whole commands, run in process through
``mas.cli.main`` on the two-agent scenario of ``test_synthesis_layers``
(step 4 plans, 865 + 52 steps per agent):

* ``synthesize``: bounds, abstraction, synthesis and its artifacts;
* ``simulate`` from the saved plans.json, then ``check`` for each agent
  against that plans.json, the validation the benchmark times.

The cyclic collector is left enabled around the calls (pytest-benchmark's
default), as for any in-process caller; ``main`` pauses it for each command.

Time them from the repository root; the default test run runs each once
with ``--benchmark-disable`` (tests/test_microbench.py):

    PYTHONPATH=src python -m pytest microbench --benchmark-min-rounds=5
"""

from __future__ import annotations

import json

import pytest

from mas.cli import main

from test_synthesis_layers import SCENARIO


@pytest.fixture
def common(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(SCENARIO))
    return ["--scenario", str(scenario), "--out", str(tmp_path / "run")]


def test_synthesize_command(benchmark, common, capsys):
    assert benchmark(main, ["synthesize", *common]) == 0
    assert "plans found (step 4" in capsys.readouterr().out


def test_simulate_and_check_commands(benchmark, common, capsys):
    assert main(["synthesize", *common]) == 0

    def validate():
        return [main(["simulate", *common])] + [
            main(["check", *common, "--agent", str(agent)])
            for agent in (1, 2)]

    assert benchmark(validate) == [0, 0, 0]
    printed = capsys.readouterr().out
    rounds = printed.count("reusing")
    assert rounds > 0 and printed.count("SATISFIED") == 2 * rounds
