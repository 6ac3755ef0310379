"""The benchmark's tracer (`perfbench/spans.py`) against the pipeline.

``--trace 1`` wraps module globals of `mas` from outside and reads the
transition systems it builds, so a change to any of those names or readings
breaks tracing without failing an untraced run. This installs a `Tracer`,
runs ``synthesize``, ``simulate`` and ``check`` on the pair scenario in
process, and checks that the tracer's counters agree with the artifacts and
that uninstalling it restores every wrapped global.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

from mas.cli import main

from conftest import PERFBENCH

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" \
    / "pair_line.json"


def _spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_agree_with_the_artifacts(tmp_path):
    spans = _spans()
    originals = {(module, attr): getattr(module, attr)
                 for module, attr, _ in spans.WRAPPED}
    common = ["--scenario", str(SCENARIO), "--out", str(tmp_path)]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert main(["synthesize", *common]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert main(["simulate", *common]) == 0
        assert main(["check", *common, "--agent", "1"]) == 0
    finally:
        tracer.uninstall()
    for (module, attr), original in originals.items():
        assert getattr(module, attr) is original, attr

    agents = report["abstraction"]["agents"]
    counts = tracer.counts
    assert counts["abstraction.actions_enabled"] \
        == sum(a["actions"] for a in agents) == 288
    assert counts["abstraction.transitions"] \
        == sum(a["transitions"] for a in agents) == 704
    plans = json.loads((tmp_path / "plans.json").read_text())
    assert counts["synthesis.step_used"] == plans["step_used"]
    assert counts["synthesis.agent_product_states"] > 0
    assert any(span[0] == "synthesis.consistent" for span in tracer.spans)
