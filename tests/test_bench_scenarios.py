"""The benchmark's scenarios keep the artifacts recorded with the benchmark.

Each family of `perfbench/families.py` is regenerated at seeds 0-2 and run
through `synthesize` and `simulate` (with the workload's horizon and
substeps) in-process; `plans.json` and `services.json` must hash to the
digests in `perfbench/digests.json`. `trajectory.csv` is left out: its
recorded digests predate exact propagation.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from mas.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text())["digests"]


def _families():
    spec = importlib.util.spec_from_file_location(
        "perfbench_families", PERFBENCH / "families.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module.FAMILIES


FAMILIES = _families()


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_bench_scenario_artifacts_match_the_recorded_digests(
        tmp_path, capsys, family, seed):
    wl = FAMILIES[family](seed)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(wl.scenario))
    common = ["--scenario", str(scenario), "--out", str(tmp_path / "out")]
    assert main(["synthesize", *common]) == wl.expected_exit
    assert main(["simulate", *common, "--horizon", str(wl.horizon),
                 "--substeps", str(wl.substeps)]) == wl.expected_exit
    recorded = DIGESTS[family][str(seed)]
    for name in ("plans.json", "services.json"):
        digest = hashlib.sha256(
            (tmp_path / "out" / name).read_bytes()).hexdigest()
        assert digest == recorded[name], name
