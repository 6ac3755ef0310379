"""The benchmark's scenarios keep the artifacts recorded with the benchmark.

Each family of `perfbench/families.py` is regenerated at seeds 0-2 and run
through `synthesize` and `simulate` (with the workload's horizon and
substeps) in-process; `plans.json` and `services.json` must hash to the
digests in `perfbench/digests.json`. The recorded `trajectory.csv` digests
predate exact propagation, so the trajectory is checked for its shape
instead: one data row per node, every field in its shortest repr.
"""

import hashlib
import json

import pytest

from mas.cli import main

from conftest import PERFBENCH, bench_families

DIGESTS = json.loads((PERFBENCH / "digests.json").read_text())["digests"]
FAMILIES = bench_families()


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
    rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[1:]
    assert len(rows) == wl.horizon * wl.substeps + 1
    width = 1 + wl.scenario["agents"] * wl.scenario["dimension"]
    for row in rows:
        fields = row.split(",")
        assert len(fields) == width
        # repr round-trips, so this holds exactly for the canonical text
        assert fields == [repr(float(f)) for f in fields], row
