"""End-to-end harness checks: the fuzzer is clean on main and
bit-deterministic, and the CLI agrees."""

import json

import pytest

from repro.validate import generate_scenario, run_scenario
from repro.validate.__main__ import main


def _report(master_seed, index):
    return run_scenario(generate_scenario(master_seed, index).to_dict())


@pytest.mark.parametrize("index", range(12))
def test_fuzz_scenarios_hold_all_invariants_on_main(index):
    report = _report(7, index)
    assert report["violations"] == [], report["violations"]
    # the scenario actually exercised the stack
    assert report["stats"]["frames_offered"] > 0
    assert report["stats"]["channels"] >= 1


def test_reports_are_bit_deterministic():
    spec = generate_scenario(7, 3).to_dict()
    a, b = run_scenario(spec), run_scenario(spec)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_permanent_fault_scenario_converges_to_peer_death():
    """Find a generated peer-death case and check it ends in dead peers
    with zero violations (the retry budget converges)."""
    from repro.validate import Scenario

    for index in range(40):
        scenario = generate_scenario(7, index)
        if scenario.permanent_fault:
            break
    else:
        pytest.skip("no permanent-fault scenario in the first 40")
    report = run_scenario(scenario.to_dict())
    assert report["violations"] == []


def test_receiver_blocked_by_dead_sender_parks_later_messages():
    """Replay of ``generate_scenario(2003, 16)``: CLIC on a 3-node chain,
    node 0 out for good.  Node 2's one pending receive matched node 0's
    message at its first fragment, so node 1's message to node 2
    completes in the module but stays parked for a receive the blocked
    application never makes.  That is accounted, not a violation."""
    from repro.validate import Scenario
    from repro.validate.runner import execute

    spec = generate_scenario(2003, 16).to_dict()
    assert run_scenario(spec)["violations"] == []
    record = execute(Scenario.from_dict(spec))
    channel = record["channels"]["1->2"]
    assert channel["received"] == []
    assert channel["parked"] == channel["sent"] == [[0, 20000]]
    assert record["channels"]["0->2"]["sender"]["failed"]
    assert {"name": "fuzz-rx2", "node": 2, "role": "rx"} in record["procs_unfinished"]


def test_cli_fuzz_clean_campaign(tmp_path, capsys):
    rc = main(["fuzz", "--budget", "6", "--seed", "11", "--out", str(tmp_path)])
    assert rc == 0
    assert list(tmp_path.glob("REPLAY_*.json")) == []
    out = capsys.readouterr().out
    assert "0 failing" in out


def test_cli_replay_rejects_unknown_schema(tmp_path, capsys):
    bogus = tmp_path / "REPLAY_bogus.json"
    bogus.write_text(json.dumps({"schema": "repro.validate/999"}))
    assert main(["replay", str(bogus)]) == 2
