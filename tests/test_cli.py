import json

import pytest

from dpwarden.accounting import calibrate_gaussian_rho, gaussian_curve
from dpwarden.cli import main


def policy_doc():
    return {
        "units": [{"name": "user"}],
        "attributes": ["a1", "a2"],
        "categories": [],
        "base_policies": [
            {
                "type": "custom",
                "name": "global",
                "unit": "user",
                "predicate": {"op": "true"},
                "budget": {"kind": "adp", "epsilon": 3.0, "delta": 1e-7},
            },
            {
                "type": "per_attribute",
                "name": "attrs",
                "unit": "user",
                "risk_budgets": {"high": {"kind": "adp", "epsilon": 1.0, "delta": 1e-7}},
                "attributes": {"a1": "high", "a2": "high"},
            },
        ],
        "extension_policies": [],
        "per_release_policies": [
            {
                "name": "single_release_cap",
                "predicate": {"op": "true"},
                "unit": "user",
                "budget": {"kind": "adp", "epsilon": 0.9, "delta": 1e-7},
            }
        ],
    }


def request_doc(eps, attrs=("a1",)):
    curve = gaussian_curve(calibrate_gaussian_rho(eps, 1e-7))
    return {
        "request_id": "q",
        "mechanisms": [
            {
                "labels": {"attr": list(attrs)},
                "cost_by_unit": {"user": {"kind": "rdp", "curve": list(curve.curve)}},
            }
        ],
        "pa_selection": {"start": 0, "length": 2},
        "utility": 1.0,
    }


def test_compile_check_cycle(tmp_path, capsys):
    policies = tmp_path / "policies.json"
    policies.write_text(json.dumps(policy_doc()))
    rules = tmp_path / "rules.json"
    dot = tmp_path / "rules.dot"
    assert main(["compile", "--policies", str(policies), "-o", str(rules), "--dot", str(dot)]) == 0
    capsys.readouterr()
    payload = json.loads(rules.read_text())
    assert payload["format"] == "dpwarden-rules"
    assert len(payload["rules"]) == 3  # nothing prunable: attr budgets below global
    assert dot.read_text().startswith("digraph")

    state = tmp_path / "state.json"
    req_ok = tmp_path / "req1.json"
    req_ok.write_text(json.dumps(request_doc(0.75)))
    code = main([
        "check", "--rules", str(rules), "--state", str(state),
        "--request", str(req_ok), "--blocks", "4",
    ])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["accepted"]
    assert state.exists()

    # second identical request trips the per-attribute epsilon-1 filter
    code = main([
        "check", "--rules", str(rules), "--state", str(state),
        "--request", str(req_ok), "--blocks", "4",
    ])
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and not out["accepted"]
    assert out["violations"][0]["rule"].startswith("attrs.a1")

    # per-release stage rejects an oversized single mechanism outright
    req_big = tmp_path / "req2.json"
    req_big.write_text(json.dumps(request_doc(1.5, attrs=("a2",))))
    code = main([
        "check", "--rules", str(rules), "--state", str(state),
        "--request", str(req_big), "--blocks", "4",
    ])
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and out["stage"] == "per_release"


def test_simulate_and_report(tmp_path, capsys):
    cfg = {
        "scenario": "s3",
        "total_epsilon": 10.0,
        "rounds": 2,
        "requests_per_round": 6.0,
        "pa_domain_size": 32,
        "pa_range_unit": 16,
        "rng_seed": 5,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg_path), "--mode", "dpolicy",
                 "--out", str(out_dir)]) == 0
    capsys.readouterr()
    assert (out_dir / "rounds.csv").exists()
    assert (out_dir / "summary.json").exists()
    assert main(["report", "--in", str(out_dir)]) == 0
    text = capsys.readouterr().out
    assert "scenario=s3" in text and "total utility" in text


def test_cli_reports_domain_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"units": []}))
    rules = tmp_path / "rules.json"
    bad_doc = policy_doc()
    bad_doc["extension_policies"] = [{"name": "e", "extensions": []}]
    bad.write_text(json.dumps(bad_doc))
    assert main(["compile", "--policies", str(bad), "-o", str(rules)]) == 2
    assert "error:" in capsys.readouterr().err


def test_check_rejects_out_of_range_block_without_writing(tmp_path, capsys):
    policies = tmp_path / "policies.json"
    policies.write_text(json.dumps(policy_doc()))
    rules = tmp_path / "rules.json"
    assert main(["compile", "--policies", str(policies), "-o", str(rules)]) == 0
    state = tmp_path / "state.json"
    request = tmp_path / "req.json"
    check = ["check", "--rules", str(rules), "--state", str(state), "--request", str(request),
             "--blocks", "4"]
    request.write_text(json.dumps(request_doc(0.5)))
    assert main(check) == 0
    before = state.read_bytes()
    doc = request_doc(0.1)
    doc["pa_selection"] = [1, 4]
    request.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(check) == 2
    assert "outside the domain" in capsys.readouterr().err
    assert state.read_bytes() == before
