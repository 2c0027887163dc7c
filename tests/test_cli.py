import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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


def test_check_rejects_malformed_state_without_writing(tmp_path, capsys):
    policies = tmp_path / "policies.json"
    policies.write_text(json.dumps(policy_doc()))
    rules = tmp_path / "rules.json"
    assert main(["compile", "--policies", str(policies), "-o", str(rules)]) == 0
    state = tmp_path / "state.json"
    request = tmp_path / "req.json"
    check = ["check", "--rules", str(rules), "--state", str(state), "--request", str(request),
             "--blocks", "4"]
    request.write_text(json.dumps(request_doc(0.1)))
    assert main(check) == 0
    doc = json.loads(state.read_text())
    cell = next(iter(next(iter(doc["cells"].values())).values()))
    cell["blocks"][0] = 7
    state.write_text(json.dumps(doc))
    before = state.read_bytes()
    capsys.readouterr()
    assert main(check) == 2
    assert "blocks must be integers in [0, 4)" in capsys.readouterr().err
    assert state.read_bytes() == before



def _check_argv(tmp_path):
    """A compiled rule set, a request and a state file not yet written."""
    policies, rules, request, state = (tmp_path / n for n in ("policies.json", "rules.json",
                                                              "req.json", "state.json"))
    policies.write_text(json.dumps(policy_doc()))
    assert main(["compile", "--policies", str(policies), "-o", str(rules)]) == 0
    request.write_text(json.dumps(request_doc(0.1)))
    return ["check", "--rules", str(rules), "--state", str(state), "--request", str(request)], rules, state


def _check_with_rule_without_budget(tmp_path):
    argv, rules, state = _check_argv(tmp_path)
    doc = json.loads(rules.read_text())
    del doc["rules"][0]["budget"]
    rules.write_text(json.dumps(doc))
    return argv, state


def _check_with_state_not_json(tmp_path):
    argv, _, state = _check_argv(tmp_path)
    state.write_text('{"now": 0, "cells": ')
    return argv, None


def _compile_adp_without_delta(tmp_path):
    doc = policy_doc()
    del doc["base_policies"][0]["budget"]["delta"]
    policies, rules = tmp_path / "policies.json", tmp_path / "rules.json"
    policies.write_text(json.dumps(doc))
    return ["compile", "--policies", str(policies), "-o", str(rules)], rules


def _simulate_rounds_string(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rounds": "x"}))
    return ["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")], tmp_path / "out"


@pytest.mark.parametrize("setup", [
    _check_with_rule_without_budget,
    _check_with_state_not_json,
    _compile_adp_without_delta,
    _simulate_rounds_string,
])
def test_malformed_document_exits_2_and_writes_nothing(tmp_path, capsys, setup):
    argv, output = setup(tmp_path)
    before = {f: f.read_bytes() for f in tmp_path.iterdir() if f.is_file()}
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed") and "Traceback" not in err
    assert output is None or not output.exists()
    assert {f: f.read_bytes() for f in tmp_path.iterdir() if f.is_file()} == before

@pytest.fixture(scope="module")
def check_files(tmp_path_factory):
    """A compiled rule set and a state file holding one accepted request."""
    root = tmp_path_factory.mktemp("check")
    policies, rules, state, request = (root / n for n in ("policies.json", "rules.json",
                                                          "state.json", "req.json"))
    policies.write_text(json.dumps(policy_doc()))
    assert main(["compile", "--policies", str(policies), "-o", str(rules)]) == 0
    check = ["check", "--rules", str(rules), "--state", str(state), "--request", str(request),
             "--blocks", "4"]
    request.write_text(json.dumps(request_doc(0.1)))
    assert main(check) == 0
    return check, state, request


_bad_block = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.floats(),
    st.lists(st.integers(0, 3), min_size=1, max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
    st.integers(min_value=4, max_value=2**80),
    st.integers(max_value=-1),
)
_malformed_fields = st.one_of(
    st.lists(st.integers(0, 3), max_size=3).flatmap(
        lambda good: st.tuples(st.integers(0, len(good)), _bad_block).map(
            lambda ib: {"pa_selection": good[:ib[0]] + [ib[1]] + good[ib[0]:]}
        )
    ),
    st.lists(st.lists(st.integers(0, 3), max_size=2), min_size=1, max_size=3).map(
        lambda nested: {"pa_selection": nested}
    ),
    st.sampled_from([float("nan"), float("-inf"), -1.0]).map(lambda u: {"utility": u}),
    st.text(alphabet="xyz -", max_size=4).map(lambda u: {"utility": u}),
    st.one_of(st.text(max_size=3), st.floats(), st.integers(max_value=-1), st.lists(st.integers(), max_size=2))
    .map(lambda t: {"time_step": t}),
    st.sampled_from([{}, {"start": 0}, {"length": 2}, {"start": "0", "length": 2}, {"start": 0, "length": None}])
    .map(lambda interval: {"pa_selection": interval}),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fields=_malformed_fields)
def test_malformed_request_exits_2_and_leaves_state(check_files, capsys, fields):
    check, state, request = check_files
    doc = request_doc(0.1)
    doc.update(fields)
    request.write_text(json.dumps(doc))
    before = state.read_bytes()
    capsys.readouterr()
    assert main(check) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert state.read_bytes() == before
