import json
import re
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dpwarden.accounting import calibrate_gaussian_rho, gaussian_curve, pure_curve
from dpwarden.cli import main
from dpwarden.compiler import compile_policy_set, parse_policy_set
from dpwarden.core import DEFAULT_ALPHA_ORDERS
from dpwarden.decision import MAX_WINDOW, BlockDomain, DecisionPoint
from dpwarden.poset import build_poset, prune
from dpwarden.workload import WorkloadConfig, build_policy_document, build_schema, generate_workload

sys.path.insert(0, str(Path(__file__).parent))
from _util import (  # noqa: E402
    annotated_policy_doc,
    monthly_policy_doc,
    monthly_request_doc,
    team_request_doc,
)


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


def _unit_named_with_a_newline(doc):
    doc["units"] = [{"name": "user\n"}]
    for policy in doc["base_policies"] + doc["per_release_policies"]:
        policy["unit"] = "user\n"


def _label_value_with_a_newline(doc):
    doc["base_policies"][0]["predicate"] = {"op": "has_label", "key": "k", "value": "v\n"}


@pytest.mark.parametrize("edit", [_unit_named_with_a_newline, _label_value_with_a_newline])
def test_compile_refuses_a_name_with_a_trailing_newline(tmp_path, capsys, edit):
    doc = policy_doc()
    edit(doc)
    policies, rules = tmp_path / "policies.json", tmp_path / "rules.json"
    policies.write_text(json.dumps(doc))
    assert main(["compile", "--policies", str(policies), "-o", str(rules)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not rules.exists()


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


def test_check_enforces_a_rule_its_annotation_places_below_another(tmp_path, capsys):
    policies = tmp_path / "policies.json"
    policies.write_text(json.dumps(annotated_policy_doc()))
    rules = tmp_path / "rules.json"
    assert main(["compile", "--policies", str(policies), "-o", str(rules)]) == 0
    state = tmp_path / "state.json"
    request = tmp_path / "req.json"
    check = ["check", "--rules", str(rules), "--state", str(state), "--request", str(request),
             "--blocks", "4"]
    request.write_text(json.dumps(team_request_doc(0.5, "b")))
    assert main(check) == 0
    before = state.read_bytes()
    request.write_text(json.dumps(team_request_doc(5.0, "b")))
    capsys.readouterr()
    assert main(check) == 1
    out = json.loads(capsys.readouterr().out)
    assert [v["rule"] for v in out["violations"]] == ["team_b"]
    assert state.read_bytes() == before


@pytest.mark.parametrize("scale", ["1.5", "1000", "inf", "nan", "-1"])
def test_check_refuses_a_scale_outside_the_unit_interval(tmp_path, capsys, scale):
    policies = tmp_path / "policies.json"
    policies.write_text(json.dumps(policy_doc()))
    rules = tmp_path / "rules.json"
    assert main(["compile", "--policies", str(policies), "-o", str(rules)]) == 0
    state = tmp_path / "state.json"
    request = tmp_path / "req.json"
    check = ["check", "--rules", str(rules), "--state", str(state), "--request", str(request),
             "--blocks", "4"]
    request.write_text(json.dumps(request_doc(0.75)))
    assert main(check) == 0
    before = state.read_bytes()
    capsys.readouterr()
    # the same request again overspends the epsilon-1 filter on a1
    assert main(check + ["--scale", scale]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""
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


def test_check_refuses_a_domain_too_large_to_index(tmp_path, capsys):
    argv, _, state = _check_argv(tmp_path)
    state.write_text(json.dumps({"now": 0, "domain": {"domain_size": 10**15}, "cells": {}}))
    before = state.read_bytes()
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "too large" in captured.err
    assert captured.out == ""
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

def _tree(root):
    """Every path under ``root``, with the bytes of each file."""
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


def _compile_without_policies(tmp_path):
    return ["compile", "--policies", str(tmp_path / "nope.json"), "-o", str(tmp_path / "rules.json")]


def _check_without_rules(tmp_path):
    argv, rules, _ = _check_argv(tmp_path)
    rules.unlink()
    return argv


def _check_without_request(tmp_path):
    argv, _, _ = _check_argv(tmp_path)
    (tmp_path / "req.json").unlink()
    return argv


def _check_with_state_in_missing_directory(tmp_path):
    argv, _, state = _check_argv(tmp_path)
    argv[argv.index(str(state))] = str(tmp_path / "nodir" / "state.json")
    return argv


def _simulate_without_config(tmp_path):
    return ["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "out")]


def _report_without_directory(tmp_path):
    return ["report", "--in", str(tmp_path / "nope")]


@pytest.mark.parametrize("setup", [
    _compile_without_policies,
    _check_without_rules,
    _check_without_request,
    _check_with_state_in_missing_directory,
    _simulate_without_config,
    _report_without_directory,
])
def test_missing_file_exits_2_and_writes_nothing(tmp_path, capsys, setup):
    argv = setup(tmp_path)
    before = _tree(tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert captured.out == ""
    assert _tree(tmp_path) == before


def test_report_rejects_malformed_summary(tmp_path, capsys):
    (tmp_path / "summary.json").write_text(json.dumps({"scenario": "s1"}))
    assert main(["report", "--in", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: malformed simulation summary")
    assert captured.out == ""


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


def _rules_for_other_orders(rules, request):
    rules["alpha_orders"][-1] *= 2  # a valid grid of the same length


def _short_curve_for_untracked_unit(rules, request):
    curve = [0.1] * (len(DEFAULT_ALPHA_ORDERS) - 1)
    request["mechanisms"][0]["cost_by_unit"]["device"] = {"kind": "rdp", "curve": curve}


@pytest.mark.parametrize("edit", [_rules_for_other_orders, _short_curve_for_untracked_unit])
def test_check_refuses_curves_off_the_alpha_orders(check_files, tmp_path, capsys, edit):
    check, state, request = check_files
    rules_path = check[check.index("--rules") + 1]
    rules, doc = json.loads(Path(rules_path).read_text()), request_doc(0.1)
    edit(rules, doc)
    edited_rules = tmp_path / "rules.json"
    edited_rules.write_text(json.dumps(rules))
    request.write_text(json.dumps(doc))
    argv = list(check)
    argv[argv.index(rules_path)] = str(edited_rules)
    before = state.read_bytes()
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""
    assert state.read_bytes() == before


@pytest.mark.parametrize("fields", [
    {"pa_selection": {"start": 0, "length": -5}},
    {"pa_selection": {"start": 4, "length": 2}},
    {"pa_selection": {"start": True, "length": 2}},
    {"time_step": True},
])
def test_check_refuses_a_request_count_that_is_not_a_count(check_files, capsys, fields):
    """A negative length read as an empty selection would release with no
    charge; a start outside the domain or a bool would address blocks or a
    time step the request never named."""
    check, state, request = check_files
    doc = request_doc(0.5)
    doc.update(fields)
    request.write_text(json.dumps(doc))
    before = state.read_bytes()
    capsys.readouterr()
    assert main(check) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""
    assert state.read_bytes() == before


def test_check_refuses_a_rule_set_with_a_duplicate_rule_id(check_files, tmp_path, capsys):
    check, state, _ = check_files
    rules_path = check[check.index("--rules") + 1]
    rules = json.loads(Path(rules_path).read_text())
    rules["rules"].append(dict(rules["rules"][0], budget={"kind": "adp", "epsilon": 99.0, "delta": 1e-7}))
    edited = tmp_path / "rules.json"
    edited.write_text(json.dumps(rules))
    argv = list(check)
    argv[argv.index(rules_path)] = str(edited)
    before = state.read_bytes()
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "duplicate rule id" in captured.err
    assert captured.out == "" and state.read_bytes() == before


@pytest.mark.parametrize("budget", [{"kind": "zcdp", "rho": 1.0}, {"kind": "pure_dp", "epsilon": 1.0},
                                    {"kind": "adp", "epsilon": 1.0, "delta": 0.0}])
def test_compile_refuses_a_budget_no_filter_can_enforce(tmp_path, capsys, budget):
    doc = policy_doc()
    doc["base_policies"][0]["budget"] = budget
    policies, rules = tmp_path / "policies.json", tmp_path / "rules.json"
    policies.write_text(json.dumps(doc))
    assert main(["compile", "--policies", str(policies), "-o", str(rules)]) == 2
    assert "rule 'global'" in capsys.readouterr().err
    assert not rules.exists()


@pytest.mark.parametrize("section, budget", [
    pytest.param(section, budget, id=section + suffix)
    for suffix, budget in [("", {"kind": "zcdp", "rho": 1.0}),
                           ("-adp_delta_0", {"kind": "adp", "epsilon": 1.0, "delta": 0.0})]
    for section in ("rules", "per_release_rules")
])
def test_check_refuses_a_rule_set_with_a_budget_no_filter_can_enforce(check_files, tmp_path, capsys, section,
                                                                      budget):
    check, state, _ = check_files
    rules_path = check[check.index("--rules") + 1]
    rules = json.loads(Path(rules_path).read_text())
    rules[section][0]["budget"] = budget
    edited = tmp_path / "rules.json"
    edited.write_text(json.dumps(rules))
    argv = list(check)
    argv[argv.index(rules_path)] = str(edited)
    before = state.read_bytes()
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"rule {rules[section][0]['id']!r}" in captured.err
    assert captured.out == "" and state.read_bytes() == before


def _monthly_files(tmp_path):
    """A compiled monthly rule set and the argv of a check at horizon 2;
    returns (check argv, request path, state path)."""
    policies, rules, request, state = (tmp_path / n for n in ("policies.json", "rules.json",
                                                              "req.json", "state.json"))
    policies.write_text(json.dumps(monthly_policy_doc()))
    assert main(["compile", "--policies", str(policies), "-o", str(rules)]) == 0
    check = ["check", "--rules", str(rules), "--state", str(state), "--request", str(request),
             "--blocks", "4", "--time-unit", "user-month", "--window", "2", "--horizon", "2"]
    return check, request, state


def test_check_refuses_a_window_past_the_bound(tmp_path, capsys):
    """A request without a time step makes a store for every step of the
    window, so a state file or ``--window`` past ``MAX_WINDOW`` exits 2 and
    leaves the state as it was."""
    check, request, state = _monthly_files(tmp_path)
    request.write_text(json.dumps(monthly_request_doc(0.5, None)))
    doc = {"now": MAX_WINDOW, "domain": {"domain_size": 4, "time_axis": {
        "unit": "user-month", "granular_window": MAX_WINDOW + 1, "horizon": MAX_WINDOW}}, "cells": {}}
    state.write_text(json.dumps(doc))
    before = state.read_bytes()
    capsys.readouterr()
    assert main(check) == 2
    assert "granular window" in capsys.readouterr().err
    assert state.read_bytes() == before
    assert main(["advance", "--state", str(state), "--to", str(MAX_WINDOW + 1)]) == 2
    assert state.read_bytes() == before

    state.unlink()
    check[check.index("--window") + 1] = str(MAX_WINDOW + 1)
    capsys.readouterr()
    assert main(check) == 2
    assert "granular window" in capsys.readouterr().err
    assert not state.exists()


def test_advance_lets_a_later_time_step_be_checked(tmp_path, capsys):
    check, request, state = _monthly_files(tmp_path)
    request.write_text(json.dumps(monthly_request_doc(2.5, 2)))
    assert main(check) == 0
    request.write_text(json.dumps(monthly_request_doc(2.5, 3)))
    before = state.read_bytes()
    capsys.readouterr()
    assert main(check) == 2
    assert "beyond current horizon 2" in capsys.readouterr().err
    assert state.read_bytes() == before

    assert main(["advance", "--state", str(state), "--to", "3"]) == 0
    assert json.loads(state.read_text())["now"] == 3
    capsys.readouterr()
    assert main(check) == 0
    assert json.loads(capsys.readouterr().out)["accepted"]
    # month 3 now holds one ε=2.5 release against its ε=3 budget
    assert main(check) == 1


def _advance_backwards(tmp_path):
    check, request, state = _monthly_files(tmp_path)
    request.write_text(json.dumps(monthly_request_doc(0.5, 2)))
    assert main(check) == 0
    return ["advance", "--state", str(state), "--to", "1"]


def _advance_without_state(tmp_path):
    return ["advance", "--state", str(tmp_path / "state.json"), "--to", "3"]


def _advance_without_time_axis(tmp_path):
    argv, _, state = _check_argv(tmp_path)
    assert main(argv) == 0
    return ["advance", "--state", str(state), "--to", "3"]


@pytest.mark.parametrize("setup", [_advance_backwards, _advance_without_state, _advance_without_time_axis])
def test_advance_refuses_and_leaves_the_state(tmp_path, capsys, setup):
    argv = setup(tmp_path)
    before = _tree(tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert captured.out == ""
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("utility", ["0.5", True, "inf", float("inf")])
def test_check_refuses_a_utility_that_is_not_a_finite_number(check_files, capsys, utility):
    """``float()`` would read "0.5", true and "inf" as numbers."""
    check, state, request = check_files
    doc = request_doc(0.1)
    doc["utility"] = utility
    request.write_text(json.dumps(doc))
    before = state.read_bytes()
    capsys.readouterr()
    assert main(check) == 2
    captured = capsys.readouterr()
    assert "utility must be a finite number" in captured.err and captured.out == ""
    assert state.read_bytes() == before


@pytest.fixture(scope="module")
def desk_stream(tmp_path_factory):
    """A desk s1 stream (ε 20, seed 0) taken through ``dpwarden check`` and an
    in-process ``DecisionPoint`` alike; returns (check argv, state path, point)."""
    root = tmp_path_factory.mktemp("desk")
    cfg = WorkloadConfig.desk_scale("s1", 20.0, 0)
    document = build_policy_document(cfg, build_schema(cfg))
    policies, rules, state, request = (root / n for n in ("policies.json", "rules.json", "state.json", "req.json"))
    policies.write_text(json.dumps(document))
    assert main(["compile", "--policies", str(policies), "-o", str(rules)]) == 0
    policy = parse_policy_set(document)
    point = DecisionPoint(prune(build_poset(compile_policy_set(policy), policy.unit_graph())), policy.per_release,
                          BlockDomain((), cfg.pa_domain_size))
    check = ["check", "--rules", str(rules), "--state", str(state), "--request", str(request),
             "--blocks", str(cfg.pa_domain_size)]
    verdicts = []
    for q in sorted(next(generate_workload(cfg)), key=lambda q: -q.utility)[:12]:
        request.write_text(json.dumps(q.to_dict()))
        rc = main(check)
        assert rc in (0, 1)
        verdicts.append((rc == 0, point.process(q).accepted))
    assert all(cli == in_process for cli, in_process in verdicts)
    assert sum(cli for cli, _ in verdicts) >= 2
    return check, state, point


def test_check_writes_the_state_as_json_dumps_of_to_dict(desk_stream):
    """The benchmark hashes the state file's bytes: they must stay those of
    ``json.dumps(FilterState.to_dict())``."""
    _, state, point = desk_stream
    assert state.read_bytes() == json.dumps(point.state.to_dict()).encode()


def _row_of_13_values(text):
    return re.sub(r'("curves": \[\[[^\]]*), [^,\]]+\]', r"\1]", text, count=1)


def _row_holding_1e400(text):
    return re.sub(r'("curves": \[\[)[^,\]]+', r"\g<1>1e400", text, count=1)


def _block_listed_twice(text):
    return re.sub(r'("blocks": \[(\d+)), \d+', r"\1, \2", text, count=1)


@pytest.mark.parametrize("edit", [_row_of_13_values, _row_holding_1e400, _block_listed_twice])
def test_check_refuses_a_canonical_looking_state_that_is_malformed(desk_stream, tmp_path, capsys, edit):
    check, state, _ = desk_stream
    edited = edit(state.read_text())
    assert edited != state.read_text()
    bad_state = tmp_path / "state.json"
    bad_state.write_text(edited)
    argv = list(check)
    argv[argv.index(str(state))] = str(bad_state)
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "Traceback" not in captured.err and captured.out == ""
    assert bad_state.read_text() == edited


def _readme_policy_doc():
    """README's minimal policy: a per-attribute epsilon of 1 on ``age`` and
    ``income``, and a global epsilon of 3."""
    doc = policy_doc()
    doc["attributes"] = ["age", "income"]
    doc["base_policies"][1]["attributes"] = {"age": "high", "income": "high"}
    doc["per_release_policies"] = []
    return doc


def test_check_refuses_labels_given_as_a_bare_string(tmp_path, capsys):
    """A string where a document lists names would be read as its
    characters: ``{"attr": "age"}`` as the labels a, e and g, which no
    per-attribute rule on ``age`` matches."""
    policies, rules, state, request = (tmp_path / n for n in ("policies.json", "rules.json",
                                                              "state.json", "req.json"))
    policies.write_text(json.dumps(_readme_policy_doc()))
    assert main(["compile", "--policies", str(policies), "-o", str(rules)]) == 0
    check = ["check", "--rules", str(rules), "--state", str(state), "--request", str(request),
             "--blocks", "4"]
    doc = request_doc(0.1, attrs=("income",))
    request.write_text(json.dumps(doc))
    assert main(check) == 0
    # a pure epsilon-2 release on age fits the global 3 but not age's 1
    doc["mechanisms"][0]["cost_by_unit"]["user"]["curve"] = list(pure_curve(2.0).curve)
    doc["mechanisms"][0]["labels"] = {"attr": ["age"]}
    request.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(check) == 1
    assert json.loads(capsys.readouterr().out)["violations"][0]["rule"] == "attrs.age"
    doc["mechanisms"][0]["labels"] = {"attr": "age"}
    request.write_text(json.dumps(doc))
    before = state.read_bytes()
    assert main(check) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "'attr'" in captured.err and captured.out == ""
    assert state.read_bytes() == before


def _compile_with_attrs(tmp_path, capsys, attrs):
    """Compile README's policy plus a custom rule on ``attrs``: assert that
    compile exits 2 and writes nothing, and return its error output."""
    doc = _readme_policy_doc()
    doc["base_policies"].append({
        "type": "custom", "name": "ages", "unit": "user",
        "predicate": {"op": "attr_intersects", "attrs": attrs},
        "budget": {"kind": "adp", "epsilon": 2.0, "delta": 1e-7},
        "annotation": [1],
    })
    policies, rules = tmp_path / "policies.json", tmp_path / "rules.json"
    policies.write_text(json.dumps(doc))
    assert main(["compile", "--policies", str(policies), "-o", str(rules)]) == 2
    assert not rules.exists()
    return capsys.readouterr().err


def _check_refuses(check_files, tmp_path, capsys, rules_edit=None, request=None):
    """Run ``check`` on an edited copy of the rule set or on another request:
    assert that it exits 2, prints no verdict and leaves the state file, and
    return its error output."""
    check, state, request_path = check_files
    argv = list(check)
    if rules_edit is not None:
        rules_path = check[check.index("--rules") + 1]
        rules = json.loads(Path(rules_path).read_text())
        rules_edit(rules)
        edited = tmp_path / "rules.json"
        edited.write_text(json.dumps(rules))
        argv[argv.index(rules_path)] = str(edited)
    if request is not None:
        request_path.write_text(json.dumps(request))
    before = state.read_bytes()
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""
    assert state.read_bytes() == before
    return captured.err


def _attrs_of_the_first_attribute_rule(value):
    def edit(rules):
        rule = next(r for r in rules["rules"] if r["predicate"]["op"] == "attr_intersects")
        rule["predicate"]["attrs"] = value

    return edit


def test_compile_refuses_attrs_given_as_a_bare_string(tmp_path, capsys):
    assert "attrs" in _compile_with_attrs(tmp_path, capsys, "age")


def test_check_refuses_a_rule_set_with_attrs_given_as_a_bare_string(check_files, tmp_path, capsys):
    assert "attrs" in _check_refuses(check_files, tmp_path, capsys, _attrs_of_the_first_attribute_rule("a1"))


def test_check_refuses_a_cost_curve_of_bools(check_files, tmp_path, capsys):
    """``true`` would be read as a cost of 1.0 at every order."""
    doc = request_doc(0.1)
    doc["mechanisms"][0]["cost_by_unit"]["user"]["curve"] = [True] * len(DEFAULT_ALPHA_ORDERS)
    _check_refuses(check_files, tmp_path, capsys, request=doc)


@pytest.mark.parametrize("epsilon", ['"3"', "1e400"])
def test_compile_refuses_a_budget_epsilon_that_is_not_a_finite_number(tmp_path, capsys, epsilon):
    """A string would be read as its number, and 1e400 as an infinite
    epsilon: a rule that never binds."""
    doc = policy_doc()
    doc["base_policies"][0]["budget"]["epsilon"] = "EPSILON"
    policies, rules = tmp_path / "policies.json", tmp_path / "rules.json"
    policies.write_text(json.dumps(doc).replace('"EPSILON"', epsilon))
    assert main(["compile", "--policies", str(policies), "-o", str(rules)]) == 2
    assert "epsilon" in capsys.readouterr().err
    assert not rules.exists()


def test_check_refuses_labels_given_as_a_mapping(check_files, tmp_path, capsys):
    """A mapping where a document lists names would be read as its keys."""
    doc = request_doc(0.1)
    doc["mechanisms"][0]["labels"] = {"attr": {"a1": 1}}
    assert "'attr'" in _check_refuses(check_files, tmp_path, capsys, request=doc)


def test_compile_refuses_attrs_given_as_a_mapping(tmp_path, capsys):
    assert "attrs" in _compile_with_attrs(tmp_path, capsys, {"age": 0})


def test_check_refuses_a_rule_set_with_attrs_given_as_a_mapping(check_files, tmp_path, capsys):
    edit = _attrs_of_the_first_attribute_rule({"a1": 0})
    assert "attrs" in _check_refuses(check_files, tmp_path, capsys, edit)
