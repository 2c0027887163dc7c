"""Every document dpwarden reads fails closed.

Each property takes a valid document, deletes a key or replaces a value with
``None``, a string, a list, a dict or NaN at a random path, and requires the
loader to return or raise a ``DPWardenError``, never a builtin exception.
Through ``cli.main`` the same mutations exit 0, 1 or 2 without a traceback,
and leave the state file byte-identical unless the request was accepted.
"""

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dpwarden.accounting import calibrate_gaussian_rho, gaussian_curve
from dpwarden.cli import _load_rules, main
from dpwarden.compiler import parse_policy_set
from dpwarden.core import ReleaseRequest
from dpwarden.decision import FilterState
from dpwarden.errors import DPWardenError
from dpwarden.workload import WorkloadConfig

_DELETE = object()
_REPLACEMENTS = st.one_of(
    st.just(_DELETE),
    st.none(),
    st.text(max_size=3),
    st.lists(st.integers(-2, 5), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 5), max_size=1),
    st.just(float("nan")),
)


@st.composite
def mutated(draw, doc):
    """A copy of ``doc`` with one key deleted or one value replaced, at a
    path found by a random walk from the root (shallow paths weigh more)."""
    out = copy.deepcopy(doc)
    node = out
    while True:
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if not (isinstance(child, (dict, list)) and child and draw(st.booleans())):
            break
        node = child
    value = draw(_REPLACEMENTS)
    if value is _DELETE:
        del node[key]
    else:
        node[key] = value
    return out


def _adp(eps):
    return {"kind": "adp", "epsilon": eps, "delta": 1e-7}


def policy_doc():
    """Every policy kind, a budget function of each kind, a unit scope and
    a time-based unit."""
    return {
        "units": [
            {"name": "user", "group_factor_to": {"user-month": 1}},
            {"name": "user-month", "above": ["user"]},
        ],
        "attributes": ["a1", "a2"],
        "categories": ["c1"],
        "base_policies": [
            {"type": "custom", "name": "global", "unit": "user",
             "predicate": {"op": "true"}, "budget": _adp(3.0)},
            {"type": "custom", "name": "monthly", "unit": "user-month",
             "predicate": {"op": "has_label", "key": "data", "value": "time"},
             "budget": _adp(2.0)},
            {"type": "per_attribute", "name": "attrs", "unit": "user",
             "risk_budgets": {"high": _adp(1.0)}, "attributes": {"a1": "high", "a2": _adp(1.5)}},
            {"type": "category", "name": "cats", "unit": "user",
             "risk_budgets": {"low": _adp(2.5)}, "categories": {"c1": "low"},
             "membership": {"a1": {"c1": "member"}, "a2": {"c1": "weak"}},
             "level_functions": {"strong": {"kind": "scale", "factor": 1.1},
                                 "weak": {"kind": "map_table", "knots": [[1.0, 2.0], [3.0, 4.0]]}}},
        ],
        "extension_policies": [
            {"name": "context", "extensions": [
                {"name": "standard", "rank": 0, "budget_fn": {"kind": "identity"},
                 "predicate": {"op": "has_label", "key": "context", "value": "standard"}},
                {"name": "total", "rank": 1, "budget_fn": {"kind": "scale", "factor": 2.0},
                 "predicate": {"op": "true"}, "unit_scope": ["user"]},
            ]},
        ],
        "per_release_policies": [
            {"name": "cap", "unit": "user", "budget": _adp(0.9),
             "predicate": {"op": "and", "parts": [{"op": "true"}, {"op": "not", "part": {
                 "op": "or", "parts": [{"op": "attr_intersects", "attrs": ["a2"]}]}}]}},
        ],
    }


def request_doc(eps=0.1, time_step=3, selection=None):
    curve = list(gaussian_curve(calibrate_gaussian_rho(eps, 1e-7)).curve)
    cost = {"kind": "rdp", "curve": curve}
    doc = {
        "request_id": "q",
        "mechanisms": [{
            "labels": {"attr": ["a1"], "data": ["time"], "context": ["standard"]},
            "cost_by_unit": {"user": cost, "user-month": dict(cost)},
        }],
        "pa_selection": {"start": 3, "length": 2} if selection is None else selection,
        "utility": 1.0,
    }
    if time_step is not None:
        doc["time_step"] = time_step
    return doc


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A compiled rule set and a state file with hist, step and future
    cells, plus the ``check`` command line that reads them."""
    root = tmp_path_factory.mktemp("documents")
    paths = {n: root / f"{n}.json" for n in ("policies", "rules", "state", "request")}
    paths["policies"].write_text(json.dumps(policy_doc()))
    assert main(["compile", "--policies", str(paths["policies"]), "-o", str(paths["rules"])]) == 0
    check = ["check", "--rules", str(paths["rules"]), "--state", str(paths["state"]),
             "--request", str(paths["request"]), "--blocks", "4",
             "--time-unit", "user-month", "--window", "2", "--horizon", "3"]
    for doc in (request_doc(time_step=1), request_doc(time_step=None), request_doc(selection=[0, 2])):
        paths["request"].write_text(json.dumps(doc))
        assert main(check) == 0
    state = json.loads(paths["state"].read_text())
    assert set(state["cells"]["monthly|context=total"]) == {"hist", "t2", "t3", "future"}
    return paths, check, paths["state"].read_bytes()


def _loads_or_fails_closed(load, doc):
    try:
        load(doc)
    except DPWardenError:
        pass


_loader_settings = settings(max_examples=150, deadline=None)


@_loader_settings
@given(doc=mutated(policy_doc()))
def test_policy_document_fails_closed(doc):
    _loads_or_fails_closed(parse_policy_set, doc)


@_loader_settings
@given(data=st.data())
def test_rule_set_fails_closed(files, data):
    paths, _, _ = files
    doc = data.draw(mutated(json.loads(paths["rules"].read_text())))
    target = paths["rules"].with_name("mutated-rules.json")
    target.write_text(json.dumps(doc))
    _loads_or_fails_closed(_load_rules, str(target))


@_loader_settings
@given(doc=mutated(request_doc()))
def test_release_request_fails_closed(doc):
    _loads_or_fails_closed(lambda d: ReleaseRequest.from_dict(d, domain_size=4), doc)


@_loader_settings
@given(data=st.data())
def test_state_fails_closed(files, data):
    paths, _, _ = files
    _loads_or_fails_closed(FilterState.from_dict, data.draw(mutated(json.loads(paths["state"].read_text()))))


@_loader_settings
@given(doc=mutated(WorkloadConfig().to_dict()))
def test_workload_config_fails_closed(doc):
    _loads_or_fails_closed(WorkloadConfig.from_dict, doc)


_TINY_CONFIG = WorkloadConfig(scenario="s3", rounds=2, requests_per_round=4.0, pa_domain_size=16,
                              pa_range_unit=8, n_attributes=10, n_categories=3).to_dict()


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=mutated(_TINY_CONFIG))
def test_simulate_with_mutated_config_fails_closed(tmp_path, capsys, doc):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code in (0, 2)
    assert "Traceback" not in err


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), which=st.sampled_from(["rules", "request"]))
def test_check_with_mutated_document_fails_closed(files, capsys, data, which):
    paths, check, state = files
    docs = {"rules": json.loads(paths["rules"].read_text()), "request": request_doc()}
    docs[which] = data.draw(mutated(docs[which]))
    command = list(check)
    for name, doc in docs.items():
        target = paths[name].with_name(f"mutated-{name}.json")
        target.write_text(json.dumps(doc))
        command[command.index(str(paths[name]))] = str(target)
    paths["state"].write_bytes(state)
    capsys.readouterr()
    code = main(command)
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code != 0:
        assert paths["state"].read_bytes() == state
    if code == 2:
        assert err.startswith("error:")
