"""Stateful property: ``dpwarden check`` and ``dpwarden advance`` interleaved
through ``cli.main`` keep the state file equal to an in-process
``DecisionPoint`` that replays the same steps, and a rejected or erroring
step leaves the file byte-identical."""

import json
import sys
import tempfile
from pathlib import Path

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule, run_state_machine_as_test

from dpwarden.cli import main
from dpwarden.compiler import compile_policy_set, parse_policy_set
from dpwarden.core import ReleaseRequest
from dpwarden.decision import BlockDomain, DecisionPoint, TimeAxis
from dpwarden.errors import DPWardenError
from dpwarden.poset import build_poset, prune

sys.path.insert(0, str(Path(__file__).parent))
from _util import monthly_policy_doc, monthly_request_doc  # noqa: E402

BLOCKS, WINDOW, HORIZON = 4, 2, 2

# edits that make a request document malformed
_MALFORMED = (
    lambda d: d.update(pa_selection=[1, BLOCKS]),
    lambda d: d.update(pa_selection=[True]),
    lambda d: d.update(utility=float("nan")),
    lambda d: d.update(time_step="x"),
    lambda d: d.pop("mechanisms"),
    lambda d: d["mechanisms"][0]["cost_by_unit"]["user"].update(curve=[0.1]),
)


def _replay_point() -> DecisionPoint:
    ps = parse_policy_set(monthly_policy_doc())
    poset = prune(build_poset(compile_policy_set(ps), ps.unit_graph()))
    domain = BlockDomain((), BLOCKS, TimeAxis("user-month", WINDOW, HORIZON))
    return DecisionPoint(poset, ps.per_release, domain)


def _expected_exit(replay) -> int:
    """The exit code of a replayed step: its own, or 2 if it raised."""
    try:
        return replay()
    except DPWardenError:
        return 2


def test_check_and_advance_match_an_in_process_replay(tmp_path_factory):
    root = tmp_path_factory.mktemp("stateful")
    policies, rules = root / "policies.json", root / "rules.json"
    policies.write_text(json.dumps(monthly_policy_doc()))
    assert main(["compile", "--policies", str(policies), "-o", str(rules)]) == 0

    class CheckAdvance(RuleBasedStateMachine):
        @initialize()
        def fresh(self):
            run = Path(tempfile.mkdtemp(dir=root))
            self.state, self.request = run / "state.json", run / "req.json"
            self.point = _replay_point()

        def _run(self, argv, expected: int):
            before = self.state.read_bytes() if self.state.exists() else None
            assert main(argv) == expected
            if expected != 0:
                assert (self.state.read_bytes() if self.state.exists() else None) == before

        @rule(
            epsilon=st.sampled_from([0.5, 2.5, 5.0]),
            time_step=st.one_of(st.none(), st.integers(0, 6)),
            blocks=st.sampled_from([(0, 1), (2,), (0, 1, 2, 3)]),
            malformed=st.one_of(st.none(), st.sampled_from(_MALFORMED)),
        )
        def check(self, epsilon, time_step, blocks, malformed):
            doc = monthly_request_doc(epsilon, time_step, blocks)
            if malformed is not None:
                malformed(doc)
            self.request.write_text(json.dumps(doc))

            def replay():
                request = ReleaseRequest.from_dict(doc, domain_size=BLOCKS)
                return 0 if self.point.process(request).accepted else 1

            self._run(
                ["check", "--rules", str(rules), "--state", str(self.state), "--request", str(self.request),
                 "--blocks", str(BLOCKS), "--time-unit", "user-month", "--window", str(WINDOW),
                 "--horizon", str(HORIZON)],
                _expected_exit(replay),
            )

        @rule(to=st.integers(0, 8))
        def advance(self, to):
            def replay():
                if not self.state.exists():
                    raise DPWardenError("no state file")
                self.point.state.collapse_time(to)
                return 0

            self._run(["advance", "--state", str(self.state), "--to", str(to)], _expected_exit(replay))

        @invariant()
        def file_matches_replay(self):
            if self.state.exists():
                assert self.state.read_text() == json.dumps(self.point.state.to_dict())
            else:
                assert self.point.state.to_dict() == _replay_point().state.to_dict()

    run_state_machine_as_test(
        CheckAdvance, settings=settings(max_examples=25, stateful_step_count=12, deadline=None)
    )
