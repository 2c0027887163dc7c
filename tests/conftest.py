"""Fixtures shared by more than one test module."""

from types import SimpleNamespace

import numpy as np
import pytest

from dpwarden.workload import (
    WorkloadConfig,
    _zipf_probs,
    build_schema,
    generate_workload,
    sample_category_assignment,
    sample_month,
)

SAMPLES = 100_000


@pytest.fixture(scope="session")
def sampling_draws():
    """The large draws behind the sampling statistics, made once for the
    tests in ``test_workload`` and ``test_acceptance`` that assert on them:
    an s1 workload of about 102,000 requests (seed 1), of which the first
    100,000 are kept as the label features those tests read; 100,000
    category assignments; and 100,000 month draws with month 6 current."""
    cfg = WorkloadConfig(scenario="s1", total_epsilon=10.0, rounds=20, requests_per_round=5100.0, rng_seed=1)
    requests = [q for batch in generate_workload(cfg, build_schema(cfg)) for q in batch]
    labels = [q.mechanisms[0].labels for q in requests[:SAMPLES]]
    cat_cfg = WorkloadConfig(scenario="s2")
    cat_probs = _zipf_probs(cat_cfg.n_categories, cat_cfg.cat_zipf_exponent)
    cat_rng = np.random.default_rng(2)
    month_cfg = WorkloadConfig(scenario="s3")
    month_rng = np.random.default_rng(3)
    return SimpleNamespace(
        n_requests=len(requests),
        attr_counts=np.array([len(lab.attrs) for lab in labels]),
        ml=np.array([bool(lab.values("mech") & {"dpsgd", "pate"}) for lab in labels]),
        blackbox=np.array([lab.has("context", "blackbox-ml") for lab in labels]),
        category_counts=np.array(
            [len(sample_category_assignment(cat_rng, cat_cfg, cat_probs)) for _ in range(SAMPLES)]
        ),
        months=np.array([sample_month(month_rng, month_cfg, 6) for _ in range(SAMPLES)]),
    )
