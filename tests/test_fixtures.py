import json
import os

import pytest

from recykl.fixtures import regenerate_fixtures, verify_fixture

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")
FIXTURES = sorted(
    f for f in os.listdir(FIXTURE_DIR)
    if f.endswith(".json") and f != "acceptance_calibration.json"
)


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_reproduces(name):
    mismatches = verify_fixture(os.path.join(FIXTURE_DIR, name))
    assert mismatches == {}, mismatches


def test_identity_like_fixture_shape():
    payload = json.load(open(os.path.join(FIXTURE_DIR, "identity_like.json")))
    assert payload["frozen"]["stage3_iters"] == [1]


def test_invariant_matrix_zero_stage3_after_first():
    payload = json.load(open(os.path.join(FIXTURE_DIR, "invariant_matrix.json")))
    iters = payload["frozen"]["stage3_iters"]
    assert iters[0] > 0
    assert all(k == 0 for k in iters[1:])


def test_drift_fixture_converged():
    payload = json.load(open(os.path.join(FIXTURE_DIR, "drifting_pod.json")))
    assert payload["frozen"]["converged"]
    assert len(payload["frozen"]["stage3_iters"]) == 6


def test_regeneration_idempotent(tmp_path):
    first = regenerate_fixtures(tmp_path)
    contents = {name: open(path).read() for name, path in first.items()}
    second = regenerate_fixtures(tmp_path)
    for name, path in second.items():
        assert open(path).read() == contents[name]


def test_calibration_record_consistent():
    from recykl.fixtures import (
        POD_VS_NOTRUNC_MAX_RATIO,
        WEIGHT_STUDY_DIMS,
        WEIGHT_STUDY_FACTOR,
    )

    payload = json.load(open(os.path.join(FIXTURE_DIR, "acceptance_calibration.json")))
    thresholds = payload["thresholds"]
    assert thresholds["pod_vs_notrunc_max_ratio"] == POD_VS_NOTRUNC_MAX_RATIO
    assert tuple(thresholds["weight_study_dims"]) == WEIGHT_STUDY_DIMS
    assert thresholds["weight_study_factor"] == WEIGHT_STUDY_FACTOR
    measured = payload["measured"]
    assert measured["pod_vs_notrunc_ratio"] <= POD_VS_NOTRUNC_MAX_RATIO
    assert sum(measured["notrunc_stage3"]) < sum(measured["pcg_stage3"])
