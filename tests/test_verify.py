import json
from pathlib import Path

from covrad.verify import run_verification

# the report of run_verification("all", qs=(5,)) with elapsed_ms removed,
# recorded before the suites became case tables
GOLDEN = Path(__file__).with_name("verify_all_q5.json")


def without_timings(report):
    report = json.loads(json.dumps(report))
    for case in report["cases"]:
        del case["elapsed_ms"]
    return report


def test_all_suites_at_q5_match_golden_report():
    # every suite's case table at q = 5: ids, params, values, notes, status
    golden = json.loads(GOLDEN.read_text())
    assert without_timings(run_verification("all", qs=(5,))) == golden
    assert golden["summary"] == {"pass": 33, "fail": 3, "skipped": 0}


def test_k_filter_keeps_only_the_requested_dimensions():
    report = run_verification("prop7", ks=(2,))
    assert [c["claim_id"] for c in report["cases"]] == [
        "prop7-deg-kplus1-q5k2", "prop7-deg-kplus1-q7k2",
        "prop7-deg-kplus1-q9k2"]
    assert report["summary"] == {"pass": 3, "fail": 0, "skipped": 0}
