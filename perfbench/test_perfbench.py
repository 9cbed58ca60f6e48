"""Tests of the benchmark's oracles, tracer and failure exit."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from threebraid import embed, goeritz  # noqa: E402
from threebraid.braid import AltBraidWord  # noqa: E402

SMALL = workloads.alt_knot_words(8)


@pytest.fixture(scope="module")
def u1_answers():
    _, answers = workloads.run_pass("sweep", SMALL, "1:0")
    return answers


def test_small_sweep_passes_its_oracle(u1_answers):
    assert workloads.check("sweep", SMALL, u1_answers) == (0, [])


def _first(answers, verdict):
    return next(i for i, a in enumerate(answers)
                if a["verdict"] == verdict and a["determinant"] > 1)


def test_u1_oracle_rejects_a_flipped_verdict(u1_answers):
    answers = [dict(a) for a in u1_answers]
    i = _first(answers, "obstructed")
    answers[i]["verdict"] = "witness"
    failed, msgs = workloads.check("sweep", SMALL, answers)
    assert failed == 1 and "family test" in msgs[0]


def test_u1_oracle_rejects_an_unverified_witness(u1_answers):
    answers = json.loads(json.dumps(u1_answers))
    i = _first(answers, "witness")
    answers[i]["witnesses"][0]["verified"] = False
    assert workloads.check("sweep", SMALL, answers)[0] == 1


def test_u1_oracle_rejects_an_error_and_a_wrong_histogram(u1_answers):
    answers = list(u1_answers)
    answers[0] = {"word": SMALL[0].to_json(), "error": "RuntimeError: boom"}
    assert workloads.check("sweep", SMALL, answers)[0] == 1
    assert workloads.check("sweep", SMALL, answers[1:])[0] == len(SMALL)
    witness = next(a for a in u1_answers if a["stage"] == "witness")
    crowd = [witness] * (workloads.DEEP_STAGES["witness"] + 3)
    words = [AltBraidWord(tuple(map(tuple, witness["word"])))] * len(crowd)
    failed, msgs = workloads.check("deep", words, crowd)
    assert failed == 3 and "histogram" in msgs[-1]


def test_symmetry_oracle():
    w87 = AltBraidWord(((4, 1), (1, 2)))          # u = 1, cyclic cokernel
    passed, sides = embed.word_symmetry_obstruction(w87)
    good = {"word": w87.to_json(), "passed": passed, "sides": sides}
    assert passed
    assert workloads.check("symmetry", [w87], [good])[0] == 0
    fired = dict(good, passed=False)
    assert workloads.check("symmetry", [w87], [fired])[0] == 1
    refused = {"word": w87.to_json(), "refused": [3, 3]}
    assert workloads.check("symmetry", [w87], [refused])[0] == 1


def _partials_answer():
    return {"counts": {str(r): n for r, n in workloads.PARTIALS_COUNTS.items()},
            "columns_ok": [True] * sum(workloads.PARTIALS_COUNTS.values()),
            "structures": [[1, 2]] * workloads.PARTIALS_STRUCTURES,
            "blocked": True}


def test_partials_oracle():
    total = sum(workloads.PARTIALS_COUNTS.values())
    assert workloads.check("partials", [7], [_partials_answer()]) == (0, [])
    wrong = _partials_answer()
    wrong["columns_ok"][5] = False
    assert workloads.check("partials", [7], [wrong])[0] == 1
    wrong = _partials_answer()
    wrong["counts"]["7"] = 76
    assert workloads.check("partials", [7], [wrong])[0] == total
    wrong = _partials_answer()
    wrong["structures"][0] = [0, 3]
    assert workloads.check("partials", [7], [wrong])[0] == 1
    wrong = _partials_answer()
    wrong["blocked"] = False
    assert workloads.check("partials", [7], [wrong])[0] == total


def test_tracer_self_times_add_up_to_request_wall(u1_answers):
    tracer = tracing.Tracer()
    original = embed.criterion_search
    tracer.install()
    try:
        # a from-import binding site shares the one wrapper, so no call
        # is counted twice
        assert embed.goeritz_3braid is goeritz.goeritz_3braid
        assert embed.goeritz_3braid.__wrapped__ is not None
        timings, answers = workloads.run_pass("sweep", SMALL, "1:0", tracer)
    finally:
        tracer.uninstall()
    assert embed.criterion_search is original
    assert answers == u1_answers
    own = tracing.self_times(tracer.spans)
    per_request = {}
    for span, t in zip(tracer.spans, own):
        per_request[span[4]] = per_request.get(span[4], 0.0) + t
    roots = [s for s in tracer.spans if s[0] == tracing.ROOT]
    assert len(roots) == len(SMALL)
    for root, (_, _, latency) in zip(roots, timings):
        total = per_request[root[4]]
        assert total == pytest.approx(root[2] - root[1], abs=1e-9)
        # the root span sits inside the timed request, closing only the
        # tracer's own bookkeeping out
        assert total <= latency < total + 1e-3 + 0.05 * total
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["embed.criterion_search.calls"][0] > 0
    assert metrics["linalg.det.calls"][0] > 0
    assert metrics["forms.d_table_sharp.calls"][0] == 0


def test_host_speed_scales_by_the_nearby_probes():
    host = hostspeed.HostSpeed()
    ref = hostspeed.REFERENCE_S
    host.samples = [(0.0, 2 * ref), (0.1, 2 * ref), (5.0, ref / 2)]
    # a host running the probe at half speed doubled the request's time
    assert host.scaled(0.05, 0.2, 0.1) == pytest.approx(0.05)
    assert host.scaled(5.0, 5.1, 0.1) == pytest.approx(0.2)


def test_host_speed_probes_are_left_out_of_request_time():
    words = workloads.inputs("deep", "2:0")[:2]      # about 0.2 s each
    host = hostspeed.HostSpeed()
    host.start()
    try:
        timings, answers = workloads.run_pass("deep", words, "2:0", host=host)
    finally:
        host.stop()
    assert host.samples and host.stolen > 0
    removed = 0.0
    for start, end, busy in timings:
        if any(start <= at <= end for at, _ in host.samples):
            assert end - start - busy > 0
        else:
            assert busy == pytest.approx(end - start, abs=1e-9)
        removed += end - start - busy
    assert 0 < removed <= host.stolen + 1e-9
    assert workloads.check("deep", words, answers) == (0, [])


def test_a_pass_shorter_than_the_probe_interval_is_scaled():
    host = hostspeed.HostSpeed()
    host.start()
    try:
        timings, _ = workloads.run_pass("sweep", SMALL[:1], "3:0", host=host)
    finally:
        host.stop()
    (start, end, busy), = timings
    assert end - start < hostspeed.INTERVAL_S
    assert host.scaled(start, end, busy) > 0


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 0.5) == 50
    assert run.percentile(values, 0.9) == 90


def test_a_batch_counts_each_member_it_delivers():
    passes = [{"t": [2.0]}, {"t": [3.0]}]
    metrics = run._latency_metrics(passes, "t", per_answer=129)
    assert metrics["throughput_ops_s"][0] == pytest.approx(2 * 129 / 5.0)
    assert metrics["latency_p50_ms"][0] == 2000.0
    assert metrics["latency_p90_ms"][0] == 3000.0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_declared_metrics_are_the_ones_reported():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = set(tracing.layer_metrics([])) | {"trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == per_layer
    end_to_end = set(run._latency_metrics([{"t": [1.0]}], "t", 1))
    end_to_end |= {"setup_s", "peak_rss_mb"}
    assert {m["name"] for m in spec["end_to_end"]} == end_to_end
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
