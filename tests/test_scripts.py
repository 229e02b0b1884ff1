"""Smoke tests for the command-line scripts under ``scripts/``.

The scripts import solver names directly, so a refactor that renames or
deletes one of them breaks a script without breaking any other test.
``validate_random`` is also an oracle cross-check on general-integer
instances, and ``bench_pairs`` runs the benchmark briefly.
"""

import hashlib
import importlib.util
import json
import re
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, argv",
    [
        ("two_phase_experiment", ["--size", "2", "--quiet"]),
        (
            "validate_random",
            ["--binary", "3", "--mixed", "2", "--integer", "2", "--mknap", "1"],
        ),
        (
            "transcript",
            ["--binary", "4", "--mixed", "2", "--integer", "2", "--every", "2",
             "--desk", "1", "--pigeonhole", "4"],
        ),
    ],
    ids=["two_phase_experiment", "validate_random", "transcript"],
)
def test_script_main_succeeds(name, argv, capsys):
    assert _load(name).main(argv) == 0
    if name == "transcript":
        # PHP(4, 3)'s reasons all propagate tightly.
        last = capsys.readouterr().out.splitlines()[-1]
        assert re.fullmatch(r"analyze steps( [a-z-]+=\d+)+ results( [a-z_]+=\d+)+", last)
        assert " tight=" in last


# sha256 of ``transcript.py --every 20``'s output.  A change that means to
# change the search updates it and says so.
TRANSCRIPT_EVERY_20_SHA256 = "2c5d60989d6cb7e5ec09b2f145a0ac2bb72354aade5690c1de14d5b7dbffdf61"


def test_transcript_is_unchanged(capsys):
    """Every 20th sweep seed with the named seeds, the desk corpus and
    PHP(p, p - 1) give the committed transcript: a refactor that is meant
    to keep the search keeps every result, statistic, learned object and
    analysis.  The sample reaches every reason handler and outcome."""
    assert _load("transcript").main(["--every", "20"]) == 0
    out = capsys.readouterr().out
    counts = dict(
        item.split("=") for item in out.splitlines()[-1].split() if "=" in item
    )
    for key in ("mbp", "int-resolve", "separation-cut", "global_infeasibility"):
        assert int(counts.get(key, 0)) > 0, key
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == TRANSCRIPT_EVERY_20_SHA256, (
        "the transcript changed; diff the full output of "
        "`PYTHONPATH=src python3 scripts/transcript.py` under this tree and "
        "under the previous commit's to see which result or analysis moved"
    )


def test_bench_pairs_smoke(capsys):
    """One short pair with the repository as both sides: every run is
    correct, the summary covers every end-to-end metric, and a claim on
    ``nodes``, which ties, is not met.  Timings of one 0.2 s pair may land
    over a bound; the exit status says whether any did."""
    root = str(SCRIPTS.parent)
    argv = [root, root, "--workload", "pigeonhole", "--pairs", "1", "--seconds", "0.2",
            "--claim", "nodes"]
    status = _load("bench_pairs").main(argv)
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2].startswith("claim nodes: NOT MET  change wins 0/1 (needs 9/10)")
    result = json.loads(lines[-1])
    assert result["claim"]["metric"] == "nodes" and not result["claim"]["met"]
    assert result["correct"]
    over = [name for name, s in result["summary"].items() if s["over_bound"]]
    assert "nodes" not in over and result["over_bound"] == over
    assert lines[-3] == f"over bound: {', '.join(over) or 'none'}"
    # One run per side gives no slope, so no explained RSS move.
    assert re.fullmatch(
        r"peak_rss_mb move: observed [+-]\S+ MB \([+-]\S+%\)  explained by attempted n/a",
        lines[-4],
    )
    assert lines[-5].startswith("attempted: parent ")
    assert result["rss_explained_mb"] is None
    assert status == (1 if over else 0)
    assert [r["side"] for r in result["runs"]["parent"]] == ["parent"]
    benchmark = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())
    assert set(result["summary"]) == {m["name"] for m in benchmark["end_to_end"]}
    assert result["summary"]["nodes"]["parent"]["median"] == 72
    assert result["summary"]["nodes"]["change_wins"] == 0


@pytest.mark.parametrize(
    "change_wall_s, over",
    [(1.2, []), (1.3, ["wall_s"])],
)
def test_bench_pairs_exits_1_over_a_bound(tmp_path, monkeypatch, capsys, change_wall_s, over):
    """A median ``wall_s`` 30% above the parent's is over its 24% bound:
    the metric is named and the exit status is 1; 20% above is not."""
    bench_pairs = _load("bench_pairs")
    benchmark = (SCRIPTS.parent / "BENCHMARK.json").read_text()
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(benchmark)

    def run_once(checkout, workload, seed, seconds):
        metrics = {m["name"]: {"value": 1.0} for m in json.loads(benchmark)["end_to_end"]}
        if checkout.name == "change":
            metrics["wall_s"] = {"value": change_wall_s}
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"),
            "--workload", "pigeonhole", "--pairs", "2"]
    assert bench_pairs.main(argv) == (1 if over else 0)
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2] == f"over bound: {', '.join(over) or 'none'}"
    assert json.loads(lines[-1])["over_bound"] == over


def test_bench_pairs_reads_rss_against_calls(tmp_path, monkeypatch, capsys):
    """Each side's median ``attempted`` and the pooled slope of
    ``peak_rss_mb`` on it: both sides grow 0.5 KB per call from different
    intercepts, and the slope is 0.5, not the 2.1 of one line through all
    four runs."""
    bench_pairs = _load("bench_pairs")
    benchmark = (SCRIPTS.parent / "BENCHMARK.json").read_text()
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(benchmark)
    attempted = {("parent", 11): 1000, ("parent", 12): 3000,
                 ("change", 11): 5000, ("change", 12): 7000}
    intercept = {"parent": 20.0, "change": 28.0}

    def run_once(checkout, workload, seed, seconds):
        metrics = {m["name"]: {"value": 1.0} for m in json.loads(benchmark)["end_to_end"]}
        calls = attempted[checkout.name, seed]
        metrics["peak_rss_mb"] = {"value": intercept[checkout.name] + calls * 0.5 / 1024}
        return {"correct": True, "attempted": calls, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"),
            "--workload", "twophase", "--pairs", "2"]
    bench_pairs.main(argv)
    lines = capsys.readouterr().out.splitlines()
    assert lines[-4] == (
        "attempted: parent 2000  change 6000  peak_rss_mb on attempted: 0.5 KB per call"
    )
    # Medians 20 + 2000·0.5/1024 and 28 + 6000·0.5/1024 MB; the 4000 extra
    # calls explain 4000·0.5/1024 MB of the move.
    assert lines[-3] == (
        "peak_rss_mb move: observed +9.95 MB (+47.4%)  explained by attempted +1.95 MB (+9.3%)"
    )
    result = json.loads(lines[-1])
    assert result["attempted"] == {"parent": 2000, "change": 6000}
    assert result["rss_kb_per_call"] == pytest.approx(0.5)
    assert result["rss_explained_mb"] == pytest.approx(4000 * 0.5 / 1024)
    # Runs that all make the same number of calls give no slope.
    assert bench_pairs.rss_kb_per_call(
        {side: [result["runs"][side][0]] * 2 for side in ("parent", "change")}
    ) is None


def _summary(parent, change):
    bench_pairs = _load("bench_pairs")
    runs = {
        side: [{"metrics": {"wall_s": {"value": v}}} for v in values]
        for side, values in (("parent", parent), ("change", change))
    }
    return bench_pairs, bench_pairs.summarize(
        {"name": "wall_s", "better": "lower", "bound": 0.24}, runs
    )


@pytest.mark.parametrize(
    "change, met",
    [
        ([0.8] * 9 + [1.2], True),  # wins 9/10, gap 0.2 > IQR 0.15
        ([0.8] * 8 + [1.2] * 2, False),  # wins 8/10
        ([0.88] * 10, False),  # wins 10/10, gap 0.12 < IQR 0.15
    ],
)
def test_bench_pairs_claim_rule(change, met):
    """The claim rule: at least 9/10 pair wins and a median gap wider than
    the parent's interquartile range [0.925, 1.075]."""
    parent = [0.9] * 3 + [1.0] * 4 + [1.1] * 3
    bench_pairs, summary = _summary(parent, change)
    verdict = bench_pairs.claim_verdict({"name": "wall_s", "better": "lower"}, summary)
    assert verdict["met"] is met
