"""Each output check passes on a real run and rejects a corrupted copy of it.

A check that can never fail measures nothing, so every check here is shown
one small corruption it must catch: a flipped score, a dropped edge, an
altered report byte. The run is a tiny population and takes seconds.

    python3 -m pytest callbench/test_checks.py -q
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(SRC), str(BENCH)]

import checks  # noqa: E402
import workloads  # noqa: E402
from inputs import REASONS, input_facts, input_paths, make_inputs  # noqa: E402

TINY = dict(workloads.WORKLOADS["paper"]["population"], n_nodes=1000, n_subjects=500)
SPEC = dict(workloads.WORKLOADS["paper"], models="A,H", n_trees=5, inject_copies=2)


def cli(*args, cwd: Path) -> None:
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    subprocess.run([sys.executable, "-c", "import sys; from callscore.cli import main; sys.exit(main())",
                    *map(str, args)], env=env, cwd=cwd, check=True, capture_output=True)


@pytest.fixture(scope="module")
def made(tmp_path_factory):
    """A finished tiny run plus predict and sweep outputs, never modified."""
    root = tmp_path_factory.mktemp("callbench")
    make_inputs(root / "inputs", TINY, seed=7, inject_copies=SPEC["inject_copies"])
    run = root / "run"
    config = root / "tiny.cfg"
    config.write_text(workloads.program_config(SPEC, input_paths(root / "inputs"), run))
    cli("run", "--config", config, cwd=root)
    loans = checks.read_csv(run / "features" / "loans.csv")
    split = json.loads((run / "models_out" / "split.json").read_text())
    p0, p1 = checks.loss_masses(loans, split["train"])
    session = dict(workloads.analyst_session(run, config, p0, p1))
    cli(*session["predict"], cwd=root)
    cli(*session["sweep"], cwd=root)
    return root, input_facts(root / "inputs", workloads.MIN_DURATION)


@pytest.fixture
def run(made, tmp_path):
    """A private copy of the tiny run that a test may corrupt."""
    copy = tmp_path / "run"
    shutil.copytree(made[0] / "run", copy)
    return copy


@pytest.fixture
def facts(made):
    return made[1]


def all_checks(run: Path, facts) -> list:
    return (checks.check_ingest(run, facts.data_rows, facts.rejects)
            + checks.check_graphs(run, facts.calls_by_date, workloads.windows())
            + checks.check_propagation(run, workloads.ALPHA, workloads.PR_TOLERANCE)
            + checks.check_models(run, workloads.ROI, workloads.LGD)
            + checks.check_predict(run, run / "predict_H.csv")
            + checks.check_sweep(run / "sweep_roi.csv", run, workloads.ROI))


def rewrite_csv(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def test_injected_rows_cover_every_reason(facts):
    assert {reason for _, _, reason in facts.rejects} == set(REASONS)
    assert len(facts.rejects) == 2 * 10


def test_untouched_run_passes(run, facts):
    assert all_checks(run, facts) == []


def test_ingest_rows_read_off_by_one(run, facts):
    stats = json.loads((run / "ingest" / "stats.json").read_text())
    stats["rows_read"] += 1
    (run / "ingest" / "stats.json").write_text(json.dumps(stats))
    assert checks.check_ingest(run, facts.data_rows, facts.rejects)


def test_ingest_missing_reject(run, facts):
    log = run / "ingest" / "rejects.log"
    log.write_text("".join(log.read_text().splitlines(keepends=True)[1:]))
    assert checks.check_ingest(run, facts.data_rows, facts.rejects)


def test_ingest_wrong_reason(run, facts):
    log = run / "ingest" / "rejects.log"
    lines = log.read_text().splitlines(keepends=True)
    row, _, line = lines[0].split("\t", 2)
    lines[0] = f"{row}\tinvalid time 'x'\t{line}" if "invalid time" not in lines[0] \
        else f"{row}\tinvalid date 'x'\t{line}"
    log.write_text("".join(lines))
    assert checks.check_ingest(run, facts.data_rows, facts.rejects)


def test_graph_dropped_edge(run, facts):
    path = run / "network" / "t2" / "OUT" / "edges.npy"
    np.save(path, np.load(path)[1:])
    assert any("t2/OUT" in f for f in checks.check_graphs(run, facts.calls_by_date, workloads.windows()))


def test_pagerank_mass_moved_between_nodes(run):
    path = run / "exposure" / "t1_PR_ge1_UD.npy"
    x = np.load(path)
    i, j = int(np.argmax(x)), int(np.argmin(x))
    x[i], x[j] = x[i] - 1e-4, x[j] + 1e-4           # sum unchanged, fixed point broken
    np.save(path, x)
    fails = checks.check_propagation(run, workloads.ALPHA, workloads.PR_TOLERANCE)
    assert fails and all("power step" in f for f in fails)


def test_pagerank_scaled(run):
    path = run / "exposure" / "t3_PR_ge2_IN.npy"
    np.save(path, np.load(path) * (1 + 1e-6))
    assert any("sum to" in f for f in checks.check_propagation(run, workloads.ALPHA, workloads.PR_TOLERANCE))


def test_spreading_energy_lost(run):
    path = run / "exposure" / "t2_SPA_ge3_OUT.npy"
    x = np.load(path)
    x[int(np.argmax(x))] *= 0.999
    np.save(path, x)
    assert any("t2_SPA_ge3_OUT" in f for f in checks.check_propagation(
        run, workloads.ALPHA, workloads.PR_TOLERANCE))


def _flip_top_defaulter(rows):
    top = max((r for r in rows if r["y"] == "1"), key=lambda r: float(r["score"]))
    top["score"] = "0.0"


def test_flipped_score_breaks_auc(run):
    rewrite_csv(run / "models_out" / "H_forest" / "scores.csv", _flip_top_defaulter)
    assert any("AUC" in f for f in checks.check_models(run, workloads.ROI, workloads.LGD))


def test_altered_emp(run):
    path = run / "eval" / "models.json"
    reports = json.loads(path.read_text())
    reports[0]["emp"] += 1e-7
    path.write_text(json.dumps(reports))
    assert any("EMP" in f for f in checks.check_models(run, workloads.ROI, workloads.LGD))


def test_altered_profit(run):
    def edit(rows):
        rows[-1]["model_profit"] = f"{float(rows[-1]['model_profit']) + 0.01:.2f}"
    rewrite_csv(run / "eval" / "models.csv", edit)
    assert any("model_profit" in f for f in checks.check_models(run, workloads.ROI, workloads.LGD))


def test_altered_delong_z(run):
    def edit(rows):
        rows[0]["z"] = f"{float(rows[0]['z']) + 0.001:.4f}"
    rewrite_csv(run / "eval" / "delong.csv", edit)
    assert any("DeLong" in f for f in checks.check_models(run, workloads.ROI, workloads.LGD))


def test_altered_report_byte(run):
    before = checks.snapshot(run)
    path = run / "eval" / "summary.txt"
    data = bytearray(path.read_bytes())
    data[-2] ^= 1
    path.write_bytes(bytes(data))
    assert checks.changed_files(before, run, "eval/") == ["eval/summary.txt"]
    assert checks.changed_files(before, run, "features/") == []


def test_predict_score_changed(run):
    def edit(rows):
        split = json.loads((run / "models_out" / "split.json").read_text())
        row = rows[split["test"][0]]
        row["score"] = repr(float(row["score"]) + 1e-12)
    rewrite_csv(run / "predict_H.csv", edit)
    assert checks.check_predict(run, run / "predict_H.csv")


def test_sweep_emp_changed(run):
    def edit(rows):
        row = next(r for r in rows if r["roi"] == repr(workloads.ROI))
        row["emp"] = repr(checks._number(row["emp"]) * (1 + 1e-9))
    rewrite_csv(run / "sweep_roi.csv", edit)
    assert checks.check_sweep(run / "sweep_roi.csv", run, workloads.ROI)
