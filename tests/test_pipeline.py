import csv
import dataclasses
import filecmp
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from callscore import pipeline
from callscore.cli import main as cli_main
from callscore.errors import UsageError
from callscore.features import FeatureMatrix, drop_correlated
from callscore.pipeline import (
    STAGES,
    ExperimentConfig,
    PipelineContext,
    dump_config,
    load_config,
    load_scores,
    run_stages,
    sensitivity_sweep,
    stage_eval,
    stage_train,
)
from callscore.profit import EmpParams, LoanOutcome

TINY = dict(
    seed=101,
    n_nodes=450, n_subjects=160, mean_calls_per_node=10.0,
    default_rate=0.18, planted_feature_effect=1.5, homophily_strength=2.0,
    models="A,B,H", classifiers="forest", n_trees=30, pr_tolerance=1e-9,
)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    config = ExperimentConfig(out_dir=str(out), **TINY)
    run_stages(config)
    return config, Path(out)


def report_files(out: Path) -> list:
    names = [
        "eval/models.csv", "eval/models.json", "eval/delong.csv", "eval/summary.txt",
        "eval/rank_correlations.json", "netstats/report.json", "features/matrix.csv",
    ]
    return [out / n for n in names]


def snapshot(root: Path) -> dict:
    """Relative path -> bytes of every file under `root`."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_report_is_fully_populated(tiny_run):
    config, out = tiny_run
    with open(out / "eval" / "models.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["model_id"] for r in rows] == ["A", "B", "H"]
    for row in rows:
        assert 0.0 <= float(row["auc"]) <= 1.0
        assert float(row["emp"]) >= 0.0
        assert row["model_profit"] != ""
        assert float(row["no_model_profit"]) == pytest.approx(
            float(rows[0]["no_model_profit"]))  # same test set for every model


def test_feature_group_sizes_match_design(tiny_run):
    _, out = tiny_run
    pruning = json.loads((out / "features" / "pruning.json").read_text())
    assert pruning["group_sizes_before"] == {
        "SD": 35, "CB": 72, "LB": 36, "PR": 54, "SPA": 54}
    assert pruning["n_features_before"] == 251


def test_netstats_report_has_three_timeframes(tiny_run):
    _, out = tiny_run
    report = json.loads((out / "netstats" / "report.json").read_text())
    assert set(report) == {"t1", "t2", "t3"}
    for tf in report.values():
        assert 0 <= tf["p_value"] <= 1
        assert tf["m_total"] == tf["m_cross"] + tf["m_dyadic"] + (
            tf["m_total"] - tf["m_cross"] - tf["m_dyadic"])


def test_rerun_is_byte_identical(tiny_run, tmp_path):
    config, out = tiny_run
    other = ExperimentConfig(**{**config.__dict__, "out_dir": str(tmp_path / "again")})
    run_stages(other)
    for path in report_files(out):
        twin = tmp_path / "again" / path.relative_to(out)
        assert filecmp.cmp(path, twin, shallow=False), f"{path.name} differs"


def test_stage_isolation_resume_reproduces(tiny_run, tmp_path):
    config, out = tiny_run
    clone = tmp_path / "clone"
    shutil.copytree(out, clone)
    reference = snapshot(clone)
    shutil.rmtree(clone / "features")
    shutil.rmtree(clone / "eval")
    other = dataclasses.replace(config, out_dir=str(clone))
    run_stages(other, resume=True)
    reference["config.resolved"] = dump_config(other).encode()
    after = snapshot(clone)
    changed = sorted(k for k in set(reference) | set(after) if reference.get(k) != after.get(k))
    assert not changed, f"changed after resume: {changed}"


def test_resume_after_config_change_rebuilds_only_dependent_stages(tiny_run, tmp_path):
    config, out = tiny_run
    clone = tmp_path / "clone"
    shutil.copytree(out, clone)
    before = snapshot(clone)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(dump_config(dataclasses.replace(config, out_dir=str(clone), min_leaf=40)))
    assert cli_main(["run", "--config", str(cfg), "--resume"]) == 0
    after = snapshot(clone)
    upstream = ("data/", "ingest/", "network/", "netstats/", "exposure/", "features/")
    assert ({k: v for k, v in after.items() if k.startswith(upstream)}
            == {k: v for k, v in before.items() if k.startswith(upstream)})
    for rebuilt in ("models_out/fingerprint", "models_out/H_forest/model.json", "eval/fingerprint"):
        assert after[rebuilt] != before[rebuilt], f"{rebuilt} was reused"
    assert "min_leaf = 40" in (clone / "config.resolved").read_text()


def test_train_override_is_recorded_and_evaluated(tiny_run, tmp_path):
    _, out = tiny_run
    clone = tmp_path / "clone"
    shutil.copytree(out, clone)
    assert cli_main(["train", "--run-dir", str(clone), "--models", "A", "--seed", "5"]) == 0
    assert cli_main(["evaluate", "--run-dir", str(clone)]) == 0
    resolved = load_config(clone / "config.resolved")
    assert (resolved.seed, resolved.models) == (5, "A")
    with open(clone / "eval" / "models.csv", newline="") as fh:
        assert [r["model_id"] for r in csv.DictReader(fh)] == ["A"]


def test_interrupted_stage_is_rebuilt_on_resume(tiny_run, tmp_path, monkeypatch):
    _, out = tiny_run
    run = tmp_path / "run"
    config = ExperimentConfig(out_dir=str(run), **TINY)

    def half_written(ctx, directory):
        np.save(directory / "columns.npy", np.zeros((5, 0)))
        raise RuntimeError("killed mid-write")

    monkeypatch.setattr(pipeline, "stage_ingest", half_written)
    with pytest.raises(RuntimeError):
        run_stages(config, until="ingest")
    assert sorted(p.name for p in run.iterdir()) == ["data"]
    monkeypatch.undo()
    # an ingest directory without a fingerprint is not trusted either
    (run / "ingest").mkdir()
    np.save(run / "ingest" / "columns.npy", np.zeros((5, 0)))
    run_stages(config, until="ingest", resume=True)
    ingest = snapshot(run / "ingest")
    assert ingest == snapshot(out / "ingest")


def test_failed_override_leaves_run_untouched(tiny_run, tmp_path):
    _, out = tiny_run
    clone = tmp_path / "clone"
    shutil.copytree(out, clone)
    before = snapshot(clone)
    assert cli_main(["evaluate", "--run-dir", str(clone), "--roi", "0"]) != 0
    assert cli_main(["train", "--run-dir", str(clone), "--models", "Z"]) != 0
    # fails inside stage_features, after its upstream stages were loaded
    assert cli_main(["featurize", "--run-dir", str(clone), "--corr-threshold", "2"]) != 0
    # G is a valid id the run did not train, Z no id at all
    assert cli_main(["importance", "--run-dir", str(clone), "--model", "G"]) == 2
    assert cli_main(["importance", "--run-dir", str(clone), "--model", "Z"]) == 2
    assert snapshot(clone) == before
    recorded = dataclasses.replace(load_config(clone / "config.resolved"), out_dir=str(clone))
    with pytest.raises(UsageError, match="Z"):
        run_stages(dataclasses.replace(recorded, importance_models="H,Z"), resume=True)
    assert snapshot(clone) == before


def test_importance_adds_to_the_listed_models(tiny_run, tmp_path):
    config, out = tiny_run
    clone = tmp_path / "clone"
    shutil.copytree(out, clone)
    run_stages(dataclasses.replace(config, out_dir=str(clone), importance_models="A,H"), resume=True)
    before = snapshot(clone)
    assert cli_main(["importance", "--run-dir", str(clone), "--model", "H"]) == 0
    assert snapshot(clone) == before
    assert cli_main(["importance", "--run-dir", str(clone), "--model", "B"]) == 0
    assert load_config(clone / "config.resolved").importance_models == "A,H,B"
    for model_id in ("A", "H", "B"):
        assert (clone / "eval" / f"importance_profit_{model_id}.csv").exists()
    assert cli_main(["importance", "--run-dir", str(clone), "--model", "G"]) == 2


def test_input_file_run_leaves_its_data_alone(tiny_run, tmp_path):
    config, out = tiny_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    data = run / "data"
    inputs = {f"input_{name}": str(data / f"{name}.csv")
              for name in ("cdr", "accounts", "transactions", "card_activity")}
    from_files = dataclasses.replace(config, out_dir=str(run), **inputs)
    run_stages(from_files, resume=True)
    # the inputs live in the data directory of a synthetic run, which stays as it was
    assert snapshot(data) == snapshot(out / "data")
    before = snapshot(run)
    assert cli_main(["train", "--run-dir", str(run), "--seed", "5"]) == 0
    after = snapshot(run)
    upstream = ("data/", "ingest/", "network/", "netstats/", "exposure/", "features/")
    assert ({k: v for k, v in after.items() if k.startswith(upstream)}
            == {k: v for k, v in before.items() if k.startswith(upstream)})
    assert after["models_out/fingerprint"] != before["models_out/fingerprint"]
    misplaced = dataclasses.replace(from_files, input_cdr=str(run / "ingest" / "stats.json"))
    with pytest.raises(UsageError, match="inside a stage directory"):
        run_stages(misplaced, resume=True)


def test_rebuilt_eval_reads_loan_amounts_exactly(tiny_run, tmp_path):
    # card amounts with a sub-cent part: a rebuilt eval/ reads the loans from
    # the network and features files and must see what the fresh run saw
    config, out = tiny_run
    data = tmp_path / "data"
    shutil.copytree(out / "data", data)
    with open(data / "card_activity.csv", newline="") as fh:
        reader = csv.DictReader(fh)
        header, rows = reader.fieldnames, list(reader)
    for row in rows:
        row["credit_limit"] = repr(float(row["credit_limit"]) + 0.004)
        for m in range(1, 13):
            row[f"drawn_{m}"] = repr(float(row[f"drawn_{m}"]) + 0.003)
    with open(data / "card_activity.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, header)
        writer.writeheader()
        writer.writerows(rows)
    run = tmp_path / "run"
    inputs = {f"input_{name}": str(data / f"{name}.csv")
              for name in ("cdr", "accounts", "transactions", "card_activity")}
    config = dataclasses.replace(config, out_dir=str(run), **inputs)
    run_stages(config)
    fresh = snapshot(run / "eval")
    shutil.rmtree(run / "eval")
    run_stages(config, resume=True)
    assert snapshot(run / "eval") == fresh


def test_every_config_field_is_read_by_a_stage():
    read = {name for stage in STAGES for name in stage.fields}
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert fields - read == {"out_dir"}
    assert read <= fields


def test_model_with_pruned_away_groups_is_skipped(tmp_path):
    rng = np.random.default_rng(5)
    n = 80
    sd = rng.normal(size=(n, 3))
    spa = np.ones((n, 2))
    y = np.arange(n) % 3 == 0
    full = FeatureMatrix(
        subject_ids=[f"S{i}" for i in range(n)], timeframes=["t1"] * n,
        feature_names=["a", "b", "c", "s1", "s2"], group_tags=["SD"] * 3 + ["SPA"] * 2,
        values=np.hstack([sd, spa]), y=y, missing=np.zeros((n, 5), dtype=bool),
    )
    pruned, _ = drop_correlated(full)
    assert pruned.group_sizes() == {"SD": 3}
    config = ExperimentConfig(out_dir=str(tmp_path), models="A,E", n_trees=5, importance_models="E")
    ctx = PipelineContext(config=config, out=tmp_path, matrix=pruned,
                          row_loans=[LoanOutcome(100.0, 80.0 * v, bool(v)) for v in y])
    (tmp_path / "models_out").mkdir()
    (tmp_path / "eval").mkdir()
    stage_train(ctx, tmp_path / "models_out")
    assert set(ctx.scored) == {("A", "forest")}
    assert not (tmp_path / "models_out" / "E_forest").exists()
    stage_eval(ctx, tmp_path / "eval")
    with open(tmp_path / "eval" / "models.csv", newline="") as fh:
        assert [r["model_id"] for r in csv.DictReader(fh)] == ["A"]


def test_missing_input_fails_before_work(tmp_path):
    config = ExperimentConfig(
        out_dir=str(tmp_path / "x"),
        input_cdr=str(tmp_path / "nope.csv"),
        input_accounts=str(tmp_path / "a.csv"),
        input_transactions=str(tmp_path / "t.csv"),
        input_card_activity=str(tmp_path / "c.csv"),
    )
    with pytest.raises(Exception, match="nope.csv"):
        run_stages(config)
    assert not (tmp_path / "x" / "ingest").exists()


def test_config_round_trip(tmp_path):
    config = ExperimentConfig(out_dir="runs/x", seed=5, n_trees=321, roi=0.07)
    path = tmp_path / "c.cfg"
    path.write_text(dump_config(config))
    again = load_config(path)
    assert again == config


def test_config_unknown_key_rejected(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("out_dir = runs/x\nbanana = 7\n")
    with pytest.raises(UsageError, match="banana"):
        load_config(path)


def test_config_comments_and_types(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# experiment\nout_dir = runs/x\nseed = 9  # master\nroi = 0.06\n")
    config = load_config(path)
    assert config.seed == 9
    assert config.roi == pytest.approx(0.06)


def test_sweep_monotone_in_roi(tiny_run):
    _, out = tiny_run
    scored = load_scores(out / "models_out" / "H_forest" / "scores.csv")
    params = EmpParams(roi=0.05, lgd=0.8, p0=0.2, p1=0.2)
    rows = sensitivity_sweep(scored, params, "roi", np.linspace(0.01, 0.2, 12))
    emps = [r[1] for r in rows]
    assert all(a >= b - 1e-12 for a, b in zip(emps, emps[1:]))


def test_sweep_lgd_rows(tiny_run):
    _, out = tiny_run
    scored = load_scores(out / "models_out" / "H_forest" / "scores.csv")
    params = EmpParams(roi=0.05, lgd=0.8, p0=0.2, p1=0.2)
    rows = sensitivity_sweep(scored, params, "lgd", [0.5])
    assert len(rows) == 1
    with pytest.raises(UsageError):
        sensitivity_sweep(scored, params, "roi", [])


# ---------------------------------------------------------------------------
# CLI surface.
# ---------------------------------------------------------------------------

def test_cli_usage_error_exit_code(capsys):
    assert cli_main(["no-such-command"]) == 1


def test_cli_synth_ingest_graph_propagate_netstats(tmp_path, capsys):
    data_dir = tmp_path / "data"
    assert cli_main(["synth", "--out", str(data_dir), "--seed", "3",
                     "--nodes", "300", "--subjects", "90",
                     "--default-rate", "0.2", "--effect", "1.0"]) == 0

    ing_dir = tmp_path / "ingest"
    assert cli_main(["ingest", "--cdr", str(data_dir / "cdr.csv"),
                     "--out", str(ing_dir), "--min-duration", "5"]) == 0
    stats = json.loads((ing_dir / "stats.json").read_text())
    assert stats["rows_read"] == stats["rows_accepted"] + stats["rows_rejected"] + stats["rows_filtered_short"]

    graph_dir = tmp_path / "graph"
    assert cli_main(["build-graph", "--cdr", str(ing_dir / "filtered.csv"),
                     "--mode", "ud", "--window", "01JAN2017", "31MAR2017",
                     "--out", str(graph_dir)]) == 0
    assert (graph_dir / "edges.npy").exists()

    # labels for the standalone commands come from a pipeline run
    run_dir = tmp_path / "run"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("\n".join([
        f"out_dir = {run_dir}", "seed = 3", "n_nodes = 300", "n_subjects = 90",
        "default_rate = 0.2", "models = A,H", "classifiers = forest",
        "n_trees = 25", "mean_calls_per_node = 10.0",
    ]) + "\n")
    assert cli_main(["run", "--config", str(cfg)]) == 0

    exposure_csv = tmp_path / "exposure.csv"
    assert cli_main(["propagate",
                     "--graph", str(run_dir / "network" / "t1" / "UD"),
                     "--labels", str(run_dir / "network" / "labels_t1.csv"),
                     "--method", "pr", "--seeds", "ge1",
                     "--out", str(exposure_csv)]) == 0
    with open(exposure_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    total = sum(float(r["score"]) for r in rows)
    assert total == pytest.approx(1.0, abs=1e-6)

    assert cli_main(["netstats",
                     "--graph", str(run_dir / "network" / "t1" / "UD"),
                     "--labels", str(run_dir / "network" / "labels_t1.csv")]) == 0
    out = capsys.readouterr().out
    assert "dyadicity" in out

    assert cli_main(["sweep", "--scores", str(run_dir / "models_out" / "H_forest" / "scores.csv"),
                     "--param", "roi", "--grid", "0.01:0.1:5",
                     "--p0", "0.2", "--p1", "0.2",
                     "--out", str(tmp_path / "sweep.csv")]) == 0
    sweep_rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert sweep_rows[0] == "roi,emp,emp_fraction"
    assert len(sweep_rows) == 6
    for row in sweep_rows[1:]:
        [float(cell) for cell in row.split(",")]

    scores_csv = tmp_path / "rescored.csv"
    assert cli_main(["predict", "--model", str(run_dir / "models_out" / "H_forest"),
                     "--features", str(run_dir / "features" / "matrix.csv"),
                     "--out", str(scores_csv)]) == 0
    assert scores_csv.exists()

    assert cli_main(["evaluate", "--run-dir", str(run_dir), "--roi", "0.06"]) == 0
    out = capsys.readouterr().out
    assert "model  classifier" in out

    assert cli_main(["compare", "--run-dir", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "model_a" in out


@pytest.mark.parametrize("grid", ["0.01,abc", "0:1:-2"])
def test_cli_bad_sweep_grid_is_usage_error(tiny_run, grid):
    _, out = tiny_run
    assert cli_main(["sweep", "--scores", str(out / "models_out" / "H_forest" / "scores.csv"),
                     "--param", "roi", "--grid", grid]) == 1


def test_cli_data_error_exit_code(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("start_date,start_time,duration,from_id,to_id\n")
    graph_dir = tmp_path / "g"
    code = cli_main(["propagate", "--graph", str(graph_dir), "--labels", str(bad),
                     "--method", "pr", "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_cli_convergence_error_exit_code(tmp_path):
    from callscore.graph import build_graph, save_graph
    from callscore.pipeline import LABEL_COLUMNS
    from conftest import call

    g = build_graph([call("A", "B"), call("B", "C"), call("C", "A")])
    save_graph(g, tmp_path / "g")
    rows = [",".join(LABEL_COLUMNS)]
    for node, identity in enumerate(g.ids):
        level = 3 if node == 0 else -1
        rows.append(f"{node},{identity},0,{1 if level >= 0 else 0},{level},-1,,,")
    labels = tmp_path / "labels.csv"
    labels.write_text("\n".join(rows) + "\n")
    code = cli_main(["propagate", "--graph", str(tmp_path / "g"), "--labels", str(labels),
                     "--method", "pr", "--seeds", "ge3", "--tol", "1e-15",
                     "--max-iter", "2", "--out", str(tmp_path / "x.csv")])
    assert code == 3
