import copy
import csv
import dataclasses
import filecmp
import importlib
import inspect
import io
import json
import math
import os
import pkgutil
import re
import shutil
import signal
import subprocess
import sys
import types
import weakref
from pathlib import Path

import numpy as np
import pytest

import callscore
from callscore import parallel, pipeline, runner, tables
from callscore.cli import main as cli_main
from callscore.errors import DataError, UsageError
from callscore.features import FeatureMatrix, drop_correlated
from callscore.graph import CallGraph, NodeLabelSet
from callscore.models import ScoredDataset, load_scores, save_scores
from callscore.pipeline import stage_eval, stage_train
from callscore.profit import EmpParams, Loans, sensitivity_sweep
from callscore.runner import STAGES, ExperimentConfig, dump_config, load_config, load_data, run_stages
from callscore.synth import SynthConfig

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


def test_features_stage_builds_one_matrix_before_pruning(tiny_run, tmp_path, monkeypatch):
    config, out = tiny_run
    clone = tmp_path / "clone"
    shutil.copytree(out, clone)
    shutil.rmtree(clone / "features")
    built, built_at_pruning = [], []
    post_init, prune = FeatureMatrix.__post_init__, pipeline.drop_correlated

    def counted(matrix):
        built.append(matrix.n_rows)
        post_init(matrix)

    def pruned(matrix, threshold):
        built_at_pruning.append(len(built))
        return prune(matrix, threshold)

    monkeypatch.setattr(FeatureMatrix, "__post_init__", counted)
    monkeypatch.setattr(pipeline, "drop_correlated", pruned)
    run_stages(dataclasses.replace(config, out_dir=str(clone)), until="features", resume=True)
    assert built_at_pruning == [1]
    assert (clone / "features" / "matrix.csv").read_bytes() == (out / "features" / "matrix.csv").read_bytes()


def test_train_and_eval_copy_no_sub_matrix(tiny_run, tmp_path, monkeypatch):
    # each model gathers its train and test rows from the pruned matrix's
    # columns in place; no per-model FeatureMatrix is built
    config, out = tiny_run
    clone = tmp_path / "clone"
    shutil.copytree(out, clone)
    for stage in ("models_out", "eval"):
        shutil.rmtree(clone / stage)
    inside, built = [], []
    post_init = FeatureMatrix.__post_init__

    def counted(matrix):
        if inside:
            built.append(matrix.n_features)
        post_init(matrix)

    def tracked(body):
        def run(*args):
            inside.append(body.__name__)
            try:
                return body(*args)
            finally:
                inside.pop()
        return run

    monkeypatch.setattr(FeatureMatrix, "__post_init__", counted)
    for name in ("stage_train", "stage_eval"):
        monkeypatch.setattr(pipeline, name, tracked(getattr(pipeline, name)))
    run_stages(dataclasses.replace(config, out_dir=str(clone)), resume=True)
    assert built == []
    for stage in ("models_out", "eval"):
        assert snapshot(clone / stage) == snapshot(out / stage)


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


@pytest.mark.parametrize("workers", [1, 2])
def test_trained_forest_scores_are_those_of_the_saved_model(tiny_run, tmp_path, monkeypatch, workers):
    from callscore.models import load_model, predict_forest
    from callscore.models import save_scores
    from callscore.pipeline import load_features
    from callscore.runner import MODEL_GROUPS

    config, out = tiny_run
    monkeypatch.setattr(parallel, "worker_count", lambda n_tasks: workers)
    featured = load_features(config, out / "features")
    matrix = featured[0]
    trained = tmp_path / "models_out"
    trained.mkdir()
    (_, test_idx, _), _ = stage_train(config, trained, [featured])
    model_dirs = sorted(trained.glob("*_forest"))
    assert [d.name for d in model_dirs] == ["A_forest", "B_forest", "H_forest"]
    for mdir in model_dirs:
        for name in ("model.json", "scores.csv", "votes.npy"):
            assert (mdir / name).read_bytes() == (out / "models_out" / mdir.name / name).read_bytes(), name
        X = matrix.select_groups(MODEL_GROUPS[mdir.name[0]]).values[test_idx]
        scored = predict_forest(load_model(mdir / "model.json"), X, matrix.y[test_idx])
        save_scores(tmp_path / "scores.csv", scored, matrix, test_idx)
        np.save(tmp_path / "votes.npy", scored.per_tree_votes)
        assert (tmp_path / "scores.csv").read_bytes() == (mdir / "scores.csv").read_bytes()
        assert (tmp_path / "votes.npy").read_bytes() == (mdir / "votes.npy").read_bytes()


def without_out_dir(files: dict) -> dict:
    """A run snapshot with config.resolved's out_dir line left out."""
    resolved = files["config.resolved"].decode().splitlines(keepends=True)
    return {**files, "config.resolved": "".join(l for l in resolved if not l.startswith("out_dir ="))}


def test_worker_count_does_not_change_run_files(tiny_run, tmp_path, monkeypatch):
    _, out = tiny_run
    for workers in (1, 2):
        # two workers even for a single task: every stage that forks does
        monkeypatch.setattr(parallel, "worker_count", lambda n_tasks, w=workers: w)
        run = tmp_path / f"workers_{workers}"
        run_stages(ExperimentConfig(out_dir=str(run), **TINY))
        assert without_out_dir(snapshot(run)) == without_out_dir(snapshot(out)), workers


def _run_with_workers(config: ExperimentConfig, workers: int, tmp_path: Path) -> tuple[int, str]:
    """The exit code and standard error of `callscore run` on `config` in a
    new interpreter whose fork_map uses `workers` processes."""
    path = tmp_path / f"{Path(config.out_dir).name}.cfg"
    path.write_text(dump_config(config))
    probe = ("import sys; import callscore.parallel as parallel; "
             f"parallel.worker_count = lambda n_tasks: {workers}; "
             "from callscore.cli import main; sys.exit(main(sys.argv[1:]))")
    env = {**os.environ, "PYTHONPATH": str(Path(callscore.__file__).parents[1])}
    proc = subprocess.Popen([sys.executable, "-c", probe, "run", "--config", str(path)], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        # the pool's workers hold the pipes open too, so the whole group goes
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"run with {workers} workers did not end: a worker's error never reached it")
    return proc.returncode, err


@pytest.mark.parametrize("overrides, code, message", [
    (dict(pr_max_iterations=2), 3, "convergence failure: personalized pagerank did not converge in 2 iterations"),
    (dict(existing_customer_rate=0.0), 2, "data error: no delinquent seeds with 1 or more arrears"),
], ids=["convergence", "no seeds"])
def test_worker_error_ends_run_with_its_exit_code(tmp_path, overrides, code, message):
    outcomes = []
    for workers in (1, 2):
        run = tmp_path / f"workers_{workers}"
        returncode, err = _run_with_workers(ExperimentConfig(out_dir=str(run), **{**TINY, **overrides}), workers,
                                            tmp_path)
        assert returncode == code, err
        outcomes.append(err.splitlines()[-1])
        # the failed stage left nothing behind that a resume would trust
        assert not (run / "exposure").exists() and not (run / ".exposure.tmp").exists()
    assert outcomes[0] == outcomes[1]
    assert outcomes[0].startswith(message)


def test_featurize_writes_chosen_groups_only_to_out(tiny_run, tmp_path):
    config, out = tiny_run
    clone = tmp_path / "clone"
    shutil.copytree(out, clone)
    features = snapshot(clone / "features")
    chosen = tmp_path / "chosen.csv"
    argv = ["featurize", "--run-dir", str(clone), "--groups", "sd,lb"]
    assert cli_main(argv) == 1
    assert cli_main([*argv, "--out", str(chosen)]) == 0
    selected = FeatureMatrix.from_csv(clone / "features" / "matrix.csv").select_groups(["SD", "LB"])
    written = FeatureMatrix.from_csv(chosen)
    assert set(written.group_tags) == {"SD", "LB"}
    assert (written.feature_names, written.subject_ids) == (selected.feature_names, selected.subject_ids)
    assert np.array_equal(written.values, selected.values) and np.array_equal(written.missing, selected.missing)
    assert snapshot(clone / "features") == features
    resumed = tmp_path / "resumed.cfg"
    resumed.write_text(dump_config(dataclasses.replace(config, out_dir=str(clone))))
    assert cli_main(["run", "--config", str(resumed), "--resume"]) == 0
    assert snapshot(clone / "features") == features


def test_interrupted_stage_is_rebuilt_on_resume(tiny_run, tmp_path, monkeypatch):
    _, out = tiny_run
    run = tmp_path / "run"
    config = ExperimentConfig(out_dir=str(run), **TINY)

    def half_written(cfg, directory, data):
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
    # an unknown group is refused before the new threshold rebuilds anything
    assert cli_main(["featurize", "--run-dir", str(clone), "--groups", "sd,xx",
                     "--out", str(tmp_path / "f.csv"), "--corr-threshold", "0.9"]) == 2
    # G is a valid id the run did not train, Z no id at all
    assert cli_main(["importance", "--run-dir", str(clone), "--model", "G"]) == 2
    assert cli_main(["importance", "--run-dir", str(clone), "--model", "Z"]) == 2
    recorded = dataclasses.replace(load_config(clone / "config.resolved"), out_dir=str(clone))
    # an empty list is refused before any stage directory is removed
    for key in ("classifiers", "models"):
        emptied = tmp_path / f"no_{key}.cfg"
        emptied.write_text(dump_config(dataclasses.replace(recorded, **{key: ""})))
        assert f"{key} = \n" in emptied.read_text()
        assert cli_main(["run", "--config", str(emptied), "--resume"]) == 1
    # out-of-range model keys are data errors raised inside the stage that reads them
    for key, value in (("mtry", -1), ("importance_max_rows", -1), ("min_leaf", 0)):
        bad = tmp_path / f"bad_{key}.cfg"
        bad.write_text(dump_config(dataclasses.replace(recorded, **{key: value})))
        assert cli_main(["run", "--config", str(bad), "--resume"]) == 2
    assert snapshot(clone) == before
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


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="with one CPU the exposure tasks, and their scipy.sparse, run in this process")
def test_run_never_imports_scipy_stats(tmp_path):
    # nor any scipy module: the tests' normal CDF is callscore.normal, and
    # only the exposure stage's pool workers import scipy.sparse
    probe = ("import sys; from callscore.runner import ExperimentConfig, run_stages; "
             f"run_stages(ExperimentConfig(out_dir={str(tmp_path)!r}, **{TINY!r})); "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(Path(callscore.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "eval" / "rank_correlations.json").exists()


def test_analyst_commands_never_import_scipy(tiny_run, tmp_path):
    # commands that do not propagate load no scipy module, netstats included
    _, out = tiny_run
    model = out / "models_out" / "H_forest"
    commands = [
        ["run", "--config", str(out / "config.resolved"), "--resume"],
        ["predict", "--model", str(model), "--features", str(out / "features" / "matrix.csv"),
         "--out", str(tmp_path / "predict.csv")],
        ["sweep", "--scores", str(model / "scores.csv"), "--param", "roi", "--grid", "0.01,0.1",
         "--out", str(tmp_path / "sweep.csv")],
        ["netstats", "--graph", str(out / "network" / "t1" / "UD"),
         "--labels", str(out / "network" / "labels_t1.csv"), "--json", str(tmp_path / "report.json")],
    ]
    probe = ("import sys; from callscore.cli import main; code = main(sys.argv[1:]); "
             "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(Path(callscore.__file__).parents[1])}
    for argv in commands:
        done = subprocess.run([sys.executable, "-c", probe, *argv],
                              capture_output=True, text=True, check=True, env=env)
        assert done.stdout.splitlines()[-1] == "0 []", argv[0]
    assert (tmp_path / "predict.csv").exists() and (tmp_path / "sweep.csv").exists()
    reports = json.loads((out / "netstats" / "report.json").read_text())
    assert json.loads((tmp_path / "report.json").read_text()) == reports["t1"]


def test_stage_rss_tool_reports_every_stage(tmp_path):
    config = tmp_path / "tiny.cfg"
    config.write_text(dump_config(ExperimentConfig(out_dir=str(tmp_path / "run"), **TINY)))
    tool = Path(__file__).resolve().parents[1] / "tools" / "stage_rss.py"
    env = {**os.environ, "PYTHONPATH": str(Path(callscore.__file__).parents[1])}
    done = subprocess.run([sys.executable, str(tool), str(config)],
                          capture_output=True, text=True, check=True, env=env)
    report = json.loads(done.stdout)
    assert list(report["stages"]) == [stage.name for stage in STAGES]
    for figures in report["stages"].values():
        assert figures["seconds"] >= 0 and figures["main_peak_mb"] > 0 and figures["workers_peak_mb"] >= 0
        # a stage's own peak, sampled from /proc/self/statm, is no lower than
        # its start, and no higher than ru_maxrss (the same pages, read apart)
        assert 0 < figures["rss_start_mb"] <= figures["rss_peak_mb"] <= figures["main_peak_mb"] + 1
    assert report["wall_s"] >= sum(f["seconds"] for f in report["stages"].values()) - 0.01
    assert (tmp_path / "run" / "eval" / "models.csv").exists()


def _cli_in_fresh_process(argv: list) -> tuple[int, list]:
    """The exit code of one CLI command run in a new interpreter, and the
    numpy, ctypes and callscore modules it loaded."""
    probe = ("import json, sys; from callscore.cli import main; code = main(sys.argv[1:]); "
             "print(json.dumps([code, sorted(m for m in sys.modules "
             "if m in ('numpy', 'ctypes') or m.split('.')[0] == 'callscore')]))")
    env = {**os.environ, "PYTHONPATH": str(Path(callscore.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", probe, *argv],
                          capture_output=True, text=True, check=True, env=env)
    return tuple(json.loads(done.stdout.splitlines()[-1]))


def test_predict_and_sweep_load_no_stage_code(tiny_run, tmp_path):
    # the scores file lives in models and the sweep in profit, so neither
    # command imports the stage bodies; sweep needs no graph or feature code
    _, out = tiny_run
    model = out / "models_out" / "H_forest"
    code, modules = _cli_in_fresh_process(
        ["sweep", "--scores", str(model / "scores.csv"), "--param", "lgd", "--grid", "0.5,0.9"])
    unused = {f"callscore.{m}" for m in ("pipeline", "features", "graph", "propagation", "netstats", "synth")}
    assert code == 0 and not unused & set(modules)
    code, modules = _cli_in_fresh_process(
        ["predict", "--model", str(model), "--features", str(out / "features" / "matrix.csv"),
         "--out", str(tmp_path / "predict.csv")])
    assert code == 0 and not {"callscore.pipeline", "callscore.netstats"} & set(modules)


def test_reused_run_commands_load_no_numeric_module(tiny_run, tmp_path):
    # every stage reused: the CLI, the runner and the error types are all they
    # run, and no heap is trimmed, so ctypes is not loaded either
    config, out = tiny_run
    clone = tmp_path / "clone"
    shutil.copytree(out, clone)
    resolved = dataclasses.replace(config, out_dir=str(clone))
    (clone / "config.resolved").write_text(dump_config(resolved))
    before = snapshot(clone)
    lean = ["callscore", "callscore.cli", "callscore.errors", "callscore.runner"]
    for argv in (["run", "--config", str(clone / "config.resolved"), "--resume"],
                 ["evaluate", "--run-dir", str(clone)],
                 ["importance", "--run-dir", str(clone), "--model", "H"],
                 ["compare", "--run-dir", str(clone)]):
        assert _cli_in_fresh_process(argv) == (0, lean), argv[0]
    assert snapshot(clone) == before
    # an override that rebuilds a stage imports the stage code when it needs it
    code, modules = _cli_in_fresh_process(["evaluate", "--run-dir", str(clone), "--roi", "0.06"])
    assert code == 0 and {"numpy", "callscore.pipeline"} <= set(modules)
    after = snapshot(clone)
    assert load_config(clone / "config.resolved").roi == 0.06
    assert after["eval/fingerprint"] != before["eval/fingerprint"]
    assert after["eval/models.csv"] != before["eval/models.csv"]
    assert ({k: v for k, v in after.items() if not k.startswith(("eval/", "config.resolved"))}
            == {k: v for k, v in before.items() if not k.startswith(("eval/", "config.resolved"))})


PACKAGE_EXPORTS = (
    "BankTable", "CallGraph", "CdrRecord", "ConvergenceError", "DataError", "DelongResult",
    "EmpParams", "EmpReport", "ExperimentConfig", "ExposureVector", "FeatureMatrix",
    "ForestModel", "HomophilyReport", "IngestStats", "Loans", "LogisticModel", "NodeLabelSet",
    "RiskRelabeling", "ScoredDataset", "SynthConfig", "TreeModel", "UsageError",
    "accuracy_feature_importance", "build_graph", "delong_test", "diversity",
    "drop_correlated", "dyadicity", "emp", "evaluate_economics", "exposure_cutoff",
    "fraction_to_cutoff", "generate", "heterophilicity", "homophily_test", "ingest_bank",
    "ingest_cdr", "load_config", "loyalty", "parse_cdr_line", "personalized_pagerank",
    "profit_feature_importance", "rank_correlations", "relabel_high_risk", "roc_and_auc",
    "run_stages", "sensitivity_sweep", "split", "spreading_activation", "train_forests",
    "train_logistic", "train_tree", "undersample",
)


def test_package_namespace_loads_each_module_on_first_use():
    probe = ("import sys, callscore; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'callscore')))")
    env = {**os.environ, "PYTHONPATH": str(Path(callscore.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env)
    assert done.stdout.strip() == "['callscore']"
    assert sorted(callscore.__all__) == sorted(PACKAGE_EXPORTS)
    for name in PACKAGE_EXPORTS:
        value = getattr(callscore, name)
        assert getattr(importlib.import_module(value.__module__), name) is value, name
    with pytest.raises(AttributeError):
        callscore.no_such_name


def test_every_config_field_is_read_by_a_stage():
    read = {name for stage in STAGES for name in stage.fields}
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert fields - read == {"out_dir"}
    assert read <= fields


def test_each_stage_reads_only_the_fields_its_fingerprint_covers(tmp_path, monkeypatch):
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    reads = {stage.name: set() for stage in STAGES}

    def recorded(name, build):
        class Recording(ExperimentConfig):
            def __getattribute__(self, key):
                if key in fields:
                    reads[name].add(key)
                return super().__getattribute__(key)

        def stage(cfg, out, *inputs):
            spy = copy.copy(cfg)
            spy.__class__ = Recording
            return build(spy, out, *inputs)
        return stage

    for stage in STAGES:
        attr = f"stage_{stage.name}"
        monkeypatch.setattr(pipeline, attr, recorded(stage.name, getattr(pipeline, attr)))
    # the reads are recorded in this process only
    monkeypatch.setattr(parallel, "worker_count", lambda n_tasks: 1)
    run_stages(ExperimentConfig(out_dir=str(tmp_path), **TINY))
    unfingerprinted = {stage.name: sorted(reads[stage.name] - set(stage.fields)) for stage in STAGES}
    assert unfingerprinted == {stage.name: [] for stage in STAGES}
    assert all(reads[stage.name] for stage in STAGES if stage.fields)


def test_each_product_is_freed_once_its_last_reader_has_run(tmp_path, monkeypatch):
    class Product:
        def __init__(self, name):
            self.name = name

    alive = weakref.WeakSet()
    held = {}

    upstream = {stage.name: list(stage.upstream) for stage in STAGES}

    def fake(name):
        def stage(cfg, out, *inputs):
            held[name] = sorted(product.name for product in alive)
            # each product comes in a one-item list, which the stage empties
            assert all(isinstance(i, list) and len(i) == 1 for i in inputs)
            assert [i.pop().name for i in inputs] == upstream[name]
            product = Product(name)
            alive.add(product)
            return product
        return stage

    for stage in STAGES:
        monkeypatch.setattr(pipeline, f"stage_{stage.name}", fake(stage.name))
    run_stages(ExperimentConfig(out_dir=str(tmp_path), **TINY))
    # on entry to each stage: the products built before it that it or a later stage reads
    read_from_here_on = {stage.name: sorted({u for later in STAGES[k:] for u in later.upstream}
                                            & {s.name for s in STAGES[:k]})
                         for k, stage in enumerate(STAGES)}
    assert held == read_from_here_on


@pytest.mark.parametrize("workers", [1, 2])
def test_features_stage_lets_go_of_its_inputs_before_pruning(tmp_path, monkeypatch, workers):
    # the features stage reads the call batch, the graphs and the exposures
    # last, so none of them is alive when it prunes the assembled matrix
    monkeypatch.setattr(parallel, "worker_count", lambda n_tasks: workers)
    tracked, survivors = [], []

    def tracking(build, arrays):
        def run(*args):
            product = build(*args)
            tracked.extend(weakref.ref(a) for a in arrays(product))
            return product
        return run

    monkeypatch.setattr(pipeline, "ingest_calls", tracking(pipeline.ingest_calls, lambda p: [p[0].date_ord]))
    monkeypatch.setattr(pipeline, "build_graphs", tracking(pipeline.build_graphs, lambda p: p.values()))
    monkeypatch.setattr(pipeline, "_timeframe_exposures", tracking(
        pipeline._timeframe_exposures, lambda p: [exposure.scores for exposure, _ in p.values()]))

    def pruning(matrix, threshold):
        survivors.append(sum(ref() is not None for ref in tracked))
        return drop_correlated(matrix, threshold)

    monkeypatch.setattr(pipeline, "drop_correlated", pruning)
    run_stages(ExperimentConfig(out_dir=str(tmp_path), **TINY), until="features")
    # one batch, nine graphs and 54 exposures, none of them alive at pruning
    assert len(tracked) == 1 + 9 + 54 and survivors == [0]


def _trimmed_run(config: ExperimentConfig, run: Path, libc, monkeypatch) -> dict:
    monkeypatch.setattr(runner, "_libc", libc)
    run_stages(dataclasses.replace(config, out_dir=str(run)))
    files = snapshot(run)
    del files["config.resolved"]  # it names the run directory
    return files


def test_heap_is_trimmed_before_each_built_stage(tiny_run, tmp_path, monkeypatch):
    config, out = tiny_run
    pads = []

    def malloc_trim(pad):
        pads.append(pad)
        return 1

    glibc = types.SimpleNamespace(malloc_trim=malloc_trim)
    reference = snapshot(out)
    del reference["config.resolved"]
    assert _trimmed_run(config, tmp_path / "trimmed", lambda: glibc, monkeypatch) == reference
    # once before each stage, and once more inside the features stage
    assert pads == [0] * (len(STAGES) + 1)
    # a reused stage is not built, so nothing is trimmed for it
    run_stages(dataclasses.replace(config, out_dir=str(tmp_path / "trimmed")), resume=True)
    assert pads == [0] * (len(STAGES) + 1)
    # a C library without malloc_trim leaves the heap as it is, and the run the same
    assert _trimmed_run(config, tmp_path / "untrimmed", object, monkeypatch) == reference


def test_features_stage_trims_the_heap_between_assembling_and_pruning(tmp_path, monkeypatch):
    events = []
    glibc = types.SimpleNamespace(malloc_trim=lambda pad: events.append("trim"))
    monkeypatch.setattr(runner, "_libc", lambda: glibc)

    def logged(name, body):
        def run(*args):
            result = body(*args)
            events.append(name)
            return result
        return run

    monkeypatch.setattr(pipeline, "assemble", logged("assembled", pipeline.assemble))
    monkeypatch.setattr(pipeline, "drop_correlated", logged("pruned", pipeline.drop_correlated))
    monkeypatch.setattr(pipeline, "stage_exposure", logged("exposure built", pipeline.stage_exposure))
    run_stages(ExperimentConfig(out_dir=str(tmp_path), **TINY), until="features")
    assert events[events.index("exposure built"):] == ["exposure built", "trim", "assembled", "trim", "pruned"]


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
    pruned, _ = drop_correlated(full, 0.95)
    assert pruned.group_sizes() == {"SD": 3}
    config = ExperimentConfig(out_dir=str(tmp_path), models="A,E", n_trees=5, importance_models="E")
    featured = (pruned, Loans(np.full(n, 100.0), 80.0 * y, y))
    (tmp_path / "models_out").mkdir()
    (tmp_path / "eval").mkdir()
    fitted = stage_train(config, tmp_path / "models_out", [featured])
    assert set(fitted[1]) == {("A", "forest")}
    assert not (tmp_path / "models_out" / "E_forest").exists()
    stage_eval(config, tmp_path / "eval", [featured], [fitted])
    with open(tmp_path / "eval" / "models.csv", newline="") as fh:
        assert [r["model_id"] for r in csv.DictReader(fh)] == ["A"]
    # one model, no pair: the header alone, as the csv module's writer writes it
    assert (tmp_path / "eval" / "delong.csv").read_bytes() == csv_writer_bytes(
        ("model_a", "model_b", "auc_a", "auc_b", "auc_diff", "z", "p_value"), [])


def csv_writer_bytes(header, rows) -> bytes:
    """The bytes the csv module's writer writes for `header` and `rows`, in UTF-8."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    return text.getvalue().encode()


# keys the csv module quotes (a quote, a comma, a line break) or writes as UTF-8
ODD_KEYS = ['say "hi"', "Zoë", "a,b", "名前\r\n", "P1"]


def labels_table(path, k):
    ids = ODD_KEYS[:k]
    labels = NodeLabelSet(delinquency_level=[-1, 0, 3, -1, 2][:k], is_subject=[0, 1, 1, 0, 1][:k],
                          is_bank_customer=[0, 1, 1, 1, 1][:k], default_label=[-1, 0, 1, -1, 1][:k])
    n = int(labels.is_subject.sum())
    loans = Loans([math.inf, 1500.25, 0.1 + 0.2][:n], [math.inf, 0.0, 0.1][:n], [1, 0, 1][:n])
    graph = CallGraph("undirected", ids, np.zeros(k + 1, np.int64), np.zeros(0, np.int32), np.zeros(0))
    pipeline._save_labels(path, graph, labels, loans)
    loan_texts = iter(zip(map(repr, loans.principal.tolist()), map(repr, loans.ead.tolist()),
                          loans.is_defaulter.astype(int).tolist()))
    return pipeline.LABEL_COLUMNS, [
        (i, ids[i], int(s), int(b), d, y, *(next(loan_texts) if s else ("", "", "")))
        for i, (s, b, d, y) in enumerate(zip(labels.is_subject.tolist(), labels.is_bank_customer.tolist(),
                                             labels.delinquency_level.tolist(), labels.default_label.tolist()))]


def odd_matrix(k) -> FeatureMatrix:
    return FeatureMatrix(subject_ids=ODD_KEYS[:k], timeframes=["t1", "t,2", "t3", 'τ"', "t5"][:k],
                         feature_names=["f"], group_tags=["SD"], values=np.zeros((k, 1)),
                         y=np.arange(k) % 2 == 0, missing=np.zeros((k, 1), dtype=bool))


def loans_table(path, k):
    matrix = odd_matrix(k)
    loans = Loans([math.inf, 1500.25, 0.1 + 0.2, 1e300, 5.0][:k], [math.inf, 0.0, 0.1, 1e-300, 5.0][:k],
                  [1, 0, 1, 0, 1][:k])
    pipeline._save_row_loans(path, matrix, loans)
    return pipeline.LOAN_COLUMNS, list(zip(
        matrix.subject_ids, matrix.timeframes, map(repr, loans.principal.tolist()),
        map(repr, loans.ead.tolist()), loans.is_defaulter.astype(int).tolist()))


def scores_table(path, k):
    matrix = odd_matrix(k)
    rows = [4, 2, 0, 1][: k - 1] if k else []
    scored = ScoredDataset(y=[1, 0, 1, 0][: len(rows)], score=[math.nan, 0.25, 1 / 3, 1.0][: len(rows)])
    save_scores(path, scored, matrix, rows)
    return ("subject_id", "timeframe", "y", "score"), [
        (matrix.subject_ids[i], matrix.timeframes[i], int(scored.y[row]), repr(float(scored.score[row])))
        for row, i in enumerate(rows)]


def importance_table(path, k):
    ranking = list(zip(ODD_KEYS, [math.nan, math.inf, -math.inf, -0.5, np.float64(1e-17)]))[:k]
    pipeline._write_importance(path, ranking)
    return ("feature", "importance"), [(name, "nan" if np.isnan(v) else repr(float(v))) for name, v in ranking]


@pytest.mark.parametrize("k", [5, 0], ids=["rows", "no rows"])
@pytest.mark.parametrize("table", [labels_table, loans_table, scores_table, importance_table],
                         ids=["labels", "loans", "scores", "importance"])
def test_run_tables_are_the_csv_writers_bytes(table, k, tmp_path, monkeypatch):
    monkeypatch.setattr(tables, "_WRITE_CHUNK", 2)  # rows span several chunks
    header, rows = table(tmp_path / "table.csv", k)
    assert (tmp_path / "table.csv").read_bytes() == csv_writer_bytes(header, rows)


def test_run_files_are_the_csv_writers_bytes(tiny_run):
    # every csv table of a run reads back into the bytes the csv module's writer writes
    _, out = tiny_run
    for path in sorted(out.rglob("*.csv")):
        if path.parent.name == "data":
            continue  # the generator's files; the CDR log is not written by the csv module
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert path.read_bytes() == csv_writer_bytes(header, rows), path


def test_negative_importance_rows_refused(tmp_path):
    with pytest.raises(DataError, match="importance_max_rows must be >= 0"):
        run_stages(ExperimentConfig(out_dir=str(tmp_path / "run"), **{**TINY, "importance_max_rows": -1}))
    assert list(tmp_path.iterdir()) == []


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


def test_bad_generator_value_refused_before_the_run(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text(f"out_dir = {tmp_path / 'run'}\nn_nodes = 100\nn_subjects = 200\n")
    with pytest.raises(DataError, match="n_subjects"):
        load_config(path)
    assert cli_main(["run", "--config", str(path)]) == 2
    assert cli_main(["synth", "--out", str(tmp_path / "data"), "--nodes", "100", "--subjects", "200"]) == 2
    assert not (tmp_path / "run").exists() and not (tmp_path / "data").exists()


def test_bad_model_value_refused_before_the_run(tmp_path):
    path = tmp_path / "c.cfg"
    keys = {**TINY, "out_dir": tmp_path / "run", "min_leaf": 0}
    path.write_text("".join(f"{key} = {value}\n" for key, value in keys.items()))
    assert cli_main(["run", "--config", str(path)]) == 2
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key, value, message", [
    ("n_trees", 0, "at least one tree"),
    ("mtry", -1, "mtry must be 0 (the square root of the feature count) or at least 1, not -1"),
    ("train_fraction", 1.0, "train_fraction must lie in"),
    ("train_fraction", 0.0, "train_fraction must lie in"),
    ("undersample_ratio", 0.0, "ratio must be positive"),
    ("cv_folds", 1, "at least 2 folds"),
])
def test_bad_model_values_refused_before_any_stage(tmp_path, key, value, message):
    config = ExperimentConfig(out_dir=str(tmp_path / "run"), **{**TINY, "classifiers": "forest,tree", key: value})
    with pytest.raises(DataError, match=re.escape(message)):
        run_stages(config)
    assert not (tmp_path / "run").exists()


def test_mtry_above_a_forests_feature_count_refused_before_any_stage(tmp_path):
    # A's 35 SD features are the fewest of the A, B and H forests before pruning
    config = ExperimentConfig(out_dir=str(tmp_path / "run"), **{**TINY, "mtry": 36})
    with pytest.raises(DataError, match=re.escape("mtry 36 exceeds the 35 features of model A")):
        run_stages(config)
    assert list((tmp_path / "run").iterdir()) == []
    # no forest, no mtry to check
    run_stages(dataclasses.replace(config, classifiers="tree"), until="data")
    assert (tmp_path / "run" / "data" / "fingerprint").exists()


def test_cv_folds_unchecked_without_tree(tmp_path):
    config = ExperimentConfig(out_dir=str(tmp_path / "run"), **{**TINY, "cv_folds": 1})
    run_stages(config, until="data")
    assert (tmp_path / "run" / "data" / "fingerprint").exists()


def _callables(module):
    """(qualified name, function) of every function and method defined in `module`."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj.__qualname__, obj
        elif inspect.isclass(obj) and obj not in (ExperimentConfig, SynthConfig):
            for member in vars(obj).values():
                member = getattr(member, "__func__", member)  # classmethod, staticmethod
                if inspect.isfunction(member):  # a dataclass's __init__ holds its fields
                    yield member.__qualname__, member


def test_no_second_home_for_a_config_default():
    keys = {f.name for f in dataclasses.fields(ExperimentConfig)}
    restated = []
    for info in pkgutil.iter_modules(callscore.__path__):
        module = importlib.import_module(f"callscore.{info.name}")
        for name, fn in _callables(module):
            restated += [f"{module.__name__}.{name}({p.name}={p.default!r})"
                         for p in inspect.signature(fn).parameters.values()
                         if p.name in keys and p.default is not inspect.Parameter.empty]
    assert restated == []


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

    # the file commands run the stages' own steps under the config defaults,
    # so on the run's files they reproduce its outputs exactly
    again = tmp_path / "ingest_again"
    assert cli_main(["ingest", "--cdr", str(run_dir / "data" / "cdr.csv"), "--out", str(again)]) == 0
    for name in ("rejects.log", "stats.json"):
        assert (again / name).read_bytes() == (run_dir / "ingest" / name).read_bytes(), name

    for method in ("pr", "spa"):
        for criterion in (1, 2, 3):
            exposure_csv = tmp_path / f"exposure_{method}_ge{criterion}.csv"
            assert cli_main(["propagate",
                             "--graph", str(run_dir / "network" / "t1" / "UD"),
                             "--labels", str(run_dir / "network" / "labels_t1.csv"),
                             "--method", method, "--seeds", f"ge{criterion}",
                             "--out", str(exposure_csv)]) == 0
            with open(exposure_csv, newline="") as fh:
                scores = np.array([float(r["score"]) for r in csv.DictReader(fh)])
            name = f"t1_{method.upper()}_ge{criterion}_UD.npy"
            assert np.array_equal(scores, np.load(run_dir / "exposure" / name)), name
            assert exposure_csv.read_bytes() == csv_writer_bytes(
                ("node_id", "score"), enumerate(map(repr, scores.tolist()))), name
            if method == "pr":
                assert scores.sum() == pytest.approx(1.0, abs=1e-6)

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
    rescored = scores_csv.read_text().splitlines()
    test_rows = json.loads((run_dir / "models_out" / "split.json").read_text())["test"]
    assert ([rescored[0]] + [rescored[1 + i] for i in test_rows]
            == (run_dir / "models_out" / "H_forest" / "scores.csv").read_text().splitlines())

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
    from conftest import call, records_batch

    g = build_graph(records_batch([call("A", "B"), call("B", "C"), call("C", "A")]))
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


@pytest.mark.parametrize("text, wanted", [
    ("subject_id,timeframe,y,score\ns1,t1,1,0.5\ns2,t1,0,abc\n", "s.csv:3: bad score value 'abc'"),
    ("subject_id,timeframe,y,score\ns1,t1,1\n", "s.csv:2: expected 4 fields, got 3"),
    ("subject_id,timeframe,score\ns1,t1,0.5\n", "s.csv is not a scores file"),
    ("subject_id,timeframe,y\ns1,t1,1\n", "s.csv is not a scores file"),
], ids=["non-numeric score", "short row", "no y column", "no score column"])
def test_load_scores_refuses_malformed_file(tmp_path, text, wanted, capsys):
    path = tmp_path / "s.csv"
    path.write_text(text)
    with pytest.raises(DataError, match=wanted):
        load_scores(path)
    assert cli_main(["sweep", "--scores", str(path), "--param", "roi", "--grid", "0.05"]) == 2
    assert wanted in capsys.readouterr().err


def test_network_stage_matches_per_mode_graphs_and_per_record_labels(tiny_run, tmp_path):
    from callscore.graph import build_graph
    from conftest import reference_build_graph, reference_ingest_bank, reference_labels, reference_save_labels

    config, out = tiny_run
    batch, bank = pipeline.load_ingest(config, out / "ingest")
    paths = load_data(config, out / "data")
    records, _ = reference_ingest_bank(paths["accounts"], paths["transactions"], paths["card_activity"])
    graphs, labels, loans, order = pipeline.stage_network(config, tmp_path, [(batch, bank)])
    # a resumed run's features stage gets the same identity order from the loader
    assert np.array_equal(pipeline.load_network(config, out / "network")[3], order)
    for k, tf in enumerate(pipeline.TIMEFRAMES, start=1):
        for direction, mode in pipeline.DIR_TO_MODE.items():
            reference = reference_build_graph(batch, config.window(k), mode, "count", tf)
            for name in ("ids", "indptr", "indices", "weights"):
                got, want = getattr(graphs[(tf, direction)], name), getattr(reference, name)
                assert np.array_equal(got, want) and np.asarray(got).dtype == np.asarray(want).dtype
        # labels over a one-month graph that misses some card holders, then the
        # run's own labels, whose reference is written below
        short = build_graph(batch, (config.month_date(k), config.month_date(k + 1)), "undirected", "count", tf)
        for graph in (short, graphs[(tf, "UD")]):
            want, want_loans = reference_labels(config, records, graph, k)
            got, got_loans = pipeline._build_labels(config, bank, graph, k)
            for name in ("delinquency_level", "is_subject", "is_bank_customer", "default_label"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
            # the reference keys its loans by identity; the table holds them in node order
            assert list(want_loans) == [graph.ids[i] for i in np.flatnonzero(got.is_subject)]
            for name in ("principal", "ead", "is_defaulter"):
                assert getattr(got_loans, name).tolist() == [getattr(r, name) for r in want_loans.values()]
        reference_save_labels(tmp_path / "reference.csv", graphs[(tf, "UD")], want, want_loans)
        assert (tmp_path / f"labels_{tf}.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
        assert (tmp_path / f"labels_{tf}.csv").read_bytes() == (out / "network" / f"labels_{tf}.csv").read_bytes()


def test_exposure_builds_one_operator_per_graph(tiny_run, tmp_path, monkeypatch):
    from callscore import propagation

    config, out = tiny_run
    network = pipeline.load_network(config, out / "network")
    # the spy records in this process only
    monkeypatch.setattr(parallel, "worker_count", lambda n_tasks: 1)
    operators = []

    def spy(graph):
        push, dangling = build(graph)
        operators.append(push)
        return push, dangling

    build = propagation._transition_operator
    monkeypatch.setattr(propagation, "_transition_operator", spy)
    pipeline.stage_exposure(config, tmp_path, [network])
    assert len(operators) == 54
    assert len({id(op) for op in operators}) == 9
    for path in (out / "exposure").iterdir():
        if path.name != "fingerprint":
            assert (tmp_path / path.name).read_bytes() == path.read_bytes()


@pytest.mark.parametrize("mode", ["in", "out", "ud"])
def test_cli_build_graph_writes_the_per_mode_graph(tiny_run, tmp_path, mode):
    from callscore.graph import save_graph
    from callscore.ingest import parse_cdr_date
    from conftest import reference_build_graph, reference_ingest_cdr

    _, out = tiny_run
    cdr = out / "data" / "cdr.csv"
    batch, _ = reference_ingest_cdr(cdr, 5, ",")
    for flags, window, weight_by in (
        (["--window", "01FEB2017", "30APR2017"], ("01FEB2017", "30APR2017"), "count"),
        (["--weight-by", "duration"], None, "duration"),
    ):
        assert cli_main(["build-graph", "--cdr", str(cdr), "--mode", mode, "--out", str(tmp_path / "cli"),
                         *flags]) == 0
        window = tuple(map(parse_cdr_date, window)) if window else None
        save_graph(reference_build_graph(batch, window, mode, weight_by, None), tmp_path / "reference")
        for name in ("edges.npy", "nodes.txt", "meta.json"):
            assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "reference" / name).read_bytes()


def test_feature_rows_carry_the_loans_of_their_subjects(tiny_run, tmp_path):
    # stage_features aligns loans with matrix rows by position; each row's
    # loan must be the one its (subject_id, timeframe) has in labels_t*.csv
    config, out = tiny_run
    network = pipeline.load_network(config, out / "network")
    matrix, loans = pipeline.stage_features(
        config, tmp_path, [pipeline.load_ingest(config, out / "ingest")], [network],
        [pipeline.load_exposure(config, out / "exposure")])
    by_identity = {}
    for tf in pipeline.TIMEFRAMES:
        with open(out / "network" / f"labels_{tf}.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                if row["is_subject"] == "1":
                    by_identity[(row["identity"], tf)] = (
                        float(row["credit_limit"]), float(row["ead"]), row["y_default"] == "1")
    rows = list(zip(matrix.subject_ids, matrix.timeframes))
    assert len(rows) == len(loans) == len(by_identity)
    assert [by_identity[key] for key in rows] == list(zip(
        loans.principal.tolist(), loans.ead.tolist(), loans.is_defaulter.tolist()))
    assert (tmp_path / "loans.csv").read_bytes() == (out / "features" / "loans.csv").read_bytes()
    _, loaded = pipeline.load_features(config, out / "features")
    for name in ("principal", "ead", "is_defaulter"):
        assert np.array_equal(getattr(loaded, name), getattr(loans, name))


@pytest.mark.parametrize("column, value, wanted", [
    ("delinquency_level", "x", "bad delinquency_level value 'x'"),
    ("delinquency_level", "300", "bad delinquency_level value '300'"),
    ("default_label", "1.0", "bad default_label value '1.0'"),
    ("credit_limit", "abc", "bad credit_limit value 'abc'"),
    ("credit_limit", "", "bad credit_limit value ''"),
    ("ead", "", "bad ead value ''"),
    ("y_default", "1", "y_default disagrees with default_label"),
], ids=["non-numeric delinquency", "delinquency out of range", "non-integer default label",
        "non-numeric credit limit", "subject without credit limit", "subject without EAD",
        "outcome disagrees with default label"])
def test_malformed_labels_file_is_a_data_error(tiny_run, tmp_path, capsys, column, value, wanted):
    _, out = tiny_run
    with open(out / "network" / "labels_t1.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    target = next(i for i, row in enumerate(rows) if row["is_subject"] == "1" and row["default_label"] == "0")
    rows[target][column] = value
    path = tmp_path / "labels.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, pipeline.LABEL_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    message = f"{path}:{target + 2}: {wanted}"
    with pytest.raises(DataError) as raised:
        pipeline.load_labels(path)
    assert str(raised.value) == message
    graph = str(out / "network" / "t1" / "UD")
    for argv in (["netstats", "--graph", graph, "--labels", str(path)],
                 ["propagate", "--graph", graph, "--labels", str(path), "--method", "pr",
                  "--out", str(tmp_path / "exposure.csv")]):
        assert cli_main(argv) == 2, argv[0]
        assert f"data error: {message}" in capsys.readouterr().err


def test_missing_input_file_is_a_data_error(tmp_path, capsys):
    missing = str(tmp_path / "nope.csv")
    for argv in (["predict", "--model", str(tmp_path / "nope"), "--features", missing,
                  "--out", str(tmp_path / "p.csv")],
                 ["sweep", "--scores", missing, "--param", "roi", "--grid", "0.05"],
                 ["ingest", "--cdr", missing, "--out", str(tmp_path / "ingest")],
                 ["build-graph", "--cdr", missing, "--out", str(tmp_path / "graph")]):
        assert cli_main(argv) == 2, argv[0]
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "nope" in err, argv[0]
    # the source is opened before the reject log is created
    assert not (tmp_path / "ingest" / "rejects.log").exists()


def test_resume_under_another_program_rebuilds_every_stage(tiny_run, tmp_path, monkeypatch):
    config, out = tiny_run
    clone = tmp_path / "clone"
    shutil.copytree(out, clone)
    before = snapshot(clone)
    built = []

    def tracked(name, body):
        def run(*args):
            built.append(name)
            return body(*args)
        return run

    for stage in STAGES:
        monkeypatch.setattr(pipeline, f"stage_{stage.name}", tracked(stage.name, getattr(pipeline, f"stage_{stage.name}")))
    monkeypatch.setattr(runner, "program_digest", lambda: "another program")
    run_stages(dataclasses.replace(config, out_dir=str(clone)), resume=True)
    assert built == [stage.name for stage in STAGES]
    after = snapshot(clone)
    changed = sorted(k for k in set(before) | set(after) if before.get(k) != after.get(k))
    assert changed == sorted(["config.resolved", *(f"{stage.directory}/fingerprint" for stage in STAGES)])


def program_digest_of(tmp_path, name, package, numpy_version=None):
    """`runner.program_digest()` in a fresh process that imports `package`
    from a copy, beside a numpy whose version file says `numpy_version`."""
    root = tmp_path / name
    shutil.copytree(package, root / "callscore")
    if numpy_version is not None:
        (root / "numpy").mkdir()
        (root / "numpy" / "__init__.py").write_text("")
        (root / "numpy" / "version.py").write_text(f'version = "{numpy_version}"\n')
    result = subprocess.run(
        [sys.executable, "-c", "import sys; from callscore.runner import program_digest; "
                               "print(program_digest(), 'numpy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(root)}, capture_output=True, text=True, check=True)
    digest, numpy_loaded = result.stdout.split()
    assert numpy_loaded == "False"
    return digest


def test_program_digest_covers_the_sources_and_the_numeric_versions(tmp_path):
    package = Path(callscore.__file__).parent
    digest = program_digest_of(tmp_path, "same", package)
    # the bytes count, not the place they are read from
    assert digest == runner.program_digest()
    edited = tmp_path / "edited"
    shutil.copytree(package, edited, ignore=shutil.ignore_patterns("__pycache__"))
    (edited / "normal.py").write_bytes((edited / "normal.py").read_bytes() + b"\n")
    assert program_digest_of(tmp_path, "edited_run", edited) != digest
    assert program_digest_of(tmp_path, "numpy_0", package, numpy_version="0.0") != digest
