"""The benchmark's three workloads: populations, program configs and sessions.

Each workload is one client in a closed loop: the next `callscore` command
starts when the previous one has ended. Population fields are SynthConfig
fields; the program sees only the CSV files they produce.
"""

from __future__ import annotations

import datetime as dt

# Mix and planted signal of both published configs (configs/*.cfg).
_SIGNAL = dict(homophily_strength=1.8, planted_feature_effect=2.4, sd_weight=1.0,
               cb_weight=1.2, contagion_weight=0.7, latent_weight=0.55)

SEVEN_MODELS = "A,B,C,D,F,G,H"

WORKLOADS = {
    # configs/scale.cfg call density (10 calls per identity) over 8,000
    # identities, with configs/qualitative.cfg's subject share and default rate
    # so that the test set holds enough defaulters for a steady EMP; two
    # models, small forest; malformed rows of every reject reason appended.
    "network": dict(
        population=dict(n_nodes=8000, n_subjects=4000, mean_calls_per_node=10.0,
                        default_rate=0.13, existing_customer_rate=0.12, **_SIGNAL),
        models="A,H", n_trees=20, inject_copies=30, session="fresh", rounds=3),
    # configs/qualitative.cfg make-up (13 % default rate, 12 calls per
    # identity) over 4,500 identities, two thirds of them scored subjects so
    # that the test set holds enough defaulters for a steady EMP. Seven of
    # the paper's eight models: on some populations correlation pruning
    # removes every SPA feature and training model E (SPA alone) then fails.
    "paper": dict(
        population=dict(n_nodes=4500, n_subjects=3000, mean_calls_per_node=12.0,
                        default_rate=0.13, existing_customer_rate=0.12, **_SIGNAL),
        models=SEVEN_MODELS, n_trees=30, inject_copies=0, session="fresh", rounds=3),
    # the paper population; set-up makes the finished run that the analyst
    # session reads
    "reanalysis": dict(
        population=dict(n_nodes=4500, n_subjects=3000, mean_calls_per_node=12.0,
                        default_rate=0.13, existing_customer_rate=0.12, **_SIGNAL),
        models=SEVEN_MODELS, n_trees=10, inject_copies=0, session="analyst", rounds=1),
}

PROGRAM_SEED = 20170501     # the program's own master seed, as in configs/*.cfg
ROI, LGD = 0.05, 0.8
ALPHA, PR_TOLERANCE = 0.85, 1e-8
MIN_DURATION = 5
SWEEP_GRID = tuple(round(0.01 * k, 2) for k in range(1, 21))   # holds ROI exactly


def program_config(workload: dict, inputs: dict, out_dir) -> str:
    lines = {
        "out_dir": out_dir,
        "seed": PROGRAM_SEED,
        **{f"input_{name}": path for name, path in inputs.items()},
        "min_duration": MIN_DURATION,
        "alpha": ALPHA,
        "pr_tolerance": PR_TOLERANCE,
        "models": workload["models"],
        "classifiers": "forest",
        "n_trees": workload["n_trees"],
        "roi": ROI,
        "lgd": LGD,
    }
    return "".join(f"{key} = {value}\n" for key, value in lines.items())


def windows(start_year: int = 2017, start_month: int = 1) -> dict:
    """Timeframe k covers the three calendar months from month k of the data."""
    def first_of(month_index: int) -> dt.date:
        total = start_year * 12 + start_month - 2 + month_index
        return dt.date(total // 12, total % 12 + 1, 1)
    return {f"t{k}": (first_of(k), first_of(k + 3) - dt.timedelta(days=1)) for k in (1, 2, 3)}


def analyst_session(run_dir, config_path, p0: float, p1: float) -> list:
    """(operation, callscore arguments) of the reanalysis session, in order."""
    model = f"{run_dir}/models_out/H_forest"
    return [
        ("run_resume", ["run", "--config", str(config_path), "--resume"]),
        ("evaluate", ["evaluate", "--run-dir", str(run_dir)]),
        ("importance", ["importance", "--run-dir", str(run_dir), "--kind", "profit", "--model", "H"]),
        ("compare", ["compare", "--run-dir", str(run_dir)]),
        ("predict", ["predict", "--model", model, "--features", f"{run_dir}/features/matrix.csv",
                     "--out", f"{run_dir}/predict_H.csv"]),
        ("sweep", ["sweep", "--scores", f"{model}/scores.csv", "--param", "roi",
                   "--grid", ",".join(str(v) for v in SWEEP_GRID), "--roi", str(ROI),
                   "--lgd", str(LGD), "--p0", repr(p0), "--p1", repr(p1),
                   "--out", f"{run_dir}/sweep_roi.csv"]),
    ]
