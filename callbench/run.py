"""callscore benchmark: one closed-loop client driving the `callscore` CLI.

    python3 callbench/run.py --workload network|paper|reanalysis \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is run from `src/` of
that checkout, one fresh process per command. Set-up makes the workload's
inputs from the seed (several times, reporting the median); the timed phase
then repeats whole rounds of the workload's session until S seconds have
passed, checking every output with the code in checks.py. The last line of
standard output is one JSON object: `correct`, `attempted`, `failed` and the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
"""

from __future__ import annotations

import os

# Fixed here rather than taken from the environment: one BLAS thread per
# program process, so the two cores never contend inside one command.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import checks          # this directory is on sys.path when run.py runs as a script
import workloads
from inputs import input_facts, input_paths, make_inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".callbench_work"

CLI = "import sys; from callscore.cli import main; sys.exit(main())"
SETUPS = 3            # set-ups per run; round r reads the inputs of set-up r mod SETUPS
MB = 1024 * 1024
# stage_exposure rebuilds resumed ExposureVectors with iterations_run=0
KNOWN_FAULT = ("run_resume", ["files changed by run --resume: exposure/cutoffs.json"])


class Program:
    """Runs callscore commands one at a time and keeps what each cost."""

    def __init__(self, work: Path, trace: bool):
        self.work = work
        self.trace = trace
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.calls = 0

    def __call__(self, args: list) -> dict:
        self.calls += 1
        log = self.work / "logs" / f"{self.calls:04d}_{args[0]}.log"
        spans = log.with_suffix(".spans.json")
        if self.trace:
            cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(spans), *args]
        else:
            cmd = [sys.executable, "-c", CLI, *args]
        with open(log, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, env=self.env, stdout=out, stderr=subprocess.STDOUT,
                                    cwd=self.work)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)   # reaped by wait4 above
        result = {"wall": wall, "rss_mb": usage.ru_maxrss / 1024,
                  "cpu": usage.ru_utime + usage.ru_stime, "code": proc.returncode,
                  "log": log, "spans": []}
        if self.trace and spans.exists():
            result["spans"] = json.loads(spans.read_text())
        return result


def dir_mb(root: Path) -> float:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file()) / MB


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of one round.
# ---------------------------------------------------------------------------

STAGES = ("data", "ingest", "network", "netstats", "exposure", "features", "train", "eval")
CLI_COMMANDS = ("run_resume", "evaluate", "importance", "compare", "predict", "sweep")


def layer_metrics(command_spans: list) -> dict:
    busy = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(float)
    last = {}
    self_time = defaultdict(float)
    for spans in command_spans:
        children = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                children[parent] += end - start
        for i, (name, start, end, parent, count) in enumerate(spans):
            busy[name] += end - start
            calls[name] += 1
            for key, value in count.items():
                counts[f"{name}.{key}"] += value
            if count:
                last[name] = count
            if name.startswith("pipeline."):
                self_time[name] += end - start - children[i]

    def rate(work: float, seconds: float) -> float:
        return work / seconds if seconds else 0.0

    matrix = last.get("features.matrix_write") or last.get("features.matrix_read") or {}
    sweeps = counts["propagation.pagerank.iterations"] + counts["propagation.spreading.iterations"]
    m = {
        "ingest.cdr_s": busy["ingest.cdr"],
        "ingest.cdr_rows_per_s": rate(counts["ingest.cdr.rows_read"], busy["ingest.cdr"]),
        "ingest.rows_read": counts["ingest.cdr.rows_read"],
        "ingest.rows_rejected": counts["ingest.cdr.rows_rejected"],
        "ingest.bank_s": busy["ingest.bank"],
        "graph.build_s": busy["graph.build"],
        "graph.builds": calls["graph.build"],
        "graph.edges": counts["graph.build.edges"] + counts["graph.load.edges"],
        "graph.save_s": busy["graph.save"],
        "graph.load_s": busy["graph.load"],
        "netstats.homophily_s": busy["netstats.homophily"],
        "propagation.runs": calls["propagation.pagerank"] + calls["propagation.spreading"],
        "propagation.pagerank_s": busy["propagation.pagerank"],
        "propagation.pagerank_iterations": counts["propagation.pagerank.iterations"],
        "propagation.spreading_s": busy["propagation.spreading"],
        "propagation.spreading_rounds": counts["propagation.spreading.iterations"],
        "propagation.sweeps_per_s": rate(
            sweeps, busy["propagation.pagerank"] + busy["propagation.spreading"]),
        "features.cb_s": busy["features.cb"],
        "features.lb_s": busy["features.lb"],
        "features.exposure_link_s": busy["features.exposure_link"],
        "features.sd_s": busy["features.sd"],
        "features.prune_s": busy["features.prune"],
        "features.matrix_write_s": busy["features.matrix_write"],
        "features.matrix_read_s": busy["features.matrix_read"],
        "features.rows": matrix.get("rows", 0),
        "features.columns": matrix.get("columns", 0),
        "models.train_s": busy["models.train"],
        "models.trees": counts["models.train.trees"],
        "models.split_nodes": counts["models.train.split_nodes"],
        "models.split_nodes_per_s": rate(counts["models.train.split_nodes"], busy["models.train"]),
        "models.predict_s": busy["models.predict"],
        "models.tree_rows_per_s": rate(counts["models.predict.tree_rows"], busy["models.predict"]),
        "models.save_s": busy["models.save"],
        "models.load_s": busy["models.load"],
        "models.model_mb": counts["models.save.bytes"] / MB,
        "profit.economics_s": busy["profit.economics"],
        "profit.delong_s": busy["profit.delong"],
        "profit.importance_profit_s": busy["profit.importance_profit"],
        "profit.importance_accuracy_s": busy["profit.importance_accuracy"],
        "profit.importance_tree_rows_per_s": rate(
            counts["profit.importance_accuracy.tree_rows"], busy["profit.importance_accuracy"]),
        "profit.sweep_s": busy["profit.sweep"],
        "cli.import_s": rate(busy["cli.import"], calls["cli.import"]),
    }
    for stage in STAGES:
        m[f"pipeline.{stage}_s"] = busy[f"pipeline.{stage}"]
        m[f"pipeline.{stage}_self_s"] = self_time[f"pipeline.{stage}"]
    for command in CLI_COMMANDS:
        m[f"cli.{command}_s"] = busy[f"cli.{command}"]
    return m


# ---------------------------------------------------------------------------
# One run of a workload.
# ---------------------------------------------------------------------------

class Run:
    def __init__(self, name: str, seed: int, trace: bool, work: Path):
        self.spec = workloads.WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.program = Program(work, trace)
        self.failures: list = []      # (operation, [message, ...])
        self.attempted = 0
        self.failed = 0
        self.setup_s: list = []
        self.synth: list = []         # per set-up: [(name, seconds, count)]
        self.rounds: list = []        # per round: dict of measurements
        self.quality: list = []       # per set-up population: (auc_H, emp_H)
        self.populations: list = []

    def operation(self, op: str, result: dict, messages: list) -> None:
        self.attempted += 1
        if result["code"] != 0:
            tail = result["log"].read_text(errors="replace").strip().splitlines()[-1:]
            messages = [f"exit code {result['code']}: {' '.join(tail)}"] + messages
        if messages:
            self.failed += 1
            self.failures.append((op, messages))

    # -- set-up ------------------------------------------------------------

    def setup(self) -> None:
        import callscore.synth  # noqa: F401  (import cost is not set-up work)

        for k in range(SETUPS):
            inputs = _fresh(self.work / f"inputs{k}")
            spans: list = []
            t0 = time.perf_counter()
            make_inputs(inputs, self.spec["population"], self.seed * 100 + k,
                        self.spec["inject_copies"], spans)
            pop = {"inputs": input_paths(inputs), "run": self.work / f"run{k}"}
            pop["config"] = self.work / f"config{k}.cfg"
            pop["config"].write_text(workloads.program_config(self.spec, pop["inputs"], pop["run"]))
            if self.spec["session"] == "analyst":
                shutil.rmtree(pop["run"], ignore_errors=True)
                result = self.program(["run", "--config", str(pop["config"])])
                if result["code"] != 0:
                    raise RuntimeError(f"set-up run failed; see {result['log']}")
            self.setup_s.append(time.perf_counter() - t0)
            self.synth.append(spans)
            pop["facts"] = input_facts(inputs, workloads.MIN_DURATION)
            if self.spec["session"] == "analyst":
                problems = self.output_checks(pop)
                if problems:
                    self.failures.append(("setup_run", problems))
                pristine = self.work / f"pristine{k}"
                shutil.rmtree(pristine, ignore_errors=True)
                shutil.copytree(pop["run"], pristine)
                pop["pristine"] = pristine
                pop["snapshot"] = checks.snapshot(pristine)
                loans = checks.read_csv(pristine / "features" / "loans.csv")
                split = json.loads((pristine / "models_out" / "split.json").read_text())
                pop["masses"] = checks.loss_masses(loans, split["train"])
                self.quality.append(model_h(pristine))
            self.populations.append(pop)

    # -- checks ------------------------------------------------------------

    def output_checks(self, pop: dict) -> list:
        run, facts = pop["run"], pop["facts"]
        return (checks.check_ingest(run, facts.data_rows, facts.rejects)
                + checks.check_graphs(run, facts.calls_by_date, workloads.windows())
                + checks.check_propagation(run, workloads.ALPHA, workloads.PR_TOLERANCE)
                + checks.check_models(run, workloads.ROI, workloads.LGD))

    # -- timed rounds --------------------------------------------------------

    def round(self, index: int) -> None:
        pop = self.populations[index % SETUPS]
        if self.spec["session"] == "fresh":
            results = self.fresh_round(pop)
        else:
            results = self.analyst_round(pop)
        self.rounds.append({
            "wall": sum(r["wall"] for r in results),
            "cpu": sum(r["cpu"] for r in results),
            "rss_mb": max(r["rss_mb"] for r in results),
            "disk_mb": dir_mb(pop["run"]),
            "walls": [round(r["wall"], 3) for r in results],
            "layers": layer_metrics([r["spans"] for r in results]) if self.program.trace else {},
        })
        if self.spec["session"] == "fresh" and index < SETUPS and results[0]["code"] == 0:
            self.quality.append(model_h(pop["run"]))

    def fresh_round(self, pop: dict) -> list:
        shutil.rmtree(pop["run"], ignore_errors=True)
        result = self.program(["run", "--config", str(pop["config"])])
        self.operation("run", result, self.output_checks(pop) if result["code"] == 0 else [])
        return [result]

    def analyst_round(self, pop: dict) -> list:
        run = pop["run"]
        shutil.rmtree(run, ignore_errors=True)
        shutil.copytree(pop["pristine"], run)
        before = pop["snapshot"]
        results = []
        for op, args in workloads.analyst_session(run, pop["config"], *pop["masses"]):
            result = self.program(args)
            results.append(result)
            problems = []
            if result["code"] == 0:
                if op == "run_resume":
                    changed = checks.changed_files(before, run)
                    if changed:
                        problems.append(f"files changed by run --resume: {', '.join(changed)}")
                elif op in ("evaluate", "importance", "compare"):
                    changed = checks.changed_files(before, run, "eval/")
                    if changed:
                        problems.append(f"eval reports changed: {', '.join(changed)}")
                elif op == "predict":
                    problems = checks.check_predict(run, run / "predict_H.csv")
                else:
                    problems = checks.check_sweep(run / "sweep_roi.csv", run, workloads.ROI)
            self.operation(op, result, problems)
        return results

    # -- result --------------------------------------------------------------

    def correct(self) -> bool:
        """True when the only failures are the known resume fault, exactly as named."""
        return all(failure == KNOWN_FAULT for failure in self.failures)

    def metrics(self) -> dict:
        med = statistics.median
        if self.program.trace:
            layers = {key: med(r["layers"][key] for r in self.rounds) for key in self.rounds[0]["layers"]}
            synth = [{name: (sec, count) for name, sec, count in spans} for spans in self.synth]
            layers["synth.generate_s"] = med(s["synth.generate"][0] for s in synth)
            layers["synth.write_s"] = med(s["synth.write"][0] for s in synth)
            layers["synth.cdr_rows"] = med(s["synth.write"][1] for s in synth)
            return {key: {"value": value, "unit": unit_of(key)} for key, value in sorted(layers.items())}
        return {
            "wall_s": {"value": med(r["wall"] for r in self.rounds), "unit": "s"},
            "setup_s": {"value": med(self.setup_s), "unit": "s"},
            "peak_rss_mb": {"value": med(r["rss_mb"] for r in self.rounds), "unit": "MB"},
            "disk_mb": {"value": med(r["disk_mb"] for r in self.rounds), "unit": "MB"},
            "auc_H": {"value": statistics.fmean([q[0] for q in self.quality] or [0.0]), "unit": "auc"},
            "emp_H": {"value": statistics.fmean([q[1] for q in self.quality] or [0.0]), "unit": "emp"},
        }


def model_h(run: Path) -> tuple:
    """(auc, emp) of model H as eval/models.json reports them."""
    model = next(r for r in json.loads((run / "eval" / "models.json").read_text())
                 if r["model_id"] == "H" and r["classifier"] == "forest")
    return model["auc"], model["emp"]


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("network", "paper", "reanalysis"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "callscore" / "cli.py").is_file():
        print(f"callbench: no callscore sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # a terminated run still stops its program process and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    work = _fresh(WORK / f"{args.workload}-{args.seed}-{os.getpid()}")
    (work / "logs").mkdir()
    try:
        run = Run(args.workload, args.seed, bool(args.trace), work)
        run.setup()
        start = time.perf_counter()
        while len(run.rounds) < run.spec["rounds"] or time.perf_counter() - start < args.seconds:
            run.round(len(run.rounds))
        for op, messages in run.failures:
            print(f"FAILED {args.workload}/{op}: {'; '.join(messages)}")
        walls = [r["walls"] for r in run.rounds]
        print(f"{args.workload}: seed {args.seed}, {len(run.rounds)} rounds, round walls {walls}, "
              f"cpu_s {statistics.median(r['cpu'] for r in run.rounds):.3f}, "
              f"setups {[round(s, 3) for s in run.setup_s]}, "
              f"{run.attempted} operations attempted, {run.failed} failed", file=sys.stderr)
        print(json.dumps({"correct": run.correct(), "attempted": run.attempted,
                          "failed": run.failed, "metrics": run.metrics()}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
