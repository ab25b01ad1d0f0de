"""Experiment configuration and the fingerprinting stage runner.

Everything a run whose stages are all reused touches lives here, and none of
it needs numpy: the config types and their file format, the profit
measure's parameters (checked before any stage runs), the stage table and
the fingerprints that decide reuse. The stage bodies live in `pipeline`,
which `run_stages` imports only when a stage has to be built or its product
loaded.

Every stage writes its outputs into its own directory under the experiment
directory, together with a fingerprint of the program, of the config fields
it reads and of its upstream stages. A resumed run reuses a stage directory
only when that fingerprint matches; regenerating any stage reproduces it
byte-identically because all randomness flows from named substreams of the
config seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import logging
import shutil
import time
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

from .errors import DataError, UsageError

logger = logging.getLogger(__name__)

MODEL_GROUPS = {
    "A": ("SD",),
    "B": ("CB",),
    "C": ("LB",),
    "D": ("PR",),
    "E": ("SPA",),
    "F": ("SD", "CB"),
    "G": ("CB", "LB", "PR", "SPA"),
    "H": ("SD", "CB", "LB", "PR", "SPA"),
}
CLASSIFIERS = ("logit", "tree", "forest")
# ExperimentConfig fields naming input files; when input_cdr is set they replace the generator
INPUT_FIELDS = ("input_cdr", "input_accounts", "input_transactions", "input_card_activity")
# the generator's four input files in the data directory, by the names load_data returns
DATA_FILES = {"cdr": "cdr.csv", "accounts": "accounts.csv", "transactions": "transactions.csv",
              "card_activity": "card_activity.csv"}


def month_date(start_year: int, start_month: int, month_index: int) -> date:
    """The first day of month `month_index`, counted from 1 = (start_year, start_month)."""
    total = start_year * 12 + start_month - 1 + month_index - 1
    return date(total // 12, total % 12 + 1, 1)


@dataclass
class SynthConfig:
    """The generator's keys and their defaults; `ExperimentConfig` inherits them."""

    n_nodes: int = 2000
    n_subjects: int = 600
    months: int = 5
    mean_calls_per_node: float = 8.0
    default_rate: float = 0.0449
    homophily_strength: float = 1.0
    risky_rate: float = 0.15
    degree_mode: str = "powerlaw"
    degree_exponent: float = 2.5
    degree_cutoff: float = 30.0
    existing_customer_rate: float = 0.15
    uncarded_customer_rate: float = 0.01
    short_call_rate: float = 0.08
    planted_feature_effect: float = 1.0
    sd_weight: float = 1.0
    cb_weight: float = 1.0
    contagion_weight: float = 1.0
    latent_weight: float = 0.75
    start_year: int = 2017
    start_month: int = 1

    def __post_init__(self):
        if not 0 < self.default_rate < 1:
            raise DataError("default_rate must lie in (0, 1)")
        if self.n_subjects > self.n_nodes:
            raise DataError("n_subjects cannot exceed n_nodes")
        if self.months < 5:
            raise DataError("need at least five months of calls for three timeframes")
        if self.homophily_strength <= 0:
            raise DataError("homophily_strength must be positive")
        if self.degree_mode not in ("powerlaw", "poisson"):
            raise DataError("degree_mode must be 'powerlaw' or 'poisson'")
        reserved = self.n_subjects + int(
            (self.existing_customer_rate + self.uncarded_customer_rate) * self.n_nodes
        )
        if reserved > self.n_nodes:
            raise DataError("subject and customer shares exceed the population")


# ExperimentConfig fields inherited from the synthetic generator's config
SYNTH_FIELDS = tuple(f.name for f in dataclasses.fields(SynthConfig))


@dataclass
class EmpParams:
    """Cost model for the profit measure.

    roi: return on a performing loan (the misclassification cost of rejecting
    a good customer). lgd: loss given default; the maximum attainable loss
    fraction, and the upper end of the loss distribution. p0/p1: point masses
    of the loss fraction at zero (full recovery) and at the maximum (fully
    drawn, nothing recovered); the rest is uniform in between. The class
    priors of defaulters/non-defaulters are those of the scored data.
    Rejecting an applicant itself costs nothing.
    """

    roi: float
    lgd: float
    p0: float = 0.0
    p1: float = 0.0

    def __post_init__(self):
        if self.roi <= 0:
            raise DataError("roi must be positive")
        if not 0 < self.lgd <= 1:
            raise DataError("lgd must lie in (0, 1]")
        if self.p0 < 0 or self.p1 < 0 or self.p0 + self.p1 > 1:
            raise DataError("point masses must be non-negative with p0 + p1 <= 1")


# ---------------------------------------------------------------------------
# Experiment configuration: a flat key = value file.
# ---------------------------------------------------------------------------

def _model_list(text: str) -> list:
    ids = [m.strip().upper() for m in text.split(",") if m.strip()]
    bad = [m for m in ids if m not in MODEL_GROUPS]
    if bad:
        raise UsageError(f"unknown model ids {bad}; valid: {sorted(MODEL_GROUPS)}")
    return ids


@dataclass
class ExperimentConfig(SynthConfig):
    """Every key of one experiment; the generator's keys and defaults are SynthConfig's."""

    out_dir: str = ""
    seed: int = 20170501
    # data source: leave the input_* paths empty to generate synthetic data
    input_cdr: str = ""
    input_accounts: str = ""
    input_transactions: str = ""
    input_card_activity: str = ""
    # ingest
    min_duration: int = 5
    delimiter: str = ","
    # propagation
    alpha: float = 0.85
    spread_fraction: float = 0.85
    pr_tolerance: float = 1e-8
    pr_max_iterations: int = 1000
    spa_tolerance: float = 1e-6
    spa_max_iterations: int = 100
    # features
    day_start_hour: int = 8
    day_end_hour: int = 20
    corr_threshold: float = 0.95
    # models
    models: str = "A,B,C,D,E,F,G,H"
    classifiers: str = "forest"
    n_trees: int = 500
    mtry: int = 0
    min_leaf: int = 5
    cv_folds: int = 10
    train_fraction: float = 0.7
    undersample_ratio: float = 1.0
    importance_models: str = "H"
    importance_max_rows: int = 2000
    # profit measure
    roi: float = 0.05
    lgd: float = 0.8

    def model_ids(self) -> list:
        ids = _model_list(self.models)
        if not ids:
            raise UsageError("models lists no model")
        return ids

    def importance_model_ids(self) -> list:
        return _model_list(self.importance_models)

    def classifier_list(self) -> list:
        kinds = [c.strip().lower() for c in self.classifiers.split(",") if c.strip()]
        bad = [c for c in kinds if c not in CLASSIFIERS]
        if bad:
            raise UsageError(f"unknown classifiers {bad}; valid: {CLASSIFIERS}")
        if not kinds:
            raise UsageError("classifiers lists no classifier")
        return kinds

    def month_date(self, month_index: int) -> date:
        return month_date(self.start_year, self.start_month, month_index)

    def month_index(self, d: date) -> int:
        return (d.year * 12 + d.month) - (self.start_year * 12 + self.start_month) + 1

    def window(self, k: int) -> tuple[date, date]:
        return self.month_date(k), self.month_date(k + 3) - timedelta(days=1)


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse a key = value config file; '#' starts a comment."""
    fields = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
    values: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in fields:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        kind = fields[key].type
        try:
            if kind == "int":
                values[key] = int(value)
            elif kind == "float":
                values[key] = float(value)
            else:
                values[key] = value
        except ValueError:
            raise UsageError(f"{path}:{lineno}: bad value for {key!r}: {value!r}") from None
    config = ExperimentConfig(**values)
    if not config.out_dir:
        raise UsageError("config must set out_dir")
    return config


def dump_config(config: ExperimentConfig) -> str:
    lines = [f"{f.name} = {getattr(config, f.name)}" for f in dataclasses.fields(ExperimentConfig)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Stage runner: a verifying trace (Mokhov, Mitchell and Peyton Jones, "Build
# Systems a la Carte", ICFP 2018) over one directory per stage.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Stage:
    # pipeline.stage_<name>(cfg, out, *upstream products) builds into out and
    # returns the stage's product, getting each product in a one-item list
    # that it empties; pipeline.load_<name>(cfg, directory) reads it back
    name: str
    directory: str     # under out_dir
    fields: tuple      # ExperimentConfig fields the stage reads
    upstream: tuple    # stages whose outputs it reads


STAGES = (
    Stage("data", "data", INPUT_FIELDS + ("seed",) + SYNTH_FIELDS, ()),
    Stage("ingest", "ingest", ("min_duration", "delimiter"), ("data",)),
    Stage("network", "network", ("start_year", "start_month"), ("ingest",)),
    Stage("netstats", "netstats", (), ("network",)),
    Stage("exposure", "exposure", ("alpha", "spread_fraction", "pr_tolerance", "pr_max_iterations",
                                   "spa_tolerance", "spa_max_iterations"), ("network",)),
    Stage("features", "features", ("start_year", "start_month", "day_start_hour", "day_end_hour",
                                   "corr_threshold"), ("ingest", "network", "exposure")),
    Stage("train", "models_out", ("seed", "models", "classifiers", "n_trees", "mtry", "min_leaf",
                                  "cv_folds", "train_fraction", "undersample_ratio"), ("features",)),
    Stage("eval", "eval", ("seed", "models", "classifiers", "importance_models",
                           "importance_max_rows", "roi", "lgd"), ("features", "train")),
)


def load_data(cfg: ExperimentConfig, directory: Path) -> dict:
    """The four input files: input_* when input_cdr is set, else the generator's in `directory`."""
    if cfg.input_cdr:
        # a rebuilt stage replaces its whole directory, inputs included
        run = directory.parent
        rebuilt = [(run / stage.directory).resolve() for stage in STAGES if stage.name != "data"]
        required = {field.removeprefix("input_"): getattr(cfg, field) for field in INPUT_FIELDS}
        for name, p in required.items():
            if not p:
                raise UsageError(f"input_{name} must be set when input_cdr is given")
            if not Path(p).exists():
                raise DataError(f"missing input file for {name}: {p}")
            if any(Path(p).resolve().is_relative_to(d) for d in rebuilt):
                raise UsageError(f"input_{name} lies inside a stage directory of {run}: {p}")
        return {k: Path(v) for k, v in required.items()}
    return {name: directory / file for name, file in DATA_FILES.items()}


def program_digest() -> str:
    """sha256 over this package's modules, by name and bytes in name order,
    and the version files of numpy and scipy, which are found, not imported."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        source = path.read_bytes()
        digest.update(f"{path.name} {len(source)}\n".encode() + source)
    for name in ("numpy", "scipy"):
        version = Path(importlib.util.find_spec(name).origin).with_name("version.py")
        digest.update(f"\n{name} ".encode() + version.read_bytes())
    return digest.hexdigest()


def _fingerprint(config: ExperimentConfig, stage: Stage, upstream: list, program: str) -> str:
    """sha256 over the stage name, the program's digest, the fields the stage
    reads and its upstream fingerprints.

    Data read from input files is fingerprinted by their paths and bytes
    alone: the generator's fields play no part in it.
    """
    from_files = stage.name == "data" and config.input_cdr
    digest = hashlib.sha256(f"{stage.name}\n{program}".encode())
    for name in INPUT_FIELDS if from_files else stage.fields:
        digest.update(f"\n{name} = {getattr(config, name)}".encode())
    for fingerprint in upstream:
        digest.update(f"\n{fingerprint}".encode())
    if from_files:
        for path in load_data(config, Path(config.out_dir) / stage.directory).values():
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(block)
    return digest.hexdigest()


def _stored_fingerprint(directory: Path) -> str | None:
    path = directory / "fingerprint"
    return path.read_text().strip() if path.exists() else None


def _libc():
    """This process's C library, through ctypes, which only a built stage imports."""
    import ctypes

    return ctypes.CDLL(None)


def _trim_heap() -> None:
    """Give the heap's free pages back to the system with glibc's
    malloc_trim(0); a C library without malloc_trim is left as it is.

    glibc keeps the memory that earlier stages freed, so without the trim
    each stage's peak would follow that memory rather than its own work.
    `run_stages` trims before it builds each stage, and `stage_features`
    once more, when it has freed its inputs and before it prunes.
    """
    from ctypes import c_int, c_size_t

    trim = getattr(_libc(), "malloc_trim", None)
    if trim is not None:
        trim.argtypes, trim.restype = [c_size_t], c_int
        trim(0)


def run_stages(config: ExperimentConfig, until: str = "eval", resume: bool = False) -> None:
    """Bring every stage up to and including `until` up to date in config.out_dir.

    With `resume`, a stage whose directory holds a matching fingerprint is
    reused; otherwise it is built into `.<directory>.tmp/`, its fingerprint
    written last, and swapped into place, so an interrupted build leaves
    nothing a later resume trusts. Every fingerprint covers the program
    (`program_digest`), so a resumed run rebuilds what other code built. A
    built stage hands its product to the stages that read it; a reused
    stage's product is loaded only when a stage that reads it is built. A
    stage receives each product in a one-item list that it empties; the
    runner keeps the product only for the stages that read it later, so
    the last reader can free it part by part. The heap is trimmed before
    each stage is built, so that the stage's peak is its own work. Only
    when every stage succeeded is config.resolved written and every stage
    directory whose fingerprint does not match this config removed; a failed
    run leaves the outputs of the stages it did not rebuild, and the config
    that made them, in place. An input-file run has no data directory: its
    files are its data.
    """
    # a bad value fails here, before any file of the run is touched
    config.model_ids()
    config.importance_model_ids()
    trees = "tree" in config.classifier_list()
    EmpParams(roi=config.roi, lgd=config.lgd)
    for bad, message in (
        (config.n_trees < 1, f"a forest needs at least one tree, not {config.n_trees}"),
        (config.mtry < 0,
         f"mtry must be 0 (the square root of the feature count) or at least 1, not {config.mtry}"),
        (config.min_leaf < 1, f"min_leaf must be at least 1, not {config.min_leaf}"),
        (not 0 < config.train_fraction < 1, "train_fraction must lie in (0, 1)"),
        (config.undersample_ratio <= 0, "ratio must be positive"),
        (config.importance_max_rows < 0, f"importance_max_rows must be >= 0, not {config.importance_max_rows}"),
        (trees and config.cv_folds < 2, f"depth pruning needs at least 2 folds, not {config.cv_folds}"),
    ):
        if bad:
            raise DataError(message)
    out = Path(config.out_dir)
    program = program_digest()
    prints: dict = {}
    for stage in STAGES:
        prints[stage.name] = _fingerprint(config, stage, [prints[u] for u in stage.upstream], program)
    directories = {stage.name: stage.directory for stage in STAGES}
    owned = [stage for stage in STAGES if not (stage.name == "data" and config.input_cdr)]
    products: dict = {}
    readers = {stage.name: {s.name for s in STAGES if stage.name in s.upstream} for stage in STAGES}
    last_reader = {name: stage.name for stage in STAGES for name in stage.upstream}

    out.mkdir(parents=True, exist_ok=True)
    t_start = time.perf_counter()
    pipeline = None
    for position, stage in enumerate(STAGES[: list(directories).index(until) + 1]):
        target = out / stage.directory
        if stage not in owned:
            continue
        if resume and _stored_fingerprint(target) == prints[stage.name]:
            logger.info("stage %-9s reused", stage.name)
            continue
        if pipeline is None:
            # the stage bodies, their numeric modules and the feature counts that
            # mtry is checked against load only when a stage is built; looked up
            # at each call, so a replaced body is the one run
            from . import pipeline
            pipeline.refuse_mtry_above_features(config)
        for name in stage.upstream:
            if name not in products:
                products[name] = getattr(pipeline, f"load_{name}")(config, out / directories[name])
        t0 = time.perf_counter()
        tmp = out / f".{stage.directory}.tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir()
        try:
            build = getattr(pipeline, f"stage_{stage.name}")
            # handed over in a list, a product is kept alive by neither
            # `products` nor this call's arguments once the stage empties it
            inputs = [[products.pop(u) if last_reader[u] == stage.name else products[u]]
                      for u in stage.upstream]
            _trim_heap()
            product = build(config, tmp, *inputs)
            del inputs
            (tmp / "fingerprint").write_text(prints[stage.name] + "\n")
            shutil.rmtree(target, ignore_errors=True)
            tmp.rename(target)
        except Exception as exc:
            logger.error("stage %s failed: %s", stage.name, exc)
            raise
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        # the data stage's product, its file paths, is loaded after the rename
        if product is not None:
            products[stage.name] = product
        # a product is freed once every stage that reads it has run
        passed = {s.name for s in STAGES[: position + 1]}
        for name in [name for name in products if readers[name] <= passed]:
            del products[name]
        del product
        logger.info("stage %-9s built in %.1fs", stage.name, time.perf_counter() - t0)

    for stage in owned:
        target = out / stage.directory
        stored = _stored_fingerprint(target)
        if stored is not None and stored != prints[stage.name]:
            logger.info("stage %-9s removed: its fingerprint does not match", stage.name)
            shutil.rmtree(target)
    (out / "config.resolved").write_text(dump_config(config))
    logger.info("stages up to %s done in %.1fs", until, time.perf_counter() - t_start)
