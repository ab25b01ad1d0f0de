"""Seconds and peak RSS per stage of one `callscore run`, printed as JSON.

    PYTHONPATH=src python3 tools/stage_rss.py CONFIG [OUT_DIR]

Runs `runner.run_stages` on CONFIG (into OUT_DIR if given) in this process,
with each `pipeline.stage_<name>` wrapped. When a stage ends it records the
stage's seconds, this process's `ru_maxrss` (RUSAGE_SELF) and that of the
pool workers that have ended (RUSAGE_CHILDREN), in MB. `ru_maxrss` only
rises, so each figure is the peak up to the end of that stage.
"""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import sys
import time

# one BLAS thread, as in callbench; set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from callscore import pipeline  # noqa: E402
from callscore.runner import STAGES, load_config, run_stages  # noqa: E402


def _peak_mb(who: int) -> float:
    return round(resource.getrusage(who).ru_maxrss / 1024, 1)  # Linux reports kB


def _timed(name: str, body, stages: dict):
    def run(*args):
        t0 = time.perf_counter()
        try:
            return body(*args)
        finally:
            stages[name] = {
                "seconds": round(time.perf_counter() - t0, 3),
                "main_peak_mb": _peak_mb(resource.RUSAGE_SELF),
                "workers_peak_mb": _peak_mb(resource.RUSAGE_CHILDREN),
            }
    return run


def main(argv: list) -> int:
    config = load_config(argv[0])
    if len(argv) > 1:
        config = dataclasses.replace(config, out_dir=argv[1])
    stages: dict = {}
    for stage in STAGES:  # run_stages looks each body up when it builds the stage
        name = f"stage_{stage.name}"
        setattr(pipeline, name, _timed(stage.name, getattr(pipeline, name), stages))
    t0 = time.perf_counter()
    run_stages(config)
    print(json.dumps({"wall_s": round(time.perf_counter() - t0, 3), "stages": stages}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
