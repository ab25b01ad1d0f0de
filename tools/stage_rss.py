"""Seconds and peak RSS per stage of one `callscore run`, printed as JSON.

    PYTHONPATH=src python3 tools/stage_rss.py CONFIG [OUT_DIR]

Runs `runner.run_stages` on CONFIG (into OUT_DIR if given) in this process,
with each `pipeline.stage_<name>` wrapped. When a stage ends it records the
stage's seconds, this process's `ru_maxrss` (RUSAGE_SELF) and that of the
pool workers that have ended (RUSAGE_CHILDREN), in MB. `ru_maxrss` only
rises, so those figures are the peak up to the end of that stage. A thread
reads this process's resident set from /proc/self/statm about every
millisecond, so each stage also gets its starting RSS and its own peak
(`rss_start_mb`, `rss_peak_mb`). It reads the resident set of each child
that /proc/self/task/*/children lists too, so each stage gets the largest
resident set of any of its own pool workers (`workers_rss_peak_mb`, 0 for
a stage that forks none).
"""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import sys
import threading
import time

# one BLAS thread, as in callbench; set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from callscore import pipeline  # noqa: E402
from callscore.runner import STAGES, load_config, run_stages  # noqa: E402

_MB_PER_PAGE = os.sysconf("SC_PAGE_SIZE") / 2**20


def _peak_mb(who: int) -> float:
    return round(resource.getrusage(who).ru_maxrss / 1024, 1)  # Linux reports kB


class _Sampler(threading.Thread):
    """The highest resident set seen while each stage runs, sampled about every millisecond.

    It sleeps rather than waits on an Event, so it holds no lock when the
    stages' fork pools copy this process.
    """

    def __init__(self):
        super().__init__(daemon=True)
        self.statm = os.open("/proc/self/statm", os.O_RDONLY)
        self.stage = None
        self.peaks: dict = {}
        self.worker_peaks: dict = {}
        self.done = False

    def rss_mb(self) -> float:
        return int(os.pread(self.statm, 64, 0).split()[1]) * _MB_PER_PAGE

    @staticmethod
    def workers_rss_mb() -> float:
        """The largest resident set among this process's children, 0 without any."""
        pages = [0]
        for task in os.listdir("/proc/self/task"):
            try:
                with open(f"/proc/self/task/{task}/children", "rb") as fh:
                    children = fh.read().split()
            except OSError:  # the thread has ended
                continue
            for pid in children:
                try:
                    with open(b"/proc/%s/statm" % pid, "rb") as fh:
                        pages.append(int(fh.read().split()[1]))
                except (OSError, IndexError):  # the child has ended
                    continue
        return max(pages) * _MB_PER_PAGE

    def sample(self) -> None:
        stage, rss, workers = self.stage, self.rss_mb(), self.workers_rss_mb()
        if stage is not None:
            self.peaks[stage] = max(self.peaks[stage], rss)
            self.worker_peaks[stage] = max(self.worker_peaks[stage], workers)

    def run(self) -> None:
        while not self.done:
            self.sample()
            time.sleep(0.001)


def _timed(name: str, body, stages: dict, sampler: _Sampler):
    def run(*args):
        start = sampler.rss_mb()
        sampler.peaks[name] = start
        sampler.worker_peaks[name] = 0.0
        sampler.stage = name
        t0 = time.perf_counter()
        try:
            return body(*args)
        finally:
            seconds = time.perf_counter() - t0
            sampler.sample()
            sampler.stage = None
            stages[name] = {
                "seconds": round(seconds, 3),
                "main_peak_mb": _peak_mb(resource.RUSAGE_SELF),
                "workers_peak_mb": _peak_mb(resource.RUSAGE_CHILDREN),
                "rss_start_mb": round(start, 1),
                "rss_peak_mb": round(sampler.peaks[name], 1),
                "workers_rss_peak_mb": round(sampler.worker_peaks[name], 1),
            }
    return run


def main(argv: list) -> int:
    config = load_config(argv[0])
    if len(argv) > 1:
        config = dataclasses.replace(config, out_dir=argv[1])
    stages: dict = {}
    sampler = _Sampler()
    for stage in STAGES:  # run_stages looks each body up when it builds the stage
        name = f"stage_{stage.name}"
        setattr(pipeline, name, _timed(stage.name, getattr(pipeline, name), stages, sampler))
    sampler.start()
    t0 = time.perf_counter()
    try:
        run_stages(config)
    finally:
        sampler.done = True
        sampler.join()
        os.close(sampler.statm)
    print(json.dumps({"wall_s": round(time.perf_counter() - t0, 3), "stages": stages}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
