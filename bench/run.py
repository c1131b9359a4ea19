"""lunarforge benchmark: real CLI invocations, timed from outside.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each invocation is a fresh interpreter (bench/child.py) running one
lunarforge subcommand, closed loop: the next starts when the previous has
ended.  Invocations repeat for S seconds (at least MIN_INVOCATIONS), and
every one is checked (bench/checks.py).  The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}, where attempted and
failed count stereo pairs.  With --trace 0 the metrics are the end-to-end
ones, measured with nothing patched; with --trace 1 one more invocation runs
under the span tracer and the metrics are the per-layer ones
(bench/layers.py).  Lines before it record the machine and the samples.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import machine

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".bench_work"

os.environ.update(machine.thread_env())  # before numpy is imported below

import numpy as np  # noqa: E402

from checks import check_report, check_scene, tree_digest  # noqa: E402
from layers import PER_LAYER, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Workload, write_predictions  # noqa: E402

MIN_INVOCATIONS = 2
IMPORT_PROBES = 3
INVOCATION_TIMEOUT_S = 150.0
RUN_LIMIT_S = 170.0  # no invocation starts that could end after this

END_TO_END = {  # name -> unit
    "pairs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}


def scene_seed(seed: int, index: int) -> int:
    """lunarforge --seed of the index-th scene of a workload seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


class SetupError(RuntimeError):
    """The workload's inputs could not be prepared."""


@dataclass
class Invocation:
    setup_s: float  # launch to `import lunarforge.cli` done
    wall_s: float   # subcommand only
    rss_mb: float
    errors: list[str] = field(default_factory=list)
    scene: int | None = None


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(machine.thread_env(), PYTHONPATH=str(ROOT / "src"))
    return env


def launch(work: Path, tag: str, cli_args: list[str], spans: Path | None = None,
           importtime: bool = False) -> Invocation:
    """Run one child interpreter to completion and collect its timings."""
    timing = work / f"{tag}.timing.json"
    log = work / f"{tag}.stderr"
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           str(BENCH_DIR / "child.py"), str(timing)]
    if spans is not None:
        cmd += ["--trace", str(spans)]
    if cli_args:
        cmd += ["--", *cli_args]
    with open(log, "wb") as err:
        t_launch = _now()
        proc = subprocess.Popen(cmd, cwd=work, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    inv = Invocation(setup_s=0.0, wall_s=0.0, rss_mb=usage.ru_maxrss / 1024.0)
    if proc.returncode != 0 or not timing.is_file():
        tail = log.read_text(errors="replace").strip().splitlines()[-3:]
        inv.errors.append(f"child exited with {proc.returncode}: {' | '.join(tail)}")
        return inv
    t = json.loads(timing.read_text())
    inv.setup_s = t["imported"] - t_launch
    inv.wall_s = t["end"] - t["start"]
    if t["code"] != 0:
        inv.errors.append(f"lunarforge exited with {t['code']}: {log.read_text().strip()[-300:]}")
    if not Path(t["module"]).is_relative_to(ROOT / "src"):
        inv.errors.append(f"imported lunarforge from {t['module']}, not this checkout")
    return inv


class Runner:
    """Set-up, repeated invocations and checks for one workload and seed.

    Rendering workloads draw a new scene for every invocation (scene seed i
    of the workload seed), so a run's median spans several scenes rather
    than hanging on the traversal cost of one camera tilt.  The
    ``eval_*`` workloads evaluate one dataset, scene 0, in every invocation.
    """

    def __init__(self, workload: Workload, seed: int, work: Path, digests: Path | None = None):
        self.w = workload
        self.seed = seed
        self.work = work
        self.digests = digests
        self.expected = None
        self.seen: dict[int, str] = {}  # scene seed -> output digest
        self.invocations: list[Invocation] = []

    def setup(self) -> list[float]:
        """Warm the interpreter, prepare inputs; returns import-time samples."""
        launch(self.work, "warmup", [])
        if self.w.predictions:
            gt = self.work / "gt"
            dataset_seed = scene_seed(self.seed, 0)
            inv = launch(self.work, "dataset", self.w.scene.argv(dataset_seed, gt))
            try:
                errors = inv.errors or check_scene(self.w.scene, dataset_seed, gt)
                if not errors:
                    self.expected = write_predictions(self.w, self.seed, gt, self.work / "pred")
            except Exception as exc:  # malformed dataset
                errors = [f"{type(exc).__name__}: {exc}"]
            if errors:
                raise SetupError(f"dataset generation failed: {errors}")
        return [launch(self.work, f"probe{i}", []).setup_s for i in range(IMPORT_PROBES)]

    def invoke(self, tag: str, index: int, spans: Path | None = None) -> Invocation:
        """Run invocation `index` (which picks the scene) and check it."""
        out = self.work / tag
        out.mkdir()
        scene = scene_seed(self.seed, 0 if self.w.predictions else index)
        if self.w.predictions:
            args = ["evaluate", "--gt", str(self.work / "gt"), "--pred", str(self.work / "pred"),
                    "--seed", str(self.seed), "--report", str(out / "report.jsonl")]
        else:
            args = self.w.scene.argv(scene, out)
        inv = launch(self.work, tag, args, spans=spans, importtime=spans is not None)
        inv.scene = scene
        if not inv.errors:
            try:
                inv.errors = self._check(out, scene)
            except Exception as exc:  # malformed output is a failed check, not a crash
                inv.errors = [f"check raised {type(exc).__name__}: {exc}"]
        shutil.rmtree(out)
        self.invocations.append(inv)
        return inv

    def _check(self, out: Path, scene: int) -> list[str]:
        """Full check the first time a scene is seen; byte identity after."""
        digest = tree_digest(out)
        if scene in self.seen:
            return [] if digest == self.seen[scene] else [
                "output differs from an earlier invocation on the same inputs"]
        if self.w.predictions:
            errors = check_report(out / "report.jsonl", self.w.scene.pair_ids(),
                                  self.w.predictions, self.expected)
        else:
            errors = check_scene(self.w.scene, scene, out)
        if not errors:
            self.seen[scene] = digest
            errors = self._check_session_digest(scene, digest)
        return errors

    def _check_session_digest(self, scene: int, digest: str) -> list[str]:
        """Outputs for one workload, scene and source tree never change."""
        if self.digests is None:
            return []
        src = machine.code_identity(ROOT)["src_sha256"]
        key = f"{self.w.name}:{self.w.scene}:{self.seed}:{scene}:{src}"
        known = json.loads(self.digests.read_text()) if self.digests.is_file() else {}
        if known.setdefault(key, digest) != digest:
            return ["output differs from an earlier run with the same seed and code"]
        self.digests.write_text(json.dumps(known, indent=1, sort_keys=True))
        return []


def run(workload: Workload, seed: int, seconds: float, trace: bool, work: Path,
        digests: Path | None = None) -> tuple[dict, dict]:
    """Measure one workload; returns (result, samples)."""
    start = _now()
    runner = Runner(workload, seed, work, digests)
    try:
        setup_samples = runner.setup()
    except SetupError as exc:
        print(exc, file=sys.stderr)
        return {"correct": False, "attempted": workload.pairs, "failed": workload.pairs,
                "metrics": {}}, {}

    loop_start = _now()
    longest = 0.0
    while True:
        n = len(runner.invocations)
        if n >= MIN_INVOCATIONS and _now() - loop_start >= seconds:
            break
        reserve = longest if trace else 0.0  # room for the traced invocation
        if n and _now() - start + 1.5 * longest + reserve > RUN_LIMIT_S:
            break
        t0 = _now()
        runner.invoke(f"run{n}", n)
        longest = max(longest, _now() - t0)

    timed = list(runner.invocations)
    ok = [inv for inv in timed if not inv.errors]
    samples = {
        "invocations": len(timed),
        "pairs_per_invocation": workload.pairs,
        "wall_s": [round(inv.wall_s, 4) for inv in timed],
        "setup_s": [round(s, 4) for s in setup_samples + [inv.setup_s for inv in timed]],
        "rss_mb": [round(inv.rss_mb, 1) for inv in timed],
        "errors": [e for inv in timed for e in inv.errors],
    }

    metrics = {}
    if trace:
        spans_path = work / "spans.json"
        inv = runner.invoke("traced", 0, spans=spans_path)
        samples["errors"] += inv.errors
        if not inv.errors:
            # Overhead against untraced invocations on the same inputs.
            walls = [i.wall_s for i in ok if i.scene == inv.scene]
            metrics = layer_metrics(json.loads(spans_path.read_text()),
                                    (work / "traced.stderr").read_text(errors="replace"),
                                    statistics.median(walls) if walls else 0.0)
    elif ok:
        metrics = {
            "pairs_per_s": statistics.median(workload.pairs / inv.wall_s for inv in ok),
            "setup_s": statistics.median(setup_samples + [inv.setup_s for inv in ok]),
            "peak_rss_mb": statistics.median(inv.rss_mb for inv in ok),
        }

    attempted = workload.pairs * len(runner.invocations)
    failed = workload.pairs * sum(1 for inv in runner.invocations if inv.errors)
    if not trace:
        metrics["success_rate"] = (attempted - failed) / attempted
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, samples


def format_metrics(metrics: dict, trace: bool) -> dict:
    units = {k: u for k, (u, _) in PER_LAYER.items()} if trace else END_TO_END
    return {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    missing = [p for p in ("src/lunarforge/cli.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: {', '.join(missing)} not found under {ROOT}; run from a lunarforge "
              "checkout", file=sys.stderr)
        return 2
    sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests")]

    work = WORK_ROOT / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result, samples = run(WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace), work, digests=WORK_ROOT / "digests.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for error in samples.get("errors", []):
        print(f"bench: check failed: {error}", file=sys.stderr)
    result["metrics"] = format_metrics(result["metrics"], bool(args.trace))
    print("machine " + json.dumps(machine.describe(ROOT), sort_keys=True))
    print("samples " + json.dumps(samples, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
