"""End-to-end benchmark of the bfx command line, with a traced per-layer run.

Usage, from the repository root:

    python3 bench/run.py --workload city-1024 --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --workload all --seed 1 --trace 1
    python3 bench/run.py --selftest

Each run writes a corpus generated from --seed under bench/work/, then:

--trace 0  times the real CLI, one fresh interpreter per invocation and
           `--threads 2` on every call, the way users run it. It reports
           setup_s (fresh interpreter until `import bfx.cli` is done,
           median of several starts spread over the run), run_s (wall time
           of one pass of the workload's calls, median over the passes made
           in --seconds, at least two) and peak_rss_mb (largest resident
           set of any call in a pass, median over passes), plus per-stage
           totals and failed_frac as information lines.
--trace 1  runs the same calls in this process: a checked warm-up pass,
           an untraced pass, a pass with every public package function
           wrapped in a span recorder (see spans.py), and another untraced
           pass. It reports per-function self times, call and work counts,
           the largest shares of self time, and the tracing overhead. The
           spans are written to bench/work/<workload>/trace.jsonl.

Every pass is checked. A reference pass (untimed at `--threads 1`; with
--trace 1, the warm-up pass) is compared against values derived from the
generator (workloads.py), and every other pass must reproduce its
artifacts byte for byte. A call fails
when it exits nonzero or its artifacts fail either check; failures count in
`failed` and make `correct` false.

Every metric is printed as `name = value unit`; the last line is one JSON
object {"correct", "attempted", "failed", "metrics"}. The exit status is 0
when every check passed, 1 when one failed, and 2, with no result printed,
when bfx cannot be imported from src/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH, "work")
sys.path.insert(0, BENCH)

import spans  # noqa: E402
import workloads  # noqa: E402

THREADS = 2
MIN_PASSES = 2
ENTRY = "import sys\nfrom bfx.cli import main\nsys.exit(main())"  # the `bfx` console script
PROBE = "import bfx.cli\nprint(bfx.cli.__file__)"
ENV = dict(os.environ, PYTHONPATH=SRC)
CALL_TIMEOUT = 150  # seconds; a call still running then is killed and counts as failed

E2E_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
LAYER_MS = (
    "targets.assemble_targets", "targets.rasterize_polygon", "targets.make_spacing_mask",
    "raster.erode", "raster.dilate", "raster.chebyshev_distance", "raster.connected_components",
    "extract.watershed_assign", "extract.filter_small", "extract.polygonize",
    "extract.polygon_set_to_geojson", "extract.polygon_set_from_geojson",
    "fusion.tta_average", "fusion.ensemble_average", "fusion.binarize",
    "formats.read_pmap", "formats.write_pmap", "formats.read_imap", "formats.write_imap",
    "formats.write_pgm", "formats.write_ppm", "formats.atomic_write_text",
    "evaluate.rasterize_polygon_set", "evaluate.match_instances", "evaluate.color_map",
    "annotations.ingest_annotations", "dataprep.tile_index", "dataprep.kfold_assign",
    "trainmath.gradient_check", "trainmath.cutmix",
)
LAYER_CALLS = ("targets.rasterize_polygon", "raster.connected_components", "extract.watershed_assign")


class MissingProgram(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# running calls
# ---------------------------------------------------------------------------


def setup_sample() -> float:
    """Seconds from a fresh interpreter start until `import bfx.cli` is done."""
    start = time.perf_counter()
    p = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                       env=ENV, cwd=ROOT, timeout=120)
    elapsed = time.perf_counter() - start
    where = os.path.realpath(p.stdout.strip() or ".")
    if p.returncode != 0 or not where.startswith(os.path.realpath(SRC) + os.sep):
        raise MissingProgram(f"cannot import bfx.cli from {SRC}: {p.stderr.strip()[-300:]}")
    return elapsed


def run_subprocess(args, log):
    """One CLI call in a fresh interpreter: (exit code, seconds, peak RSS MB,
    stdout, followed by stderr when the call failed)."""
    with open(log + ".out", "wb+") as out, open(log + ".err", "wb+") as err:
        start = time.perf_counter()
        p = subprocess.Popen([sys.executable, "-c", ENTRY, *args], stdout=out, stderr=err,
                             env=ENV, cwd=ROOT)
        watchdog = threading.Timer(CALL_TIMEOUT, p.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(p.pid, 0)  # unlike Popen.wait, also gives the peak RSS
        except BaseException:
            p.kill()
            p.wait()
            raise
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - start
        p.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        text = out.read().decode(errors="replace")
        if p.returncode != 0:
            text += err.read().decode(errors="replace")
        return p.returncode, elapsed, usage.ru_maxrss / 1024.0, text


def run_in_process(args, log):
    """The same call through `bfx.cli.main` in this process (log unused)."""
    import bfx.cli
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = bfx.cli.main(list(args))
        except Exception:  # a crash is a failed call, as it is for a subprocess
            traceback.print_exc()
            code = 1
    elapsed = time.perf_counter() - start
    return code, elapsed, 0.0, out.getvalue() + (err.getvalue() if code != 0 else "")


def digest(path):
    try:
        with open(path, "rb") as f:
            return hashlib.sha256(f.read()).hexdigest()
    except OSError:
        return None


class Pass:
    """One pass of a workload's calls into a fresh output directory."""

    def __init__(self, wl, run_dir, threads, runner):
        shutil.rmtree(run_dir, ignore_errors=True)
        wl.prepare(run_dir)
        self.calls = wl.calls(run_dir, threads)
        log = os.path.join(os.path.dirname(run_dir), "call")
        start = time.perf_counter()
        self.results = [runner(c.args, log) for c in self.calls]
        self.wall = time.perf_counter() - start
        self.digests = [[digest(p) for p in c.outputs] for c in self.calls]
        self.bad: set = set()  # calls failing the generator checks (reference passes)
        self.problems: list = []

    def stage_seconds(self) -> dict:
        out = {}
        for call, res in zip(self.calls, self.results):
            out[call.stage + "_s"] = out.get(call.stage + "_s", 0.0) + res[1]
        return out

    def peak_rss(self) -> float:
        return max(r[2] for r in self.results)

    def failed_calls(self, reference) -> set:
        """Calls that exited nonzero or whose artifacts differ from the
        reference pass (or from the generator, as recorded there)."""
        bad = set()
        for k, (res, dig) in enumerate(zip(self.results, self.digests)):
            if res[0] != 0 or None in dig or dig != reference.digests[k] or k in reference.bad:
                bad.add(k)
        return bad


def reference_pass(wl, run_dir, threads, runner) -> Pass:
    """A pass whose artifacts are checked against the generator."""
    ref = Pass(wl, run_dir, threads, runner)
    try:
        problems = wl.check(run_dir, ref.calls, [r[3] for r in ref.results])
    except (OSError, ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        problems = {k: [f"artifacts unreadable: {exc!r}"] for k in range(len(ref.calls))}
    for k, res in enumerate(ref.results):
        msgs = list(problems.get(k, []))
        if res[0] != 0:
            msgs.append(f"exit status {res[0]}: {res[3][-200:]}")
        if None in ref.digests[k]:
            msgs.append("missing outputs")
        if msgs:
            ref.bad.add(k)
            ref.problems += [f"call {k} ({ref.calls[k].args[0]}): {m}" for m in msgs]
    return ref


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def timed_run(wl, work, seconds):
    # set-up samples are spread over the run, so that the median sees the
    # same drift in machine speed as the passes do
    setup = [setup_sample() for _ in range(3)]
    ref = reference_pass(wl, os.path.join(work, "run"), 1, run_subprocess)
    attempted, failed, problems = len(ref.calls), len(ref.bad), ref.problems
    passes = []
    while len(passes) < MIN_PASSES or sum(p.wall for p in passes) < seconds:
        p = Pass(wl, os.path.join(work, "run"), THREADS, run_subprocess)
        bad = p.failed_calls(ref)
        attempted += len(p.calls)
        failed += len(bad)
        problems += [f"timed pass {len(passes)} call {k}: " + (f"exit status {p.results[k][0]}" if p.results[k][0]
                     else "artifacts differ from the --threads 1 pass") for k in sorted(bad - ref.bad)]
        passes.append(p)
        setup += [setup_sample() for _ in range(2)]
    walls = [p.wall for p in passes]
    metrics = {"setup_s": statistics.median(setup), "run_s": statistics.median(walls),
               "peak_rss_mb": statistics.median(p.peak_rss() for p in passes)}
    stages = [p.stage_seconds() for p in passes]
    info = {k: (statistics.median(s[k] for s in stages), "s") for k in stages[0]}
    q1, _, q3 = statistics.quantiles(walls, n=4)
    calls = len(passes[0].calls)
    info.update({
        "passes": (len(passes), "count"), "run_s.q1": (q1, "s"), "run_s.q3": (q3, "s"),
        "setup_s.samples": (len(setup), "count"), "cli.invocations": (calls, "count"),
        "setup_share": (metrics["setup_s"] * calls / metrics["run_s"], "ratio"),
        "corpus_mpx": (wl.megapixels, "Mpx"), "corpus_scenes": (wl.scenes, "count"),
        "throughput": (wl.megapixels / metrics["run_s"], "Mpx/s"),
        "failed_frac": (failed / attempted, "ratio"),
    })
    return metrics, info, attempted, failed, problems


def traced_run(wl, work):
    """A traced in-process pass between two untraced ones, after a checked
    warm-up pass. Per-layer metrics come from the traced pass, which must
    reproduce the untraced artifacts; the overhead compares it with the
    mean of the two passes around it, which cancels a steady drift in
    machine speed."""
    run_dir = os.path.join(work, "run")
    ref = reference_pass(wl, run_dir, THREADS, run_in_process)
    before = Pass(wl, run_dir, THREADS, run_in_process)
    tracer = spans.Tracer()
    tracer.install()
    try:
        p = Pass(wl, run_dir, THREADS, run_in_process)
    finally:
        tracer.uninstall()
    after = Pass(wl, run_dir, THREADS, run_in_process)
    bad = sum(len(x.failed_calls(ref)) for x in (before, p, after))
    untraced = (before.wall + after.wall) / 2
    tracer.write_jsonl(os.path.join(work, "trace.jsonl"))
    s = spans.summarize(tracer)
    with open(os.path.join(work, "trace_summary.json"), "w", encoding="utf-8") as f:
        json.dump(s, f, indent=1, sort_keys=True)

    fn_self, calls, counts = s["self_ms"], s["calls"], s["counts"]
    metrics = {}
    for name in LAYER_MS:
        metrics[name + ".ms"] = (fn_self.get(name, 0.0), "ms")
    for name in LAYER_CALLS:
        metrics[name + ".calls"] = (calls.get(name, 0), "count")
    kept, entered = counts.get("extract.instances_kept", 0), counts.get("extract.labels_in", 0)
    metrics.update({
        "extract.instances_kept": (kept, "count"),
        "extract.kept_ratio": (kept / entered if entered else 0.0, "ratio"),
        "extract.polygon_vertices": (counts.get("extract.polygon_vertices", 0), "count"),
        "fusion.mb_in": (counts.get("fusion.bytes_in", 0) / 1e6, "MB"),
        "formats.mb_read": (counts.get("formats.bytes_read", 0) / 1e6, "MB"),
        "formats.mb_written": (counts.get("formats.bytes_written", 0) / 1e6, "MB"),
        "evaluate.pairs_matched": (counts.get("evaluate.pairs_matched", 0), "count"),
        "trainmath.loss_evals": (calls.get("trainmath.dice_loss", 0) + calls.get("trainmath.bce_loss", 0),
                                 "count"),
        "cli.main.self.ms": (s["layer_self_ms"].get("cli", 0.0), "ms"),
        "cli.invocations": (calls.get("cli.main", 0), "count"),
    })
    for layer in spans.LAYERS[:-1]:
        metrics[layer + ".self.ms"] = (s["layer_self_ms"].get(layer, 0.0), "ms")
    total_self = sum(s["layer_self_ms"].values())
    info = {"trace.overhead": (p.wall / untraced - 1.0, "ratio"),
            "trace.untraced_pass_s": (untraced, "s"), "trace.traced_pass_s": (p.wall, "s"),
            "trace.spans": (s["spans"], "count")}
    for layer, ms in sorted(s["layer_self_ms"].items(), key=lambda kv: -kv[1])[:3]:
        info[f"share.{layer}"] = (ms / total_self, "ratio")
    for fn, ms in sorted(fn_self.items(), key=lambda kv: -kv[1])[:3]:
        info[f"share.{fn}"] = (ms / total_self, "ratio")
    return metrics, info, 4 * len(p.calls), len(ref.bad) + bad, ref.problems


def run_workload(name, seed, seconds, traced):
    work = os.path.join(WORK, name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    if not traced:
        setup_sample()  # fail before generating anything when bfx is absent
    else:
        import_package()
    wl = workloads.make(name, os.path.join(work, "corpus"), seed)
    if traced:
        metrics, info, attempted, failed, problems = traced_run(wl, work)
    else:
        raw, info, attempted, failed, problems = timed_run(wl, work, seconds)
        metrics = {k: (v, E2E_UNITS[k]) for k, v in raw.items()}
    shutil.rmtree(os.path.join(work, "run"), ignore_errors=True)
    shutil.rmtree(os.path.join(work, "corpus"), ignore_errors=True)
    return metrics, info, attempted, failed, problems


def import_package():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        import bfx.cli
    except ImportError as exc:
        raise MissingProgram(f"cannot import bfx.cli from {SRC}: {exc}") from None
    if not os.path.realpath(bfx.cli.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise MissingProgram(f"bfx.cli resolves outside {SRC}: {bfx.cli.__file__}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12.0,
                    help="timed passes continue until this much pass time (--trace 0)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true", help="run the benchmark's own checks and exit")
    args = ap.parse_args(argv)
    if args.selftest:
        import selftest
        return selftest.main()

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            metrics, info, attempted, failed, problems = run_workload(
                name, args.seed, args.seconds, bool(args.trace))
            print(f"# workload {name} seed {args.seed} trace {args.trace}")
            for key, (value, unit) in list(metrics.items()) + list(info.items()):
                print(f"{key} = {value:.6g} {unit}")
            for line in problems[:20]:
                print(f"FAILED {line}")
            prefix = "" if len(names) == 1 else name + "/"
            total["attempted"] += attempted
            total["failed"] += failed
            total["correct"] = total["correct"] and failed == 0
            total["metrics"].update({prefix + k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    except MissingProgram as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
