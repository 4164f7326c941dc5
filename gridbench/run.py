"""gridpairs benchmark: one workload, one process, one client.

    python3 gridbench/run.py --workload disk-lift --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; it imports the program from `src/`.
A request is one document transformed by one operation: a CLI
subcommand run in-process through `gridpairs.cli.main` on files, or
`layer` run as parse_text -> layer -> serialize, the path the CLI takes.
The load is a closed loop: one client sends the next request when the
previous one returns.  It runs whole passes over a fixed request list
generated from --seed, until --seconds have passed and there are at
least MIN_SAMPLES latencies, so every request weighs the same in the
percentiles and p95 always has 10 samples beyond it.

Times are scaled to a reference CPU speed (see calibration.py), because
the speed a process gets on a shared host drifts by up to 2x; the
unscaled figures are printed too.  With --trace 0 the run reports the
end-to-end metrics.  Set-up is timed from the first line of this file to
the first timed request: after the loop, SETUP_REPEATS fresh processes
run that far and stop (--setup-only), and the median of their cold
set-ups is reported.  With --trace 1 it alternates plain and traced
passes and reports per-layer figures per traced pass (see tracer.py),
the tracing overhead and the baseline rows (see baseline.py).  Every
distinct request's output is checked once after the loop; a request
fails if it raises, returns the wrong exit code, or writes a wrong
output or one that differs between passes.

Lines starting with '#' describe the run (per-request sizes and
latencies, failures, the reference timings, the set-up samples, the
chosen tail percentile, the unscaled figures); the last line of
standard output is the JSON result.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "_work"

SETUP_REPEATS = 5
MIN_SAMPLES = 200
TAIL_PERCENTILES = (99, 95, 90)
TAIL_MIN_BEYOND = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("disk-lift", "noise-fullset",
                                 "far-clusters"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the smoke test")
    parser.add_argument("--setup-only", action="store_true",
                        help="print only the set-up time and stop")
    return parser.parse_args(argv)


def execute(req, work: Path) -> int:
    """Run one request and return its exit code."""
    from gridpairs import cli, formats, layers

    infile, outfile = str(work / req.infile), str(work / req.outfile)
    if req.op == "layer":
        with open(infile, encoding="utf-8") as handle:
            doc = formats.parse_text(handle.read())
        text = formats.serialize(layers.layer(doc, req.param), req.fmt)
        with open(outfile, "w", encoding="utf-8") as handle:
            handle.write(text)
        return 0
    argv = [req.op, "-i", infile, "-o", outfile, "--format", req.fmt]
    if req.param is not None:
        argv += ["--ratio", str(req.param)]
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        return exc.code


def warm_up(requests, work: Path) -> None:
    """Run, for each operation, every request of its smallest document."""
    size = {}
    for req in requests:
        path = work / req.infile
        if path.exists():
            size[req.name] = path.stat().st_size
    docs = set()
    for op in {req.op for req in requests}:
        sized = [req for req in requests if req.op == op and req.name in size]
        if sized:
            docs.add(min(sized, key=lambda req: size[req.name]).doc)
    for req in requests:
        if req.doc in docs:
            execute(req, work)


class Loop:
    """Timed passes over the request list, with the outputs they wrote."""

    def __init__(self, requests, work: Path, speed):
        self.requests = requests
        self.work = work
        self.speed = speed
        self.latencies = {req.name: [] for req in requests}  # unscaled
        self.scaled = {req.name: [] for req in requests}
        self.loop_s = 0.0  # the loop's time without the references
        self.loop_scaled = 0.0
        self.outputs = {}
        self.failed = Counter()
        self.reasons = {}
        self._reference = None  # the last reference timing

    def run_pass(self) -> float:
        """One pass over the requests; returns its scaled request time."""
        return sum(self._run(req) for req in self.requests)

    def _run(self, req) -> float:
        before = self._reference or self.speed.reference()
        begin = time.perf_counter()
        out = self.work / req.outfile
        out.unlink(missing_ok=True)
        start = time.perf_counter()
        try:
            code = execute(req, self.work)
        except Exception as exc:  # a failed request, counted below
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        self.latencies[req.name].append(elapsed)
        text = out.read_text(encoding="utf-8") if out.exists() else None
        reason = None
        if code != req.expect_exit:
            reason = f"exit {code!r}, expected {req.expect_exit}"
        elif text is None:
            reason = "no output"
        elif self.outputs.setdefault(req.name, text) != text:
            reason = "output differs between passes"
        if reason:
            self.failed[req.name] += 1
            self.reasons.setdefault(req.name, reason)
        interval = time.perf_counter() - begin
        self._reference = self.speed.reference()
        factor = self.speed.scale(1.0, before, self._reference)
        self.scaled[req.name].append(elapsed * factor)
        self.loop_s += interval
        self.loop_scaled += interval * factor
        return elapsed * factor

    @property
    def attempted(self) -> int:
        return sum(len(times) for times in self.latencies.values())

    def samples(self, scaled: bool = True):
        by_request = self.scaled if scaled else self.latencies
        return [t for times in by_request.values() for t in times]

    def check(self) -> None:
        """Check each distinct output once against an independent route."""
        import checks

        for req in self.requests:
            if req.name in self.reasons or req.name not in self.outputs:
                continue
            in_text = (self.work / req.infile).read_text(encoding="utf-8")
            try:
                reason = checks.check(req, in_text, self.outputs[req.name])
            except Exception as exc:  # a crashing check is a failed output
                reason = f"check raised {type(exc).__name__}: {exc}"
            if reason:
                self.failed[req.name] = len(self.latencies[req.name])
                self.reasons[req.name] = reason


def tail(samples):
    """The highest of p99/p95/p90 with enough samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p * n / 100)
        if n - rank >= TAIL_MIN_BEYOND:
            return f"p{p}", ordered[rank - 1], n - rank
    return "max", ordered[-1], 0


def plain_passes(loop: Loop, seconds: float, min_samples: int) -> None:
    """Whole passes until `seconds` have passed and there are at least
    `min_samples` latencies."""
    start = time.perf_counter()
    while (loop.attempted < min_samples
           or time.perf_counter() - start < seconds):
        loop.run_pass()


def traced_passes(loop: Loop, seconds: float):
    """Alternate plain and traced passes; per-layer metrics per traced pass."""
    import tracer

    recorder = tracer.Tracer()
    plain_s = traced_s = 0.0
    passes = 0
    start = time.perf_counter()
    while passes < 1 or time.perf_counter() - start < seconds:
        plain_s += loop.run_pass()
        recorder.install()
        try:
            traced_s += loop.run_pass()
        finally:
            recorder.uninstall()
        passes += 1
    metrics = tracer.layer_metrics(recorder, passes,
                                   passes * len(loop.requests),
                                   loop.speed.median_factor())
    metrics["trace_overhead"] = (plain_s / traced_s, "ratio")
    return metrics, sorted(recorder.absent)


def set_up(args, work: Path):
    """Write the inputs, warm up, and return the requests and set-up time."""
    import workloads

    requests = workloads.build(args.workload, args.seed, work, args.smoke)
    warm_up(requests, work)
    return requests, time.perf_counter() - START


def cold_set_up(args, speed) -> Tuple[float, float]:
    """The unscaled and scaled set-up time of a fresh process that stops
    before the loop."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "0", "--setup-only"]
    command += ["--smoke"] if args.smoke else []
    before = speed.settled()
    proc = subprocess.run(command, capture_output=True, text=True,
                          check=True, timeout=60)
    seconds = float(proc.stdout.splitlines()[-1])
    return seconds, speed.scale(seconds, before, speed.settled())


def run(args, work: Path, speed) -> dict:
    import baseline
    import calibration
    import checks

    requests, own_setup_s = set_up(args, work)
    loop = Loop(requests, work, speed)
    if args.trace:
        metrics, absent = traced_passes(loop, args.seconds)
    else:
        plain_passes(loop, args.seconds, MIN_SAMPLES)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    loop.check()

    sizes = {}  # by input file; requests on one file share a source
    for req in requests:
        if req.infile not in sizes:
            in_text = (work / req.infile).read_text(encoding="utf-8")
            sizes[req.infile] = checks.sizes(req, in_text)
        row = {"request": req.name, "op": req.op, "param": req.param,
               **sizes[req.infile],
               "runs": len(loop.latencies[req.name]),
               "p50_ms": statistics.median(loop.scaled[req.name]) * 1000,
               "p50_ms_unscaled":
                   statistics.median(loop.latencies[req.name]) * 1000,
               "failed": loop.failed[req.name]}
        print("# " + json.dumps(row))
    for name, reason in loop.reasons.items():
        print(f"gridbench: {name} failed: {reason}", file=sys.stderr)

    attempted = loop.attempted
    failed = sum(loop.failed.values())
    print(f"# fail_ratio: {failed / attempted} ({failed} of {attempted})")
    reference = speed.samples
    print(f"# reference: median {statistics.median(reference) * 1000:.3f}"
          f" ms over {len(reference)} timings, range "
          f"{min(reference) * 1000:.3f}-{max(reference) * 1000:.3f} ms; "
          f"times are scaled to {calibration.REFERENCE_S * 1000:g} ms")
    if args.trace:
        if absent:
            print("# absent (not measured): " + ", ".join(absent))
        metrics.update(baseline.probe(args.seed, args.smoke, speed))
    else:
        setups = [cold_set_up(args, speed) for _ in range(SETUP_REPEATS)]
        print("# setup_s: median of cold set-ups in fresh processes, "
              "scaled " + ", ".join(f"{t[1]:.4f}" for t in setups)
              + ", unscaled " + ", ".join(f"{t[0]:.4f}" for t in setups)
              + f"; this process's own {own_setup_s:.4f}")
        samples = loop.samples()
        label, tail_s, beyond = tail(samples)
        print(f"# req_tail_ms: {label} of {len(samples)} samples, "
              f"{beyond} beyond it")
        raw = loop.samples(scaled=False)
        completed = attempted - failed
        print(f"# unscaled: setup_s "
              f"{statistics.median(t[0] for t in setups):.6g}, req_p50_ms "
              f"{statistics.median(raw) * 1000:.6g}, req_tail_ms "
              f"{tail(raw)[1] * 1000:.6g}, docs_per_s "
              f"{completed / loop.loop_s:.6g} over {loop.loop_s:.3f} s")
        metrics = {
            "setup_s": (statistics.median(t[1] for t in setups), "s"),
            "req_p50_ms": (statistics.median(samples) * 1000, "ms"),
            "req_tail_ms": (tail_s * 1000, "ms"),
            "docs_per_s": (completed / loop.loop_scaled, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ok_ratio": (1 - failed / attempted, "ratio"),
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gridpairs" / "__init__.py").is_file():
        print(f"gridbench: the program's source {SRC} is missing; run this "
              "from the root of a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gridpairs

    if Path(gridpairs.__file__).resolve().parent != SRC / "gridpairs":
        print(f"gridbench: imported gridpairs from {gridpairs.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import baseline  # noqa: F401 - the benchmark's imports count as set-up
    import calibration
    import checks  # noqa: F401
    import tracer  # noqa: F401
    import workloads  # noqa: F401

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        if args.setup_only:
            result = set_up(args, work)[1]
        else:
            with calibration.Speed() as speed:
                result = run(args, work, speed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
