#!/usr/bin/env python3
"""treetour benchmark: verdicts per second, latency, set-up time, memory.

Run from the repository root::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36

Workloads (see ``workloads.py``): ``campaign``, ``large``, ``decompose``.
Each runs serially, as a closed loop with one client in one process: an
op starts only after the previous one finished.  A run executes whole
rounds of seeded ops and stops at the round boundary nearest to
``--seconds`` of wall time; round 0 is the one whose inputs are timed as
set-up and whose verdicts enter the digest, later rounds use fresh inputs
generated outside the timed region.

Only the library call of an op is timed.  Every output is re-checked by
``check.py`` afterwards; a failure costs its time and adds no verdict.

Times are scaled to a reference host speed (``hostspeed.py``): the
reference kernel, which does not call treetour, is timed before and
after every op, and the op's wall time is multiplied by ``REF_S`` over
the kernel time around it.  This removes the shared host's drift, which
reaches 1.6x over minutes, from the figures.  The wall-clock figures and
the scale factors are kept in the result file.

``--trace 0`` reports the end-to-end metrics, all from scaled times:

- ``verdicts_per_s``: checked verdicts per scaled second of library calls;
- ``verdict_s_p50``, ``verdict_s_p90``: op time percentiles (inclusive
  interpolation over whole rounds), failed ops ranked slowest;
- ``setup_s``: imports plus round-0 input generation, the median of one
  in-process and four fresh-process set-ups;
- ``peak_rss_mb``: ``ru_maxrss`` of this process.

``--trace 1`` runs round 0 untraced, then regenerates and runs it again
with the span recorder of ``spans.py`` installed, and reports per-layer
calls, self time (wall clock) and counts, plus traced and untraced
verdicts per scaled second (their ratio is the tracing overhead).  Spans are
written to ``.perfbench_out/``.  The last line of standard output is
always one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
FRESH_SETUPS = 4
# A run measures for at most this much wall time, whatever ``--seconds`` says,
# so that it ends well inside the three-minute limit.
WALL_LIMIT_S = 120.0


def load_library():
    """Import treetour from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import treetour

    where = Path(treetour.__file__).resolve().parent
    if where != SRC / "treetour":
        raise ImportError(f"treetour was found at {where}, not under {SRC}")
    return treetour


def provenance(workload, seed: int, seconds: int, trace: bool) -> dict:
    sources = hashlib.sha256()
    for path in sorted((SRC / "treetour").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": git_commit(),
        "source_sha256": sources.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": workload.params,
    }


def git_commit() -> str | None:
    """HEAD of the checkout's git directory, if the checkout has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def fresh_setup_s(name: str, seed: int) -> float:
    """Scaled set-up time of a new interpreter: imports plus round-0 inputs."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def timed_call(op):
    """Run one op, timing only the library call; an exception is its result."""
    start = time.perf_counter()
    try:
        out = op.call()
    except Exception as exc:  # a failed op is counted, not fatal
        out = exc
    return out, time.perf_counter() - start


def quantile(values: list[float], q: float) -> float:
    """Inclusive-interpolation quantile of values sorted ascending."""
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


class Tally:
    """Checked ops of one phase: times, verdict counts, errors, digest.

    Only ``(scaled seconds, attempted, failed)`` is kept per op and digest records
    are hashed as they arrive, so memory does not grow with the number of
    rounds a faster program fits into a run.
    """

    def __init__(self) -> None:
        self.ops: list[tuple[float, int, int]] = []
        self.wall_s = 0.0
        self.scales: list[float] = []
        self.errors: list[str] = []
        self._hash = hashlib.sha256()

    def add(self, wall_s: float, scale: float, outcome, *, digest: bool) -> None:
        """Add an op that took ``wall_s``, scaled by ``scale`` to reference speed."""
        self.ops.append((wall_s * scale, outcome.attempted, outcome.failed))
        self.wall_s += wall_s
        self.scales.append(scale)
        if outcome.error:
            self.errors.append(outcome.error)
        if digest:
            canonical = json.dumps(outcome.record, sort_keys=True, separators=(",", ":"))
            self._hash.update(canonical.encode())
            self._hash.update(b"\n")

    @property
    def digest(self) -> str:
        """sha256 over the canonical JSON of every digested record, in op order."""
        return self._hash.hexdigest()

    @property
    def attempted(self) -> int:
        return sum(a for _, a, _ in self.ops)

    @property
    def failed(self) -> int:
        return sum(f for _, _, f in self.ops)

    @property
    def timed_s(self) -> float:
        return sum(s for s, _, _ in self.ops)

    def verdicts_per_s(self) -> float:
        return (self.attempted - self.failed) / self.timed_s

    def latency(self, q: float) -> float:
        """Op time quantile, with failed ops ranked after every success."""
        ok = sorted(s for s, _, f in self.ops if not f)
        slowest = max(s for s, _, _ in self.ops)
        return quantile(ok + [slowest] * sum(1 for _, _, f in self.ops if f), q)


class Result:
    """What one workload run reports."""

    def __init__(
        self, name: str, tallies: list[Tally], digest: str, metrics: dict, extra: dict
    ) -> None:
        self.name = name
        self.attempted = sum(t.attempted for t in tallies)
        self.failed = sum(t.failed for t in tallies)
        self.errors = [e for t in tallies for e in t.errors]
        self.consistent = all(t.digest == digest for t in tallies[1:])
        if not self.consistent:
            self.errors.append("traced round 0 gave other verdicts than untraced round 0")
        self.correct = self.failed == 0 and self.consistent
        self.digest = digest
        self.metrics = metrics
        self.extra = extra


def run_round(ops, tally: Tally, *, digest: bool) -> None:
    """Run ops in order, timing each and the reference kernel around it."""
    before = hostspeed.sample()
    for op in ops:
        out, took = timed_call(op)
        after = hostspeed.sample()
        tally.add(took, hostspeed.scale(before, after), op.check(out), digest=digest)
        del out
        before = after


def run_workload(tt, workload, seed: int, seconds: int, trace: bool, import_s: float) -> Result:
    start = time.perf_counter()
    workload.prepare()
    ops = workload.round(seed, 0)
    samples = [(import_s + time.perf_counter() - start) * hostspeed.settled_scale()]
    samples += [fresh_setup_s(workload.name, seed) for _ in range(FRESH_SETUPS)]
    if trace:
        return traced_run(tt, workload, seed, ops)

    tally = Tally()
    rounds = 0
    wall0 = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        run_round(ops, tally, digest=rounds == 0)
        if rounds == 0:
            digest = tally.digest
        rounds += 1
        now = time.perf_counter()
        # Stop at the round boundary nearest to the requested wall time.
        if (now - wall0) + (now - round_start) / 2 >= min(seconds, WALL_LIMIT_S):
            break
        ops = workload.round(seed, rounds)

    metrics = {
        "verdicts_per_s": (tally.verdicts_per_s(), "1/s"),
        "verdict_s_p50": (tally.latency(0.5), "s"),
        "verdict_s_p90": (tally.latency(0.9), "s"),
        "setup_s": (statistics.median(samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    scales = sorted(tally.scales)
    extra = {
        "rounds": rounds,
        "ops": len(tally.ops),
        "timed_s": tally.timed_s,
        "wall_timed_s": tally.wall_s,
        "wall_verdicts_per_s": (tally.attempted - tally.failed) / tally.wall_s,
        "host_scale_q1_median_q3": [quantile(scales, q) for q in (0.25, 0.5, 0.75)],
        "run_wall_s": time.perf_counter() - wall0,
        "setup_samples_s": samples,
    }
    return Result(workload.name, [tally], digest, metrics, extra)


def traced_run(tt, workload, seed: int, ops) -> Result:
    """Round 0 untraced, then regenerated and run again under the recorder."""
    from spans import Recorder, layer_metrics

    untraced = Tally()
    run_round(ops, untraced, digest=True)

    recorder = Recorder()
    recorder.install(tt)
    try:
        done = []
        before = hostspeed.sample()
        for index, op in enumerate(workload.round(seed, 0)):
            recorder.op = index
            out, took = timed_call(op)
            after = hostspeed.sample()
            done.append((op, out, took, hostspeed.scale(before, after)))
            before = after
        probe = []
        recorder.op = -2
        for label, call in workload.probe(seed) if hasattr(workload, "probe") else ():
            try:
                call()
                probe.append(f"{label}: ok")
            except Exception as exc:  # the probe records defects, it does not stop on them
                probe.append(f"{label}: {type(exc).__name__}: {exc}")
    finally:
        recorder.uninstall()
    traced = Tally()
    for op, out, took, scale in done:
        traced.add(took, scale, op.check(out), digest=True)

    metrics = dict(layer_metrics(recorder))
    metrics["trace.verdicts_per_s_untraced"] = (untraced.verdicts_per_s(), "1/s")
    metrics["trace.verdicts_per_s_traced"] = (traced.verdicts_per_s(), "1/s")
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
    recorder.write(spans_path)
    extra = {
        "spans": str(spans_path.relative_to(ROOT)),
        "spans_count": len(recorder.spans),
        "probe": probe,
    }
    return Result(workload.name, [untraced, traced], untraced.digest, metrics, extra)


def report(result: Result, prov: dict) -> dict:
    """Print the human-readable lines and write the result file."""
    name = result.name
    print("provenance " + json.dumps(prov, sort_keys=True))
    for metric, (value, unit) in result.metrics.items():
        print(f"{name} {metric} = {value:.6g} {unit}")
    print(f"{name} digest = {result.digest}")
    print(f"{name} attempted = {result.attempted}  failed = {result.failed}")
    for error in result.errors[:5]:
        print(f"{name} error: {error}")
    payload = {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{name}-seed{prov['seed']}-trace{int(prov['trace'])}.json"
    path.write_text(json.dumps({
        **payload,
        "provenance": prov,
        "digest": result.digest,
        "errors": result.errors[:50],
        **result.extra,
    }, indent=2, sort_keys=True) + "\n")
    return payload


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="campaign, large, decompose or all")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=36)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    start = time.perf_counter()
    args = parse_args(argv)
    try:
        tt = load_library()
    except ImportError as exc:
        print(f"perfbench: cannot import treetour from {SRC}: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.setup_only:
        workload = WORKLOADS[args.workload]()
        workload.prepare()
        workload.round(args.seed, 0)
        print((time.perf_counter() - start) * hostspeed.settled_scale())
        return 0
    import_s = time.perf_counter() - start
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    payloads = {}
    for name in names:
        workload = WORKLOADS[name]()
        result = run_workload(tt, workload, args.seed, args.seconds, bool(args.trace), import_s)
        prov = provenance(workload, args.seed, args.seconds, bool(args.trace))
        payloads[name] = report(result, prov)
    if len(names) == 1:
        print(json.dumps(payloads[names[0]], sort_keys=True))
        return 0
    print(json.dumps({
        "correct": all(p["correct"] for p in payloads.values()),
        "attempted": sum(p["attempted"] for p in payloads.values()),
        "failed": sum(p["failed"] for p in payloads.values()),
        "metrics": {f"{n}.{k}": v for n, p in payloads.items() for k, v in p["metrics"].items()},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
