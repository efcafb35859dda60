"""Benchmark entry point for rieszspec.

    python3 bench/run.py --workload coords-audit --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``.  One single-threaded process runs seeded rounds of the chosen
workload (see ``workloads.py`` and ``WORKLOADS.md``) in a closed loop, one
query at a time, until ``--seconds`` have passed and at least
``MIN_ANSWERS`` answers were measured.  Every answer is checked against an
independent oracle; a raised ToleranceError, CertificateError or
MarginCollapseError, a wrong CLI exit code and an oracle mismatch all
count as failures.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  With ``--trace 1`` the first ``TRACE_ROUNDS``
rounds are then replayed with every layer wrapped (``trace.py``) and the
JSON object carries the per-layer metrics instead.  Lines before the last
one print every metric by name and unit for people (in a traced run, the
end-to-end metrics of its untraced rounds as well).

Determinism gate: per-layer counts and the sha256 of every CLI report are
stored under ``bench/out/`` keyed by workload, seed and a hash of the
package and benchmark sources; a later run of the same code and seed that
disagrees counts each mismatch as a failure.  A traced run also replays
its first rounds and compares their CLI reports with the untraced ones.
"""
from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
MIN_ANSWERS = 110  # at least 10 samples beyond the nearest-rank p90
TRACE_ROUNDS = {"coords-audit": 4, "herm": 2, "herm-order": 3, "herm-calculus": 4}
SETUP_REPEATS = 3  # untraced set-ups per round, each on fresh objects: more setup_s samples


def _die(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def calibrate(times: list[float], reps: int = 1) -> None:
    """Time a fixed stdlib-only kernel; recorded beside the results, never used to scale."""
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = Fraction(0)
        for k in range(1, 700):
            acc += Fraction(1, k * k)
        sorted((i * 7919) % 10007 for i in range(50000))
        times.append((time.perf_counter() - t0) * 1000)


def source_hash() -> str:
    """Hash of the package and benchmark sources: records are only compared within one version."""
    h = hashlib.sha256()
    for path in sorted((SRC / "rieszspec").rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(str(path.relative_to(SRC.parent)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


@dataclass
class Round:
    setup_s: list[float]
    samples: list[tuple[str, float, str | None]] = field(default_factory=list)  # kind, seconds, failure
    reports: dict[str, str] = field(default_factory=dict)  # "round/query" -> sha256 of the CLI report


def run_round(wl, seed: int, rnd: int, tmp: Path, errors, tracer=None) -> Round:
    """Generate round ``rnd``, set it up on fresh objects and answer its queries.

    Untraced, the set-up is built ``SETUP_REPEATS`` times and the queries use
    the last build; every build is one set-up sample.  Traced, it is built once.
    """
    import inputs
    from rieszspec.riesz import CertificateError, MarginCollapseError, ToleranceError

    def traced(on: bool, query: str = "") -> None:
        if tracer is not None:
            tracer.query, tracer.on = query, on

    data = wl.generate(inputs.round_rng(wl.name, seed, rnd), rnd)
    out = Round([])
    for _ in range(1 if tracer is not None else SETUP_REPEATS):
        traced(True, f"{rnd}/setup")
        t0 = time.perf_counter()
        env = wl.setup(data)
        out.setup_s.append(time.perf_counter() - t0)
        traced(False)
    for k, q in enumerate(wl.queries(data, env, tmp, f"r{rnd}q")):
        traced(True, f"{rnd}/{k}")
        t0 = time.perf_counter()
        try:
            res, err = q.run(), None
        except (ToleranceError, CertificateError, MarginCollapseError) as exc:
            res, err = None, f"{type(exc).__name__}: {exc}"
        except Exception:  # noqa: BLE001 - a crash is a failed answer, recorded in full
            res, err = None, traceback.format_exc()
        dt = time.perf_counter() - t0
        traced(False)
        if err is None:
            try:
                err = q.check(res)
                if q.report is not None:
                    out.reports[f"{rnd}/{k}"] = hashlib.sha256(q.report(res).encode()).hexdigest()
            except Exception:  # noqa: BLE001 - an unreadable answer is a failed answer
                err = traceback.format_exc()
        if err is not None:
            errors.append(f"round {rnd} query {k} ({q.kind}): {err}")
        out.samples.append((q.kind, dt, err))
    gc.collect()
    return out


def nearest_rank(sorted_vals: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples strictly beyond its rank."""
    rank = max(1, math.ceil(p * len(sorted_vals)))
    return sorted_vals[rank - 1], len(sorted_vals) - rank


def rate(rounds: list[Round]) -> float:
    ok = sum(1 for r in rounds for _, _, e in r.samples if e is None)
    return ok / sum(dt for r in rounds for _, dt, _ in r.samples)


def end_to_end(rounds: list[Round], attempted: int, failed: int, lines: list[str]) -> dict:
    """End-to-end metrics of the untraced rounds, as (value, unit); notes go to ``lines``."""
    samples = [s for r in rounds for s in r.samples]
    lat = sorted(dt if e is None else math.inf for _, dt, e in samples)
    p50, _ = nearest_rank(lat, 0.5)
    p90, beyond = nearest_rank(lat, 0.9)
    if beyond < 10:
        _die(f"only {beyond} samples beyond p90")
    # per round the median of its builds drops one-off pauses; the mean over rounds then moves in
    # proportion to the share of the run the host spent in a slow period, where a median would
    # jump from one speed to the other
    setup_s = statistics.fmean(statistics.median(r.setup_s) for r in rounds)
    lines.append(f"{len(lat)} latency samples ({beyond} beyond p90); setup_s is the mean over "
                 f"{len(rounds)} rounds of the median of {SETUP_REPEATS} set-ups; "
                 f"fail_ratio = {failed / attempted:.6f} ratio")
    for kind in sorted({k for k, _, _ in samples}):
        ts = sorted(dt * 1000 for k, dt, _ in samples if k == kind)
        lines.append(f"  {kind}: {len(ts)} answers, median {statistics.median(ts):.2f} ms, "
                     f"range {ts[0]:.2f}..{ts[-1]:.2f} ms")
    return {
        "answers_per_s": (rate(rounds), "1/s"),
        "query_p50_ms": (p50 * 1000, "ms"),
        "query_p90_ms": (p90 * 1000, "ms"),
        "setup_s": (setup_s, "s"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def gate(path: Path, section: str, fresh: dict[str, object]) -> int:
    """Compare with values stored by earlier runs of the same code and seed; store the union."""
    record = json.loads(path.read_text()) if path.exists() else {}
    old = record.get(section, {})
    mismatches = sorted(k for k, v in fresh.items() if k in old and old[k] != v)
    for k in mismatches:
        print(f"bench: determinism gate: {section} {k} was {old[k]}, now {fresh[k]}", file=sys.stderr)
    record[section] = {**old, **fresh}
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, sort_keys=True))
    os.replace(tmp, path)
    return len(mismatches)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "rieszspec" / "__init__.py").is_file():
        _die(f"no rieszspec sources under {SRC}; run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    import rieszspec

    if Path(rieszspec.__file__).resolve().parent != (SRC / "rieszspec").resolve():
        _die(f"imported rieszspec from {rieszspec.__file__}, not from {SRC}")
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        _die(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    record = OUT / f"record-{wl.name}-{args.seed}-{source_hash()}.json"
    calib: list[float] = []
    calibrate(calib, 7)
    errors: list[str] = []
    trace_rounds = TRACE_ROUNDS[wl.name] if args.trace else 0

    rounds: list[Round] = []
    start = time.perf_counter()
    while (time.perf_counter() - start < args.seconds
           or sum(len(r.samples) for r in rounds) < MIN_ANSWERS
           or len(rounds) < trace_rounds):
        rounds.append(run_round(wl, args.seed, len(rounds), tmp, errors))
        calibrate(calib)
    calib_ms = statistics.fmean(calib)
    wall_s = time.perf_counter() - start
    reports = {k: v for r in rounds for k, v in r.reports.items()}
    samples = [s for r in rounds for s in r.samples]
    attempted = len(samples)
    failed = sum(1 for _, _, e in samples if e is not None)
    failed += gate(record, "reports", reports)

    lines = [f"workload {wl.name}, seed {args.seed}, {len(rounds)} rounds in {wall_s:.1f} s, "
             f"{attempted} answers attempted, {failed} failed; "
             f"calibration kernel bench.calib_ms = {calib_ms:.4f} ms"]
    metrics = end_to_end(rounds, attempted, failed, lines)
    if args.trace:
        import trace

        for name, (value, unit) in metrics.items():
            lines.append(f"untraced {name} = {value!r} {unit}")
        tracer = trace.Tracer()
        wrapped = tracer.install()
        traced_rounds = [run_round(wl, args.seed, i, tmp, errors, tracer) for i in range(trace_rounds)]
        replay = {k: v for r in traced_rounds for k, v in r.reports.items()}
        mismatched = sorted(k for k in replay if reports.get(k) != replay[k])
        attempted += sum(len(r.samples) for r in traced_rounds)
        failed += sum(1 for r in traced_rounds for _, _, e in r.samples if e is not None) + len(mismatched)
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_ratio"] = (rate(rounds[:trace_rounds]) / rate(traced_rounds), "ratio")
        metrics["bench.calib_ms"] = (calib_ms, "ms")
        counts = {k: v for k, (v, unit) in metrics.items() if unit in ("count", "ratio") and k != "trace.overhead_ratio"}
        failed += gate(record, "counts", counts)
        spans = OUT / f"spans-{wl.name}-{args.seed}.tsv.gz"
        with gzip.open(spans, "wt") as fh:
            fh.write("name\tstart\tend\tparent\tquery\n")
            for s in tracer.spans:
                fh.write("\t".join(map(str, s)) + "\n")
        lines.append(f"traced rounds 0..{trace_rounds - 1}: {wrapped} functions wrapped, "
                     f"{len(tracer.spans)} spans written to {spans.relative_to(HERE.parent)}")
    for msg in errors[:20]:
        print(f"bench: FAILED {msg}", file=sys.stderr)
    for line in lines:
        print(f"bench: {line}")
    for name, (value, unit) in metrics.items():
        print(f"bench: {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
