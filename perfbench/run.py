#!/usr/bin/env python3
"""qmock verifier benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py``) on the shipped corpus at each
stanza's own order through the public ``qmock.cli.run_corpus``, checks every
verdict against its known answer and prints one JSON object as the last
line of standard output.  Every workload is a closed loop from this
process: the next call is made when the previous verdicts are back.

With ``--trace 0`` it measures whole passes over the drawn stanzas until
about ``--seconds`` have passed and reports the end-to-end metrics.  Times
are normalised to the speed of the machine at the moment they were taken
(see ``reference_ms`` and ``measure_setup``), because the hosts this runs on
are shared and slow a process down by up to 2.4x for tens of seconds.  With
``--trace 1`` it makes exactly one traced pass (so its counts repeat for a
seed), then the same pass untraced, and reports the per-layer metrics and
the tracing overhead.  The code under test is ``src/qmock`` beside this
directory; without it the benchmark exits with a non-zero status.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from workloads import (WORKLOADS, check_generator, corpus_text, draw, is_appell, perturb,
                       split_stanzas, wrong_verdicts)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CORPUS = SRC / "qmock" / "data" / "identities.qid"
SETUP_REPEATS = 5   # fresh interpreters before and again after the timed passes
SEGMENT_S = 0.25    # the reference kernel runs after at least this much verifier time
# Normalised times are scaled so that they read as on a machine where the
# reference kernel takes REF_KERNEL_MS and a bare interpreter starts in
# REF_START_S: about what a quiet 2-vCPU Xeon host with Python 3.11 gives.
REF_KERNEL_MS = 20.0
REF_START_S = 0.05

# The reference kernel: a truncated convolution of two fixed series with
# Fraction coefficients on fractional exponent grids.  It is the kind of
# work the verifier's own kernel does, so load on the host slows both
# alike, but it is written here and does not change with qmock.
_REF_RNG = random.Random("reference-kernel")
_REF_A = {Fraction(i, 3): Fraction(_REF_RNG.randint(-50, 50), _REF_RNG.randint(1, 9)) for i in range(60)}
_REF_B = {Fraction(i, 2): Fraction(_REF_RNG.randint(-50, 50), _REF_RNG.randint(1, 9)) for i in range(60)}

# A fresh interpreter: import qmock, parse the workload's corpus text and,
# for a parallel workload, start its worker pool; report when ready.
_SETUP_CHILD = r"""
import sys
sys.path.insert(0, sys.argv[1])
jobs = int(sys.argv[2])
from qmock.dsl import parse_corpus
records = parse_corpus(sys.stdin.read())
if jobs > 1:
    import concurrent.futures
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        list(pool.map(abs, range(jobs)))
        print(len(records), flush=True)
else:
    print(len(records), flush=True)
"""


def import_qmock():
    """Import qmock from this checkout, never from an installed copy."""
    if not CORPUS.is_file():
        sys.exit(f"perfbench: no qmock sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import qmock
    if Path(qmock.__file__).resolve().parent != SRC / "qmock":
        sys.exit(f"perfbench: imported qmock from {qmock.__file__}, not {SRC}")
    return qmock


def reference_ms():
    """Milliseconds the reference kernel takes now."""
    start = time.perf_counter()
    out = {}
    for ea, ca in _REF_A.items():
        for eb, cb in _REF_B.items():
            e = ea + eb
            if e < 30:
                out[e] = out.get(e, 0) + ca * cb
    return (time.perf_counter() - start) * 1000


def _bare_start():
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - start


def _setup_once(text, jobs, n_records):
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(jobs)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        child.stdin.write(text)
        child.stdin.close()
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
    finally:
        child.wait(timeout=120)
    if child.returncode != 0 or line.strip() != str(n_records):
        raise RuntimeError(f"set-up child failed ({child.returncode}): {line!r}")
    return elapsed


def measure_setup(text, jobs, n_records):
    """(normalised, wall) set-up seconds of ``SETUP_REPEATS`` fresh set-ups.

    Each set-up is timed between two bare interpreter starts (``python -c
    pass``) and normalised by their mean: set-up is mostly process start
    and imports, which host load slows as it slows a bare start."""
    bare = [_bare_start()]
    normalised, wall = [], []
    for _ in range(SETUP_REPEATS):
        wall.append(_setup_once(text, jobs, n_records))
        bare.append(_bare_start())
        normalised.append(wall[-1] * REF_START_S / ((bare[-2] + bare[-1]) / 2))
    return normalised, wall


def check_checker(stanzas, cli, parse_corpus):
    """Prove the checker flags a planted wrong verdict, a misplaced
    mismatch, an ERROR and a missing report, and passes a right one."""
    base = next(s for s in stanzas if not is_appell(s["id"]))
    false = perturb(dict(base, expect=("PASS",)), random.Random("self-check"))
    reports = cli.run_corpus(parse_corpus(corpus_text([false])), jobs=1)
    e, c = false["expect"][1:]
    cases = [
        (reports, false, []),
        (reports, dict(false, expect=("PASS",)), [false["id"]]),
        (reports, dict(false, expect=("FAIL", e + 1, c)), [false["id"]]),
        ([dataclasses.replace(reports[0], status="ERROR")], false, [false["id"]]),
        ([], false, [false["id"]]),
    ]
    for got, stanza, expected in cases:
        if wrong_verdicts(got, [stanza]) != expected:
            raise AssertionError(f"checker self-check failed for expectation {stanza['expect']}")


def environment(qmock, workload, seed, jobs):
    from qmock._rational import RAT
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "qmock").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "rational_backend": f"{RAT.__module__}.{RAT.__qualname__}",
        "nproc": len(os.sched_getaffinity(0)),
        "jobs": jobs,
        "cpu_model": cpu,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "qmock_version": qmock.__version__,
    }


def peak_rss_mb(jobs):
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if jobs > 1:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024


def timed_run(cli, units, drawn, jobs, rng, seconds):
    """Whole passes over ``units`` until about ``seconds`` have passed:
    another pass starts only while half a pass more still fits.  The first
    pass takes the units in draw order, later ones in fresh seeded orders.

    Each unit is one ``run_corpus`` call.  With jobs == 1 a unit is one
    stanza, timed from the call to the returned report; with jobs > 1 it is
    the whole draw and the stanza times are the workers' own ``elapsed_ms``.  The
    reference kernel runs after every ``SEGMENT_S`` of calls, and the
    times of a segment are scaled by ``REF_KERNEL_MS`` over the mean of
    the kernel runs on either side of it.  Returns a dict of normalised
    per-stanza ms and pass wall, the raw ones, the kernel times and the
    verdict counts."""
    out = {"ms": [], "wall": 0.0, "raw_ms": [], "raw_wall": 0.0, "kernel_ms": [reference_ms()],
           "wrong": 0, "attempted": 0, "passes": 0}
    order = list(units)
    start = time.perf_counter()
    while True:
        if out["passes"]:
            rng.shuffle(order)
        reports, seg_ms, seg_wall = [], [], 0.0
        for i, unit in enumerate(order):
            t0 = time.perf_counter()
            got = cli.run_corpus(unit, jobs=jobs)
            dt = time.perf_counter() - t0
            reports += got
            seg_ms += [dt * 1000] if jobs == 1 else [r.elapsed_ms for r in got]
            seg_wall += dt
            if seg_wall >= SEGMENT_S or i == len(order) - 1:
                kernel = out["kernel_ms"]
                kernel.append(reference_ms())
                scale = REF_KERNEL_MS / ((kernel[-2] + kernel[-1]) / 2)
                out["ms"] += [ms * scale for ms in seg_ms]
                out["wall"] += seg_wall * scale
                out["raw_ms"] += seg_ms
                out["raw_wall"] += seg_wall
                seg_ms, seg_wall = [], 0.0
        out["passes"] += 1
        out["attempted"] += len(drawn)
        out["wrong"] += len(wrong_verdicts(reports, drawn))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / out["passes"] / 2 >= seconds:
            return out


def interquartile_mean(samples):
    """Mean of the middle half of the samples: a typical verdict time.  On
    toolkit it moved half as much between passes as the median did."""
    ordered = sorted(samples)
    cut = len(ordered) // 4
    return statistics.mean(ordered[cut:len(ordered) - cut])


def percentile_line(samples):
    """p50, and p90 and p99 where at least ten samples lie beyond them."""
    ordered = sorted(samples)
    parts = [f"n={len(ordered)}", f"p50={statistics.median(ordered):.3f}ms"]
    for p in (90, 99):
        k = len(ordered) * p // 100
        if len(ordered) - k - 1 >= 10:
            parts.append(f"p{p}={ordered[k]:.3f}ms")
    return "verdict_ms " + " ".join(parts)


def traced_run(cli, dsl, text, units, drawn, jobs):
    """One traced pass and the same pass untraced, for the overhead.  The
    two alternate unit by unit, so that both see the same load on the
    machine."""
    from tracer import Tracer, merge_reports
    tracer = Tracer()
    traced, plain, traced_wall, plain_wall = [], [], 0.0, 0.0
    tracer.install()
    try:
        tracer.check_bindings(installed=True)
        dsl.parse_corpus(text)
        for unit in units:
            tracer.enable()
            start = time.perf_counter()
            got = cli.run_corpus(unit, jobs=jobs)
            traced_wall += time.perf_counter() - start
            tracer.disable()
            merge_reports(tracer, got)
            traced += got
            start = time.perf_counter()
            plain += cli.run_corpus(unit, jobs=jobs)
            plain_wall += time.perf_counter() - start
    finally:
        tracer.disable()
    tracer.check_bindings(installed=False)
    wrong = len(wrong_verdicts(traced, drawn)) + len(wrong_verdicts(plain, drawn))
    return tracer.state, traced, traced_wall, plain_wall, wrong


def layer_metrics(state, reports, traced_wall, plain_wall, jobs):
    spans, groups, counts = state["spans"], state["groups"], state["counts"]

    def calls(name):
        return {"value": spans.get(name, [0])[0], "unit": "count"}

    def ms(group):
        return {"value": groups.get(group, 0.0) * 1000, "unit": "ms"}

    def count(name):
        return {"value": counts.get(name, 0), "unit": "count"}

    evaluate_calls = spans.get("dsl.evaluate", [0])[0]
    passes = counts.get("dsl.evaluate.passes", 0)
    busy = sum(r.elapsed_ms for r in reports) / 1000
    corpus_wall = spans.get("cli.run_corpus", [0, 0.0])[1]
    return {
        "series.mul.calls": calls("series.mul"),
        "series.mul.term_pairs": count("series.mul.term_pairs"),
        "series.mul.dense_pairs": count("series.mul.dense_pairs"),
        "series.mul.ms": ms("series.mul"),
        "series.invert.calls": calls("series.invert"),
        "series.invert.ms": ms("series.invert"),
        "dsl.parse.ms": ms("dsl.parse"),
        "dsl.evaluate.calls": calls("dsl.evaluate"),
        "dsl.evaluate.passes": count("dsl.evaluate.passes"),
        "dsl.evaluate.useful_ratio": {"value": evaluate_calls / passes if passes else 0.0,
                                      "unit": "ratio"},
        "appell.eval_with_retry.calls": calls("appell.eval_with_retry"),
        "appell.eval_with_retry.passes": count("appell.eval_with_retry.passes"),
        "appell.appell_m.calls": calls("appell.appell_m"),
        "appell.appell_m.distinct": {"value": len(state["distinct"].get("appell.appell_m", ())),
                                     "unit": "count"},
        "appell.appell_m.ms": ms("appell.appell_m"),
        "appell.universal_g_eulerian.ms": ms("appell.universal_g_eulerian"),
        "appell.blocks.ms": ms("appell.blocks"),
        "theta.jacobi_theta.calls": calls("theta.jacobi_theta"),
        "theta.jacobi_theta.ms": ms("theta.jacobi_theta"),
        "theta.pochhammer.ms": ms("theta.pochhammer"),
        "hecke.f_abc.calls": calls("hecke.f_abc"),
        "hecke.f_abc.ms": ms("hecke.f_abc"),
        "catalog.eulerian.ms": ms("catalog.eulerian"),
        "cli.run_corpus.busy_share": {"value": busy / (jobs * corpus_wall) if corpus_wall else 0.0,
                                      "unit": "ratio"},
        "trace.overhead_ms": {"value": (traced_wall - plain_wall) * 1000, "unit": "ms"},
        "trace.overhead_share": {"value": traced_wall / plain_wall - 1, "unit": "ratio"},
    }


def span_lines(state):
    """Per span: calls, total and self ms; per caller edge: calls, total ms."""
    lines = ["span                              calls     total_ms      self_ms"]
    for name, (n, total, self_s) in sorted(state["spans"].items(), key=lambda kv: -kv[1][1]):
        lines.append(f"{name:<32} {n:>6} {total * 1000:>12.1f} {self_s * 1000:>12.1f}")
    lines.append("edge (parent>span)                                  calls     total_ms")
    for edge, (n, total) in sorted(state["edges"].items(), key=lambda kv: -kv[1][1]):
        lines.append(f"{edge:<50} {n:>6} {total * 1000:>12.1f}")
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    qmock = import_qmock()
    import qmock.cli as cli
    import qmock.dsl as dsl

    stanzas = split_stanzas(CORPUS.read_text(encoding="utf-8"))
    check_generator(stanzas, args.seed)
    check_checker(stanzas, cli, dsl.parse_corpus)
    drawn = draw(args.workload, stanzas, args.seed)
    text = corpus_text(drawn)
    jobs = len(os.sched_getaffinity(0)) if args.workload == "mixed-parallel" else 1
    print("environment " + json.dumps(environment(qmock, args.workload, args.seed, jobs)))

    records = dsl.parse_corpus(text)
    units = [[rec] for rec in records] if jobs == 1 else [records]
    if args.trace:
        state, reports, traced_wall, plain_wall, wrong = traced_run(
            cli, dsl, text, units, drawn, jobs)
        attempted = 2 * len(drawn)
        metrics = layer_metrics(state, reports, traced_wall, plain_wall, jobs)
        for line in span_lines(state):
            print(line)
    else:
        setup, setup_wall = measure_setup(text, jobs, len(drawn))
        rng = random.Random(f"{args.workload}:{args.seed}:passes")
        run = timed_run(cli, units, drawn, jobs, rng, args.seconds)
        more, more_wall = measure_setup(text, jobs, len(drawn))
        setup += more
        setup_wall += more_wall
        wrong, attempted = run["wrong"], run["attempted"]
        print(f"passes {run['passes']}, {attempted} verdicts in {run['raw_wall']:.3f}s wall; "
              f"reference kernel median {statistics.median(run['kernel_ms']):.3f}ms "
              f"over {len(run['kernel_ms'])} runs")
        print("wall: " + percentile_line(run["raw_ms"])
              + f"; verdicts_per_s={attempted / run['raw_wall']:.4f}"
              + f"; setup_s={statistics.median(setup_wall):.4f}")
        print("normalised: " + percentile_line(run["ms"]))
        metrics = {
            "verdicts_per_s": {"value": attempted / run["wall"], "unit": "1/s"},
            "verdict_ms.iqm": {"value": interquartile_mean(run["ms"]), "unit": "ms"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(jobs), "unit": "MB"},
        }
    print(f"wrong_verdicts {wrong}/{attempted}")
    for name, m in metrics.items():
        print(f"{name:<32} {m['value']:>16.6f} {m['unit']}")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": wrong,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
