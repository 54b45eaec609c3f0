#!/usr/bin/env python3
"""The repository benchmark (see README.md and ../BENCHMARK.json).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds the runner from this checkout's sources into .bench_build/, runs one
workload for about S seconds, checks its outputs and prints, as the last
line of standard output, one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
The line before it is a report with the host stamp, every workload-specific
figure and the deterministic digest. The full report, spans included, is
written to .bench_out/. Exits 1, printing no result line, when the runner
cannot be built or run; exits 1 after the result line when a check fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_out"
WORKLOADS = ("kernel_treesearch", "ota_star128", "ota_grid128",
             "netchaos_sweep")
# Workloads whose operations must all succeed. On netchaos_sweep a seed that
# breaks its oracle is a failed operation and the run stays correct: the
# sweep exists to count them.
MUST_NOT_FAIL = ("kernel_treesearch", "ota_star128", "ota_grid128")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the runner; returns its path or None."""
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeFiles" / "cmake.check_cache").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    with open(BUILD / "build.log", "ab") as logf:
        for cmd in steps:
            try:
                rc = subprocess.call(cmd, stdout=logf, stderr=subprocess.STDOUT)
            except OSError as e:
                rc = e
            if rc != 0:
                log(f"build step failed ({rc}): {' '.join(cmd)} "
                    f"(see {logf.name})")
                return None
    return BUILD / "perfbench"


def source_digest():
    """SHA-256 over the sources the runner is built from, so stored
    deterministic results are only compared within one version."""
    h = hashlib.sha256()
    paths = [ROOT / "CMakeLists.txt"]
    for top in (ROOT / "src", HERE):
        paths += [p for p in top.rglob("*") if p.is_file()
                  and "__pycache__" not in p.parts]
    for p in sorted(paths):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def host_stamp(raw):
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    try:
        # Only when the checkout itself is a git work tree (never a parent).
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            commit = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    h = raw["host"]
    return {"nproc": os.cpu_count(), "cpu": cpu, "compiler": h["compiler"],
            "flags": h["flags"].strip(), "build_type": h["build_type"],
            "lto": h["lto"], "commit": commit, "workers": h["workers"]}


def check_replay(workload, seed, det, digest):
    """Compare the deterministic outputs with every earlier run of the same
    sources, workload and seed; the first run records them. Returns a list
    of findings."""
    d = OUT / "det" / digest
    d.mkdir(parents=True, exist_ok=True)
    path = d / f"{workload}-{seed}.json"
    text = json.dumps(det, sort_keys=True)
    if not path.exists():
        tmp = path.with_suffix(".tmp")
        tmp.write_text(text)
        tmp.replace(path)
        return []
    if path.read_text() != text:
        return [f"deterministic outputs differ from an earlier run ({path})"]
    return []


def evaluate(workload, raw, trace, findings):
    """The result line and the report of one run. `findings` are
    determinism failures; they make the run incorrect on every workload."""
    det = raw["det"]
    correct = not findings and (workload not in MUST_NOT_FAIL or
                                (det["failed"] == 0 and not det["errors"]))
    values = metrics.per_layer(raw) if trace else metrics.end_to_end(raw)
    passes = len(raw["passes"])
    result = {
        "correct": correct,
        # Every pass runs the same input through the same checks.
        "attempted": det["attempted"] * passes,
        "failed": det["failed"] * passes,
        "metrics": metrics.with_units(values),
    }
    report = {
        "workload": workload, "trace": trace,
        "figures": metrics.with_units(metrics.figures(raw)),
        "modeled": "values in modeled_* units come from the emulator's "
                   "cycle model, unvalidated against motes: no error figure",
        "digest": det["digest"],
        "findings": findings,
        "not_split": metrics.NOT_SPLIT,
    }
    if trace:
        report["per_layer"] = values
        report["spans"] = metrics.span_totals(
            raw["spans"], sum(1 for p in raw["passes"] if p["traced"]))
    return result, report


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    exe = build()
    if exe is None:
        return 1
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"runner exceeded {RUN_TIMEOUT_S} s")
        return 1
    if proc.returncode != 0:
        log(f"runner exited {proc.returncode}: {proc.stderr.strip()}")
        return 1
    raw = json.loads(proc.stdout)
    det = raw["det"]

    findings = list(raw["nondeterminism"])
    findings += check_replay(args.workload, args.seed, det, source_digest())
    for e in det["errors"][:20]:
        log(f"failed operation: {e}")
    for f in findings:
        log(f"FINDING: {f}")
    result, report = evaluate(args.workload, raw, args.trace, findings)
    report.update(seed=args.seed, host=host_stamp(raw))
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-{args.seed}-t{args.trace}.json").write_text(
        json.dumps({"report": report, "raw": raw}, indent=1))
    print(json.dumps({"report": {k: v for k, v in report.items()
                                 if k not in ("spans", "per_layer")}}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
