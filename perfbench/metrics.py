"""Arithmetic of the repo benchmark: raw runner output -> named metrics.

The C++ runner (bench.cpp) prints raw values: per-pass set-up and wall
times, the deterministic counters of one pass, modeled per-receiver install
cycles, per-seed host times and spans. Everything derived from them lives
here, so it can be tested without building anything (test_metrics.py).

Modeled values (sim_s, install_s.*, cycle counts) come from the emulator's
cycle model. Nothing validates that model against real motes, so they are
reported as modeled values with no error figure.
"""

import json
import math
from pathlib import Path

# Tail percentiles in the order tried: the reported tail is the highest one
# that still has at least MIN_BEYOND samples above it.
TAIL_LADDER = (90.0, 99.0, 99.9)
MIN_BEYOND = 10

# The metric names and units live in BENCHMARK.json, one directory up: the
# driver gates end_to_end, the traced run reports every per_layer metric (a
# layer a workload does not run reports 0).
BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END = tuple(m["name"] for m in BENCHMARK["end_to_end"])
PER_LAYER = tuple(m["name"] for m in BENCHMARK["per_layer"])

# Host speed: the reference loop's (refloop.cpp) nanoseconds per operation
# on the host the bounds were set on (a 4-vCPU Xeon VM, in its fast
# periods). A shared host runs the reference and the emulator slower or
# faster together for minutes at a time. So on the workload whose timed
# work is the emulator's instruction loop throughout, the gated times and
# rates are given in reference seconds: host seconds scaled by REF_NS over
# the run's median probe. The constant only fixes the unit; the host values
# stay in the report's figures.
REF_NS = 2.7
# The workloads scaled that way. The others spend their time mostly in the
# net layer and the DeviceHub RX path, which those slow periods barely
# move: scaling by the probe never narrowed their run-to-run spread and
# often widened it (ten 30-second runs, IQR over median in host seconds,
# then scaled: grid 0.065, 0.110; sweep 0.091, 0.182).
REF_SCALED = ("kernel_treesearch",)

# Units of the report-only figures (figures()), which BENCHMARK.json does
# not list. Modeled values come from the emulator's cycle model and carry a
# "modeled_" unit; nothing validates them against motes, so no error figure.
FIGURE_UNITS = {
    "wall_s": "s", "peak_rss_mb": "MB", "sim_s": "modeled_s",
    "guest_mips": "MIPS", "seeds_per_s": "1/s", "seed_s.p50": "s",
    "seed_s.p90": "s", "install_s.p50": "modeled_s",
    "install_s.p90": "modeled_s", "bytes_on_air": "bytes",
    "failed_frac": "ratio", "setup_host_s": "s",
    "node_mcycles_per_host_s": "Mcycles/s", "ref_ns_per_op": "ns",
    "ref_scale": "ratio",
}
UNITS = {**FIGURE_UNITS,
         **{m["name"]: m["unit"]
            for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}}

# Splits the runner cannot make from outside the program; the report says
# so instead of estimating them.
NOT_SPLIT = (
    "emu dispatch vs kernel services inside Kernel::run (kernel.run_s)",
    "medium vs deframer vs protocol inside NetSim::disseminate (net.run_s)",
)


def median(values):
    vals = sorted(values)
    if not vals:
        raise ValueError("median of no samples")
    mid = len(vals) // 2
    return vals[mid] if len(vals) % 2 else (vals[mid - 1] + vals[mid]) / 2


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it. math.inf samples (missing results) rank last."""
    vals = sorted(values)
    if not vals:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p / 100.0 * len(vals)))
    return vals[rank - 1]


def tail_percentile(n):
    """The highest ladder percentile with at least MIN_BEYOND of n samples
    beyond it, or None when even the lowest rung has too few."""
    best = None
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= MIN_BEYOND - 1e-9:
            best = p
    return best


def failed_frac(attempted, failed):
    """Failed operations over attempted ones."""
    if attempted <= 0:
        raise ValueError("no operations attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed count outside [0, attempted]")
    return failed / attempted


def install_times(install_cycles, clock_hz):
    """Modeled install seconds per receiver. A receiver that never held a
    verified image is not a sample: it ranks as math.inf, beyond any limit,
    and is already counted as a failed operation."""
    return [math.inf if c is None else c / clock_hz for c in install_cycles]


def timing_summary(samples):
    """Median and the ladder tail for a list of samples, with the count.
    Returns {"n", "p50", "tail", "p_tail"}; p_tail is None when fewer than
    MIN_BEYOND samples would lie beyond the lowest rung."""
    p = tail_percentile(len(samples))
    return {
        "n": len(samples),
        "p50": percentile(samples, 50.0),
        "p_tail": p,
        "tail": None if p is None else percentile(samples, p),
    }


def span_totals(spans, passes):
    """Per traced pass, the summed duration and self time of each span name.
    Self time is a span's duration minus its children's. Spans arrive in
    start order; a span whose parent is -1 and named "pass" opens a pass."""
    out = []
    cur = None
    dur = [s["t1"] - s["t0"] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            child[int(s["parent"])] += dur[i]
    for i, s in enumerate(spans):
        if s["parent"] < 0:
            cur = {}
            out.append(cur)
            continue
        tot = cur.setdefault(s["name"], {"total": 0.0, "self": 0.0})
        tot["total"] += dur[i]
        tot["self"] += dur[i] - child[i]
    if len(out) != passes:
        raise ValueError("span passes do not match traced passes")
    return out


def _span_median(per_pass, name):
    return median([p.get(name, {"total": 0.0})["total"] for p in per_pass])


def _passes(raw, traced):
    return [p for p in raw["passes"] if bool(p["traced"]) == traced]


def _walls(raw, traced):
    return [p["wall_s"] for p in _passes(raw, traced)]


def ref_scale(raw):
    """Reference seconds per host second in this run: on REF_SCALED
    workloads the run's median probe of the reference loop over REF_NS
    (above 1 when the host runs slower than when the bounds were set), on
    the others 1."""
    if not raw["ref_ns"]:
        raise ValueError("a run needs host speed probes")
    if raw["workload"] not in REF_SCALED:
        return 1.0
    return median(raw["ref_ns"]) / REF_NS


def node_mcycles_per_s(raw):
    """Emulated node-cycles of all untraced passes over their summed host
    time, in millions per second. A pass's host time is its whole timed
    section, except on the sweep, where it is the summed per-seed time of
    the seeds that passed their oracles (whose cycles alone
    det["node_cycles"] counts)."""
    timed = [p["timed_s"] for p in _passes(raw, traced=False)]
    if sum(timed) <= 0:
        return 0.0  # no seed of the sweep passed: nothing to rate
    return raw["det"]["node_cycles"] * len(timed) / sum(timed) / 1e6


def figures(raw):
    """The workload's end-to-end figures, by name, from its untraced passes;
    each appears only on the workloads it applies to. Times of repeated
    identical passes use the median pass; throughputs divide the work of all
    of them by their summed time. The gated setup_s and
    node_mcycles_per_s are in reference seconds (ref_scale);
    setup_host_s and node_mcycles_per_host_s are the same values in host
    seconds."""
    det = raw["det"]
    c = det["counters"]
    hz = raw["clock_hz"]
    walls = _walls(raw, traced=False)
    scale = ref_scale(raw)
    setup = median([p["setup_s"] for p in raw["passes"]]
                   + raw["extra_setup_s"])
    rate = node_mcycles_per_s(raw)
    f = {
        "wall_s": median(walls),
        "setup_s": setup / scale,
        "setup_host_s": setup,
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "sim_s": det["sim_cycles"] / hz,
        "node_mcycles_per_s": rate * scale,
        "node_mcycles_per_host_s": rate,
        "ref_ns_per_op": median(raw["ref_ns"]),
        "ref_scale": scale,
        "failed_frac": failed_frac(det["attempted"], det["failed"]),
    }
    if c.get("emu.instructions"):
        f["guest_mips"] = (c["emu.instructions"] * len(walls) / sum(walls)
                           / 1e6)
    if det["install_cycles"]:
        t = timing_summary(install_times(det["install_cycles"], hz))
        # A percentile that lands on a missing install reads as the run's
        # end: a lower bound, on a run that already failed its checks.
        f["install_s.p50"] = min(t["p50"], f["sim_s"])
        if t["p_tail"] == 90.0:
            f["install_s.p90"] = min(t["tail"], f["sim_s"])
    if "net.medium.bytes_on_air" in c:
        f["bytes_on_air"] = c["net.medium.bytes_on_air"]
    if raw["seed_s"]:
        t = timing_summary(raw["seed_s"])
        f["seeds_per_s"] = len(raw["seed_s"]) / sum(raw["seed_s"])
        f["seed_s.p50"] = t["p50"]
        if t["p_tail"] == 90.0:
            f["seed_s.p90"] = t["tail"]
    return f


def end_to_end(raw):
    """The end-to-end metrics of an untraced run (BENCHMARK.json)."""
    f = figures(raw)
    return {name: f[name] for name in END_TO_END}


def per_layer(raw):
    """The per-layer metrics of a traced run. Span times come from the
    traced passes; trace.overhead_s compares them with the untraced ones."""
    det = raw["det"]
    c = det["counters"]
    traced = _walls(raw, traced=True)
    untraced = _walls(raw, traced=False)
    if not traced or not untraced:
        raise ValueError("a traced run needs traced and untraced passes")
    spans = span_totals(raw["spans"], len(traced))
    m = {name: float(c.get(name, 0)) for name in PER_LAYER}
    for layer in ("assembler.build", "rewriter.link", "codec.serialize",
                  "kernel.start", "kernel.run", "net.setup", "net.run"):
        m[layer + "_s"] = _span_median(spans, layer)

    insns = c.get("emu.instructions", 0)
    if insns and m["kernel.run_s"] > 0:
        m["emu.host_ns_per_insn"] = m["kernel.run_s"] / insns * 1e9

    quanta = c.get("net.quanta", 0)
    if quanta and m["net.run_s"] > 0:
        m["net.host_ns_per_quantum"] = m["net.run_s"] / quanta * 1e9
        m["net.host_ns_per_node_quantum"] = (
            m["net.run_s"] / (quanta * det["nodes"]) * 1e9)
        if c.get("net.rx_bytes"):
            m["net.host_ns_per_rx_byte"] = (
                m["net.run_s"] / c["net.rx_bytes"] * 1e9)
        m["host.workers"] = float(raw["host"]["workers"])
    if raw["event_quanta_share"] is not None:
        m["net.event_quanta_share"] = raw["event_quanta_share"]
    if c.get("net.medium.offered"):
        m["net.medium.delivered_ratio"] = (
            c["net.medium.delivered"] / c["net.medium.offered"])
    if c.get("net.data_rx"):
        m["net.useful_chunk_ratio"] = (
            (c["net.data_rx"] - c["net.duplicate_chunks"]) / c["net.data_rx"])

    sweep = [p for p in _passes(raw, traced=True) if p["seeds_s"] > 0]
    if sweep:
        m["chaos.violating_seed_s"] = median(
            [p["violating_s"] for p in sweep])
        m["chaos.violating_time_share"] = median(
            [p["violating_s"] / p["seeds_s"] for p in sweep])

    m["trace.overhead_s"] = median(traced) - median(untraced)
    return m


def with_units(values):
    return {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
