// perfbench: the workload runner behind perfbench/run.py.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//
// Runs one workload from this process: repeated passes, each a fresh
// set-up (image toolchain + engine construction) followed by the timed
// section, until the next pass would overrun S seconds. Every measurement
// is taken from outside the library: the runner times the public calls
// into each module and reads the counters each module already exports.
// Around every pass it also times a fixed reference loop (refloop.cpp), a
// probe of the host's speed. It prints one JSON document of raw values
// (pass times, set-up times, probes, deterministic counters, modeled
// samples, spans); run.py turns those into the named metrics and checks
// them.
//
// Fail-closed output checks run on every pass and are reported as failed
// operations: the kernel machine halted with every task Done; every OTA
// receiver acknowledged and holds bytes equal to the base blob; every
// net-chaos seed passed its own oracles. Everything deterministic is
// compared across the passes of one run; a difference is an error.
//
// With --trace 1 passes alternate untraced/traced. Traced passes record
// spans (name, parent, start, end) around each public call, kept in memory
// and printed at the end, and raise NetConfig::trace_capacity so the full
// event trace can be read (the trace digest does not depend on it).
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "apps/treesearch.hpp"
#include "chaos/chaos.hpp"
#include "emu/io_map.hpp"
#include "kernel/kernel.hpp"
#include "net/image_codec.hpp"
#include "net/netsim.hpp"
#include "rewriter/linker.hpp"

using namespace sensmart;

namespace perfbench {
// refloop.cpp: the host speed probe, built with the benchmark's own flags.
double reference_ns_per_op(uint64_t ops, uint32_t* check);
}  // namespace perfbench

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- Minimal JSON writer ------------------------------------------------------
// Values are written with every digit: integers exactly, doubles with 17
// significant digits, 64-bit digests as hex strings.
class Json {
 public:
  Json& key(const char* k) {
    sep();
    out_ += '"';
    out_ += k;
    out_ += "\":";
    fresh_ = true;
    return *this;
  }
  Json& open(char c) {
    sep();
    out_ += c;
    fresh_ = true;
    return *this;
  }
  Json& close(char c) {
    out_ += c;
    fresh_ = false;
    return *this;
  }
  Json& num(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(buf);
  }
  Json& num(uint64_t v) { return raw(std::to_string(v)); }
  Json& str(const std::string& s) {
    std::string q = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') q += '\\';
      q += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    return raw(q + "\"");
  }
  Json& hex(uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "\"%016" PRIx64 "\"", v);
    return raw(buf);
  }
  Json& null() { return raw("null"); }
  // A value that is already JSON text.
  Json& raw(const std::string& s) {
    sep();
    out_ += s;
    fresh_ = false;
    return *this;
  }
  const std::string& text() const { return out_; }

 private:
  void sep() {
    if (!fresh_ && !out_.empty()) out_ += ',';
    fresh_ = true;
  }
  std::string out_;
  bool fresh_ = true;
};

// --- Spans -----------------------------------------------------------------------
// One span per public call the runner makes into a layer. The parent is the
// innermost open span; times are seconds since the run began.
struct Span {
  int parent = -1;
  std::string name;
  double t0 = 0, t1 = 0;
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}
  bool on = false;  // false: scopes cost one branch and record nothing

  class Scope {
   public:
    Scope(Tracer& t, const char* name) : t_(t) {
      if (!t_.on) return;
      id_ = static_cast<int>(t_.spans_.size());
      t_.spans_.push_back({t_.open_.empty() ? -1 : t_.open_.back(), name,
                           t_.now(), 0});
      t_.open_.push_back(id_);
    }
    ~Scope() {
      if (id_ < 0) return;
      t_.spans_[id_].t1 = t_.now();
      t_.open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int id_ = -1;
  };

  const std::vector<Span>& spans() const { return spans_; }

 private:
  double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// --- Host probes ---------------------------------------------------------------
uint64_t proc_status_field(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t n = std::strlen(field);
  while (std::getline(in, line))
    if (line.compare(0, n, field) == 0 && line.size() > n && line[n] == ':')
      return std::strtoull(line.c_str() + n + 1, nullptr, 10);
  return 0;
}

// --- Pass results ----------------------------------------------------------------
// `det` holds everything a pass computes deterministically (compared across
// passes, and across runs by run.py); `seed_s` the per-seed host times of
// the sweep. Counter names are the per-layer metric names.
struct Pass {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // why each failed operation failed
  uint64_t sim_cycles = 0;          // modeled cycles to finish
  uint64_t nodes = 1;               // simulated nodes (OTA: receivers + base)
  double node_cycles = 0;           // emulated cycles x simulated nodes
  uint64_t digest = 0;              // trace / result digest
  std::vector<std::pair<std::string, double>> counters;
  // Modeled per-receiver install cycles (OTA); -1 marks a receiver that
  // never held a verified image.
  std::vector<int64_t> install_cycles;
  // Host-dependent or traced-only observations (not compared).
  // Host seconds over which node_cycles were emulated; < 0: the whole pass.
  double timed_s = -1;
  std::vector<double> seed_s;
  double violating_seed_s = 0;
  unsigned workers = 1;
  double event_quanta_share = -1;  // traced OTA passes only

  void count(const std::string& k, double v) { counters.emplace_back(k, v); }

  // Canonical text of the deterministic part.
  std::string det_text() const {
    Json j;
    j.open('{');
    j.key("attempted").num(attempted).key("failed").num(failed);
    j.key("sim_cycles").num(sim_cycles).key("node_cycles").num(node_cycles);
    j.key("nodes").num(nodes);
    j.key("digest").hex(digest);
    j.key("counters").open('{');
    for (const auto& [k, v] : counters) j.key(k.c_str()).num(v);
    j.close('}');
    j.key("install_cycles").open('[');
    for (int64_t c : install_cycles)
      c < 0 ? j.null() : j.num(static_cast<uint64_t>(c));
    j.close(']');
    j.key("errors").open('[');
    for (const auto& e : errors) j.str(e);
    j.close(']');
    j.close('}');
    return j.text();
  }
};

uint64_t fnv(uint64_t h, uint64_t v) { return net::fnv1a_step(h, v); }
constexpr uint64_t kFnvInit = 0xcbf29ce484222325ULL;

// --- The shared image toolchain --------------------------------------------------
// assembler (apps) -> rewriter (rw::Linker) -> net.image_codec. Every
// workload's set-up runs it once per pass.
struct Toolchain {
  rw::LinkedSystem sys;
  std::vector<uint8_t> blob;
};

Toolchain build_image(Tracer& tr,
                      const std::function<std::vector<assembler::Image>()>&
                          make_images) {
  Toolchain tc;
  std::vector<assembler::Image> images;
  {
    Tracer::Scope s(tr, "assembler.build");
    images = make_images();
  }
  {
    Tracer::Scope s(tr, "rewriter.link");
    rw::Linker linker;
    for (const auto& img : images) linker.add(img);
    tc.sys = linker.link();
  }
  {
    Tracer::Scope s(tr, "codec.serialize");
    tc.blob = net::serialize_system(tc.sys);
  }
  return tc;
}

// The fig7 image the dissemination benches ship: one data feeder and two
// tree searches at 8 nodes/tree (bench/fig_dissemination.cpp).
std::vector<assembler::Image> fig7_ota_images() {
  std::vector<assembler::Image> images;
  images.push_back(apps::data_feed_program(6, 64));
  for (int i = 0; i < 2; ++i) {
    apps::TreeSearchParams p;
    p.nodes_per_tree = 8;
    p.trees = 1;
    p.searches = 32;
    p.seed = static_cast<uint16_t>(0x3131 + 0x1D0B * i);
    images.push_back(apps::tree_search_program(p));
  }
  return images;
}

// One pass = set up an engine (toolchain + construction), then run it: the
// timed section. Each workload's engine is built afresh for every pass.
class Engine {
 public:
  virtual ~Engine() = default;
  // `between` may run between units of work that the pass times one by one
  // (the sweep's seeds), outside those timings: the runner takes set-up
  // samples there, so they spread over the run.
  virtual Pass run(Tracer& tr, const std::function<void()>& between) = 0;
};

// --- Workload: kernel_treesearch -------------------------------------------------
// Fig. 7 mix at 24 nodes/tree: 1 data feeder + 20 tree searches, initial
// stack 96. Tree seeds follow fig7_treesearch's 0x3131 + 0x1D0B * i, with
// the task index offset by 20 per workload seed (seed 0 = fig7's trees).
// kSearches scales each task so a pass runs for seconds.
constexpr uint64_t kSearchTasks = 20;
constexpr uint16_t kSearches = 20000;

class KernelEngine : public Engine {
 public:
  KernelEngine(uint64_t seed, Tracer& tr) {
    tc_ = build_image(tr, [seed] {
      std::vector<assembler::Image> images;
      images.push_back(apps::data_feed_program(6, 64));
      for (uint64_t i = 0; i < kSearchTasks; ++i) {
        apps::TreeSearchParams p;
        p.nodes_per_tree = 24;
        p.trees = 1;
        p.searches = kSearches;
        p.seed = static_cast<uint16_t>(0x3131 +
                                       0x1D0B * (i + kSearchTasks * seed));
        images.push_back(apps::tree_search_program(p));
      }
      return images;
    });
    Tracer::Scope s(tr, "kernel.start");
    kern::KernelConfig kc;
    kc.initial_stack = 96;
    k_ = std::make_unique<kern::Kernel>(m_, tc_.sys, kc);
    admitted_ = k_->admit_all();
    started_ = admitted_ > 0 && k_->start();
  }

  Pass run(Tracer& tr, const std::function<void()>&) override {
    Pass p;
    p.attempted = 1 + kSearchTasks;
    if (!started_) {
      p.errors.push_back("kernel did not start");
    } else {
      emu::StopReason stop = emu::StopReason::Running;
      {
        Tracer::Scope s(tr, "kernel.run");
        stop = k_->run(8'000'000'000ULL);
      }
      if (stop != emu::StopReason::Halted)
        p.errors.push_back("machine did not halt (stop reason " +
                           std::to_string(static_cast<int>(stop)) + ")");
    }
    if (admitted_ != p.attempted)
      p.errors.push_back("admitted " + std::to_string(admitted_) + " of " +
                         std::to_string(p.attempted) + " tasks");
    uint64_t done = 0;
    for (const auto& t : k_->tasks()) {
      if (t.state == kern::TaskState::Done) {
        ++done;
      } else {
        p.errors.push_back("task " + std::to_string(t.id) + " ended " +
                           kern::to_string(t.state));
      }
    }
    p.failed = p.attempted - std::min(done, p.attempted);
    if (!p.errors.empty() && p.failed == 0) p.failed = p.attempted;

    const auto& ks = k_->stats();
    const auto ms = m_.stats();
    p.sim_cycles = m_.cycles();
    p.node_cycles = static_cast<double>(p.sim_cycles);
    p.count("codec.image_bytes", static_cast<double>(tc_.blob.size()));
    p.count("kernel.service_calls", ks.service_calls);
    p.count("kernel.service_cycles", ks.service_cycles);
    p.count("kernel.context_switches", ks.context_switches);
    p.count("kernel.relocations", ks.relocations);
    p.count("kernel.reloc_bytes_moved", ks.reloc_bytes_moved);
    p.count("kernel.reloc_cycles", ks.reloc_cycles);
    p.count("kernel.mem_translations", ks.mem_translations);
    p.count("kernel.window_invalidations", ks.window_invalidations);
    p.count("kernel.stack_run_members", ks.stack_run_members);
    p.count("kernel.kills", ks.kills);
    p.count("emu.instructions", ms.instructions);
    p.count("emu.active_cycles", ms.active_cycles);
    p.count("emu.idle_cycles", ms.idle_cycles);
    p.count("emu.devhub.rx_delivered_bytes", m_.dev().rx_delivered());
    p.count("emu.devhub.rx_overruns", m_.dev().rx_overruns());

    uint64_t h = fnv(kFnvInit, p.sim_cycles);
    for (const auto& [k, v] : p.counters) h = fnv(h, static_cast<uint64_t>(v));
    for (const auto& t : k_->tasks())
      h = fnv(fnv(h, t.id), static_cast<uint64_t>(t.state));
    p.digest = h;
    return p;
  }

 private:
  Toolchain tc_;
  emu::Machine m_;
  std::unique_ptr<kern::Kernel> k_;  // holds references to m_ and tc_.sys
  size_t admitted_ = 0;
  bool started_ = false;
};

// --- Workloads: ota_star128 / ota_grid128 ---------------------------------------
// NetSim::disseminate() of the fig7 image to 128 receivers at 10% loss; the
// base never gives up on a node. Star runs serially (shards = 1, the
// default); grid runs two shards over the quantum barrier. Not the engine's
// automatic choice (shards = 0), which takes every CPU of a 4-vCPU host:
// there the barrier waits on whichever virtual CPU the host slows, and
// runs of one seed differed 1.7x.
constexpr size_t kOtaNodes = 128;

class OtaEngine : public Engine {
 public:
  OtaEngine(bool grid, uint64_t seed, Tracer& tr)
      : tc_(build_image(tr, fig7_ota_images)) {
    net::NetConfig cfg;
    cfg.nodes = kOtaNodes;
    cfg.link.drop_pct = 10;
    cfg.chaos_seed = seed;
    cfg.proto.node_give_up_probes = 0;
    cfg.max_cycles = 16'000'000'000ULL;  // ~2170 modeled s: a run past it fails
    if (grid) {
      cfg.topo.kind = net::TopologyKind::Grid;
      cfg.shards = 2;
    }
    // Traced passes keep the whole event trace (the digest covers every
    // event whatever the capacity).
    if (tr.on) cfg.trace_capacity = std::numeric_limits<size_t>::max();
    Tracer::Scope s(tr, "net.setup");
    sim_ = std::make_unique<net::NetSim>(cfg, tc_.blob);
  }

  Pass run(Tracer& tr, const std::function<void()>&) override {
    Pass p;
    net::DisseminationResult res;
    {
      Tracer::Scope s(tr, "net.run");
      res = sim_->disseminate();
    }
    // The engine's worker pool lives as long as the NetSim: every thread
    // of this process beyond the main one is a shard worker.
    p.workers = static_cast<unsigned>(
        std::max<uint64_t>(1, proc_status_field("Threads")));
    p.attempted = kOtaNodes;
    if (!res.all_acked) p.errors.push_back("base did not hear every Ack");
    for (size_t id = 1; id <= kOtaNodes; ++id) {
      const auto& n = res.nodes[id - 1];
      if (sim_->node_complete(id) && n.complete &&
          sim_->node_blob(id) == tc_.blob) {
        p.install_cycles.push_back(static_cast<int64_t>(n.completion_cycle));
      } else {
        p.install_cycles.push_back(-1);
        ++p.failed;
        p.errors.push_back("receiver " + std::to_string(id) +
                           " holds no verified byte-equal image");
      }
    }
    if (!res.all_acked && p.failed == 0) p.failed = p.attempted;

    p.sim_cycles = res.cycles;
    p.nodes = kOtaNodes + 1;
    p.node_cycles = static_cast<double>(res.cycles) * p.nodes;
    p.digest = res.trace_digest;

    uint64_t frames_rx = 0, crc_drops = 0, rx_bytes = 0, nacks = 0, acks = 0,
             dup = 0, data_rx = 0, served = 0, acks_relayed = 0,
             sum_relayed = 0, parent_sw = 0;
    for (const auto& n : res.nodes) {
      frames_rx += n.frames_rx;
      crc_drops += n.crc_drops;
      rx_bytes += n.bytes_rx;
      nacks += n.nacks_sent;
      acks += n.acks_sent;
      dup += n.duplicate_chunks;
      data_rx += n.data_rx;
      served += n.chunks_served;
      acks_relayed += n.acks_relayed;
      sum_relayed += n.summaries_relayed;
      parent_sw += n.parent_switches;
    }
    uint64_t dev_rx = 0, dev_over = 0;
    for (size_t id = 0; id <= kOtaNodes; ++id) {
      dev_rx += sim_->node_machine(id).dev().rx_delivered();
      dev_over += sim_->node_machine(id).dev().rx_overruns();
    }
    const auto& md = res.medium;
    p.count("codec.image_bytes", static_cast<double>(tc_.blob.size()));
    p.count("emu.devhub.rx_delivered_bytes", dev_rx);
    p.count("emu.devhub.rx_overruns", dev_over);
    p.count("net.quanta", res.cycles / emu::DeviceHub::kCyclesPerRadioByte);
    p.count("net.medium.bytes_on_air", md.bytes_on_air);
    p.count("net.medium.offered", md.packets_offered);
    p.count("net.medium.delivered", md.delivered);
    p.count("net.medium.dropped", md.dropped);
    p.count("net.medium.collisions", md.collisions);
    p.count("net.frames_rx", frames_rx);
    p.count("net.crc_drops", crc_drops);
    p.count("net.rx_bytes", rx_bytes);
    p.count("net.data_tx", res.base.data_tx);
    p.count("net.retransmissions", res.base.retransmissions);
    p.count("net.nacks", nacks);
    p.count("net.acks", acks);
    p.count("net.summaries_tx", res.base.summaries_tx);
    p.count("net.duplicate_chunks", dup);
    p.count("net.data_rx", data_rx);
    p.count("net.chunks_served", served);
    p.count("net.acks_relayed", acks_relayed);
    p.count("net.summaries_relayed", sum_relayed);
    p.count("net.parent_switches", parent_sw);
    p.count("net.trace_events", res.trace_events);

    if (tr.on && sim_->trace().size() == res.trace_events) {
      // Distinct quanta holding any trace event, over all quanta.
      std::set<uint64_t> quanta;
      for (const auto& e : sim_->trace())
        quanta.insert(e.cycle / emu::DeviceHub::kCyclesPerRadioByte);
      const uint64_t all = res.cycles / emu::DeviceHub::kCyclesPerRadioByte;
      if (all > 0) p.event_quanta_share = static_cast<double>(quanta.size()) / all;
    }
    return p;
  }

 private:
  Toolchain tc_;
  std::unique_ptr<net::NetSim> sim_;
};

// --- Workload: netchaos_sweep ----------------------------------------------------
// chaos::run_net_chaos over seeds [seed, seed + 100), serially, each with
// its own oracles (convergence, byte equality, rollout ground truth) and its
// built-in replay. Violating seeds stay in the range and count as failed.
// Throughput counts the passing seeds only: a violating seed burns its whole
// cycle budget, mostly idle, so fixing it must not read as a speed change.
constexpr uint64_t kSweepSeeds = 100;

class SweepEngine : public Engine {
 public:
  // The sweep plans its own payloads inside run_net_chaos and has no set-up
  // of its own. It builds the fig7 image anyway, which it never ships, so
  // that its setup_s times the toolchain every other workload runs: a proxy.
  SweepEngine(uint64_t seed, Tracer& tr)
      : seed_(seed) {
    build_image(tr, fig7_ota_images);
  }

  Pass run(Tracer& tr, const std::function<void()>& between) override {
    Pass p;
    p.attempted = kSweepSeeds;
    const uint64_t budget = chaos::NetChaosOptions{}.max_cycles;
    uint64_t h = kFnvInit;
    double violating_node_cycles = 0;
    p.timed_s = 0;
    uint64_t violations = 0, exhausted = 0, crashes = 0, reboots = 0,
             resumed = 0, writes = 0, hostile = 0, hostile_frames = 0,
             auth_rejects = 0, squelched = 0, rollouts = 0, confirmed = 0,
             rolled_back = 0, gave_up = 0, halted = 0;
    for (uint64_t i = 0; i < kSweepSeeds; ++i) {
      chaos::NetChaosOptions o;
      o.seed = seed_ + i;
      const auto t0 = Clock::now();
      chaos::NetChaosResult r;
      {
        Tracer::Scope s(tr, "chaos.seed");
        r = chaos::run_net_chaos(o);
      }
      const double dt = seconds_since(t0);
      between();
      p.seed_s.push_back(dt);
      // run_net_chaos runs every seed twice (its replay oracle).
      const double node_cycles =
          2.0 * static_cast<double>(r.cycles) * (r.nodes + 1);
      p.sim_cycles += r.cycles;
      h = fnv(fnv(fnv(h, r.trace_digest), r.cycles), r.violations.size());
      if (r.ok()) {
        p.node_cycles += node_cycles;
        p.timed_s += dt;
      } else {
        ++p.failed;
        violating_node_cycles += node_cycles;
        p.violating_seed_s += dt;
        violations += r.violations.size();
        for (const auto& v : r.violations)
          p.errors.push_back("net seed " + std::to_string(o.seed) + ": " + v);
      }
      exhausted += r.cycles > budget;
      crashes += r.crashes;
      reboots += r.reboots;
      resumed += r.resumed_chunks;
      writes += r.store_writes;
      hostile += r.hostile;
      hostile_frames += r.hostile_frames;
      auth_rejects += r.auth_rejects;
      squelched += r.frames_squelched;
      rollouts += r.rollout;
      confirmed += r.rollout_confirmed;
      rolled_back += r.rollout_rolled_back;
      gave_up += r.rollout_gave_up;
      halted += r.rollout_halted;
    }
    p.digest = h;
    // codec.image_bytes stays 0: the sweep ships no toolchain image.
    p.count("chaos.violations", violations);
    p.count("chaos.budget_exhausted_seeds", exhausted);
    p.count("chaos.crashes", crashes);
    p.count("chaos.reboots", reboots);
    p.count("chaos.resumed_chunks", resumed);
    p.count("chaos.store_writes", writes);
    p.count("chaos.hostile_seeds", hostile);
    p.count("chaos.hostile_frames", hostile_frames);
    p.count("chaos.auth_rejects", auth_rejects);
    p.count("chaos.frames_squelched", squelched);
    p.count("chaos.rollout_seeds", rollouts);
    p.count("chaos.rollout_confirmed", confirmed);
    p.count("chaos.rollout_rolled_back", rolled_back);
    p.count("chaos.rollout_gave_up", gave_up);
    p.count("chaos.rollout_halted", halted);
    p.count("chaos.violating_cycle_share",
            violating_node_cycles / (violating_node_cycles + p.node_cycles));
    return p;
  }

 private:
  uint64_t seed_;
};

// --- Main loop ---------------------------------------------------------------------
struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
      continue;
    }
    if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (k == "--trace") {
      a.trace = std::strtoul(v, &end, 10) != 0;
    } else {
      return false;
    }
    if (end == v || *end != '\0') return false;
  }
  return !a.workload.empty() && a.seconds > 0;
}

std::unique_ptr<Engine> make_engine(const Args& a, Tracer& tr) {
  if (a.workload == "kernel_treesearch")
    return std::make_unique<KernelEngine>(a.seed, tr);
  if (a.workload == "ota_star128" || a.workload == "ota_grid128")
    return std::make_unique<OtaEngine>(a.workload == "ota_grid128", a.seed, tr);
  if (a.workload == "netchaos_sweep")
    return std::make_unique<SweepEngine>(a.seed, tr);
  return nullptr;
}

// Set-up takes milliseconds, so it is sampled at least this many times per
// run: set-ups alone between the sweep's seeds, kSetupPerPass after every
// pass, then more at the end up to the total. Host speed drifts over
// seconds, so samples spread over the run are steadier than one burst.
constexpr size_t kSetupSamples = 201;
constexpr size_t kSetupPerPass = 20;

// Host speed probe: the reference loop (refloop.cpp) runs for about 20 ms
// per probe, in this thread, because a shared host slows one virtual CPU
// at a time: a probe on another thread does not see it. Before and after
// every pass it runs about once per second the pass lasted (at least once,
// at most kRefMax times). The host runs this code and the emulator slower
// or faster together for minutes at a time; the median probe of a run lets
// run.py report the kernel workload at a fixed reference speed.
constexpr uint64_t kRefOps = 8'000'000;
constexpr int kRefMax = 10;

struct PassRecord {
  double setup_s = 0;
  double wall_s = 0;
  double timed_s = 0;  // host seconds behind the pass's node_cycles
  double seeds_s = 0;  // sweep: summed per-seed host time
  double violating_s = 0;  // sweep: host time of violating seeds
  bool traced = false;
};

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1\n");
    return 2;
  }
  const auto epoch = Clock::now();
  Tracer tr(epoch);

  // Passes run while the next one, at the mean pass length so far, still
  // ends within S seconds. With --trace 1 they alternate untraced/traced,
  // at least one of each.
  std::vector<PassRecord> recs;
  std::vector<double> setup_only;
  std::vector<double> ref_ns;
  uint32_t ref_check = 0;
  bool ref_ok = true;
  const auto probe = [&] {
    uint32_t check = 0;
    ref_ns.push_back(perfbench::reference_ns_per_op(kRefOps, &check));
    if (ref_ns.size() == 1) ref_check = check;
    ref_ok = ref_ok && check == ref_check;
  };
  const auto setup_alone = [&] {
    const bool traced = tr.on;
    tr.on = false;
    const auto t0 = Clock::now();
    make_engine(a, tr);
    setup_only.push_back(seconds_since(t0));
    tr.on = traced;
  };
  const auto probes = [&](double pass_s) {
    const int n = std::clamp(static_cast<int>(pass_s), 1, kRefMax);
    for (int k = 0; k < n; ++k) probe();
  };
  Pass first;
  std::string first_det;
  std::vector<std::string> nondet;
  double event_share = -1;
  unsigned workers = 1;
  const size_t min_passes = a.trace ? 2 : 1;
  for (size_t i = 0;; ++i) {
    PassRecord r;
    r.traced = a.trace && i % 2 == 1;
    tr.on = r.traced;
    Pass p;
    probes(recs.empty() ? 0.0 : recs.back().wall_s);
    {
      Tracer::Scope pass_span(tr, "pass");
      const auto t0 = Clock::now();
      std::unique_ptr<Engine> eng;
      {
        Tracer::Scope s(tr, "setup");
        eng = make_engine(a, tr);
      }
      if (!eng) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     a.workload.c_str());
        return 2;
      }
      r.setup_s = seconds_since(t0);
      const auto t1 = Clock::now();
      {
        Tracer::Scope s(tr, "run");
        p = eng->run(tr, setup_alone);
      }
      r.wall_s = seconds_since(t1);
    }
    probes(r.wall_s);
    r.timed_s = p.timed_s < 0 ? r.wall_s : p.timed_s;
    for (double s : p.seed_s) r.seeds_s += s;
    r.violating_s = p.violating_seed_s;
    recs.push_back(r);
    workers = std::max(workers, p.workers);
    if (r.traced && p.event_quanta_share >= 0)
      event_share = p.event_quanta_share;
    std::string det = p.det_text();
    if (i == 0) {
      first = std::move(p);
      first_det = std::move(det);
    } else if (det != first_det) {
      nondet.push_back("pass " + std::to_string(i) +
                       " deterministic outputs differ from pass 0");
    }
    for (size_t k = 0; k < kSetupPerPass; ++k) setup_alone();
    const double elapsed = seconds_since(epoch);
    if (i + 1 >= min_passes &&
        elapsed + elapsed / static_cast<double>(i + 1) > a.seconds)
      break;
  }
  while (recs.size() + setup_only.size() < kSetupSamples) setup_alone();
  if (!ref_ok) nondet.push_back("reference loop results differ");

  Json j;
  j.open('{');
  j.key("workload").str(a.workload).key("seed").num(a.seed);
  j.key("trace").num(static_cast<uint64_t>(a.trace));
  j.key("host").open('{');
  j.key("compiler").str(PERFBENCH_COMPILER);
  j.key("flags").str(PERFBENCH_FLAGS);
  j.key("build_type").str(PERFBENCH_BUILD_TYPE);
  j.key("lto").str(PERFBENCH_LTO);
  j.key("hardware_threads")
      .num(static_cast<uint64_t>(std::thread::hardware_concurrency()));
  j.key("workers").num(static_cast<uint64_t>(workers));
  j.close('}');
  j.key("passes").open('[');
  for (const auto& r : recs) {
    j.open('{');
    j.key("setup_s").num(r.setup_s).key("wall_s").num(r.wall_s);
    j.key("timed_s").num(r.timed_s).key("seeds_s").num(r.seeds_s);
    j.key("violating_s").num(r.violating_s);
    j.key("traced").num(static_cast<uint64_t>(r.traced));
    j.close('}');
  }
  j.close(']');
  j.key("extra_setup_s").open('[');
  for (double s : setup_only) j.num(s);
  j.close(']');
  j.key("ref_ns").open('[');
  for (double s : ref_ns) j.num(s);
  j.close(']');
  j.key("clock_hz").num(static_cast<uint64_t>(emu::kClockHz));
  j.key("det").raw(first_det);
  j.key("nondeterminism").open('[');
  for (const auto& e : nondet) j.str(e);
  j.close(']');
  j.key("seed_s").open('[');
  for (double s : first.seed_s) j.num(s);
  j.close(']');
  j.key("event_quanta_share");
  event_share < 0 ? j.null() : j.num(event_share);
  j.key("peak_rss_kb").num(proc_status_field("VmHWM"));
  j.key("spans").open('[');
  for (const auto& s : tr.spans()) {
    j.open('{');
    j.key("name").str(s.name).key("parent").num(static_cast<double>(s.parent));
    j.key("t0").num(s.t0).key("t1").num(s.t1);
    j.close('}');
  }
  j.close(']');
  j.close('}');
  std::printf("%s\n", j.text().c_str());
  return 0;
}
