// Repository benchmark program (see perfbench/README.md).
//
// Runs one named workload repeatedly for a fixed host-time budget, times
// each phase from here - around calls into the simulator's public API - and
// prints the end-to-end metrics (untraced mode) or the per-layer metrics
// (traced mode) as one JSON object on the last line of stdout. Every cell's
// simulated statistics are digested and must repeat exactly; any mismatch or
// failed check marks the cell failed and makes the process exit 1.
//
//   pacbench --workload paper-pac|bfs-direct|fabric-faults --seed N
//            --seconds S --trace 0|1 [--out DIR]
#include <sched.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "baseline/direct_controller.hpp"
#include "mem/page_table.hpp"
#include "noc/traffic_gen.hpp"
#include "pac/pac.hpp"
#include "sim/report.hpp"
#include "sim/sharded_system.hpp"
#include "sim/system.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace pacsim;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Spans: name, start, end and parent, kept in memory for one workload pass.

struct Span {
  const char* name;
  int parent;  ///< index into the span list, -1 for a root
  double start = 0.0;
  double end = 0.0;
  [[nodiscard]] double duration() const { return end - start; }
};

class Tracer {
 public:
  int open(const char* name) {
    spans_.push_back(Span{name, current_, seconds_since(epoch_), 0.0});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end = seconds_since(epoch_);
    current_ = spans_[static_cast<std::size_t>(id)].parent;
  }

  /// Summed duration of every span called `name`.
  [[nodiscard]] double total(const std::string& name) const {
    double t = 0.0;
    for (const Span& s : spans_) {
      if (name == s.name) t += s.duration();
    }
    return t;
  }

 private:
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  int current_ = -1;
};

class Scope {
 public:
  Scope(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.open(name)) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

// ---------------------------------------------------------------------------
// Coalescer wrapper installed through SystemConfig::coalescer_factory: times
// and counts every accept/tick/complete/next_event call, forwarding all of
// them to the real controller.

struct CallTimer {
  std::uint64_t calls = 0;
  double seconds = 0.0;
  void merge(const CallTimer& o) {
    calls += o.calls;
    seconds += o.seconds;
  }
};

class TimedCall {
 public:
  explicit TimedCall(CallTimer& timer) : timer_(timer) {}
  ~TimedCall() {
    ++timer_.calls;
    timer_.seconds += seconds_since(start_);
  }
  TimedCall(const TimedCall&) = delete;
  TimedCall& operator=(const TimedCall&) = delete;

 private:
  CallTimer& timer_;
  Clock::time_point start_ = Clock::now();
};

struct CoalescerTimes {
  CallTimer accept, tick, complete, next_event;
  [[nodiscard]] double total() const {
    return accept.seconds + tick.seconds + complete.seconds +
           next_event.seconds;
  }
  void merge(const CoalescerTimes& o) {
    accept.merge(o.accept);
    tick.merge(o.tick);
    complete.merge(o.complete);
    next_event.merge(o.next_event);
  }
};

class TimedCoalescer final : public Coalescer {
 public:
  explicit TimedCoalescer(std::unique_ptr<Coalescer> inner)
      : inner_(std::move(inner)) {}

  bool accept(const MemRequest& request, Cycle now) override {
    const TimedCall t(times_.accept);
    return inner_->accept(request, now);
  }
  void tick(Cycle now) override {
    const TimedCall t(times_.tick);
    inner_->tick(now);
  }
  void complete(const DeviceResponse& response, Cycle now) override {
    const TimedCall t(times_.complete);
    inner_->complete(response, now);
  }
  void drain_satisfied_into(std::vector<std::uint64_t>& out) override {
    inner_->drain_satisfied_into(out);
  }
  [[nodiscard]] Cycle next_event_cycle(Cycle now) const override {
    const TimedCall t(times_.next_event);
    return inner_->next_event_cycle(now);
  }
  void fast_forward_to(Cycle target) override {
    inner_->fast_forward_to(target);
  }
  [[nodiscard]] bool idle() const override { return inner_->idle(); }
  [[nodiscard]] const CoalescerStats& stats() const override {
    return inner_->stats();
  }
  [[nodiscard]] std::string debug_json() const override {
    return inner_->debug_json();
  }
  void checkpoint_save(BinWriter& w) const override {
    inner_->checkpoint_save(w);
  }
  void checkpoint_load(BinReader& r) override { inner_->checkpoint_load(r); }

  [[nodiscard]] const CoalescerTimes& times() const { return times_; }
  /// The PAC statistics System::collect_result() cannot see through the
  /// factory seam (it only reads them from a Pac it built itself).
  [[nodiscard]] const Pac* pac() const {
    return dynamic_cast<const Pac*>(inner_.get());
  }

 private:
  std::unique_ptr<Coalescer> inner_;
  mutable CoalescerTimes times_;  ///< next_event_cycle() is const
};

// ---------------------------------------------------------------------------
// Workloads.

struct CellSpec {
  std::string label;
  const Workload* suite = nullptr;  ///< null: open-loop traffic generator
  WorkloadConfig wcfg;
  TrafficConfig traffic;
  SystemConfig cfg;
};

struct WorkloadSpec {
  std::string name;
  std::vector<CellSpec> cells;
};

const Workload& suite_named(const char* name) {
  const Workload* w = find_workload(name);
  if (w == nullptr) throw std::runtime_error(std::string("no suite ") + name);
  return *w;
}

/// The paper's Table-1 machine as the figure benches run it: 8 cores,
/// mlp 8, prefetch on, shuffled paging, one HMC cube, 150k trace ops per
/// core at dataset `scale`.
CellSpec table1_cell(const char* suite, CoalescerKind kind, double scale,
                     std::uint64_t seed) {
  CellSpec c;
  c.suite = &suite_named(suite);
  c.label = std::string(suite) + "/" + std::string(to_string(kind));
  c.wcfg.seed = seed;
  c.wcfg.max_ops_per_core = 150'000;
  c.wcfg.scale = scale;
  c.cfg.num_cores = c.wcfg.num_cores;
  c.cfg.coalescer = kind;
  return c;
}

/// Open-loop Zipf traffic over a 4-cube mesh with transient link CRC
/// faults, sharded 4 ways on 2 worker threads.
CellSpec fabric_cell(std::uint64_t seed) {
  constexpr std::uint32_t kCubes = 4;
  CellSpec c;
  c.label = "zipf0.8/pac/mesh4";
  c.traffic.cubes = kCubes;
  c.traffic.zipf = 0.8;
  c.traffic.store_percent = 20;
  c.traffic.seed = seed;
  c.traffic.num_cores = 8;
  c.traffic.ops_per_core = 60'000;
  c.traffic.cube_capacity_bytes = c.cfg.hmc.map.capacity_bytes;

  SystemConfig& cfg = c.cfg;
  cfg.num_cores = c.traffic.num_cores;
  cfg.coalescer = CoalescerKind::kPac;
  cfg.identity_paging = true;
  cfg.max_outstanding_loads = 32;
  cfg.noc.cubes = kCubes;
  cfg.noc.topology = Topology::kMesh;
  cfg.fault.link_error_rate = 1e-3;
  cfg.exec.shards = 4;
  cfg.exec.threads = 2;
  // Weak scaling as in bench_multicube: N cubes get N times the host
  // request concurrency.
  const std::uint32_t conc = 16 * kCubes;
  cfg.pac.maq_entries = conc;
  cfg.pac.num_mshrs = conc;
  cfg.miss_queue_entries = std::max(cfg.miss_queue_entries, conc);
  return c;
}

WorkloadSpec make_workload(const std::string& name, std::uint64_t seed) {
  WorkloadSpec w{name, {}};
  if (name == "paper-pac") {
    for (const char* suite : {"gs", "stream", "hpcg"}) {
      w.cells.push_back(table1_cell(suite, CoalescerKind::kPac, 1.0, seed));
    }
  } else if (name == "bfs-direct") {
    // The fifth BFS level holds about W * 8^5 vertices, where W (mean 1)
    // depends on the seed, and it runs bottom-up when that reaches v/32 =
    // scale * 8^5. At scale 1 about half the seeds fall on each side, and
    // simulated cycles jump by 20% between them. At scale 0.25 almost
    // every seed runs it bottom-up (30 of 30 tested).
    w.cells.push_back(
        table1_cell("bfs", CoalescerKind::kDirect, 0.25, seed));
  } else if (name == "fabric-faults") {
    w.cells.push_back(fabric_cell(seed));
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

// ---------------------------------------------------------------------------
// One pass over a workload.

struct Mode {
  bool traced = false;              ///< install the timed coalescer
  VerifyLevel verify = VerifyLevel::kOff;
  unsigned threads = 0;             ///< 0 keeps the workload's own count
};

struct CellRun {
  bool ok = false;
  std::string error;
  RunResult merged;
  std::vector<RunResult> shards;  ///< one per System the cell built
  std::uint64_t ops = 0;          ///< trace ops executed by the cores
  CoalescerTimes coal;            ///< traced mode only
  std::uint64_t digest = 0;
};

struct Pass {
  Tracer tracer;
  std::vector<CellRun> cells;
  double wall = 0.0;
  double reference = 0.0;  ///< reference kernel time just before the pass
};

/// The factory seam hides the Pac from collect_result(); put its statistics
/// back so reports and digests match the untraced run. Must run while the
/// System that owns the wrappers is alive.
void harvest(const std::vector<const TimedCoalescer*>& wrappers, bool sharded,
             CellRun& cell) {
  for (std::size_t i = 0; i < wrappers.size() && i < cell.shards.size();
       ++i) {
    cell.coal.merge(wrappers[i]->times());
    if (const Pac* p = wrappers[i]->pac()) {
      cell.shards[i].pac = p->pac_stats();
      cell.shards[i].has_pac = true;
    }
  }
  if (!sharded && !cell.shards.empty()) cell.merged = cell.shards[0];
}

/// Build `cfg`'s System(s), load the traces, run, and collect, recording a
/// span around each call. Fills the merged result and one per shard. A
/// traced run also builds a standalone PageTable with the exact arguments
/// of each System (shards XOR the seed with their index), naming the frame
/// shuffle's share of construction.
template <class Sys>
void simulate_cell(Tracer& tracer, const SystemConfig& cfg,
                   const SharedTraceSet& traces,
                   const std::vector<const TimedCoalescer*>& wrappers,
                   CellRun& cell) {
  std::unique_ptr<Sys> sys;
  {
    const Scope s(tracer, "construct");
    sys = std::make_unique<Sys>(cfg);
  }
  {
    const Scope s(tracer, "load_trace");
    for (std::uint32_t core = 0; core < cfg.num_cores; ++core) {
      SharedTrace t;
      if (core < traces->size()) t = SharedTrace(traces, &(*traces)[core]);
      sys->load_trace(core, std::move(t));
    }
  }
  if constexpr (std::is_same_v<Sys, System>) {
    {
      const Scope s(tracer, "run");
      sys->begin_run();
      sys->run_until(kNeverCycle);
    }
    if (!sys->is_finished()) throw std::runtime_error("run did not finish");
    const Scope s(tracer, "collect");
    cell.merged = sys->collect_result();
    cell.shards.push_back(cell.merged);
  } else {
    {
      const Scope s(tracer, "run");
      cell.merged = sys->run();
    }
    const Scope s(tracer, "collect");
    for (unsigned i = 0; i < sys->shard_count(); ++i) {
      cell.shards.push_back(sys->shard(i).collect_result());
    }
  }
  harvest(wrappers, std::is_same_v<Sys, ShardedSystem>, cell);

  // Probe after the System is gone, so the standalone tables reuse the
  // memory its own tables just freed, as the next construction would.
  const unsigned systems = static_cast<unsigned>(cell.shards.size());
  sys.reset();
  if (!wrappers.empty()) {
    const Scope s(tracer, "page_table_probe");
    for (unsigned i = 0; i < systems; ++i) {
      const PageTable table(cfg.phys_pages, cfg.page_table_seed ^ i,
                            cfg.identity_paging);
    }
  }
}

void run_cell(const CellSpec& spec, const Mode& mode,
              const std::string& report_dir, Tracer& tracer, CellRun& cell) {
  const Scope cell_span(tracer, "cell");
  SharedTraceSet traces;
  {
    const Scope s(tracer, "gen");
    if (spec.suite != nullptr) {
      traces = acquire_traces(nullptr, *spec.suite, spec.wcfg).traces;
    } else {
      traces = std::make_shared<const TraceSet>(generate_traffic(spec.traffic));
    }
  }
  for (const Trace& t : *traces) cell.ops += t.size();

  SystemConfig cfg = spec.cfg;
  cfg.verify.level = mode.verify;
  cfg.verify.forensics_dir = report_dir + "/forensics";
  if (mode.threads != 0) cfg.exec.threads = mode.threads;
  std::vector<const TimedCoalescer*> wrappers;
  if (mode.traced) {
    const CoalescerKind kind = cfg.coalescer;
    const PacConfig pac = cfg.pac;
    const DirectControllerConfig direct = cfg.direct;
    cfg.coalescer_factory = [kind, pac, direct,
                             &wrappers](DevicePort* port) {
      std::unique_ptr<Coalescer> inner;
      if (kind == CoalescerKind::kPac) {
        inner = std::make_unique<Pac>(pac, port);
      } else if (kind == CoalescerKind::kDirect) {
        inner = std::make_unique<DirectController>(direct, port);
      } else {
        throw std::invalid_argument("pacbench: no timed wrapper for " +
                                    std::string(to_string(kind)));
      }
      auto timed = std::make_unique<TimedCoalescer>(std::move(inner));
      wrappers.push_back(timed.get());
      return std::unique_ptr<Coalescer>(std::move(timed));
    };
  }

  if (cfg.exec.sharded()) {
    simulate_cell<ShardedSystem>(tracer, cfg, traces, wrappers, cell);
  } else {
    simulate_cell<System>(tracer, cfg, traces, wrappers, cell);
  }
  cell.ok = true;
}

/// A cell slower than this fails: even on a contended host every cell runs
/// in a few seconds. Hangs in simulated time hit SystemConfig::max_cycles.
constexpr double kCellTimeoutSeconds = 60.0;

/// One workload pass, from config to the last report written.
Pass run_pass(const WorkloadSpec& w, const Mode& mode,
              const std::string& report_dir) {
  Pass pass;
  pass.cells.resize(w.cells.size());
  const Clock::time_point t0 = Clock::now();
  {
    const Scope root(pass.tracer, "workload");
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
      CellRun& cell = pass.cells[i];
      const Clock::time_point cell_start = Clock::now();
      try {
        run_cell(w.cells[i], mode, report_dir, pass.tracer, cell);
      } catch (const std::exception& e) {
        cell.ok = false;
        cell.error = e.what();
      }
      if (cell.ok && seconds_since(cell_start) > kCellTimeoutSeconds) {
        cell.ok = false;
        cell.error = "timed out";
      }
    }
    const Scope s(pass.tracer, "report");
    SweepReport report("perfbench_" + w.name);
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
      const CellRun& c = pass.cells[i];
      if (c.ok) {
        report.add(w.cells[i].label, w.cells[i].cfg.coalescer, c.merged);
      } else {
        report.add_failure(w.cells[i].label, "failed", c.error, 0.0);
      }
    }
    report.write(report_dir);
  }
  // The page-table probe is measurement, not work the workload does.
  pass.wall = seconds_since(t0) - pass.tracer.total("page_table_probe");
  return pass;
}

// ---------------------------------------------------------------------------
// Correctness gates.

std::uint64_t fnv1a(const std::string& s, std::uint64_t h) {
  for (const unsigned char ch : s) {
    h ^= ch;
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// Digest of every simulated statistic of a cell: the merged report and
/// each shard's report, without host timings. The merged PAC block and the
/// verifier block are left out because the traced and verify=counters
/// passes legitimately differ there; each shard's PAC block stays in.
std::uint64_t cell_digest(const CellSpec& spec, const CellRun& c) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  RunResult merged = c.merged;
  merged.pac = PacStats{};
  merged.has_pac = false;
  merged.verification = VerifyStats{};
  h = fnv1a(run_report_json(spec.label, spec.cfg.coalescer, merged, false), h);
  for (RunResult shard : c.shards) {
    shard.verification = VerifyStats{};
    h = fnv1a(run_report_json(spec.label, spec.cfg.coalescer, shard, false),
              h);
  }
  return h;
}

struct Gate {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::uint64_t> reference;  ///< per-cell digest of pass 1
  std::vector<std::string> errors;

  void fail(const std::string& what) {
    ++failed;
    errors.push_back(what);
  }

  /// Check every cell of `pass`; `what` names the pass in error messages.
  void check(const WorkloadSpec& w, Pass& pass, const std::string& what,
             bool counters) {
    for (std::size_t i = 0; i < pass.cells.size(); ++i) {
      ++attempted;
      CellRun& c = pass.cells[i];
      const std::string label = w.name + ":" + w.cells[i].label + " (" +
                                what + ")";
      if (!c.ok) {
        fail(label + ": " + c.error);
        continue;
      }
      if (c.merged.cycles == 0 || c.merged.coal.raw_requests == 0) {
        fail(label + ": run simulated no memory traffic");
        continue;
      }
      if (counters) {
        const VerifyStats& v = c.merged.verification;
        if (!v.enabled || v.violations != 0 ||
            v.issued != v.retired + v.fences + v.poisoned) {
          fail(label + ": verify=counters conservation failed (issued " +
               std::to_string(v.issued) + ", retired " +
               std::to_string(v.retired) + ", fences " +
               std::to_string(v.fences) + ", poisoned " +
               std::to_string(v.poisoned) + ", violations " +
               std::to_string(v.violations) + ")");
          continue;
        }
      }
      c.digest = cell_digest(w.cells[i], c);
      if (reference.size() <= i) reference.resize(i + 1, 0);
      if (reference[i] == 0) {
        reference[i] = c.digest;
      } else if (reference[i] != c.digest) {
        fail(label + ": simulated statistics differ from the first pass");
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Host-speed reference. The host is a shared VM whose speed drifts by a
// third over minutes, and by as much from one pass to the next, as other
// tenants load its cores, caches and memory. A drift that lasts a whole run
// survives any statistic over that run's passes. So a fixed reference
// kernel runs just before every pass, on the same CPUs and as many threads
// as the workload, and each pass's host times are scaled by
// kReferenceSeconds over that kernel time: they read as seconds on a host
// where the kernel takes kReferenceSeconds. The kernel uses the standard
// library only, so no change to the simulator moves it.
//
// No single part tracks the simulator on its own. In three sets of eight
// runs on paper-pac and bfs-direct, whose median passes spread by 6%, 29%
// and 34% (quartiles over median) between runs, median pass over the
// median time of the sort alone spread by 12%, 9% and 19%, of the LLC walk
// alone by 18%, 20% and 46%, and of the DRAM walk alone by 6%, 17% and
// 18%. The median over passes of each pass over the whole kernel's time
// next to it spread by 5% in all three.

/// About the kernel's time on an unloaded 4-vCPU Xeon VM, where the
/// scaled and unscaled host times agree.
constexpr double kReferenceSeconds = 0.150;

std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Sorting in the L2, a random walk in the LLC, and a fresh buffer filled
/// and walked in DRAM: the mix of core, cache and memory time the
/// simulator spends.
std::uint64_t reference_kernel() {
  std::uint64_t x = 1;
  std::uint64_t sum = 0;
  for (int round = 0; round < 2; ++round) {
    std::vector<std::uint64_t> keys(1U << 17);  // 1 MiB
    for (std::uint64_t& k : keys) k = splitmix64(x);
    std::sort(keys.begin(), keys.end());
    sum += keys[keys.size() / 2];
  }
  {
    std::vector<std::uint32_t> next(1U << 20);  // 4 MiB
    for (std::uint32_t i = 0; i < next.size(); ++i) next[i] = i;
    for (std::uint32_t i = static_cast<std::uint32_t>(next.size()) - 1; i > 0;
         --i) {  // Sattolo: one cycle through every entry
      std::swap(next[i], next[splitmix64(x) % i]);
    }
    std::uint32_t at = 0;
    for (std::uint32_t step = 0; step < (1U << 19); ++step) {
      at = next[at];
      sum += at;
    }
  }
  for (int round = 0; round < 2; ++round) {
    constexpr std::uint32_t kMask = (1U << 22) - 1;
    std::vector<std::uint32_t> big(kMask + 1);  // 16 MiB
    for (std::uint32_t i = 0; i <= kMask; ++i) big[i] = i * 2654435761U;
    std::uint32_t at = 0;
    for (std::uint32_t step = 0; step < (1U << 18); ++step) {
      at = (big[at] ^ (step * 0x9E3779B9U)) & kMask;
      sum += at;
    }
  }
  return sum;
}

/// Seconds for `threads` copies of the kernel run at once, or a negative
/// value if the copies disagree.
double kernel_seconds(unsigned threads) {
  std::vector<std::uint64_t> sums(threads);
  const Clock::time_point t0 = Clock::now();
  {
    std::vector<std::jthread> workers;
    for (unsigned i = 1; i < threads; ++i) {
      workers.emplace_back([&sums, i] { sums[i] = reference_kernel(); });
    }
    sums[0] = reference_kernel();
  }
  const double elapsed = seconds_since(t0);
  for (const std::uint64_t s : sums) {
    if (s != sums[0]) return -1.0;
  }
  return elapsed;
}

/// Pins this process, and every thread and child it starts later, to
/// `count` of its allowed CPUs, starting with the one it runs on. Each vCPU
/// of a shared host sees its own neighbours' load, so the kernel must run
/// where the workload runs to measure the same slowdown.
void pin_to_cpus(unsigned count) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  const int here = sched_getcpu();
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  unsigned chosen = 0;
  for (int i = 0; i < CPU_SETSIZE && chosen < count; ++i) {
    const int cpu = (std::max(here, 0) + i) % CPU_SETSIZE;
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &pinned);
      ++chosen;
    }
  }
  if (chosen == count) sched_setaffinity(0, sizeof pinned, &pinned);
}

/// kernel_seconds() in a child process, so the kernel's buffers never
/// count toward the workload's peak RSS. The child dies with this process.
double time_reference(unsigned threads) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("reference kernel: no pipe");
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("reference kernel: fork failed");
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    close(fds[0]);
    const double elapsed = kernel_seconds(threads);
    const bool sent = write(fds[1], &elapsed, sizeof elapsed) ==
                      static_cast<ssize_t>(sizeof elapsed);
    _exit(sent && elapsed > 0.0 ? 0 : 1);
  }
  close(fds[1]);
  double elapsed = -1.0;
  ssize_t got = 0;
  do {
    got = read(fds[0], &elapsed, sizeof elapsed);
  } while (got < 0 && errno == EINTR);
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (got != static_cast<ssize_t>(sizeof elapsed) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw std::runtime_error("reference kernel failed");
  }
  return elapsed;
}

// ---------------------------------------------------------------------------
// Metrics. End-to-end host times are medians over the run's passes, each
// pass scaled to the reference host (see kReferenceSeconds).

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The middle pass by wall time (the lower middle for an even count).
const Pass& median_pass(const std::vector<Pass>& passes) {
  std::vector<const Pass*> sorted;
  for (const Pass& p : passes) sorted.push_back(&p);
  std::sort(sorted.begin(), sorted.end(),
            [](const Pass* a, const Pass* b) { return a->wall < b->wall; });
  return *sorted[(sorted.size() - 1) / 2];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      status >> kb;
      return kb / 1024.0;
    }
    status.ignore(1 << 12, '\n');
  }
  return 0.0;
}

double setup_seconds(const Pass& p) {
  return p.tracer.total("gen") + p.tracer.total("construct") +
         p.tracer.total("load_trace");
}

std::uint64_t total_ops(const Pass& p) {
  std::uint64_t ops = 0;
  for (const CellRun& c : p.cells) ops += c.ops;
  return ops;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Simulated end-to-end metrics: deterministic for a seed.
void simulated_metrics(const Pass& p, std::vector<Metric>& out) {
  double cycles = 0.0, sim_ns = 0.0, raw = 0.0, issued = 0.0, bytes = 0.0;
  double energy_pj = 0.0;
  RunningStat latency;  // device access latency in cycles, all cells
  for (const CellRun& c : p.cells) {
    const RunResult& r = c.merged;
    cycles += static_cast<double>(r.cycles);
    sim_ns += r.runtime_ns();
    raw += static_cast<double>(r.coal.raw_requests);
    issued += static_cast<double>(r.coal.issued_requests);
    bytes += static_cast<double>(r.coal.issued_payload_bytes);
    energy_pj += r.total_energy;
    latency.merge(r.hmc.access_latency);
  }
  out.push_back({"sim_cycles", cycles, "cycles"});
  out.push_back({"dev_reqs_per_raw", ratio(issued, raw), "ratio"});
  out.push_back({"mem_bw_gbps", ratio(bytes, sim_ns), "GB/s"});
  out.push_back({"mem_latency_ns",
                 latency.mean() * p.cells.front().merged.ns_per_cycle, "ns"});
  out.push_back({"mem_energy_uj", energy_pj / 1e6, "uJ"});
}

/// Host seconds per reference-host second during `p`.
double slowdown(const Pass& p) { return p.reference / kReferenceSeconds; }

std::vector<Metric> end_to_end(const std::vector<Pass>& passes) {
  std::vector<double> wall, setup, run;
  for (const Pass& p : passes) {
    wall.push_back(p.wall / slowdown(p));
    setup.push_back(setup_seconds(p) / slowdown(p));
    run.push_back(p.tracer.total("run") / slowdown(p));
  }
  // Every pass executes the same ops, so the rate follows the run time.
  const double ops = static_cast<double>(total_ops(passes.front()));
  std::vector<Metric> m{
      {"wall_s", median(wall), "s"},
      {"setup_s", median(setup), "s"},
      {"ops_per_s", ratio(ops, median(run)), "1/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  simulated_metrics(passes.front(), m);
  return m;
}

/// Per-layer metrics. Host times all come from the median traced pass,
/// unscaled, so they decompose that pass's wall time exactly (up to
/// trace.residual_s).
std::vector<Metric> per_layer(const std::vector<Pass>& traced,
                              const std::vector<Pass>& untraced) {
  const Pass& ref = median_pass(traced);
  const Tracer& t = ref.tracer;
  CoalescerTimes coal;
  for (const CellRun& c : ref.cells) coal.merge(c.coal);
  const double page_table = t.total("page_table_probe");

  // Simulated per-layer counts: deterministic, identical in every pass.
  double l1h = 0, l1m = 0, llch = 0, llcm = 0, prefetches = 0, stalls = 0;
  double jumps = 0, skipped = 0, shard_cycles = 0, epochs = 0, threads = 0;
  double raw = 0, coalesced = 0, issued = 0, payload = 0, comparisons = 0;
  double timeouts = 0, c0 = 0, ctrl_bypass = 0;
  RunningStat stage2, stage3, maq_fill;
  double hmc_req = 0, conflicts = 0, conflict_wait = 0, row_hits = 0;
  double row_misses = 0, link_bytes = 0;
  double max_util = 0, queued = 0, crc_nacks = 0, delay_sum = 0;
  double delay_packets = 0;
  double retrans = 0, nacks = 0, timeout_fires = 0, poisoned = 0;
  for (const CellRun& c : ref.cells) {
    const RunResult& r = c.merged;
    l1h += static_cast<double>(r.l1_hits);
    l1m += static_cast<double>(r.l1_misses);
    llch += static_cast<double>(r.llc_hits);
    llcm += static_cast<double>(r.llc_misses);
    prefetches += static_cast<double>(r.prefetches_issued);
    stalls += static_cast<double>(r.core_stall_cycles);
    epochs += static_cast<double>(r.exec.epochs);
    threads = std::max(threads, static_cast<double>(r.exec.threads));
    raw += static_cast<double>(r.coal.raw_requests);
    coalesced += static_cast<double>(r.coal.coalesced_away);
    issued += static_cast<double>(r.coal.issued_requests);
    payload += static_cast<double>(r.coal.issued_payload_bytes);
    comparisons += static_cast<double>(r.coal.comparisons);
    hmc_req += static_cast<double>(r.hmc.requests);
    conflicts += static_cast<double>(r.hmc.bank_conflicts);
    conflict_wait += static_cast<double>(r.hmc.conflict_wait_cycles);
    row_hits += static_cast<double>(r.hmc.row_hits);
    row_misses += static_cast<double>(r.hmc.row_misses);
    link_bytes += static_cast<double>(r.link_bytes());
    retrans += static_cast<double>(r.resilience.retry.retransmissions);
    nacks += static_cast<double>(r.resilience.retry.nacks);
    timeout_fires += static_cast<double>(r.resilience.retry.timeout_fires);
    poisoned += static_cast<double>(r.resilience.retry.poisoned_completions);
    if (r.has_noc) crc_nacks += static_cast<double>(r.noc.link_crc_nacks);
    // Per shard: each shard simulates its own cycles, so fast-forward and
    // link utilisation are normalised by that shard's cycle count rather
    // than by the merged max-over-shards.
    for (const RunResult& s : c.shards) {
      jumps += static_cast<double>(s.throughput.fast_forward_jumps);
      skipped += static_cast<double>(s.throughput.skipped_cycles);
      shard_cycles += static_cast<double>(s.cycles);
      if (s.has_pac) {
        timeouts += static_cast<double>(s.pac.timeout_flushes);
        c0 += static_cast<double>(s.pac.c0_bypass_requests);
        ctrl_bypass += static_cast<double>(s.pac.controller_bypass_requests);
        stage2.merge(s.pac.stage2_latency);
        stage3.merge(s.pac.stage3_latency);
        maq_fill.merge(s.pac.maq_fill_latency);
      }
      if (!s.has_noc) continue;
      for (const LinkStats& l : s.noc.links) {
        max_util = std::max(max_util, ratio(static_cast<double>(l.busy_cycles),
                                            static_cast<double>(s.cycles)));
        queued += static_cast<double>(l.queued_packets);
        // Log2 buckets: bucket b >= 1 holds waits in [2^(b-1), 2^b); count
        // each at its lower edge, so the mean is a lower bound.
        for (const auto& [bucket, n] : l.queue_delay.buckets()) {
          if (bucket >= 1) {
            delay_sum += static_cast<double>(n) *
                         static_cast<double>(1ULL << (bucket - 1));
          }
          delay_packets += static_cast<double>(n);
        }
      }
    }
  }

  const double run_s = t.total("run");
  return {
      {"trace.wall_s", ref.wall, "s"},
      {"trace.overhead_s", ref.wall - median_pass(untraced).wall,
       "s"},
      {"trace.residual_s",
       ref.wall - setup_seconds(ref) - run_s - t.total("collect") -
           t.total("report"),
       "s"},
      {"workloads.gen_s", t.total("gen"), "s"},
      {"workloads.ops", static_cast<double>(total_ops(ref)), "count"},
      {"mem.page_table_build_s", page_table, "s"},
      {"sim.construct_s", t.total("construct") - page_table, "s"},
      {"sim.load_trace_s", t.total("load_trace"), "s"},
      {"sim.run_s", run_s, "s"},
      // Thread-seconds of the run loop outside the coalescer; on threaded
      // runs it includes the workers' epoch-barrier waits.
      {"sim.loop_other_s", run_s * std::max(1.0, threads) - coal.total(), "s"},
      {"sim.collect_s", t.total("collect"), "s"},
      {"sim.report_s", t.total("report"), "s"},
      {"coal.accept_s", coal.accept.seconds, "s"},
      {"coal.accept_calls", static_cast<double>(coal.accept.calls), "count"},
      {"coal.tick_s", coal.tick.seconds, "s"},
      {"coal.tick_calls", static_cast<double>(coal.tick.calls), "count"},
      {"coal.complete_s", coal.complete.seconds, "s"},
      {"coal.complete_calls", static_cast<double>(coal.complete.calls), "count"},
      {"coal.next_event_s", coal.next_event.seconds, "s"},
      {"coal.next_event_calls", static_cast<double>(coal.next_event.calls), "count"},
      {"sim.ff_jumps", jumps, "count"},
      {"sim.ff_skip_frac", ratio(skipped, shard_cycles), "ratio"},
      {"exec.epochs", epochs, "count"},
      {"exec.threads", threads, "count"},
      {"cache.l1_hit_ratio", ratio(l1h, l1h + l1m), "ratio"},
      {"cache.llc_hit_ratio", ratio(llch, llch + llcm), "ratio"},
      {"cache.prefetches", prefetches, "count"},
      {"core.stall_cycles", stalls, "cycles"},
      {"pac.coalescing_eff", ratio(coalesced, raw), "ratio"},
      {"pac.raw_requests", raw, "count"},
      {"pac.issued_requests", issued, "count"},
      {"pac.comparisons", comparisons, "count"},
      {"pac.timeout_flushes", timeouts, "count"},
      {"pac.c0_bypass", c0, "count"},
      {"pac.controller_bypass", ctrl_bypass, "count"},
      {"pac.avg_issued_bytes", ratio(payload, issued), "B"},
      {"pac.stage2_latency", stage2.mean(), "cycles"},
      {"pac.stage3_latency", stage3.mean(), "cycles"},
      {"pac.maq_fill_latency", maq_fill.mean(), "cycles"},
      {"hmc.requests", hmc_req, "count"},
      {"hmc.bank_conflicts", conflicts, "count"},
      {"hmc.conflict_wait_cycles", conflict_wait, "cycles"},
      {"hmc.row_hits", row_hits, "count"},
      {"hmc.row_misses", row_misses, "count"},
      {"hmc.link_bytes", link_bytes, "B"},
      {"noc.max_link_util", max_util, "ratio"},
      {"noc.queued_packets", queued, "count"},
      {"noc.queue_delay_mean", ratio(delay_sum, delay_packets), "cycles"},
      {"noc.link_crc_nacks", crc_nacks, "count"},
      {"port.retransmissions", retrans, "count"},
      {"port.nacks", nacks, "count"},
      {"port.timeout_fires", timeout_fires, "count"},
      {"port.poisoned", poisoned, "count"},
  };
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".bench_build/perfbench/reports";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      a.trace = value == "1";
    } else if (key == "--out") {
      a.out = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (a.workload.empty()) {
    throw std::invalid_argument("--workload is required");
  }
  return a;
}

int run(const Args& args) {
  const WorkloadSpec w = make_workload(args.workload, args.seed);
  constexpr std::size_t kMinPasses = 3;
  Gate gate;
  std::vector<Pass> untraced, traced;
  const Clock::time_point start = Clock::now();
  const Mode plain{};
  const Mode timed{true, VerifyLevel::kOff, 0};
  unsigned threads = 1;
  for (const CellSpec& c : w.cells) {
    threads = std::max(threads, c.cfg.exec.threads);
  }
  const bool threaded = threads > 1;
  pin_to_cpus(threads);
  time_reference(threads);  // warm-up

  // Measure: untraced passes, interleaved with traced ones in trace mode,
  // until the budget is spent (at least kMinPasses of each kind).
  for (;;) {
    const double elapsed = seconds_since(start);
    const std::size_t done = untraced.size();
    const double per_round = done == 0 ? 0.0 : elapsed / static_cast<double>(done);
    if (done >= kMinPasses && elapsed + per_round > args.seconds) break;
    const double reference = time_reference(threads);
    untraced.push_back(run_pass(w, plain, args.out));
    untraced.back().reference = reference;
    gate.check(w, untraced.back(), "untraced", false);
    if (args.trace) {
      traced.push_back(run_pass(w, timed, args.out));
      gate.check(w, traced.back(), "traced", false);
    }
  }

  if (args.trace) {
    // Gates that only the traced run executes: lifecycle conservation at
    // verify=counters, and thread-count independence of threaded runs.
    Pass counters = run_pass(w, Mode{false, VerifyLevel::kCounters, 0},
                             args.out);
    gate.check(w, counters, "verify=counters", true);
    if (threaded) {
      Pass serial = run_pass(w, Mode{false, VerifyLevel::kOff, 1}, args.out);
      gate.check(w, serial, "threads=1", false);
    }
  }

  for (const std::string& e : gate.errors) {
    std::fprintf(stderr, "[pacbench] FAIL %s\n", e.c_str());
  }
  const bool correct = gate.failed == 0;
  std::vector<Metric> metrics;
  if (correct) {
    metrics = args.trace ? per_layer(traced, untraced) : end_to_end(untraced);
  }

  std::vector<double> walls, slowdowns;
  for (const Pass& p : untraced) {
    walls.push_back(p.wall);
    slowdowns.push_back(slowdown(p));
  }
  std::printf("%s seed=%llu%s: %zu passes, median wall %.4f s unscaled, "
              "median host slowdown %.4f against the reference host\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? " traced" : "", untraced.size(), median(walls),
              median(slowdowns));
  for (const Metric& m : metrics) {
    std::printf("  %-26s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("  cells attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(gate.attempted),
              static_cast<unsigned long long>(gate.failed));

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(gate.attempted);
  json += ", \"failed\": " + std::to_string(gate.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) json += ", ";
    json += json_string(metrics[i].name) + ": {\"value\": " +
            json_number(metrics[i].value) +
            ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pacbench: %s\n", e.what());
    return 2;
  }
}
