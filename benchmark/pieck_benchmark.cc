// Closed-loop benchmark program for the pieck library (benchmark/README.md).
//
//   pieck_benchmark --workload <name> --seed <n> --seconds <s>
//                   [--trace 0|1] [--smoke 0|1] [--out <dir>]
//
// Every workload is generated from --seed alone and uses only the
// library's public calls, from one process with at most four busy
// threads. The amount of work is fixed per workload: --seconds times the
// workload's nominal rate (its baseline rounds or calls per second), so
// two commits measured with the same settings do the same rounds or calls.
//
// --trace 0 measures the end-to-end metrics. --trace 1 runs a fresh set-up
// in which blocks through the program's own entry point alternate with
// blocks that put a span around every layer call (federated rounds are
// rebuilt from their public stages), checks that it ends in the same model
// as an untraced reference run, runs the layer probes, and writes the
// spans as Chrome trace-event JSON; benchmark/run.py reduces that file to
// the per-layer metrics.
//
// Progress goes to stderr. The last stdout line is the run's result as one
// JSON object. Mmap stores and the trace live under --out.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <malloc.h>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <unistd.h>
#include <vector>

#include "attack/popular_item_miner.h"
#include "benchmark/span_trace.h"
#include "common/flags.h"
#include "core/simulation.h"
#include "data/interaction_csr.h"
#include "defense/regularized_defense.h"
#include "fed/client_state_store.h"
#include "fed/server.h"
#include "serving/topk_server.h"
#include "tensor/kernels.h"

namespace pieck_benchmark {
namespace {

using namespace pieck;

// ---------------------------------------------------------------------
// Workloads.

enum class Kind { kFederated, kAttack, kServing };

struct Workload {
  const char* name;
  Kind kind;
  // Federated population (kFederated) and round shape (kFederated, kAttack).
  int users = 0;
  int items = 0;
  int dim = 16;
  int users_per_round = 512;
  ParticipationKind participation = ParticipationKind::kUniform;
  double zipf_s = 1.0;
  double churn = 0.0;  // join rate = leave rate, per round
  int depth = 1;
  int threads = 4;
  bool mmap = false;
  int64_t cache_rows = 0;
  double ml1m_scale = 1.0;  // kAttack dataset scale
  // Serving (kServing): caller threads reuse `threads`.
  int boosted = 0;
  int serve_users = 8192;
  // Work: warm-up (part of set-up) and measured units, as rounds or calls.
  int warmup = 0;
  double nominal_rate = 0.0;  // baseline units per second
  int64_t smoke_units = 0;
};

// Interactions per user of the synthetic federated populations.
constexpr int kInteractionsPerUser = 8;
// Pipelined rounds run in blocks of this many rounds per RunRounds call;
// the block is workload 2's externally visible call.
constexpr int kBlockRounds = 8;
// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 3;
// Measured loops are timed in this many equal chunks; throughput is the
// median chunk rate, which a short stall on a shared host cannot move.
constexpr size_t kChunks = 20;
// Threads the host-speed probe runs on, always while no library code runs
// (the machine's four vCPUs, which every workload's threads spread over).
constexpr int kProbeThreads = 4;
// The host-speed probe times that define reference speed (HostSpeed() ==
// 1): about the chain kernel's best-of-three and the independent-chains
// kernel's mean-of-three time on the 4-vCPU Intel Xeon VM (2.1 GHz) the
// baseline was measured on.
constexpr double kReferenceChainS = 0.0006;
constexpr double kReferenceIlpS = 0.00034;
// Users whose served lists are checked against the full-scan oracle, and
// users the serving/defense probes run on.
constexpr int kVerifyUsers = 256;
constexpr int kTopK = 10;
// Traced runs keep every span in memory; these caps bound the trace file
// (a federated round records ~520 spans, a serving call one).
constexpr int64_t kTracedRoundsCap = 256;
constexpr int64_t kTracedCallsCap = 65536;

std::vector<Workload> AllWorkloads() {
  std::vector<Workload> all;
  {
    // New participants nearly every round: PrepareRound materialization
    // and Train do the work; storage and attack/defense do none.
    Workload w{"ram-1m-uniform", Kind::kFederated};
    w.users = 1'000'000;
    w.items = 50'000;
    w.warmup = 100;
    w.nominal_rate = 250.0;
    w.smoke_units = 64;
    all.push_back(w);
  }
  {
    // Returning participants and overlapped stages: sampling, stall and
    // Train dominate.
    Workload w{"ram-1m-zipf-churn-d2", Kind::kFederated};
    w.users = 1'000'000;
    w.items = 50'000;
    w.participation = ParticipationKind::kZipf;
    w.zipf_s = 1.1;
    w.churn = 0.02;
    w.depth = 2;
    w.threads = 2;  // plus the select and apply threads
    w.warmup = 96;
    w.nominal_rate = 250.0;
    w.smoke_units = 64;
    all.push_back(w);
  }
  {
    // The hot-row cache holds 1/150 of the population, so staging,
    // eviction and write-back do work the RAM workloads never reach.
    Workload w{"mmap-3m-zipf", Kind::kFederated};
    w.users = 3'000'000;
    w.items = 50'000;
    w.participation = ParticipationKind::kZipf;
    w.zipf_s = 1.0;
    w.mmap = true;
    w.cache_rows = 20'000;
    w.warmup = 100;
    w.nominal_rate = 170.0;
    w.smoke_units = 64;
    all.push_back(w);
  }
  {
    // The paper's scenario: benign clients mine popular items and apply
    // the Re1/Re2 regularizers, malicious ones run PIECK-UEA.
    Workload w{"attack-ml1m-uea-ours", Kind::kAttack};
    w.users_per_round = 256;
    w.warmup = 50;
    w.nominal_rate = 36.0;
    w.smoke_units = 40;
    all.push_back(w);
  }
  {
    // Boosted items let tile pruning skip ~99% of tiles: selection and
    // bound checks dominate.
    Workload w{"serve-boosted-50k", Kind::kServing};
    w.items = 50'000;
    w.dim = 64;
    w.boosted = 16;
    w.warmup = 1024;
    w.nominal_rate = 650'000.0;
    w.smoke_units = 4096;
    all.push_back(w);
  }
  {
    // Nothing to prune: the gemv kernels and the heap dominate.
    Workload w{"serve-plain-50k", Kind::kServing};
    w.items = 50'000;
    w.dim = 64;
    w.warmup = 1024;
    w.nominal_rate = 3'800.0;
    w.smoke_units = 1024;
    all.push_back(w);
  }
  return all;
}

/// The ~1/50-size variant behind --smoke (and the decomposition check).
Workload Shrink(Workload w) {
  w.users = std::max(w.users / 50, 2 * w.users_per_round);
  w.cache_rows = w.mmap ? 2 * w.users_per_round : 0;
  w.ml1m_scale = 0.2;
  w.items = w.kind == Kind::kServing ? w.items / 50 : w.items;
  w.serve_users = kVerifyUsers;
  w.warmup = std::max(8, w.warmup / 10) / kBlockRounds * kBlockRounds;
  return w;
}

struct Options {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string out;
};

int64_t MeasuredUnits(const Workload& w, const Options& o) {
  int64_t units = o.smoke ? w.smoke_units
                          : std::llround(o.seconds * w.nominal_rate);
  // Every chunk of the loop gets at least one operation (or block).
  units = std::max<int64_t>(
      units, static_cast<int64_t>(kChunks) * kBlockRounds);
  if (w.depth > 1) units = units / kBlockRounds * kBlockRounds;
  return units;
}

// ---------------------------------------------------------------------
// Measurement helpers.

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nearest-rank quantile.
template <typename T>
double Quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0.0;
  const double n = static_cast<double>(v.size());
  const size_t rank = static_cast<size_t>(
      std::clamp(std::ceil(q * n) - 1.0, 0.0, n - 1.0));
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(rank),
                   v.end());
  return v[rank];
}

template <typename T>
double Median(std::vector<T> v) {
  return Quantile(std::move(v), 0.5);
}

/// VmHWM of this process in MB.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// FNV-1a fold of the item-embedding bits.
uint64_t ModelDigest(const GlobalModel& g) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (double x : g.item_embeddings.data()) {
    uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof(bits));
    h = (h ^ bits) * 0x100000001b3ULL;
  }
  return h;
}

bool AllFinite(const GlobalModel& g) {
  for (double x : g.item_embeddings.data()) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

/// Returns freed heap pages to the kernel, so that each set-up and each
/// measured segment faults its memory in afresh instead of reusing pages
/// the previous one left mapped.
void ReleaseFreedMemory() { malloc_trim(0); }

[[noreturn]] void Fatal(const std::string& what) {
  std::fprintf(stderr, "pieck_benchmark: %s\n", what.c_str());
  std::exit(2);
}

/// Attempted/failed operations and the named correctness checks of a run.
struct Result {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::pair<std::string, bool>> checks;
  std::vector<std::pair<std::string, std::pair<double, const char*>>> metrics;
  std::vector<std::pair<std::string, double>> detail;
  std::string trace_file;

  void Check(const std::string& name, bool ok) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "CHECK FAILED: %s\n", name.c_str());
    }
    checks.emplace_back(name, ok);
  }
  void Metric(const std::string& name, double value, const char* unit) {
    metrics.push_back({name, {value, unit}});
  }
  void Detail(const std::string& name, double value) {
    detail.emplace_back(name, value);
  }
};

/// Best-of-three time of one dependent multiply-add chain over an
/// L2-resident buffer: tracks the core's clock and the share of it this
/// thread gets.
double ChainProbeSeconds() {
  thread_local std::vector<double> buf(32768, 1.0);
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    const Clock::time_point t0 = Clock::now();
    double acc = 0.0;
    for (int pass = 0; pass < 24; ++pass) {
      for (double x : buf) acc += x * 1.000001;
    }
    buf[0] += acc * 1e-300;  // keeps the loop live
    best = std::min(best, SecondsSince(t0));
  }
  return best;
}

/// Mean-of-three time of eight independent multiply-add chains over an
/// L2-resident buffer. They keep the floating-point units busy the way the
/// library's kernels do, so unlike the single chain they slow down when
/// another thread shares the physical core, which on a shared host
/// happens for seconds at a time.
double IlpProbeSeconds() {
  thread_local std::vector<double> a(16384, 1.0001);
  thread_local std::vector<double> b(16384, 0.9999);
  double total = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const Clock::time_point t0 = Clock::now();
    double s[8] = {};
    for (int pass = 0; pass < 64; ++pass) {
      for (size_t i = 0; i < a.size(); i += 8) {
        for (size_t j = 0; j < 8; ++j) s[j] += a[i + j] * b[i + j];
      }
    }
    a[0] += (s[0] + s[1] + s[2] + s[3] + s[4] + s[5] + s[6] + s[7]) * 1e-300;
    total += SecondsSince(t0);
  }
  return total / 3.0;
}

/// Speed of the host right now relative to reference speed. The measurement
/// host is shared and its speed drifts by tens of percent over minutes, so
/// every end-to-end time is scaled by this factor, measured between chunks
/// by both benchmark-owned probe kernels on kProbeThreads threads at once:
/// the geometric mean of their speeds. Callers make sure no library code
/// runs meanwhile, so the library cannot slow the probe.
double HostSpeed() {
  std::vector<double> chain(static_cast<size_t>(kProbeThreads));
  std::vector<double> ilp(static_cast<size_t>(kProbeThreads));
  std::vector<std::thread> pool;
  for (size_t t = 0; t < chain.size(); ++t) {
    pool.emplace_back([&chain, &ilp, t] {
      chain[t] = ChainProbeSeconds();
      ilp[t] = IlpProbeSeconds();
    });
  }
  for (std::thread& th : pool) th.join();
  double chain_sum = 0.0;
  double ilp_sum = 0.0;
  for (size_t t = 0; t < chain.size(); ++t) {
    chain_sum += chain[t];
    ilp_sum += ilp[t];
  }
  const double threads = static_cast<double>(kProbeThreads);
  return std::sqrt((kReferenceChainS * threads / chain_sum) *
                   (kReferenceIlpS * threads / ilp_sum));
}

/// Wall times of the untraced and the traced side of a traced run.
struct SegmentTimes {
  double untraced_s = 0.0;
  double traced_s = 0.0;
};

/// Runs `units` operations on each side, where `untraced(n)` and
/// `traced(n)` run the next n operations of one live workload, in
/// alternating blocks of `block` (in ABBA order), so that host drift falls
/// on both sides alike.
template <typename Untraced, typename Traced>
SegmentTimes TimeAlternating(int64_t units, int64_t block, Untraced untraced,
                             Traced traced) {
  SegmentTimes t;
  for (int64_t done = 0, b = 0; done < units; done += block, ++b) {
    const int64_t n = std::min(block, units - done);
    for (int64_t side = 0; side < 2; ++side) {
      const bool traced_side = (side + b) % 2 == 1;
      const Clock::time_point t0 = Clock::now();
      if (traced_side) {
        traced(n);
      } else {
        untraced(n);
      }
      (traced_side ? t.traced_s : t.untraced_s) += SecondsSince(t0);
    }
  }
  return t;
}

/// First operation of chunk k when `units` operations are split into
/// `chunks` equal chunks.
int64_t ChunkStart(size_t k, int64_t units, size_t chunks) {
  return (static_cast<int64_t>(k) * units + static_cast<int64_t>(chunks) - 1) /
         static_cast<int64_t>(chunks);
}

/// Times a closed loop of `units` operations in kChunks equal chunks, with
/// a host-speed probe at every chunk boundary (outside the timed chunks).
/// The loop's own threads must be idle while the clock is constructed or
/// Completed() runs.
class LoopClock {
 public:
  explicit LoopClock(int64_t units) : units_(units) {
    speeds_.push_back(HostSpeed());
    starts_.push_back(Clock::now());
  }
  /// Call after every operation; `done` counts the completed ones.
  void Completed(int64_t done) {
    while (ends_.size() < kChunks &&
           done >= ChunkStart(ends_.size() + 1, units_, kChunks)) {
      ends_.push_back(Clock::now());
      speeds_.push_back(HostSpeed());
      starts_.push_back(Clock::now());
    }
  }
  /// Operations per second in chunk k, as measured.
  double RawRate(size_t k) const {
    const double s =
        std::chrono::duration<double>(ends_[k] - starts_[k]).count();
    return static_cast<double>(ChunkStart(k + 1, units_, kChunks) -
                               ChunkStart(k, units_, kChunks)) /
           s;
  }
  /// Host speed during chunk k: the mean of the probes on either side.
  double Speed(size_t k) const { return 0.5 * (speeds_[k] + speeds_[k + 1]); }
  /// The chunk operation `op` (0-based) belongs to.
  size_t ChunkOf(int64_t op) const {
    return static_cast<size_t>(op * static_cast<int64_t>(kChunks) / units_);
  }

 private:
  int64_t units_;
  std::vector<Clock::time_point> starts_;
  std::vector<Clock::time_point> ends_;
  std::vector<double> speeds_;  // at each boundary
};

/// The samples of a measured closed loop, as measured and at reference
/// host speed.
struct LoopSamples {
  std::vector<double> raw_rates;  // per chunk
  std::vector<double> rates;
  std::vector<float> raw_latency_us;  // per call
  std::vector<float> latency_us;
  std::vector<double> speeds;  // per chunk

  /// `latency` holds one entry per call, in operation order.
  LoopSamples(const LoopClock& clock, std::vector<float> latency,
              int units_per_call)
      : raw_latency_us(std::move(latency)) {
    for (size_t k = 0; k < kChunks; ++k) {
      raw_rates.push_back(units_per_call * clock.RawRate(k));
      rates.push_back(raw_rates.back() / clock.Speed(k));
      speeds.push_back(clock.Speed(k));
    }
    for (size_t i = 0; i < raw_latency_us.size(); ++i) {
      latency_us.push_back(static_cast<float>(
          raw_latency_us[i] *
          clock.Speed(clock.ChunkOf(static_cast<int64_t>(i)))));
    }
  }
};

/// Throughput (median chunk rate) and call-latency metrics of a measured
/// closed loop at reference host speed; the as-measured values go to detail.
void LoopMetrics(Result* r, int64_t units, double wall_s,
                 const LoopSamples& loop) {
  r->Metric("throughput_per_s", Median(loop.rates), "1/s");
  r->Metric("call_p95_us", Quantile(loop.latency_us, 0.95), "us");
  r->Detail("call_p50_us", Quantile(loop.latency_us, 0.50));
  r->Detail("raw_throughput_per_s", Median(loop.raw_rates));
  r->Detail("raw_call_p50_us", Quantile(loop.raw_latency_us, 0.50));
  r->Detail("raw_call_p95_us", Quantile(loop.raw_latency_us, 0.95));
  r->Detail("host_speed_median", Median(loop.speeds));
  r->Detail("measured_units", static_cast<double>(units));
  r->Detail("measured_s", wall_s);
}

/// Set-up times of one run, as measured and at reference host speed.
struct SetupTimes {
  std::vector<double> raw;
  std::vector<double> scaled;

  /// Times one set-up `fn`, probing the host speed before and after it.
  template <typename Fn>
  void Measure(const char* workload, Fn fn) {
    const double speed_before = HostSpeed();
    const Clock::time_point t0 = Clock::now();
    fn();
    raw.push_back(SecondsSince(t0));
    scaled.push_back(raw.back() * 0.5 * (speed_before + HostSpeed()));
    std::fprintf(stderr, "%s: set-up %zu took %.3f s\n", workload, raw.size(),
                 raw.back());
  }
  void Report(Result* r) const {
    r->Metric("setup_s", Median(scaled), "s");
    r->Detail("raw_setup_s", Median(raw));
  }
};

std::string OtherData(const std::vector<std::pair<std::string, double>>& kv) {
  std::string s;
  char buf[64];
  for (const auto& [key, value] : kv) {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    if (!s.empty()) s += ", ";
    s += "\"" + key + "\": " + buf;
  }
  return s;
}

/// Removes a benchmark-owned directory on destruction.
class DirRemover {
 public:
  DirRemover() = default;
  ~DirRemover() {
    if (path_.empty()) return;
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  DirRemover(const DirRemover&) = delete;
  DirRemover& operator=(const DirRemover&) = delete;

  void set(std::string path) { path_ = std::move(path); }

 private:
  std::string path_;
};

// ---------------------------------------------------------------------
// Layer probes, shared by every traced run: each wraps calls into one
// layer on this workload's own model table, dimension and users.

struct ProbeInputs {
  const RecModel* model = nullptr;
  const GlobalModel* global = nullptr;  // the live model
  std::vector<Vec> users;
  std::vector<std::vector<int>> positives;  // sorted item ids per user
  std::function<void()> advance;  // one more round of training, or nothing
};

template <typename Fn>
void TimedBatches(Tracer* tracer, const char* name, int batches, int calls,
                  Fn fn) {
  for (int b = 0; b < batches; ++b) {
    ScopedSpan span(tracer, 0, name, -1, -1);
    for (int i = 0; i < calls; ++i) fn();
    span.Arg("calls", calls);
  }
}

// Kernel probe results land here, so the timed calls cannot be elided.
volatile double g_probe_sink = 0.0;

void RunProbes(const ProbeInputs& in, uint64_t seed, Tracer* tracer) {
  const KernelTable& kernels = ActiveKernels();
  const size_t dim = static_cast<size_t>(in.global->dim());
  Rng rng(seed ^ 0x5bd1e995ULL);
  Vec a(dim), b(dim), ga(dim, 0.0), gb(dim, 0.0);
  for (size_t i = 0; i < dim; ++i) {
    a[i] = rng.Normal(0.0, 0.1);
    b[i] = rng.Normal(0.0, 0.1);
  }
  double sink = 0.0;
  constexpr int kBatches = 9;
  TimedBatches(tracer, "tensor.dot", kBatches, 65536,
               [&] { sink += kernels.dot(a.data(), b.data(), dim); });
  TimedBatches(tracer, "tensor.axpy", kBatches, 65536,
               [&] { kernels.axpy(1e-9, a.data(), ga.data(), dim); });
  TimedBatches(tracer, "tensor.bce_step", kBatches, 65536, [&] {
    sink += kernels.BceStep(1.0, 1.0, a.data(), b.data(), ga.data(),
                            gb.data(), dim);
  });
  const size_t rows = std::min<size_t>(512, in.global->item_embeddings.rows());
  Vec scores(rows);
  TimedBatches(tracer, "tensor.gemv_512", kBatches, 256, [&] {
    kernels.gemv(in.global->item_embeddings.data().data(), rows, dim,
                 a.data(), scores.data());
    sink += scores[0];
  });

  // Mining and the client defense observe the live table across rounds,
  // R~ + 1 = 3 times each (later observations are ignored by design), for
  // three fresh observers; the last defense stays ready for the batches.
  RegularizedClientDefense defense{DefenseOptions()};
  for (int rep = 0; rep < 3; ++rep) {
    PopularItemMiner miner(/*mining_rounds=*/2, /*top_n=*/20);
    defense = RegularizedClientDefense(DefenseOptions());
    while (!miner.Ready()) {
      {
        ScopedSpan span(tracer, 0, "attack.miner_observe", -1, -1);
        miner.Observe(in.global->item_embeddings);
      }
      {
        ScopedSpan span(tracer, 0, "defense.observe_round", -1, -1);
        defense.ObserveRound(*in.global);
      }
      if (in.advance) in.advance();
    }
  }
  std::vector<LabeledItem> batch;
  ClientUpdate update;
  for (size_t u = 0; u < in.users.size(); ++u) {
    batch.clear();
    const std::vector<int>& pos = in.positives[u];
    const size_t n_pos = std::min<size_t>(pos.size(), 16);
    for (size_t j = 0; j < n_pos; ++j) batch.push_back({pos[j], 1.0});
    for (size_t j = 0; j < std::max<size_t>(n_pos, 1); ++j) {
      batch.push_back({static_cast<int>(rng.UniformInt(
                           0, in.global->num_items() - 1)),
                       0.0});
    }
    Vec grad_u(dim, 0.0);
    update.ResetForReuse();
    ScopedSpan span(tracer, 0, "defense.apply_regularizers", -1, -1);
    defense.ApplyRegularizers(*in.global, in.users[u], batch, &grad_u,
                              &update);
  }

  // The exact fused path and the int8 shortlist on the same users.
  serving::TopKServerOptions quant_options;
  quant_options.quantized = true;
  const serving::TopKServer fused(*in.model, *in.global);
  const serving::TopKServer quant(*in.model, *in.global, quant_options);
  std::vector<serving::ScoredItem> out;
  for (int pass = 0; pass < 2; ++pass) {
    const serving::TopKServer& server = pass == 0 ? fused : quant;
    const char* name =
        pass == 0 ? "serving.fused_recommend" : "serving.quant_recommend";
    for (size_t u = 0; u < in.users.size(); ++u) {
      serving::RecommendStats stats;
      ScopedSpan span(tracer, 0, name, -1, -1);
      server.Recommend(in.users[u], kTopK, in.positives[u], &out, &stats);
      span.Arg("tiles_scored", stats.tiles_scored);
      span.Arg("tiles_pruned", stats.tiles_pruned);
    }
  }
  g_probe_sink = sink;
}

// ---------------------------------------------------------------------
// Federated population workloads (1-3).

struct FedState {
  DirRemover remove_dir;  // first member: runs after the store has closed
  std::shared_ptr<StoreDir> dir;
  std::unique_ptr<RecModel> model;
  std::unique_ptr<ClientStateStore> store;
  std::unique_ptr<FederatedServer> server;
  Rng rng{0};
  int round = 0;
  double data_build_s = 0.0;
  // Arenas of the decomposed round.
  std::vector<int> cohort;
  std::vector<ClientUpdate> updates;
  std::vector<RoundScratch> scratch;
  std::vector<double> loss;
};

/// Each user interacts with a seed-hashed set of items, streamed into the
/// CSR builder user by user (into files under `dir` for mmap stores).
StatusOr<InteractionCsr> BuildInteractions(const Workload& w, uint64_t seed,
                                           const StoreDir* dir) {
  std::unique_ptr<InteractionCsrBuilder> builder =
      dir != nullptr
          ? std::make_unique<InteractionCsrBuilder>(
                w.users, w.items, dir->FilePath("csr_offsets.bin"),
                dir->FilePath("csr_items.bin"))
          : std::make_unique<InteractionCsrBuilder>(w.users, w.items);
  std::vector<int> row(kInteractionsPerUser);
  for (int u = 0; u < w.users; ++u) {
    const uint64_t h =
        SplitMix64(seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(u));
    for (size_t j = 0; j < row.size(); ++j) {
      row[j] = static_cast<int>(SplitMix64(h + j) %
                                static_cast<uint64_t>(w.items));
    }
    PIECK_RETURN_IF_ERROR(builder->AddUser(row.data(), row.size()));
  }
  return builder->Finish();
}

StatusOr<std::unique_ptr<FedState>> BuildFederated(const Workload& w,
                                                   uint64_t seed,
                                                   const std::string& dir,
                                                   Tracer* tracer) {
  auto s = std::make_unique<FedState>();
  StorageConfig storage;
  if (w.mmap) {
    storage.kind = StorageKind::kMmap;
    storage.cache_rows = w.cache_rows;
    s->remove_dir.set(dir);
    PIECK_ASSIGN_OR_RETURN(s->dir, StoreDir::Resolve(dir));
    storage.dir = s->dir->path();
  }

  const Clock::time_point t_data = Clock::now();
  StatusOr<InteractionCsr> csr = [&] {
    ScopedSpan span(tracer, 0, "data.build", -1, -1);
    return BuildInteractions(w, seed, s->dir.get());
  }();
  if (!csr.ok()) return csr.status();
  s->data_build_s = SecondsSince(t_data);
  s->model = MakeModel(ModelKind::kMatrixFactorization, w.dim);
  s->store = std::make_unique<ClientStateStore>(
      *s->model, std::move(*csr), std::make_shared<const NegativeSampler>(1.0),
      LossKind::kBce, 1.0, storage);

  Rng master(seed);
  Rng init_rng = master.Fork();
  GlobalModel global = s->model->InitGlobalModel(w.items, init_rng);
  s->store->set_user_seed_base(master.ForkSeed());
  ServerConfig config;
  config.learning_rate = 1.0;
  config.users_per_round = w.users_per_round;
  config.num_threads = w.threads;
  config.workload.participation = w.participation;
  config.workload.zipf_exponent = w.zipf_s;
  config.workload.churn.join_rate = w.churn;
  config.workload.churn.leave_rate = w.churn;
  config.workload.seed ^= seed;
  config.async.pipeline_depth = w.depth;
  s->server = std::make_unique<FederatedServer>(
      *s->model, std::move(global), config, std::make_unique<SumAggregator>());
  s->rng = master.Fork();
  return s;
}

const std::vector<ClientInterface*>& NoMalicious() {
  static const std::vector<ClientInterface*> none;
  return none;
}

/// One round through the program's round engine (depth 1).
RoundStats EngineRound(FedState& s) {
  return s.server->RunRound(*s.store, NoMalicious(), s.round++, s.rng);
}

/// `n` rounds through RunRounds (pipelined when the depth is >= 2).
void EngineBlock(FedState& s, int n, std::vector<RoundStats>* stats) {
  s.server->RunRounds(*s.store, NoMalicious(), s.round, n, s.rng, stats);
  s.round += n;
}

/// The same depth-1 round rebuilt from the public stage calls, with a span
/// around each: SelectParticipants -> PrefetchUsers -> PrepareRound ->
/// per-client ParticipateRound on the server's pool -> ApplyUpdates ->
/// FlushDirtyRows. Returns the mean training loss.
double DecomposedRound(FedState& s, Tracer* tracer) {
  ClientStateStore& store = *s.store;
  ScopedSpan round(tracer, 0, "fed.round", -1, s.round);
  const StorageCounters before = store.storage_counters();
  {
    ScopedSpan span(tracer, 0, "workload.select", round.id(), s.round);
    const std::vector<int>& selected =
        s.server->SelectParticipants(store.num_users(), 0, s.round, s.rng);
    s.cohort.assign(selected.begin(), selected.end());
  }
  {
    ScopedSpan span(tracer, 0, "storage.prefetch", round.id(), s.round);
    store.PrefetchUsers(s.cohort);
  }
  {
    ScopedSpan span(tracer, 0, "fed.prepare_round", round.id(), s.round);
    store.PrepareRound(s.cohort);
  }
  ThreadPool* pool = s.server->pool();
  const size_t n = s.cohort.size();
  {
    ScopedSpan train(tracer, 0, "fed.train", round.id(), s.round);
    s.updates.resize(n);
    s.loss.assign(n, 0.0);
    const size_t slots = pool != nullptr ? pool->max_slots() : 1;
    if (s.scratch.size() < slots) s.scratch.resize(slots);
    const GlobalModel& g = s.server->global();
    const int round_index = s.round;
    ThreadPool::ParallelForOrSerialSlots(
        pool, n, [&](size_t slot, size_t i) {
          ScopedSpan span(tracer, static_cast<int>(slot) + 1,
                          "fed.participate", train.id(), round_index);
          s.loss[i] = BenignClientLogic::ParticipateRound(
              store, s.cohort[i], g, round_index, s.scratch[slot],
              &s.updates[i]);
        });
  }
  {
    ScopedSpan span(tracer, 0, "fed.apply_updates", round.id(), s.round);
    s.server->ApplyUpdates(s.updates);
  }
  {
    ScopedSpan span(tracer, 0, "storage.flush", round.id(), s.round);
    const StorageCounters pre = store.storage_counters();
    store.FlushDirtyRows();
    const StorageCounters post = store.storage_counters();
    span.Arg("writebacks", static_cast<double>(post.writebacks - pre.writebacks));
    span.Arg("write_runs",
             static_cast<double>(post.io_write_runs - pre.io_write_runs));
  }
  const StorageCounters after = store.storage_counters();
  round.Arg("cache_hits", static_cast<double>(after.hits - before.hits));
  round.Arg("cache_misses", static_cast<double>(after.misses - before.misses));
  round.Arg("staged_rows",
            static_cast<double>(after.staged_rows - before.staged_rows));
  round.Arg("staged_hits",
            static_cast<double>(after.staged_hits - before.staged_hits));
  ++s.round;
  double sum = 0.0;
  for (double l : s.loss) sum += l;
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

std::string StorePath(const Options& o, const std::string& tag) {
  return o.out + "/store-" + std::to_string(getpid()) + "-" + tag;
}

std::unique_ptr<FedState> MustBuild(const Workload& w, const Options& o,
                                    const std::string& tag, Tracer* tracer) {
  auto built = BuildFederated(w, o.seed, StorePath(o, tag), tracer);
  if (!built.ok()) Fatal("set-up failed: " + built.status().ToString());
  return std::move(*built);
}

/// Warm-up through the e2e path: RunRound, or pipelined blocks at depth >= 2.
void WarmUp(FedState& s, const Workload& w, bool depth1) {
  if (w.depth > 1 && !depth1) {
    EngineBlock(s, w.warmup, nullptr);
  } else {
    for (int i = 0; i < w.warmup; ++i) EngineRound(s);
  }
}

/// The decomposed depth-1 round must reproduce RunRound bit for bit.
bool DecompositionMatches(const Workload& w, const Options& o, int rounds) {
  std::unique_ptr<FedState> engine = MustBuild(w, o, "check-engine", nullptr);
  std::unique_ptr<FedState> decomposed =
      MustBuild(w, o, "check-decomposed", nullptr);
  bool same_loss = true;
  for (int i = 0; i < rounds; ++i) {
    const double a = EngineRound(*engine).mean_benign_loss;
    const double b = DecomposedRound(*decomposed, nullptr);
    same_loss = same_loss && std::memcmp(&a, &b, sizeof(a)) == 0;
  }
  return same_loss && ModelDigest(engine->server->global()) ==
                          ModelDigest(decomposed->server->global());
}

void StoreDetail(const FedState& s, Result* r) {
  const StorageCounters c = s.store->storage_counters();
  r->Detail("store_footprint_mb", s.store->FootprintBytes() / 1048576.0);
  r->Detail("materialized_rngs", static_cast<double>(s.store->materialized_rngs()));
  r->Detail("cache_hits", static_cast<double>(c.hits));
  r->Detail("cache_misses", static_cast<double>(c.misses));
  r->Detail("cache_writebacks", static_cast<double>(c.writebacks));
  r->Detail("io_write_runs", static_cast<double>(c.io_write_runs));
  r->Detail("staged_rows", static_cast<double>(c.staged_rows));
  r->Detail("staged_hits", static_cast<double>(c.staged_hits));
}

Result RunFederated(const Workload& w, const Options& o) {
  Result r;
  const int64_t units = MeasuredUnits(w, o);
  std::unique_ptr<FedState> s;
  SetupTimes setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s.reset();  // the previous set-up is gone before the next one starts
    ReleaseFreedMemory();
    setup.Measure(w.name, [&] {
      s = MustBuild(w, o, "setup" + std::to_string(rep), nullptr);
      WarmUp(*s, w, /*depth1=*/false);
    });
  }
  r.Detail("data_build_s", s->data_build_s);

  std::vector<float> latency_us;
  latency_us.reserve(static_cast<size_t>(units));
  int64_t bad_rounds = 0;
  double last_loss = 0.0;
  double stall_ms = 0.0;
  double staleness_sum = 0.0;
  int64_t staleness_n = 0;
  int64_t off_schedule_blocks = 0;
  const int per_call = w.depth > 1 ? kBlockRounds : 1;
  LoopClock clock(units / per_call);
  const Clock::time_point t_loop = Clock::now();
  if (w.depth > 1) {
    std::vector<RoundStats> stats;
    for (int64_t done = 0; done < units; done += kBlockRounds) {
      stats.clear();
      const Clock::time_point t0 = Clock::now();
      EngineBlock(*s, kBlockRounds, &stats);
      latency_us.push_back(static_cast<float>(SecondsSince(t0) * 1e6));
      clock.Completed(done / kBlockRounds + 1);
      // The static schedule: the k-th round of a block trains against a
      // snapshot min(k, depth-1) versions old, every upload applied.
      std::vector<int64_t> expected(static_cast<size_t>(w.depth), 0);
      std::vector<int64_t> seen(static_cast<size_t>(w.depth), 0);
      bool in_range = true;
      for (size_t k = 0; k < stats.size(); ++k) {
        expected[std::min<size_t>(k, static_cast<size_t>(w.depth - 1))] +=
            stats[k].num_selected;
        for (size_t st = 0; st < stats[k].staleness_counts.size(); ++st) {
          if (st < seen.size()) {
            seen[st] += stats[k].staleness_counts[st];
          } else if (stats[k].staleness_counts[st] != 0) {
            in_range = false;
          }
        }
        if (!std::isfinite(stats[k].mean_benign_loss)) ++bad_rounds;
        last_loss = stats[k].mean_benign_loss;
        stall_ms += stats[k].stall_ms;
        staleness_sum += stats[k].mean_staleness;
        ++staleness_n;
      }
      if (!in_range || seen != expected) ++off_schedule_blocks;
    }
  } else {
    for (int64_t i = 0; i < units; ++i) {
      const Clock::time_point t0 = Clock::now();
      const RoundStats st = EngineRound(*s);
      latency_us.push_back(static_cast<float>(SecondsSince(t0) * 1e6));
      clock.Completed(i + 1);
      if (!std::isfinite(st.mean_benign_loss)) ++bad_rounds;
      last_loss = st.mean_benign_loss;
    }
  }
  const double wall_s = SecondsSince(t_loop);
  const LoopSamples samples(clock, std::move(latency_us), per_call);
  r.attempted += units;
  r.failed += bad_rounds;
  if (bad_rounds > 0) {
    std::fprintf(stderr, "CHECK FAILED: %lld rounds with a non-finite loss\n",
                 static_cast<long long>(bad_rounds));
  }
  r.Check("final model is finite", AllFinite(s->server->global()));
  if (w.depth > 1) {
    r.Check("staleness histograms match the static schedule",
            off_schedule_blocks == 0);
  }
  LoopMetrics(&r, units, wall_s, samples);
  setup.Report(&r);
  r.Detail("final_mean_loss", last_loss);
  if (w.depth > 1) {
    r.Detail("stall_ms_per_round", stall_ms / static_cast<double>(units));
    r.Detail("mean_staleness",
             staleness_n > 0 ? staleness_sum / staleness_n : 0.0);
  }
  StoreDetail(*s, &r);
  s.reset();
  ReleaseFreedMemory();
  r.Check("decomposed rounds reproduce RunRound (1/50 population)",
          DecompositionMatches(Shrink(w), o, 12));
  r.Metric("peak_rss_mb", PeakRssMb(), "MB");
  return r;
}

Result TraceFederated(const Workload& w, const Options& o) {
  Result r;
  int64_t k = std::min(MeasuredUnits(w, o) / 2, kTracedRoundsCap);
  if (w.depth > 1) k = std::max<int64_t>(kBlockRounds, k / kBlockRounds * kBlockRounds);
  std::vector<std::pair<std::string, double>> other;

  // A: 2k untraced rounds through RunRound, the reference model.
  uint64_t digest_engine = 0;
  {
    std::unique_ptr<FedState> a = MustBuild(w, o, "engine", nullptr);
    WarmUp(*a, w, /*depth1=*/true);
    for (int64_t i = 0; i < 2 * k; ++i) EngineRound(*a);
    digest_engine = ModelDigest(a->server->global());
  }
  ReleaseFreedMemory();

  // B: the same 2k rounds, blocks of RunRound alternating with blocks
  // rebuilt from traced public stage calls.
  const int lanes = 1 + std::max(1, w.threads);
  Tracer tracer(lanes);
  SegmentTimes times;
  {
    std::unique_ptr<FedState> b = MustBuild(w, o, "traced", &tracer);
    for (int i = 0; i < w.warmup; ++i) DecomposedRound(*b, nullptr);
    times = TimeAlternating(
        k, kBlockRounds,
        [&](int64_t n) {
          for (int64_t i = 0; i < n; ++i) EngineRound(*b);
        },
        [&](int64_t n) {
          for (int64_t i = 0; i < n; ++i) DecomposedRound(*b, &tracer);
        });
    r.Check("rounds mixing RunRound and the traced decomposition reproduce "
            "the RunRound model digest",
            ModelDigest(b->server->global()) == digest_engine);
    other.emplace_back("store_footprint_mb", b->store->FootprintBytes() / 1048576.0);
    other.emplace_back("materialized_rngs",
                       static_cast<double>(b->store->materialized_rngs()));

    ProbeInputs probe;
    probe.model = b->model.get();
    probe.global = &b->server->global();
    for (size_t i = 0; i < b->cohort.size() && i < kVerifyUsers; ++i) {
      const int u = b->cohort[i];
      const double* row = b->store->UserEmbedding(u);
      probe.users.emplace_back(row, row + w.dim);
      const InteractionCsr::Span items = b->store->interactions().ItemsOf(u);
      probe.positives.emplace_back(items.begin(), items.end());
    }
    FedState& live = *b;
    probe.advance = [&live] { DecomposedRound(live, nullptr); };
    RunProbes(probe, o.seed, &tracer);
  }
  ReleaseFreedMemory();

  // C: the pipelined engine's own stall and staleness telemetry.
  if (w.depth > 1) {
    std::unique_ptr<FedState> c = MustBuild(w, o, "pipelined", nullptr);
    WarmUp(*c, w, /*depth1=*/false);
    std::vector<RoundStats> stats;
    const Clock::time_point t0 = Clock::now();
    for (int64_t done = 0; done < k; done += kBlockRounds) {
      EngineBlock(*c, kBlockRounds, &stats);
    }
    const double wall_ms = SecondsSince(t0) * 1e3;
    double stall = 0.0;
    double staleness = 0.0;
    for (const RoundStats& st : stats) {
      stall += st.stall_ms;
      staleness += st.mean_staleness;
    }
    other.emplace_back("stall_pct", 100.0 * stall / wall_ms);
    other.emplace_back("mean_staleness", staleness / static_cast<double>(stats.size()));
  }

  other.emplace_back("untraced_s", times.untraced_s);
  other.emplace_back("traced_s", times.traced_s);
  other.emplace_back("pool_threads", w.threads);
  r.trace_file = o.out + "/trace-" + w.name + ".json";
  r.Check("trace written", tracer.WriteChromeTrace(r.trace_file, OtherData(other)));
  r.attempted += 4 * k;
  return r;
}

// ---------------------------------------------------------------------
// The paper's attack/defense loop (workload 4).

ExperimentConfig AttackConfig(const Workload& w, uint64_t seed) {
  ExperimentConfig c;
  c.dataset = MovieLens1MConfig(w.ml1m_scale);
  c.dataset.seed = seed;
  c.model_kind = ModelKind::kMatrixFactorization;
  c.embedding_dim = w.dim;
  c.learning_rate = 1.0;
  c.users_per_round = std::min(w.users_per_round, c.dataset.num_users);
  c.num_threads = w.threads;
  c.attack = AttackKind::kPieckUea;
  c.attack_config.mined_top_n = 20;  // UEA needs the larger mined set
  c.malicious_fraction = 0.05;
  c.aggregator_params.malicious_fraction = 0.05;
  c.defense = DefenseKind::kOurs;
  c.seed = seed;
  return c;
}

std::unique_ptr<Simulation> MustCreate(const ExperimentConfig& c) {
  auto sim = Simulation::Create(c);
  if (!sim.ok()) Fatal("set-up failed: " + sim.status().ToString());
  return std::move(*sim);
}

void CheckQuality(double er, double hr, const Options& o, Result* r) {
  r->Check("ER@10 <= 0.3 under the defense", er <= 0.3);
  // A 1/50-size smoke run trains too briefly for the HR floor.
  if (!o.smoke) r->Check("HR@10 >= 0.5", hr >= 0.5);
}

Result RunAttack(const Workload& w, const Options& o) {
  Result r;
  const int64_t units = MeasuredUnits(w, o);
  const ExperimentConfig config = AttackConfig(w, o.seed);
  std::unique_ptr<Simulation> sim;
  SetupTimes setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    sim.reset();
    ReleaseFreedMemory();
    setup.Measure(w.name, [&] {
      sim = MustCreate(config);
      for (int i = 0; i < w.warmup; ++i) sim->RunRound();
    });
  }
  std::vector<float> latency_us;
  int64_t bad_rounds = 0;
  LoopClock clock(units);
  const Clock::time_point t_loop = Clock::now();
  for (int64_t i = 0; i < units; ++i) {
    const Clock::time_point t0 = Clock::now();
    const RoundStats st = sim->RunRound();
    latency_us.push_back(static_cast<float>(SecondsSince(t0) * 1e6));
    clock.Completed(i + 1);
    if (!std::isfinite(st.mean_benign_loss)) ++bad_rounds;
  }
  const double wall_s = SecondsSince(t_loop);
  const LoopSamples samples(clock, std::move(latency_us), 1);
  r.attempted += units;
  r.failed += bad_rounds;
  r.Check("final model is finite", AllFinite(sim->global()));
  LoopMetrics(&r, units, wall_s, samples);
  setup.Report(&r);

  const Clock::time_point t_eval = Clock::now();
  const double er = sim->EvaluateEr(kTopK);
  const double hr = sim->EvaluateHr(kTopK);
  r.Detail("eval_s", SecondsSince(t_eval));
  r.Detail("er_at_10", er);
  r.Detail("hr_at_10", hr);
  CheckQuality(er, hr, o, &r);
  r.Metric("peak_rss_mb", PeakRssMb(), "MB");
  return r;
}

Result TraceAttack(const Workload& w, const Options& o) {
  Result r;
  const int64_t k = std::max<int64_t>(1, MeasuredUnits(w, o) / 4);
  const ExperimentConfig config = AttackConfig(w, o.seed);
  std::vector<std::pair<std::string, double>> other;

  // A: 2k untraced rounds, the reference model.
  uint64_t digest_untraced = 0;
  {
    std::unique_ptr<Simulation> a = MustCreate(config);
    for (int i = 0; i < w.warmup; ++i) a->RunRound();
    for (int64_t i = 0; i < 2 * k; ++i) a->RunRound();
    digest_untraced = ModelDigest(a->global());
  }
  ReleaseFreedMemory();

  Tracer tracer(1);
  {
    // Simulation::Create generates the same data internally; this span
    // times that generation on its own.
    ScopedSpan span(&tracer, 0, "data.build", -1, -1);
    if (!GenerateSynthetic(config.dataset).ok()) Fatal("data generation failed");
  }
  std::unique_ptr<Simulation> b = MustCreate(config);
  for (int i = 0; i < w.warmup; ++i) b->RunRound();
  // B: the same 2k rounds, untraced blocks alternating with traced ones.
  // Simulation owns its malicious clients, so a round cannot be rebuilt
  // from public stages here: one span per RunRound carries the program's
  // own stage timers.
  const SegmentTimes times = TimeAlternating(
      k, 4,
      [&](int64_t n) {
        for (int64_t i = 0; i < n; ++i) b->RunRound();
      },
      [&](int64_t n) {
        for (int64_t i = 0; i < n; ++i) {
          ScopedSpan span(&tracer, 0, "core.run_round", -1, b->rounds_run());
          const RoundStats st = b->RunRound();
          span.Arg("select_ms", st.select_ms);
          span.Arg("train_ms", st.train_ms);
          span.Arg("apply_ms", st.route_ms + st.apply_ms + st.interaction_ms);
        }
      });
  r.Check("traced rounds reproduce the untraced model digest",
          ModelDigest(b->global()) == digest_untraced);

  double er = 0.0;
  double hr = 0.0;
  {
    ScopedSpan span(&tracer, 0, "metrics.er", -1, -1);
    er = b->EvaluateEr(kTopK);
  }
  {
    ScopedSpan span(&tracer, 0, "metrics.hr", -1, -1);
    hr = b->EvaluateHr(kTopK);
  }
  CheckQuality(er, hr, o, &r);

  // Mined-vs-true popular items after R~ = 2 deltas on the live table.
  const int top_n = config.attack_config.mined_top_n;
  PopularItemMiner miner(2, top_n);
  while (!miner.Ready()) {
    miner.Observe(b->global().item_embeddings);
    b->RunRound();
  }
  const std::vector<int> popular = b->train().ItemsByPopularity();
  int overlap = 0;
  for (int item : miner.MinedItems()) {
    overlap += std::count(popular.begin(), popular.begin() + top_n, item) > 0;
  }

  ClientStateStore& store = b->mutable_store();
  const Dataset& train = b->train();
  ProbeInputs probe;
  probe.model = &b->model();
  probe.global = &b->global();
  for (int u = 0; u < std::min(kVerifyUsers, store.num_users()); ++u) {
    const double* row = store.UserEmbedding(u);
    probe.users.emplace_back(row, row + w.dim);
    probe.positives.push_back(train.ItemsOf(u));
  }
  Simulation& live = *b;
  probe.advance = [&live] { live.RunRound(); };
  RunProbes(probe, o.seed, &tracer);

  other.emplace_back("store_footprint_mb", store.FootprintBytes() / 1048576.0);
  other.emplace_back("materialized_rngs",
                     static_cast<double>(store.materialized_rngs()));
  other.emplace_back("mined_overlap", static_cast<double>(overlap) / top_n);
  other.emplace_back("er_at_10", er);
  other.emplace_back("hr_at_10", hr);
  other.emplace_back("untraced_s", times.untraced_s);
  other.emplace_back("traced_s", times.traced_s);
  other.emplace_back("pool_threads", w.threads);
  r.trace_file = o.out + "/trace-" + w.name + ".json";
  r.Check("trace written", tracer.WriteChromeTrace(r.trace_file, OtherData(other)));
  r.attempted += 4 * k;
  return r;
}

// ---------------------------------------------------------------------
// Top-K serving (workloads 5-6): four closed-loop callers, one user per
// call.

struct ServeState {
  std::unique_ptr<RecModel> model;
  GlobalModel global;
  std::vector<Vec> users;
  std::unique_ptr<serving::TopKServer> server;  // borrows model and global
  // Full-scan oracle lists of the verified users; slot -1: not verified.
  std::vector<int> verify_slot;
  std::vector<std::vector<serving::ScoredItem>> oracle;
};

std::vector<serving::ScoredItem> FullScanTopK(const ServeState& s,
                                              const Vec& user) {
  Vec scores(static_cast<size_t>(s.global.num_items()));
  s.model->ScoreItems(s.global, user, scores.data());
  std::vector<serving::ScoredItem> candidates;
  candidates.reserve(scores.size());
  for (size_t j = 0; j < scores.size(); ++j) {
    candidates.push_back({scores[j], static_cast<int>(j)});
  }
  std::vector<serving::ScoredItem> out;
  serving::SelectTopK(&candidates, kTopK, &out);
  return out;
}

bool SameList(const std::vector<serving::ScoredItem>& a,
              const std::vector<serving::ScoredItem>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].item != b[i].item ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

std::unique_ptr<ServeState> BuildServing(const Workload& w, uint64_t seed,
                                         Tracer* tracer) {
  auto s = std::make_unique<ServeState>();
  s->model = MakeModel(ModelKind::kMatrixFactorization, w.dim);
  Rng rng(seed);
  {
    ScopedSpan span(tracer, 0, "data.build", -1, -1);
    s->global = s->model->InitGlobalModel(w.items, rng);
    s->users.resize(static_cast<size_t>(w.serve_users));
    for (Vec& u : s->users) {
      u.resize(static_cast<size_t>(w.dim));
      for (double& x : u) x = rng.Normal(0.0, 0.5);
    }
    if (w.boosted > 0) {
      // The attack-shaped table: the first items get inflated embeddings on
      // a taste coordinate every user shares, so they top every list and
      // fill the selector in the first tile.
      for (Vec& u : s->users) u[0] += 2.0;
      for (int j = 0; j < w.boosted; ++j) {
        double* row =
            s->global.item_embeddings.MutableRowPtr(static_cast<size_t>(j));
        std::fill(row, row + w.dim, 0.0);
        row[0] = 50.0 + 0.5 * j;  // distinct magnitudes: no ties
      }
    }
  }
  s->server = std::make_unique<serving::TopKServer>(*s->model, s->global);
  return s;
}

/// Full-scan oracle lists for a seeded sample of users (outside set-up
/// timing: the oracle is the benchmark's work, not the program's).
void BuildOracle(ServeState& s, uint64_t seed) {
  Rng rng(seed ^ 0x6f7261636c65ULL);
  const int n = static_cast<int>(s.users.size());
  s.verify_slot.assign(s.users.size(), -1);
  for (int u : rng.SampleWithoutReplacement(n, std::min(kVerifyUsers, n))) {
    s.verify_slot[static_cast<size_t>(u)] = static_cast<int>(s.oracle.size());
    s.oracle.push_back(FullScanTopK(s, s.users[static_cast<size_t>(u)]));
  }
}

struct LoopOutcome {
  double wall_s = 0.0;
  std::unique_ptr<LoopClock> clock;  // measured loops only
  std::vector<float> latency_us;     // per call, in call order
  int64_t mismatches = 0;
  int64_t errors = 0;
};

/// Calls [first, first + calls) spread over `threads` closed-loop callers;
/// call i of the loop serves user (first + i) mod |users|. A `measured`
/// loop runs in kChunks chunks: every caller stops at the end of a chunk,
/// and while all of them wait the loop's clock probes the host speed, so
/// no library code runs beside the probe. Inside a chunk the callers claim
/// calls in small batches from a shared counter, so a caller the host
/// stalls holds the others up by one batch at most. Served lists of
/// verified users are compared with the oracle as they come back.
LoopOutcome ServeLoop(const ServeState& s, int64_t first, int64_t calls,
                      int threads, bool measured, Tracer* tracer) {
  const size_t n = static_cast<size_t>(threads);
  const size_t chunks = measured ? kChunks : 1;
  LoopOutcome out;
  out.latency_us.assign(static_cast<size_t>(calls), 0.0f);
  std::vector<int64_t> mismatches(n, 0);
  std::vector<int64_t> errors(n, 0);
  std::mutex mu;
  std::condition_variable cv;
  size_t released = 0;  // chunks the callers may run
  int arrived = 0;      // callers done with the last released chunk
  std::atomic<int64_t> next{0};  // next unclaimed call of the chunk
  const int64_t num_users = static_cast<int64_t>(s.users.size());
  auto caller = [&](int t) {
    const size_t slot_t = static_cast<size_t>(t);
    std::vector<serving::ScoredItem> list;
    ScopedSpan loop(tracer, t + 1, "serving.caller", -1, -1);
    for (size_t k = 0; k < chunks; ++k) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return released > k; });
      }
      const int64_t end = ChunkStart(k + 1, calls, chunks);
      const int64_t batch = std::max<int64_t>(
          1, (end - ChunkStart(k, calls, chunks)) / (256 * threads));
      try {
        for (int64_t b = next.fetch_add(batch, std::memory_order_relaxed);
             b < end; b = next.fetch_add(batch, std::memory_order_relaxed)) {
          for (int64_t i = b; i < std::min(b + batch, end); ++i) {
            const size_t user = static_cast<size_t>((first + i) % num_users);
            const Clock::time_point t0 = Clock::now();
            {
              ScopedSpan span(tracer, t + 1, "serving.recommend", loop.id(),
                              static_cast<int32_t>(i));
              s.server->Recommend(s.users[user], kTopK, nullptr, 0, &list);
            }
            out.latency_us[static_cast<size_t>(i)] =
                static_cast<float>(SecondsSince(t0) * 1e6);
            const int slot =
                s.verify_slot.empty() ? -1 : s.verify_slot[user];
            if (slot >= 0 &&
                !SameList(list, s.oracle[static_cast<size_t>(slot)])) {
              ++mismatches[slot_t];
            }
          }
        }
      } catch (...) {
        ++errors[slot_t];
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        ++arrived;
      }
      cv.notify_all();
    }
  };
  if (measured) out.clock = std::make_unique<LoopClock>(calls);
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(caller, t);
  for (size_t k = 0; k < chunks; ++k) {
    {
      std::lock_guard<std::mutex> lock(mu);
      arrived = 0;
      next.store(ChunkStart(k, calls, chunks), std::memory_order_relaxed);
      released = k + 1;
    }
    cv.notify_all();
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return arrived == threads; });
    }
    if (out.clock != nullptr) {
      out.clock->Completed(ChunkStart(k + 1, calls, chunks));
    }
  }
  for (std::thread& th : pool) th.join();
  out.wall_s = SecondsSince(t0);
  for (size_t t = 0; t < n; ++t) {
    out.mismatches += mismatches[t];
    out.errors += errors[t];
  }
  return out;
}

Result RunServing(const Workload& w, const Options& o) {
  Result r;
  const int64_t units = MeasuredUnits(w, o);
  std::unique_ptr<ServeState> s;
  SetupTimes setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s.reset();
    ReleaseFreedMemory();
    setup.Measure(w.name, [&] {
      s = BuildServing(w, o.seed, nullptr);
      ServeLoop(*s, 0, w.warmup, w.threads, /*measured=*/false, nullptr);
    });
  }
  BuildOracle(*s, o.seed);
  std::vector<serving::ScoredItem> list;
  bool exact = true;
  for (size_t u = 0; u < s->users.size(); ++u) {
    const int slot = s->verify_slot[u];
    if (slot < 0) continue;
    s->server->Recommend(s->users[u], kTopK, nullptr, 0, &list);
    exact = exact && SameList(list, s->oracle[static_cast<size_t>(slot)]);
  }
  r.Check("fused lists are bitwise equal to the full-scan oracle", exact);

  LoopOutcome loop =
      ServeLoop(*s, w.warmup, units, w.threads, /*measured=*/true, nullptr);
  r.attempted += units;
  r.failed += loop.mismatches + loop.errors;
  if (loop.mismatches + loop.errors > 0) {
    std::fprintf(stderr, "CHECK FAILED: %lld served lists differ from the "
                 "oracle, %lld callers failed\n",
                 static_cast<long long>(loop.mismatches),
                 static_cast<long long>(loop.errors));
  }
  LoopMetrics(&r, units, loop.wall_s,
              LoopSamples(*loop.clock, std::move(loop.latency_us), 1));
  setup.Report(&r);
  r.Metric("peak_rss_mb", PeakRssMb(), "MB");
  return r;
}

Result TraceServing(const Workload& w, const Options& o) {
  Result r;
  const int64_t k = std::min(MeasuredUnits(w, o) / 2, kTracedCallsCap);
  std::vector<std::pair<std::string, double>> other;
  Tracer tracer(1 + w.threads);
  std::unique_ptr<ServeState> b = BuildServing(w, o.seed, &tracer);
  ServeLoop(*b, 0, w.warmup, w.threads, /*measured=*/false, nullptr);
  BuildOracle(*b, o.seed);
  // k untraced and k traced calls, in alternating blocks.
  int64_t next_call = w.warmup;
  int64_t failures = 0;
  auto calls = [&](Tracer* t, int64_t n) {
    const LoopOutcome out =
        ServeLoop(*b, next_call, n, w.threads, /*measured=*/false, t);
    next_call += n;
    failures += out.mismatches + out.errors;
  };
  const SegmentTimes times = TimeAlternating(
      k, std::max<int64_t>(1, k / 16),
      [&](int64_t n) { calls(nullptr, n); },
      [&](int64_t n) { calls(&tracer, n); });
  r.Check("served lists match the oracle's", failures == 0);

  ProbeInputs probe;
  probe.model = b->model.get();
  probe.global = &b->global;
  for (size_t u = 0; u < b->users.size() && probe.users.size() < kVerifyUsers;
       ++u) {
    if (b->verify_slot[u] < 0) continue;
    probe.users.push_back(b->users[u]);
    probe.positives.emplace_back();
  }
  RunProbes(probe, o.seed, &tracer);

  other.emplace_back("untraced_s", times.untraced_s);
  other.emplace_back("traced_s", times.traced_s);
  other.emplace_back("pool_threads", w.threads);
  r.trace_file = o.out + "/trace-" + w.name + ".json";
  r.Check("trace written", tracer.WriteChromeTrace(r.trace_file, OtherData(other)));
  r.attempted += 2 * k;
  return r;
}

// ---------------------------------------------------------------------

void PrintResult(const Workload& w, const Options& o, const Result& r) {
  for (const auto& [name, value_unit] : r.metrics) {
    std::fprintf(stderr, "%s: %s = %.6g %s\n", w.name, name.c_str(),
                 value_unit.first, value_unit.second);
  }
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
              "\"smoke\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"checks\": [",
              w.name, static_cast<unsigned long long>(o.seed), o.trace ? 1 : 0,
              o.smoke ? "true" : "false", static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  for (size_t i = 0; i < r.checks.size(); ++i) {
    std::printf("%s{\"name\": \"%s\", \"ok\": %s}", i ? ", " : "",
                r.checks[i].first.c_str(), r.checks[i].second ? "true" : "false");
  }
  std::printf("], \"metrics\": {");
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                r.metrics[i].first.c_str(), r.metrics[i].second.first,
                r.metrics[i].second.second);
  }
  std::printf("}, \"detail\": {%s}, \"trace_file\": \"%s\"}\n",
              OtherData(r.detail).c_str(), r.trace_file.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  FlagParser flags;
  if (Status st = flags.Parse(argc, argv); !st.ok()) Fatal(st.ToString());
  const std::string name = flags.GetString("workload", "");
  Options o;
  o.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  o.seconds = flags.GetDouble("seconds", 10.0);
  o.trace = flags.GetInt("trace", 0) != 0;
  o.smoke = flags.GetInt("smoke", 0) != 0;
  o.out = flags.GetString("out", ".");
  if (!(o.seconds > 0.0)) Fatal("--seconds must be positive");
  const std::vector<Workload> all = AllWorkloads();
  const auto it = std::find_if(all.begin(), all.end(), [&](const Workload& w) {
    return name == w.name;
  });
  if (it == all.end()) {
    std::string names;
    for (const Workload& w : all) names += std::string(" ") + w.name;
    Fatal("unknown --workload '" + name + "'; one of:" + names);
  }
  const Workload w = o.smoke ? Shrink(*it) : *it;
  std::filesystem::create_directories(o.out);
  Result r;
  switch (w.kind) {
    case Kind::kFederated:
      r = o.trace ? TraceFederated(w, o) : RunFederated(w, o);
      break;
    case Kind::kAttack:
      r = o.trace ? TraceAttack(w, o) : RunAttack(w, o);
      break;
    case Kind::kServing:
      r = o.trace ? TraceServing(w, o) : RunServing(w, o);
      break;
  }
  PrintResult(w, o, r);
  return 0;
}

}  // namespace
}  // namespace pieck_benchmark

int main(int argc, char** argv) { return pieck_benchmark::Main(argc, argv); }
