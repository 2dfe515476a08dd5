// Statement-path benchmark for the cssidx serving layer.
//
//   stmtbench --workload <point_hot|wide_cold|string_dss> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Drives serve::Server / Session from statement text to checked result in
// one process: closed-loop reader sessions on their own threads and one
// writing client on the main thread, which keeps exactly one write in
// flight and polls the table's published sequence until the write is
// visible. Every result is checked against the benchmark's own oracle
// (oracle.h). --trace 0 prints the end-to-end metrics; --trace 1 runs an
// untraced half and a traced half, then the per-layer replays (layers.h),
// and prints the per-layer metrics. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
// See README.md for the workloads and the metric definitions.

#include <malloc.h>
#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "alloc_count.h"
#include "histogram.h"
#include "core/simd_node_search.h"
#include "inputs.h"
#include "layers.h"
#include "oracle.h"
#include "serve/server.h"
#include "serve/statement.h"

namespace stmtbench {
namespace {

using cssidx::serve::Server;
using cssidx::serve::Session;
using cssidx::serve::StatementResult;
using Clock = std::chrono::steady_clock;

constexpr auto kWarmup = std::chrono::milliseconds(500);
constexpr auto kPollSpacing = std::chrono::microseconds(20);
constexpr auto kVisibleTimeout = std::chrono::seconds(60);
constexpr size_t kReplayWrites = 48;  // traced run: writes replayed
constexpr size_t kReplaySkip = 2;     // ... of which the first are warm-up
constexpr size_t kSimStatements = 64; // L0 sim: statements warmed, measured

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Nearest-rank percentile (p in (0, 1]); NaN for an empty sample.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Aggregate CPU time and the part of it the hypervisor stole, in ticks,
/// from /proc/stat; {0, 0} where it is unreadable. Printed per run, since
/// steal moves every figure on a shared host.
std::pair<uint64_t, uint64_t> CpuAndStealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t v[8] = {};
  in >> cpu;
  for (uint64_t& x : v) in >> x;
  if (!in || cpu != "cpu") return {0, 0};
  uint64_t total = 0;
  for (uint64_t x : v) total += x;
  return {total, v[7]};
}

// Phases. Readers record into the phase they observe when a statement
// starts; the writing client moves the phase on its own clock.
enum Phase : int { kWarm = 0, kMeasure = 1, kTraced = 2, kStop = 3 };

struct ReadStats {
  uint64_t attempted = 0, failed = 0, keys = 0;
  double exec_ns = 0;
  uint64_t exec_allocs = 0;
  Histogram latency_ns;
  // Traced phase only: the layer replays, summed.
  uint64_t layer_stmts = 0, layer_keys = 0, parse_allocs = 0;
  double parse_ns = 0, snapshot_ns = 0, encode_ns = 0, probe_ns = 0;
  Histogram snapshot_ns_hist;
};

struct WriteRecord {
  int phase = kWarm;
  bool insert = true;
  bool ok = true;
  double ack_us = 0, visible_ms = 0;
};

template <typename KeyT>
constexpr bool kIsString = std::is_same_v<KeyT, std::string>;

template <typename KeyT>
using StateOf =
    std::conditional_t<kIsString<KeyT>, ValueCounts, SortedKeys<KeyT>>;
template <typename KeyT>
using InputsOf = std::conditional_t<kIsString<KeyT>, StringInputs, IntInputs<KeyT>>;
/// The key type of the table's index: string tables index dictionary IDs.
template <typename KeyT>
using IdOf = std::conditional_t<kIsString<KeyT>, uint32_t, KeyT>;
template <typename KeyT>
using VersionOf = typename cssidx::BasicMaintainedIndex<IdOf<KeyT>>::Version;

struct Report {
  bool correct = true;
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  std::vector<std::tuple<std::string, double, std::string>> metrics;

  void Fail(std::string why) {
    correct = false;
    if (errors.size() < 8) errors.push_back(std::move(why));
  }
  void Metric(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      Fail("metric " + name + " has no value");
      value = 0;
    }
    metrics.emplace_back(name, value, unit);
  }
};

template <typename KeyT>
class Bench {
 public:
  Bench(const Workload& wl, const Args& args, InputsOf<KeyT> in)
      : wl_(wl), args_(args), in_(std::move(in)),
        spec_(*cssidx::IndexSpec::Parse(wl.spec)) {}

  /// The run is split into rounds, each on a freshly built server, so the
  /// figures pool several memory layouts and thread placements instead of
  /// resting on the one a single process happened to get.
  Report Run() {
    read_stats_.assign(wl_.readers, std::vector<ReadStats>(kStop));
    const double round_seconds = args_.seconds / wl_.rounds;
    for (int round = 0; round < wl_.rounds; ++round) {
      if (round > 0) server_.reset();
      Setup();
      RunPhases(round_seconds);
      server_->Stop();
      CheckConservation();
      CheckFinal();
      all_writes_.insert(all_writes_.end(), writes_.begin(), writes_.end());
    }
    Finish();
    return std::move(report_);
  }

 private:
  /// Report::Fail for code that runs while reader threads do.
  void Fail(std::string why) {
    std::lock_guard<std::mutex> lock(errors_mu_);
    report_.Fail(std::move(why));
  }

  // ------------------------------------------------------------ server
  std::shared_ptr<const VersionOf<KeyT>> Snapshot() const {
    if constexpr (std::is_same_v<KeyT, uint64_t>) {
      return server_->TableSnapshot64(kTable);
    } else {
      return server_->TableSnapshot(kTable);
    }
  }

  /// One timed set-up (table creation + Start over the pre-generated
  /// load), and the oracle chain at the load's version.
  void Setup() {
    std::vector<KeyT> load = in_.LoadCopy();
    server_ = std::make_unique<Server>();
    const auto t0 = Clock::now();
    if constexpr (kIsString<KeyT>) {
      server_->CreateStringTable(kTable, std::move(load), spec_);
    } else if constexpr (std::is_same_v<KeyT, uint64_t>) {
      server_->CreateTable64(kTable, std::move(load), spec_);
    } else {
      server_->CreateTable(kTable, std::move(load), spec_);
    }
    server_->Start();
    const auto t1 = Clock::now();
    setup_times_.push_back(Seconds(t1 - t0));
    auto snap = Snapshot();
    rows_ = snap->keys().size();
    index_bytes_ = static_cast<double>(snap->index().SpaceBytes());
    if constexpr (kIsString<KeyT>) {
      domain_bytes_ =
          static_cast<double>(server_->TableDomain(kTable)->SpaceBytes());
      chain_ = std::make_unique<OracleChain<StateOf<KeyT>>>(
          snap->sequence(),
          ValueCounts{in_.base_counts,
                      std::make_shared<const std::map<std::string, uint32_t>>(),
                      in_.base_counts->size()});
    } else {
      chain_ = std::make_unique<OracleChain<StateOf<KeyT>>>(
          snap->sequence(), SortedKeys<KeyT>{in_.stream, 0, in_.rows});
    }
  }

  // ------------------------------------------------------------ readers
  std::string CheckRead(const StateOf<KeyT>& state, const ReadStmt<KeyT>& st,
                        const StatementResult& r, size_t salt) const {
    if constexpr (kIsString<KeyT>) {
      return CheckCount(state, st, r, salt);
    } else {
      return CheckFind<KeyT>(state.keys(), st, r, salt);
    }
  }

  /// The traced phase's layer replay of one statement: parse, snapshot,
  /// dictionary encoding and the batch probe on the held snapshot.
  void TraceLayers(const ReadStmt<KeyT>& st, ReadStats& s,
                   std::vector<int64_t>& positions,
                   std::vector<size_t>& counts) {
    const uint64_t a0 = ThreadAllocations();
    const auto t0 = Clock::now();
    std::optional<cssidx::serve::Statement> parsed =
        cssidx::serve::ParseStatement(st.text);
    const auto t1 = Clock::now();
    const uint64_t a1 = ThreadAllocations();
    if (!parsed) {
      Fail("traced replay: statement failed to parse");
      return;
    }
    auto snap = Snapshot();
    const auto t2 = Clock::now();
    double encode_ns = 0;
    std::chrono::nanoseconds probe{0};
    if constexpr (kIsString<KeyT>) {
      auto dom = server_->TableDomain(kTable);
      std::vector<uint32_t> ids(st.keys.size());
      const auto e0 = Clock::now();
      for (size_t i = 0; i < st.keys.size(); ++i) {
        ids[i] = dom->Encode(st.keys[i]).value_or(UINT32_MAX);
      }
      const auto e1 = Clock::now();
      snap->index().CountEqualBatch(ids, counts);
      const auto e2 = Clock::now();
      encode_ns = std::chrono::duration<double, std::nano>(e1 - e0).count();
      probe = e2 - e1;
    } else {
      const auto p0 = Clock::now();
      snap->index().FindBatch(st.keys, positions);
      probe = Clock::now() - p0;
    }
    const double snapshot_ns =
        std::chrono::duration<double, std::nano>(t2 - t1).count();
    s.layer_stmts += 1;
    s.layer_keys += st.keys.size();
    s.parse_allocs += a1 - a0;
    s.parse_ns += std::chrono::duration<double, std::nano>(t1 - t0).count();
    s.snapshot_ns += snapshot_ns;
    s.snapshot_ns_hist.Add(snapshot_ns);
    s.encode_ns += encode_ns;
    s.probe_ns += std::chrono::duration<double, std::nano>(probe).count();
  }

  void ReaderLoop(int reader) {
    Session session = server_->OpenSession();
    const std::vector<ReadStmt<KeyT>>& pool = in_.reads[reader];
    std::vector<int64_t> positions(kStatementKeys);
    std::vector<size_t> counts(kStatementKeys);
    uint64_t last_version = 0;
    for (size_t j = 0;; ++j) {
      const int phase = phase_.load(std::memory_order_acquire);
      if (phase == kStop) break;
      const ReadStmt<KeyT>& st = pool[j % pool.size()];
      auto pin = chain_->Pin();
      const uint64_t a0 = ThreadAllocations();
      const auto t0 = Clock::now();
      StatementResult r = session.Execute(st.text);
      const auto t1 = Clock::now();
      const uint64_t allocs = ThreadAllocations() - a0;

      std::string error;
      if (!r.ok()) {
        error = "read status " + std::to_string(static_cast<int>(r.status)) +
                ": " + r.error;
      } else if (r.version < last_version) {
        error = "version went back from " + std::to_string(last_version) +
                " to " + std::to_string(r.version);
      } else if (const auto* node = chain_->Find(pin, r.version)) {
        error = CheckRead(node->state, st, r, j);
      } else {
        error = "version " + std::to_string(r.version) + " unknown to oracle";
      }
      last_version = std::max(last_version, r.version);
      if (!error.empty()) Fail("reader " + std::to_string(reader) + ": " + error);
      if (phase == kWarm) continue;
      ReadStats& s = read_stats_[reader][phase];
      s.attempted += 1;
      s.failed += error.empty() ? 0 : 1;
      s.keys += st.keys.size();
      const double ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
      s.exec_ns += ns;
      s.exec_allocs += allocs;
      s.latency_ns.Add(ns);
      if (phase == kTraced) {
        // A different statement than the one just executed, so neither
        // finds the other's cache lines warm.
        TraceLayers(pool[(j + pool.size() / 2) % pool.size()], s, positions,
                    counts);
      }
    }
  }

  // ------------------------------------------------------------ writer
  bool WaitVisible(uint64_t target) {
    const auto deadline = Clock::now() + kVisibleTimeout;
    while (Snapshot()->sequence() < target) {
      const auto until = Clock::now() + kPollSpacing;
      std::this_thread::sleep_until(until);
      if (Clock::now() > deadline) return false;
    }
    return true;
  }

  void RunPhases(double seconds) {
    const auto start = Clock::now();
    const auto measure_at = start + kWarmup;
    const auto length = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
    const auto end = measure_at + length;
    const auto traced_at = args_.trace ? measure_at + length / 2 : end;

    phase_.store(kWarm, std::memory_order_release);
    writes_.clear();
    std::vector<std::thread> readers;
    for (int r = 0; r < wl_.readers; ++r) {
      readers.emplace_back([this, r] { ReaderLoop(r); });
    }

    Session session = server_->OpenSession();
    std::set<std::string> known;  // string tables: values inserted so far
    bool writing = true;
    for (;;) {
      const auto now = Clock::now();
      if (now >= end) break;
      const int phase = now < measure_at ? kWarm
                        : now < traced_at ? kMeasure
                                          : kTraced;
      phase_.store(phase, std::memory_order_release);
      if (!writing) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      if (writes_.size() == in_.writes.size()) {
        schedule_exhausted_ = true;
        writing = false;
        continue;
      }
      const WriteStmt<KeyT>& w = in_.writes[writes_.size()];
      if constexpr (kIsString<KeyT>) {
        chain_->Stage(ApplyWrite(chain_->tail_state(), w, &known));
      } else {
        chain_->Stage(ApplyWrite(chain_->tail_state(), w));
      }
      WriteRecord rec;
      rec.phase = phase;
      rec.insert = w.insert;
      const auto t0 = Clock::now();
      StatementResult r = session.Execute(w.text);
      const auto t1 = Clock::now();
      rec.ack_us = std::chrono::duration<double, std::micro>(t1 - t0).count();
      if (!r.ok()) {
        rec.ok = false;
        Fail("write status " + std::to_string(static_cast<int>(r.status)) +
             ": " + r.error);
        writes_.push_back(rec);
        writing = false;
        continue;
      }
      if (!WaitVisible(chain_->tail_version())) {
        rec.ok = false;
        Fail("write never became visible");
        writes_.push_back(rec);
        writing = false;
        continue;
      }
      const auto t2 = Clock::now();
      rec.visible_ms = std::chrono::duration<double, std::milli>(t2 - t0).count();
      chain_->MarkTailVisible();
      writes_.push_back(rec);
      if (wl_.think.count() > 0) std::this_thread::sleep_until(t2 + wl_.think);
    }
    phase_.store(kStop, std::memory_order_release);
    for (std::thread& t : readers) t.join();
  }

  // ------------------------------------------------------------ checks
  /// Writer conservation: one queued batch, one drain cycle and one
  /// publish per write, and nothing left behind.
  void CheckConservation() {
    uint64_t sent = 0;
    for (const WriteRecord& w : writes_) sent += w.ok ? 1 : 0;
    const cssidx::serve::QueueStats q = server_->queue_stats();
    const cssidx::serve::ServerStats s = server_->writer_stats();
    auto expect = [&](const char* what, uint64_t got, uint64_t want) {
      if (got != want) {
        report_.Fail(std::string(what) + " = " + std::to_string(got) +
                     ", expected " + std::to_string(want));
      }
    };
    expect("enqueued batches", q.enqueued_batches, sent);
    expect("applied batches", s.batches_applied, q.enqueued_batches);
    expect("drain cycles", s.drain_cycles, sent);
    expect("groups published", s.groups_published, sent);
    expect("rejected batches", q.rejected_batches, 0);
    expect("final sequence", Snapshot()->sequence(),
           chain_->tail_version());
    const cssidx::MaintenanceStats& m =
        server_->TableMaintenanceStats(kTable);
    const double rebuilt = static_cast<double>(
        Snapshot()->partitioned() != nullptr ? m.shards_rebuilt
                                             : m.full_rebuilds);
    shards_rebuilt_ += rebuilt;
    publishes_ += static_cast<double>(s.groups_published);
    writes_sent_ += static_cast<double>(sent);
  }

  /// The final table against the oracle, bit for bit; then the self-test:
  /// a corrupted position and a corrupted final array must both be caught.
  void CheckFinal() {
    auto snap = Snapshot();
    const StateOf<KeyT>& want = chain_->tail_state();
    if constexpr (kIsString<KeyT>) {
      auto dom = server_->TableDomain(kTable);
      std::vector<std::string> got;
      got.reserve(snap->keys().size());
      for (uint32_t id : snap->keys()) got.push_back(dom->Decode(id));
      const std::vector<std::string> rows = want.Rows();
      if (FirstMismatch<std::string>(got, rows) >= 0) {
        report_.Fail("final decoded column differs from the oracle");
      }
      if (dom->size() != want.dictionary_size) {
        report_.Fail("dictionary holds " + std::to_string(dom->size()) +
                     " values, oracle " + std::to_string(want.dictionary_size));
      }
      SelfTestFinal(std::span<const std::string>(got),
                    std::span<const std::string>(rows),
                    [](std::string& v) { v += "x"; });
    } else {
      if (FirstMismatch<KeyT>(snap->keys(), want.keys()) >= 0) {
        report_.Fail("final key array differs from the oracle");
      }
      SelfTestFinal(std::span<const KeyT>(snap->keys()), want.keys(),
                    [](KeyT& k) { k += 1; });
    }
    SelfTestRead(want);
  }

  template <typename T, typename CorruptFn>
  void SelfTestFinal(std::span<const T> got, std::span<const T> want,
                     CorruptFn corrupt) {
    const size_t n = std::min<size_t>(got.size(), 1 << 16);
    std::vector<T> copy(got.begin(), got.begin() + n);
    if (FirstMismatch<T>(copy, want.first(n)) >= 0) return;  // already failed
    corrupt(copy[n / 2]);
    if (FirstMismatch<T>(copy, want.first(n)) != static_cast<int64_t>(n / 2)) {
      report_.Fail("self-test: corrupted final array not flagged");
    }
  }

  void SelfTestRead(const StateOf<KeyT>& want) {
    Session session = server_->OpenSession();
    const ReadStmt<KeyT>& st = in_.reads[0][0];
    StatementResult r = session.Execute(st.text);
    if (!r.ok() || !CheckRead(want, st, r, 0).empty()) {
      report_.Fail("self-test: clean read after Stop failed its check");
      return;
    }
    if constexpr (kIsString<KeyT>) {
      r.counts[0] += 1;
      r.count += 1;
    } else {
      r.positions[0] = r.positions[0] < 0 ? 0 : -1;
    }
    if (CheckRead(want, st, r, 0).empty()) {
      report_.Fail("self-test: corrupted read result not flagged");
    }
  }

  // ------------------------------------------------------------ report
  void Finish() {
    if (schedule_exhausted_) {
      report_.Fail("write schedule exhausted; raise writes_per_second_cap");
    }

    // Attempted and failed, per operation type, over the measured phases.
    uint64_t reads = 0, read_failed = 0, ins = 0, ins_failed = 0, del = 0,
             del_failed = 0;
    for (const auto& per_phase : read_stats_) {
      for (int p = kMeasure; p <= kTraced; ++p) {
        reads += per_phase[p].attempted;
        read_failed += per_phase[p].failed;
      }
    }
    for (const WriteRecord& w : all_writes_) {
      if (w.phase == kWarm) continue;
      (w.insert ? ins : del) += 1;
      (w.insert ? ins_failed : del_failed) += w.ok ? 0 : 1;
    }
    const char* verb = kIsString<KeyT> ? "count" : "find";
    std::printf("op %s attempted %llu failed %llu\n", verb,
                static_cast<unsigned long long>(reads),
                static_cast<unsigned long long>(read_failed));
    std::printf("op insert attempted %llu failed %llu\n",
                static_cast<unsigned long long>(ins),
                static_cast<unsigned long long>(ins_failed));
    std::printf("op delete attempted %llu failed %llu\n",
                static_cast<unsigned long long>(del),
                static_cast<unsigned long long>(del_failed));
    report_.attempted = reads + ins + del;
    report_.failed = read_failed + ins_failed + del_failed;
    std::printf("rows %zu rounds %d writes_total %zu\n", rows_, wl_.rounds,
                all_writes_.size());

    if (args_.trace) {
      TracedMetrics();
    } else {
      EndToEndMetrics();
    }
  }

  /// Merged read statistics of every reader for one phase.
  ReadStats Merged(int phase) const {
    ReadStats m;
    for (const auto& per_phase : read_stats_) {
      const ReadStats& s = per_phase[phase];
      m.attempted += s.attempted;
      m.keys += s.keys;
      m.exec_ns += s.exec_ns;
      m.exec_allocs += s.exec_allocs;
      m.latency_ns.Merge(s.latency_ns);
      m.layer_stmts += s.layer_stmts;
      m.layer_keys += s.layer_keys;
      m.parse_allocs += s.parse_allocs;
      m.parse_ns += s.parse_ns;
      m.snapshot_ns += s.snapshot_ns;
      m.encode_ns += s.encode_ns;
      m.probe_ns += s.probe_ns;
      m.snapshot_ns_hist.Merge(s.snapshot_ns_hist);
    }
    return m;
  }

  void EndToEndMetrics() {
    const ReadStats m = Merged(kMeasure);
    // Keys per second of Execute time, per reader session, summed.
    double mkeys = 0;
    for (const auto& per_phase : read_stats_) {
      const ReadStats& s = per_phase[kMeasure];
      if (s.exec_ns > 0) mkeys += static_cast<double>(s.keys) / s.exec_ns * 1e3;
    }
    std::vector<double> visible, ack;
    for (const WriteRecord& w : all_writes_) {
      if (w.phase != kMeasure || !w.ok) continue;
      visible.push_back(w.visible_ms);
      ack.push_back(w.ack_us);
    }
    std::printf("samples reads %llu writes %zu\n",
                static_cast<unsigned long long>(m.latency_ns.count()),
                visible.size());
    std::printf("read tail p99 %.1f us p99.9 %.1f us\n",
                m.latency_ns.Quantile(0.99) / 1e3,
                m.latency_ns.Quantile(0.999) / 1e3);
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    report_.Metric("setup_s", Percentile(setup_times_, 0.5), "s");
    report_.Metric("read_mkeys_s", mkeys, "Mkeys/s");
    report_.Metric("read_p50_us", m.latency_ns.Quantile(0.50) / 1e3, "us");
    report_.Metric("read_p95_us", m.latency_ns.Quantile(0.95) / 1e3, "us");
    report_.Metric("write_visible_p50_ms", Percentile(visible, 0.50), "ms");
    report_.Metric("write_visible_p90_ms", Percentile(visible, 0.90), "ms");
    report_.Metric("write_ack_p50_us", Percentile(ack, 0.50), "us");
    report_.Metric("space_bytes_per_key",
                   (index_bytes_ + domain_bytes_) / static_cast<double>(rows_),
                   "B/key");
    report_.Metric("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
                   "MB");
  }

  void TracedMetrics() {
    const ReadStats plain = Merged(kMeasure);
    const ReadStats traced = Merged(kTraced);
    const double keys = static_cast<double>(traced.keys);
    const double layer_keys = static_cast<double>(traced.layer_keys);
    const double stmts = static_cast<double>(traced.attempted);
    const double layer_stmts = static_cast<double>(traced.layer_stmts);
    const double exec_per_key = traced.exec_ns / keys;
    const double parse_per_key = traced.parse_ns / layer_keys;
    const double snapshot_per_key = traced.snapshot_ns / layer_keys;
    const double encode_per_key = traced.encode_ns / layer_keys;
    const double probe_per_key = traced.probe_ns / layer_keys;

    // L0: simulated misses for the first reader's statements.
    auto snap = Snapshot();
    std::vector<IdOf<KeyT>> warm, measure;
    auto ids_of = [&](const ReadStmt<KeyT>& st, std::vector<IdOf<KeyT>>& out) {
      if constexpr (kIsString<KeyT>) {
        auto dom = server_->TableDomain(kTable);
        for (const std::string& v : st.keys) {
          out.push_back(dom->Encode(v).value_or(UINT32_MAX));
        }
      } else {
        out.insert(out.end(), st.keys.begin(), st.keys.end());
      }
    };
    for (size_t i = 0; i < kSimStatements; ++i) {
      ids_of(in_.reads[0][i], warm);
      ids_of(in_.reads[0][kSimStatements + i], measure);
    }
    const double misses =
        SimMissesPerKey<IdOf<KeyT>>(*snap, warm, measure);
    snap.reset();
    server_.reset();  // the replay below builds its own copy

    const size_t replayed = std::min(writes_.size(), kReplayWrites);
    const std::span<const WriteStmt<KeyT>> replay_writes(in_.writes.data(),
                                                         replayed);
    WriterReplay wr;
    if constexpr (kIsString<KeyT>) {
      wr = ReplayStringWrites(spec_.WithKeyWidth(4), in_.LoadCopy(),
                              replay_writes);
    } else {
      wr = ReplayIntWrites<KeyT>(spec_.WithKeyWidth(static_cast<int>(sizeof(KeyT))),
                                 in_.LoadCopy(), replay_writes);
    }
    auto tail = [&](const std::vector<double>& v) {
      return std::vector<double>(
          v.begin() + static_cast<std::ptrdiff_t>(std::min(kReplaySkip, v.size())),
          v.end());
    };
    std::vector<double> self_ms;
    for (size_t i = kReplaySkip; i < replayed; ++i) {
      self_ms.push_back(writes_[i].visible_ms - wr.coalesce_us[i] / 1e3 -
                        wr.domain_ms[i] - wr.apply_ms[i]);
    }
    std::printf("traced statements %llu, layer replays %llu, writes replayed %zu\n",
                static_cast<unsigned long long>(traced.attempted),
                static_cast<unsigned long long>(traced.layer_stmts), replayed);

    report_.Metric("statement.parse_ns_per_key", parse_per_key, "ns/key");
    report_.Metric("statement.parse_allocs_per_stmt",
                   static_cast<double>(traced.parse_allocs) / layer_stmts,
                   "allocs/stmt");
    report_.Metric("session.execute_ns_per_key", exec_per_key, "ns/key");
    report_.Metric("session.self_ns_per_key",
                   exec_per_key - parse_per_key - snapshot_per_key -
                       encode_per_key - probe_per_key,
                   "ns/key");
    report_.Metric("session.execute_allocs_per_stmt",
                   static_cast<double>(traced.exec_allocs) / stmts,
                   "allocs/stmt");
    report_.Metric("maintained.snapshot_ns",
                   traced.snapshot_ns_hist.Quantile(0.5), "ns");
    report_.Metric("index.probe_ns_per_key", probe_per_key, "ns/key");
    report_.Metric("node.sim_misses_per_key", misses, "misses/key");
    report_.Metric("domain.encode_ns_per_key", encode_per_key, "ns/key");
    std::vector<double> grow_ms;
    for (double ms : tail(wr.domain_ms)) {
      if (ms > 0) grow_ms.push_back(ms);
    }
    report_.Metric("domain.grow_ms",
                   grow_ms.empty() ? 0.0 : Percentile(grow_ms, 0.5), "ms");
    report_.Metric("writer.coalesce_us", Percentile(tail(wr.coalesce_us), 0.5),
                   "us");
    report_.Metric("writer.merge_ms", Percentile(tail(wr.merge_ms), 0.5), "ms");
    report_.Metric("writer.build_ms", Percentile(tail(wr.build_ms), 0.5), "ms");
    report_.Metric("writer.apply_ms", Percentile(tail(wr.apply_ms), 0.5), "ms");
    report_.Metric("writer.self_ms", Percentile(self_ms, 0.5), "ms");
    report_.Metric("writer.shards_rebuilt_per_write",
                   shards_rebuilt_ / writes_sent_, "shards/write");
    report_.Metric("writer.publishes_per_write", publishes_ / writes_sent_,
                   "publishes/write");
    report_.Metric("index.directory_bytes_per_key",
                   index_bytes_ / static_cast<double>(rows_), "B/key");
    report_.Metric("domain.bytes_per_row",
                   domain_bytes_ / static_cast<double>(rows_), "B/row");
    report_.Metric("trace.read_slowdown",
                   traced.latency_ns.Quantile(0.5) /
                       plain.latency_ns.Quantile(0.5),
                   "ratio");
  }

  const Workload& wl_;
  const Args& args_;
  InputsOf<KeyT> in_;
  const cssidx::IndexSpec spec_;
  std::unique_ptr<Server> server_;
  std::unique_ptr<OracleChain<StateOf<KeyT>>> chain_;
  std::atomic<int> phase_{kWarm};
  std::vector<std::vector<ReadStats>> read_stats_;  // [reader][phase]
  std::vector<WriteRecord> writes_;      // this round's writes, in order
  std::vector<WriteRecord> all_writes_;  // every round's
  bool schedule_exhausted_ = false;
  std::mutex errors_mu_;  // guards report_ while readers run
  Report report_;
  std::vector<double> setup_times_;
  double index_bytes_ = 0, domain_bytes_ = 0;
  size_t rows_ = 0;
  double shards_rebuilt_ = 0, publishes_ = 0, writes_sent_ = 0;
};

void PrintJson(const Report& report) {
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value, unit] : report.metrics) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "stmtbench: %s\nusage: stmtbench --workload <%s> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why, WorkloadNames().c_str());
  return 2;
}

template <typename T>
bool ParseNumber(const char* text, T* out) {
  const char* end = text + std::strlen(text);
  auto [ptr, ec] = std::from_chars(text, end, *out);
  return ec == std::errc() && ptr == end;
}

}  // namespace
}  // namespace stmtbench

int main(int argc, char** argv) {
  using namespace stmtbench;
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    int trace = 0;
    if (flag == "--workload") {
      args.workload = FindWorkload(value);
      if (args.workload == nullptr) return Usage("unknown workload");
    } else if (flag == "--seed") {
      have_seed = ParseNumber(value, &args.seed);
      if (!have_seed) return Usage("bad --seed");
    } else if (flag == "--seconds") {
      have_seconds = ParseNumber(value, &args.seconds) && args.seconds > 0 &&
                     args.seconds <= 600;
      if (!have_seconds) return Usage("bad --seconds");
    } else if (flag == "--trace") {
      have_trace = ParseNumber(value, &trace) && (trace == 0 || trace == 1);
      if (!have_trace) return Usage("bad --trace");
      args.trace = trace == 1;
    } else {
      return Usage("unknown flag");
    }
  }
  if (argc % 2 != 1 || args.workload == nullptr || !have_seed ||
      !have_seconds || !have_trace) {
    return Usage("missing arguments");
  }

  // Fix glibc's mmap threshold at its initial 128 KiB. Left dynamic, it
  // rises after the first large free, and whether each version's arrays
  // come fresh from mmap or from a reused heap then depends on the free
  // history of the run, moving write latency between processes.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  // The writing client (this thread) polls for visibility with short
  // sleeps; a 1 us timer slack keeps each poll near kPollSpacing.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);

  const Workload& wl = *args.workload;
  std::printf("workload %s spec %s seed %llu seconds %g trace %d\n", wl.name,
              wl.spec, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("host cpu \"%s\" hardware_threads %u node_search %s\n",
              CpuModel().c_str(), std::thread::hardware_concurrency(),
              cssidx::NodeSearchPathName(cssidx::ActiveNodeSearchPath()));
  std::printf("build type %s compiler %s flags \"%s\"\n", STMTBENCH_BUILD_TYPE,
              STMTBENCH_COMPILER, STMTBENCH_CXX_FLAGS);
  std::fflush(stdout);

  const size_t schedule =
      WriteScheduleLength(wl, args.seconds / wl.rounds + 1);
  const auto [cpu0, steal0] = CpuAndStealTicks();
  Report report;
  switch (wl.kind) {
    case TableKind::kU32:
      report = Bench<uint32_t>(wl, args,
                               GeneratePointHot(wl, args.seed, schedule))
                   .Run();
      break;
    case TableKind::kU64:
      report = Bench<uint64_t>(wl, args,
                               GenerateWideCold(wl, args.seed, schedule))
                   .Run();
      break;
    case TableKind::kString:
      report = Bench<std::string>(wl, args,
                                  GenerateStringDss(wl, args.seed, schedule))
                   .Run();
      break;
  }
  const auto [cpu1, steal1] = CpuAndStealTicks();
  if (cpu1 > cpu0) {
    std::printf("host steal %.2f%% of CPU time during the run\n",
                100.0 * static_cast<double>(steal1 - steal0) /
                    static_cast<double>(cpu1 - cpu0));
  }
  for (const std::string& e : report.errors) {
    std::printf("error %s\n", e.c_str());
  }
  for (const auto& [name, value, unit] : report.metrics) {
    std::printf("metric %s %.6g %s\n", name.c_str(), value, unit.c_str());
  }
  PrintJson(report);
  return 0;
}
