#ifndef STMTBENCH_HISTOGRAM_H_
#define STMTBENCH_HISTOGRAM_H_

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

// Fixed-memory latency histogram: 1024 buckets per power of two, i.e.
// 0.1% relative resolution, for values in [1, 2^40) (nanoseconds: 1 ns to
// 18 minutes). Readers record millions of statements per run; keeping
// counts instead of samples keeps the benchmark's own memory, and so
// peak_rss_mb, independent of how fast the run went.

namespace stmtbench {

class Histogram {
 public:
  static constexpr int kSubBits = 10;
  static constexpr int kOctaves = 40;

  Histogram() : counts_(size_t{kOctaves} << kSubBits, 0) {}

  void Add(double ns) {
    ++counts_[Index(ns)];
    ++total_;
  }

  void Merge(const Histogram& other) {
    for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
    total_ += other.total_;
  }

  uint64_t count() const { return total_; }

  /// Nearest-rank quantile (p in (0, 1]) as the midpoint of its bucket;
  /// NaN when empty.
  double Quantile(double p) const {
    if (total_ == 0) return std::numeric_limits<double>::quiet_NaN();
    uint64_t rank = static_cast<uint64_t>(p * static_cast<double>(total_));
    if (static_cast<double>(rank) < p * static_cast<double>(total_)) ++rank;
    if (rank == 0) rank = 1;
    uint64_t seen = 0;
    for (size_t i = 0; i < counts_.size(); ++i) {
      seen += counts_[i];
      if (seen >= rank) return (Lower(i) + Lower(i + 1)) / 2;
    }
    return Lower(counts_.size());
  }

 private:
  static constexpr uint64_t kOne = uint64_t{1023} << kSubBits;  // 1.0

  static size_t Index(double ns) {
    if (!(ns >= 1)) ns = 1;
    const uint64_t i = (std::bit_cast<uint64_t>(ns) >> (52 - kSubBits)) - kOne;
    const uint64_t last = (uint64_t{kOctaves} << kSubBits) - 1;
    return static_cast<size_t>(i < last ? i : last);
  }
  static double Lower(size_t i) {
    return std::bit_cast<double>((i + kOne) << (52 - kSubBits));
  }

  std::vector<uint64_t> counts_;
  uint64_t total_ = 0;
};

}  // namespace stmtbench

#endif  // STMTBENCH_HISTOGRAM_H_
