#include "layers.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>

#include "cachesim/cache_sim.h"
#include "core/builder.h"
#include "core/css_tree.h"
#include "domain/domain.h"
#include "serve/update_queue.h"
#include "workload/batch_update.h"

namespace stmtbench {
namespace {

using Clock = std::chrono::steady_clock;

double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

template <typename KeyT>
double CoalesceUs(const WriteStmt<KeyT>& w,
                  cssidx::workload::BasicUpdateBatch<KeyT>* merged) {
  std::vector<cssidx::workload::BasicUpdateBatch<KeyT>> group(1);
  (w.insert ? group[0].inserts : group[0].deletes) = w.keys;
  const auto t0 = Clock::now();
  *merged = cssidx::serve::Coalesce(group);
  const auto t1 = Clock::now();
  return Ms(t0, t1) * 1e3;
}

/// Times the merge and the build of one key range; adds to *merge/*build.
template <typename KeyT>
void MergeAndBuild(const cssidx::IndexSpec& spec, std::span<const KeyT> keys,
                   std::span<const KeyT> inserts, std::span<const KeyT> deletes,
                   double* merge, double* build) {
  const auto t0 = Clock::now();
  std::vector<KeyT> merged =
      cssidx::workload::ApplySortedBatch<KeyT>(keys, inserts, deletes);
  const auto t1 = Clock::now();
  cssidx::BasicAnyIndex<KeyT> index =
      cssidx::BuildIndexT<KeyT>(spec, merged.data(), merged.size());
  const auto t2 = Clock::now();
  if (!index) throw std::runtime_error("replay build failed");
  *merge += Ms(t0, t1);
  *build += Ms(t1, t2);
}

/// Merge + build of a sorted batch against one held version: per touched
/// shard for part:K (routing by ShardOf, like probes and the refresh),
/// over the whole array otherwise.
template <typename KeyT>
void ReplayMergeBuild(
    const typename cssidx::BasicMaintainedIndex<KeyT>::Version& snap,
    const cssidx::IndexSpec& spec, const std::vector<KeyT>& inserts,
    const std::vector<KeyT>& deletes, double* merge, double* build) {
  const std::vector<KeyT>& keys = snap.keys();
  const auto* part = snap.partitioned();
  if (part == nullptr) {
    MergeAndBuild<KeyT>(spec, keys, inserts, deletes, merge, build);
    return;
  }
  std::map<size_t, std::pair<std::span<const KeyT>, std::span<const KeyT>>>
      by_shard;
  auto route = [&](const std::vector<KeyT>& list, bool is_insert) {
    for (size_t b = 0; b < list.size();) {
      const size_t s = part->ShardOf(list[b]);
      size_t e = b + 1;
      while (e < list.size() && part->ShardOf(list[e]) == s) ++e;
      auto& slot = by_shard[s];
      (is_insert ? slot.first : slot.second) =
          std::span<const KeyT>(list.data() + b, e - b);
      b = e;
    }
  };
  route(inserts, true);
  route(deletes, false);
  for (const auto& [s, lists] : by_shard) {
    const size_t lo = part->ShardBase(s), hi = part->ShardBase(s + 1);
    MergeAndBuild<KeyT>(spec.Inner(),
                        std::span<const KeyT>(keys.data() + lo, hi - lo),
                        lists.first, lists.second, merge, build);
  }
}

struct Region {
  uintptr_t lo, hi, base;
};

/// SimTracer with every address rebased into a fixed per-region window,
/// so set indexes do not depend on where the allocator put the arrays.
struct RebasedTracer {
  static constexpr bool kEnabled = true;
  cssidx::cachesim::CacheHierarchy* hierarchy;
  const std::vector<Region>* regions;

  void Touch(const void* addr, uint64_t size) const {
    const auto a = reinterpret_cast<uintptr_t>(addr);
    for (const Region& r : *regions) {
      if (a >= r.lo && a < r.hi) {
        hierarchy->Access(reinterpret_cast<const void*>(a - r.lo + r.base),
                          size);
        return;
      }
    }
    throw std::logic_error("traced access outside every region");
  }
};

}  // namespace

template <typename KeyT>
WriterReplay ReplayIntWrites(const cssidx::IndexSpec& spec,
                             std::vector<KeyT> load,
                             std::span<const WriteStmt<KeyT>> writes) {
  std::sort(load.begin(), load.end());
  cssidx::BasicMaintainedIndex<KeyT> index(spec, std::move(load));
  WriterReplay out;
  for (const WriteStmt<KeyT>& w : writes) {
    cssidx::workload::BasicUpdateBatch<KeyT> batch;
    out.coalesce_us.push_back(CoalesceUs(w, &batch));
    std::sort(batch.inserts.begin(), batch.inserts.end());
    double merge = 0, build = 0;
    ReplayMergeBuild<KeyT>(*index.Snapshot(), spec, batch.inserts,
                           batch.deletes, &merge, &build);
    const auto t0 = Clock::now();
    index.ApplySortedBatch(std::move(batch.inserts), std::move(batch.deletes));
    const auto t1 = Clock::now();
    out.merge_ms.push_back(merge);
    out.build_ms.push_back(build);
    out.apply_ms.push_back(Ms(t0, t1));
    out.domain_ms.push_back(0);
  }
  return out;
}

template WriterReplay ReplayIntWrites<uint32_t>(
    const cssidx::IndexSpec&, std::vector<uint32_t>,
    std::span<const WriteStmt<uint32_t>>);
template WriterReplay ReplayIntWrites<uint64_t>(
    const cssidx::IndexSpec&, std::vector<uint64_t>,
    std::span<const WriteStmt<uint64_t>>);

WriterReplay ReplayStringWrites(
    const cssidx::IndexSpec& spec, std::vector<std::string> load,
    std::span<const WriteStmt<std::string>> writes) {
  using cssidx::domain::StringDomain;
  auto dom = std::make_shared<const StringDomain>(StringDomain::FromValues(load));
  std::vector<uint32_t> ids;
  ids.reserve(load.size());
  for (const std::string& v : load) ids.push_back(*dom->Encode(v));
  std::sort(ids.begin(), ids.end());
  cssidx::MaintainedIndex index(spec, std::move(ids));

  WriterReplay out;
  for (const WriteStmt<std::string>& w : writes) {
    cssidx::serve::StringUpdateBatch batch;
    out.coalesce_us.push_back(CoalesceUs(w, &batch));
    std::vector<std::string> fresh;
    for (const std::string& v : batch.inserts) {
      if (!dom->Encode(v)) fresh.push_back(v);
    }
    auto snap = index.Snapshot();
    double domain_ms = 0;
    std::vector<uint32_t> remapped;
    if (!fresh.empty()) {
      const auto t0 = Clock::now();
      auto grown = std::make_shared<StringDomain>(*dom);
      const std::vector<uint32_t> remap = grown->AddBatch(fresh);
      remapped.reserve(snap->keys().size());
      for (uint32_t id : snap->keys()) remapped.push_back(remap[id]);
      const auto t1 = Clock::now();
      domain_ms = Ms(t0, t1);
      dom = std::move(grown);
    }
    auto encode = [&](const std::vector<std::string>& values) {
      std::vector<uint32_t> out_ids;
      for (const std::string& v : values) {
        if (auto id = dom->Encode(v)) out_ids.push_back(*id);
      }
      std::sort(out_ids.begin(), out_ids.end());
      return out_ids;
    };
    std::vector<uint32_t> ins = encode(batch.inserts);
    std::vector<uint32_t> del = encode(batch.deletes);
    double merge = 0, build = 0, apply = 0;
    if (!fresh.empty()) {
      MergeAndBuild<uint32_t>(spec, remapped, ins, del, &merge, &build);
      const auto t0 = Clock::now();
      std::vector<uint32_t> merged =
          cssidx::workload::ApplySortedBatch(remapped, ins, del);
      index.Rebuild(std::move(merged));
      const auto t1 = Clock::now();
      apply = Ms(t0, t1);
    } else {
      ReplayMergeBuild<uint32_t>(*snap, spec, ins, del, &merge, &build);
      const auto t0 = Clock::now();
      index.ApplySortedBatch(std::move(ins), std::move(del));
      const auto t1 = Clock::now();
      apply = Ms(t0, t1);
    }
    out.merge_ms.push_back(merge);
    out.build_ms.push_back(build);
    out.apply_ms.push_back(apply);
    out.domain_ms.push_back(domain_ms);
  }
  return out;
}

template <typename KeyT>
double SimMissesPerKey(
    const typename cssidx::BasicMaintainedIndex<KeyT>::Version& snap,
    std::span<const KeyT> warm, std::span<const KeyT> measure) {
  using Tree = cssidx::BasicCssTree<KeyT, 16, 17>;
  const cssidx::IndexSpec& spec = snap.index().spec();
  const auto* part = snap.partitioned();
  const cssidx::IndexSpec leaf = part != nullptr ? spec.Inner() : spec;
  if (leaf.ToString() != (sizeof(KeyT) == 8 ? "css64:16" : "css:16")) {
    throw std::invalid_argument("L0 simulation models css:16 nodes only, not " +
                                spec.ToString());
  }
  const std::vector<KeyT>& keys = snap.keys();
  const size_t shards = part != nullptr ? part->num_shards() : 1;
  std::vector<Tree> trees;
  trees.reserve(shards);
  std::vector<Region> regions;
  constexpr uintptr_t kWindow = uintptr_t{1} << 36;
  const auto key_lo = reinterpret_cast<uintptr_t>(keys.data());
  regions.push_back({key_lo, key_lo + keys.size() * sizeof(KeyT), kWindow});
  for (size_t s = 0; s < shards; ++s) {
    const size_t lo = part != nullptr ? part->ShardBase(s) : 0;
    const size_t hi = part != nullptr ? part->ShardBase(s + 1) : keys.size();
    trees.emplace_back(keys.data() + lo, hi - lo);
    const auto dir = reinterpret_cast<uintptr_t>(trees.back().directory());
    const size_t bytes = trees.back().layout().DirectorySlots() * sizeof(KeyT);
    if (bytes > 0) regions.push_back({dir, dir + bytes, (s + 2) * kWindow});
  }
  cssidx::cachesim::CacheHierarchy hierarchy(
      {{"host-l1d", 48 * 1024, 64, 12}, {"host-l2", 2 * 1024 * 1024, 64, 16}});
  const RebasedTracer tracer{&hierarchy, &regions};
  auto lookup = [&](KeyT k) {
    const size_t s = part != nullptr ? part->ShardOf(k) : 0;
    trees[s].LowerBoundTraced(k, tracer);
  };
  for (KeyT k : warm) lookup(k);
  hierarchy.ResetCounters();
  for (KeyT k : measure) lookup(k);
  return static_cast<double>(hierarchy.MemoryFetches()) /
         static_cast<double>(measure.size());
}

template double SimMissesPerKey<uint32_t>(
    const cssidx::BasicMaintainedIndex<uint32_t>::Version&,
    std::span<const uint32_t>, std::span<const uint32_t>);
template double SimMissesPerKey<uint64_t>(
    const cssidx::BasicMaintainedIndex<uint64_t>::Version&,
    std::span<const uint64_t>, std::span<const uint64_t>);

}  // namespace stmtbench
