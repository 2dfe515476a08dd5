#ifndef STMTBENCH_LAYERS_H_
#define STMTBENCH_LAYERS_H_

#include <span>
#include <string>
#include <vector>

#include "core/index_spec.h"
#include "core/maintained_index.h"
#include "inputs.h"

// Per-layer replays for the traced run. Each one calls a layer's public
// functions directly, on private copies, so the spans are recorded by this
// benchmark's code and the library runs unmodified.

namespace stmtbench {

/// One entry per replayed write.
struct WriterReplay {
  std::vector<double> coalesce_us;  // serve::Coalesce of the write's batch
  std::vector<double> merge_ms;     // workload::ApplySortedBatch per shard
  std::vector<double> build_ms;     // BuildIndexT over each merged shard
  std::vector<double> apply_ms;     // the MaintainedIndex update call(s)
  std::vector<double> domain_ms;    // dictionary copy + AddBatch + remap
                                    // (0 unless the write grew it)
};

/// Replays `writes` from the load, in order, on a private MaintainedIndex
/// built with `spec` (key width already forced to sizeof(KeyT)). Merge and
/// build are timed shard by shard for part:K specs, as the refresh path
/// runs them; apply is MaintainedIndex::ApplySortedBatch itself.
template <typename KeyT>
WriterReplay ReplayIntWrites(const cssidx::IndexSpec& spec,
                             std::vector<KeyT> load,
                             std::span<const WriteStmt<KeyT>> writes);

/// The string table's writer path: a write that brings values new to the
/// dictionary grows a copy of it and remaps the ID column (domain_ms), then
/// rebuilds (apply = merge + Rebuild); any other write encodes and takes
/// MaintainedIndex::ApplySortedBatch.
WriterReplay ReplayStringWrites(const cssidx::IndexSpec& spec,
                                std::vector<std::string> load,
                                std::span<const WriteStmt<std::string>> writes);

/// L0: LowerBoundTraced over private css:16 trees built on `snap`'s key
/// array (one per shard for part:K), through a simulated per-core cache of
/// this host's shape (L1d 48 KiB 12-way, L2 2 MiB 16-way, 64 B lines).
/// Addresses are rebased per region, so the count is the same on every
/// run. Returns L2 misses per lookup of `measure`, after `warm` has been
/// looked up once.
template <typename KeyT>
double SimMissesPerKey(
    const typename cssidx::BasicMaintainedIndex<KeyT>::Version& snap,
    std::span<const KeyT> warm, std::span<const KeyT> measure);

}  // namespace stmtbench

#endif  // STMTBENCH_LAYERS_H_
