#ifndef STMTBENCH_ORACLE_H_
#define STMTBENCH_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "inputs.h"
#include "serve/server.h"

// The benchmark's own oracle, independent of the library's merge code.
//
// Integer tables: a version is a window [lo, hi) of a sorted buffer. An
// append above the maximum that matches the buffer past the window, or a
// delete of exactly the window's lowest keys, moves the window (that is
// what wide_cold's time-ordered stream does); any other write merges into
// a fresh buffer with MergeSorted below.
//
// String tables: a version is a value -> row count map, stored as the
// load's sorted counts plus a small override map, so a version costs a
// copy of the override only.
//
// The writing client stages each version in an OracleChain before it
// sends the write; readers pin the latest visible version before they
// execute, and find the version their result reports by walking forward
// from the pin.

namespace stmtbench {

template <typename KeyT>
struct SortedKeys {
  std::shared_ptr<const std::vector<KeyT>> buf;
  size_t lo = 0, hi = 0;

  std::span<const KeyT> keys() const {
    return std::span<const KeyT>(buf->data() + lo, hi - lo);
  }
};

/// `base` minus every occurrence of each key in `deletes`, plus `inserts`
/// (both sorted). One linear pass.
template <typename KeyT>
std::vector<KeyT> MergeSorted(std::span<const KeyT> base,
                              std::span<const KeyT> inserts,
                              std::span<const KeyT> deletes) {
  std::vector<KeyT> out;
  out.reserve(base.size() + inserts.size());
  size_t d = 0, i = 0;
  for (const KeyT& k : base) {
    while (d < deletes.size() && deletes[d] < k) ++d;
    if (d < deletes.size() && deletes[d] == k) continue;
    while (i < inserts.size() && inserts[i] < k) out.push_back(inserts[i++]);
    out.push_back(k);
  }
  out.insert(out.end(), inserts.begin() + static_cast<std::ptrdiff_t>(i),
             inserts.end());
  return out;
}

template <typename KeyT>
SortedKeys<KeyT> ApplyWrite(const SortedKeys<KeyT>& s,
                            const WriteStmt<KeyT>& w) {
  const std::vector<KeyT>& buf = *s.buf;
  const size_t m = w.keys.size();
  if (w.insert && s.hi + m <= buf.size() &&
      std::equal(w.keys.begin(), w.keys.end(), buf.begin() + s.hi)) {
    return {s.buf, s.lo, s.hi + m};
  }
  if (!w.insert && s.lo + m <= s.hi &&
      std::equal(w.keys.begin(), w.keys.end(), buf.begin() + s.lo) &&
      (s.lo + m == s.hi || buf[s.lo + m] != w.keys.back())) {
    return {s.buf, s.lo + m, s.hi};
  }
  const std::span<const KeyT> none;
  auto merged = std::make_shared<const std::vector<KeyT>>(MergeSorted<KeyT>(
      s.keys(), w.insert ? std::span<const KeyT>(w.keys) : none,
      w.insert ? none : std::span<const KeyT>(w.keys)));
  return {merged, 0, merged->size()};
}

struct ValueCounts {
  using Base = std::vector<std::pair<std::string, uint32_t>>;
  std::shared_ptr<const Base> base;  // sorted by value
  std::shared_ptr<const std::map<std::string, uint32_t>> overrides;
  /// Distinct values the dictionary must hold: the load's plus every value
  /// ever inserted (deletes never shrink a dictionary).
  size_t dictionary_size = 0;

  uint32_t BaseCount(const std::string& v) const {
    auto it = std::lower_bound(
        base->begin(), base->end(), v,
        [](const auto& entry, const std::string& x) { return entry.first < x; });
    return it != base->end() && it->first == v ? it->second : 0;
  }
  uint32_t Count(const std::string& v) const {
    auto it = overrides->find(v);
    return it != overrides->end() ? it->second : BaseCount(v);
  }
  /// Every row's value, in sorted order.
  std::vector<std::string> Rows() const {
    std::vector<std::string> rows;
    auto emit = [&](const std::string& v, uint32_t n) {
      rows.insert(rows.end(), n, v);
    };
    auto o = overrides->begin();
    for (const auto& [v, n] : *base) {
      for (; o != overrides->end() && o->first < v; ++o) emit(o->first, o->second);
      if (o != overrides->end() && o->first == v) {
        emit(v, o->second);
        ++o;
      } else {
        emit(v, n);
      }
    }
    for (; o != overrides->end(); ++o) emit(o->first, o->second);
    return rows;
  }
};

/// `known` holds every value inserted so far (the writer's own record of
/// the dictionary beyond the load); it is updated in place.
inline ValueCounts ApplyWrite(const ValueCounts& s,
                              const WriteStmt<std::string>& w,
                              std::set<std::string>* known) {
  auto next = std::make_shared<std::map<std::string, uint32_t>>(*s.overrides);
  ValueCounts out = s;
  for (const std::string& v : w.keys) {
    const uint32_t n = s.Count(v);
    (*next)[v] = w.insert ? n + 1 : 0;
    if (w.insert && s.BaseCount(v) == 0 && known->insert(v).second) {
      ++out.dictionary_size;
    }
  }
  std::erase_if(*next, [&](const auto& e) { return e.second == s.BaseCount(e.first); });
  out.overrides = std::move(next);
  return out;
}

template <typename State>
class OracleChain {
 public:
  struct Node {
    uint64_t version = 0;
    State state;
    std::shared_ptr<const Node> next;  // guarded by OracleChain::mu_
  };

  OracleChain(uint64_t version, State state)
      : tail_(std::make_shared<Node>(Node{version, std::move(state), {}})),
        visible_(tail_) {}

  /// Readers: the latest version known to be visible.
  std::shared_ptr<const Node> Pin() const {
    std::lock_guard<std::mutex> lock(mu_);
    return visible_;
  }

  /// The version `version` at or after `pin`, or nullptr if there is none.
  const Node* Find(const std::shared_ptr<const Node>& pin,
                   uint64_t version) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Node* n = pin.get(); n != nullptr; n = n->next.get()) {
      if (n->version == version) return n;
      if (n->version > version) return nullptr;
    }
    return nullptr;
  }

  /// Writer: append the next version before sending the write.
  void Stage(State state) {
    auto node = std::make_shared<Node>(
        Node{tail_->version + 1, std::move(state), {}});
    std::lock_guard<std::mutex> lock(mu_);
    tail_->next = node;
    tail_ = std::move(node);
  }

  /// Writer: the staged tail became visible.
  void MarkTailVisible() {
    std::lock_guard<std::mutex> lock(mu_);
    visible_ = tail_;
  }

  /// Writer-side only (the writer is the only thread that moves the tail).
  const State& tail_state() const { return tail_->state; }
  uint64_t tail_version() const { return tail_->version; }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<Node> tail_;
  std::shared_ptr<const Node> visible_;
};

/// Checks a sampled eighth of a FIND result — key i where
/// i % 8 == salt % 8 — against the leftmost position in `keys`, or -1.
/// Returns an empty string when every sampled key matches.
template <typename KeyT>
std::string CheckFind(std::span<const KeyT> keys, const ReadStmt<KeyT>& st,
                      const cssidx::serve::StatementResult& r, size_t salt) {
  if (r.positions.size() != st.keys.size()) return "FIND result size";
  for (size_t i = salt % 8; i < st.keys.size(); i += 8) {
    auto it = std::lower_bound(keys.begin(), keys.end(), st.keys[i]);
    const int64_t expect =
        it != keys.end() && *it == st.keys[i] ? it - keys.begin() : -1;
    if (r.positions[i] != expect) {
      return "FIND key " + std::to_string(st.keys[i]) + " at version " +
             std::to_string(r.version) + ": got " +
             std::to_string(r.positions[i]) + ", oracle " +
             std::to_string(expect);
    }
  }
  return {};
}

/// COUNT analogue of CheckFind, plus the total against the per-key counts.
inline std::string CheckCount(const ValueCounts& counts,
                              const ReadStmt<std::string>& st,
                              const cssidx::serve::StatementResult& r,
                              size_t salt) {
  if (r.counts.size() != st.keys.size()) return "COUNT result size";
  uint64_t total = 0;
  for (size_t c : r.counts) total += c;
  if (total != r.count) return "COUNT total differs from its per-key counts";
  for (size_t i = salt % 8; i < st.keys.size(); i += 8) {
    const uint32_t expect = counts.Count(st.keys[i]);
    if (r.counts[i] != expect) {
      return "COUNT value " + st.keys[i] + " at version " +
             std::to_string(r.version) + ": got " +
             std::to_string(r.counts[i]) + ", oracle " +
             std::to_string(expect);
    }
  }
  return {};
}

/// First index where the two arrays differ, or -1 when they are equal
/// (sizes included).
template <typename T>
int64_t FirstMismatch(std::span<const T> got, std::span<const T> want) {
  const size_t n = std::min(got.size(), want.size());
  for (size_t i = 0; i < n; ++i) {
    if (!(got[i] == want[i])) return static_cast<int64_t>(i);
  }
  return got.size() == want.size() ? -1 : static_cast<int64_t>(n);
}

}  // namespace stmtbench

#endif  // STMTBENCH_ORACLE_H_
