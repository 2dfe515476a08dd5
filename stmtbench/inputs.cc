#include "inputs.h"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "util/rng.h"

namespace stmtbench {
namespace {

using namespace std::chrono_literals;

// rows, distinct, readers, read pool, think time, rounds, write cap.
constexpr Workload kWorkloads[] = {
    {"point_hot", TableKind::kU32, "css:16", size_t{1} << 18, size_t{1} << 18,
     2, 256, 10000us, 6, 200},
    {"wide_cold", TableKind::kU64, "part:16/css64:16", size_t{1} << 24,
     size_t{1} << 24, 1, 4096, 0us, 3, 100},
    {"string_dss", TableKind::kString, "css:16", size_t{1} << 21,
     size_t{1} << 19, 1, 1024, 0us, 3, 200},
};

void Shuffle(auto& v, cssidx::Pcg32& rng) {
  for (size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.Below(static_cast<uint32_t>(i))]);
  }
}

void AppendNumber(std::string& out, uint64_t v) {
  char buf[24];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out.push_back(' ');
  out.append(buf, end);
}

template <typename KeyT>
std::string Render(const char* verb, const std::vector<KeyT>& keys) {
  std::string text = std::string(verb) + " " + kTable;
  text.reserve(text.size() + keys.size() * 16);
  for (const KeyT& k : keys) {
    if constexpr (std::is_same_v<KeyT, std::string>) {
      text.push_back(' ');
      text += k;
    } else {
      AppendNumber(text, k);
    }
  }
  return text;
}

/// Half hits drawn by `hit`, half misses drawn by `miss`, in random order.
template <typename KeyT, typename HitFn, typename MissFn>
std::vector<std::vector<ReadStmt<KeyT>>> MakeReads(const Workload& wl,
                                                   const char* verb,
                                                   cssidx::Pcg32& rng,
                                                   HitFn hit, MissFn miss) {
  std::vector<std::vector<ReadStmt<KeyT>>> reads(wl.readers);
  for (auto& pool : reads) {
    pool.resize(wl.read_pool);
    for (ReadStmt<KeyT>& st : pool) {
      st.keys.reserve(kStatementKeys);
      for (size_t i = 0; i < kStatementKeys / 2; ++i) st.keys.push_back(hit());
      for (size_t i = 0; i < kStatementKeys / 2; ++i) {
        st.keys.push_back(miss());
      }
      Shuffle(st.keys, rng);
      st.text = Render(verb, st.keys);
    }
  }
  return reads;
}

template <typename KeyT>
WriteStmt<KeyT> MakeWrite(bool insert, std::vector<KeyT> sorted_keys) {
  WriteStmt<KeyT> w;
  w.insert = insert;
  w.text = Render(insert ? "INSERT" : "DELETE", sorted_keys);
  w.keys = std::move(sorted_keys);
  return w;
}

/// `count` distinct values from `draw`, in random order.
template <typename T, typename DrawFn>
std::vector<T> DistinctValues(size_t count, cssidx::Pcg32& rng, DrawFn draw) {
  std::vector<T> values;
  while (values.size() < count) {
    const size_t want = count - values.size();
    for (size_t i = 0; i < want + want / 16 + 16; ++i) values.push_back(draw());
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
  }
  Shuffle(values, rng);
  values.resize(count);
  return values;
}

}  // namespace

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& wl : kWorkloads) {
    if (name == wl.name) return &wl;
  }
  return nullptr;
}

std::string WorkloadNames() {
  std::string names;
  for (const Workload& wl : kWorkloads) {
    if (!names.empty()) names += ", ";
    names += wl.name;
  }
  return names;
}

size_t WriteScheduleLength(const Workload& wl, double seconds) {
  return static_cast<size_t>(std::ceil(seconds * wl.writes_per_second_cap)) +
         64;
}

IntInputs<uint32_t> GeneratePointHot(const Workload& wl, uint64_t seed,
                                     size_t schedule) {
  // Base rows, read misses and the write pool are disjoint, so every read
  // hits exactly half its keys at every version. Write cycle k inserts
  // pool batch B_k three times (duplicates, §3.6) and then deletes it,
  // which removes every copy: the table returns to its load after each
  // cycle. Three inserts to one delete keep the median and the 90th
  // percentile of write visibility each inside one mode of the two paths
  // (a delete merges several times slower than an insert).
  constexpr size_t kWriteBatches = 64;
  cssidx::Pcg32 rng(seed, 1);
  const size_t misses = static_cast<size_t>(wl.readers) * wl.read_pool *
                        kStatementKeys / 2;
  std::vector<uint32_t> all = DistinctValues<uint32_t>(
      wl.rows + misses + kWriteBatches * kStatementKeys, rng,
      [&] { return rng.Next(); });

  IntInputs<uint32_t> in;
  in.rows = wl.rows;
  in.load.assign(all.begin(), all.begin() + wl.rows);
  std::vector<uint32_t> sorted = in.load;
  std::sort(sorted.begin(), sorted.end());
  in.stream = std::make_shared<const std::vector<uint32_t>>(std::move(sorted));
  const uint32_t* miss = all.data() + wl.rows;
  const uint32_t* pool = miss + misses;

  in.reads = MakeReads<uint32_t>(
      wl, "FIND", rng,
      [&] { return in.load[rng.Below(static_cast<uint32_t>(wl.rows))]; },
      [&] { return miss[rng.Below(static_cast<uint32_t>(misses))]; });

  std::vector<std::vector<uint32_t>> batches(kWriteBatches);
  for (size_t b = 0; b < kWriteBatches; ++b) {
    batches[b].assign(pool + b * kStatementKeys,
                      pool + (b + 1) * kStatementKeys);
    std::sort(batches[b].begin(), batches[b].end());
  }
  for (size_t i = 0; i < schedule; ++i) {
    in.writes.push_back(
        MakeWrite(i % 4 != 3, batches[(i / 4) % kWriteBatches]));
  }
  return in;
}

IntInputs<uint64_t> GenerateWideCold(const Workload& wl, uint64_t seed,
                                     size_t schedule) {
  // A time-ordered key stream: key i is even and lies in
  // [2048 i, 2048 (i + 1)), so the stream is strictly increasing, passes
  // 2^32 a quarter of the way in, and odd numbers are never keys. The
  // table loads the first `rows` keys; write 2j appends the next 256
  // stream keys and write 2j + 1 retires the 256 oldest.
  cssidx::Pcg32 rng(seed, 2);
  const size_t inserts = (schedule + 1) / 2;
  const size_t retired = schedule / 2 * kStatementKeys;
  auto stream = std::make_shared<std::vector<uint64_t>>(
      wl.rows + inserts * kStatementKeys);
  for (size_t i = 0; i < stream->size(); ++i) {
    (*stream)[i] = 2 * (uint64_t{i} * 1024 + rng.Below(1024));
  }

  IntInputs<uint64_t> in;
  in.rows = wl.rows;
  in.stream = stream;
  // Hits come from keys no write in the schedule can retire.
  const auto hit_span = static_cast<uint32_t>(wl.rows - retired);
  in.reads = MakeReads<uint64_t>(
      wl, "FIND", rng,
      [&] { return (*stream)[retired + rng.Below(hit_span)]; },
      [&] {
        const uint64_t i = rng.Below(static_cast<uint32_t>(wl.rows));
        return 2 * (i * 1024 + rng.Below(1024)) + 1;
      });

  for (size_t i = 0; i < schedule; ++i) {
    const size_t j = i / 2;
    const size_t from =
        i % 2 == 0 ? wl.rows + j * kStatementKeys : j * kStatementKeys;
    in.writes.push_back(MakeWrite(
        i % 2 == 0,
        std::vector<uint64_t>(stream->begin() + from,
                              stream->begin() + from + kStatementKeys)));
  }
  return in;
}

StringInputs GenerateStringDss(const Workload& wl, uint64_t seed,
                               size_t schedule) {
  // Values are 12 random lowercase letters. The distinct base values, the
  // read misses and the fresh write values are disjoint; the fresh values
  // interleave with the base ones, so every dictionary growth renumbers.
  // Write cycle k: INSERT F_k (new to the dictionary: growth path),
  // DELETE F_k, INSERT F_k (now known: incremental path), DELETE F_k.
  cssidx::Pcg32 rng(seed, 3);
  const size_t misses = static_cast<size_t>(wl.readers) * wl.read_pool *
                        kStatementKeys / 2;
  const size_t cycles = (schedule + 3) / 4;
  std::vector<std::string> all = DistinctValues<std::string>(
      wl.distinct + misses + cycles * kStatementKeys, rng, [&] {
        std::string s(12, 'a');
        for (char& c : s) c = static_cast<char>('a' + rng.Below(26));
        return s;
      });
  const std::string* base = all.data();
  const std::string* miss = base + wl.distinct;
  const std::string* fresh = miss + misses;

  StringInputs in;
  // Every distinct value appears at least once; the rest of the rows pick
  // uniformly, so a value has 1 + Poisson(3) rows on average.
  in.load.assign(base, base + wl.distinct);
  for (size_t r = wl.distinct; r < wl.rows; ++r) {
    in.load.push_back(base[rng.Below(static_cast<uint32_t>(wl.distinct))]);
  }
  Shuffle(in.load, rng);
  std::vector<std::string> sorted = in.load;
  std::sort(sorted.begin(), sorted.end());
  auto counts =
      std::make_shared<std::vector<std::pair<std::string, uint32_t>>>();
  for (const std::string& v : sorted) {
    if (counts->empty() || counts->back().first != v) counts->emplace_back(v, 0);
    ++counts->back().second;
  }
  in.base_counts = counts;

  in.reads = MakeReads<std::string>(
      wl, "COUNT", rng,
      [&] { return base[rng.Below(static_cast<uint32_t>(wl.distinct))]; },
      [&] { return miss[rng.Below(static_cast<uint32_t>(misses))]; });

  for (size_t i = 0; i < schedule; ++i) {
    const std::string* f = fresh + (i / 4) * kStatementKeys;
    std::vector<std::string> values(f, f + kStatementKeys);
    std::sort(values.begin(), values.end());
    in.writes.push_back(MakeWrite(i % 2 == 0, std::move(values)));
  }
  return in;
}

}  // namespace stmtbench
