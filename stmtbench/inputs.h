#ifndef STMTBENCH_INPUTS_H_
#define STMTBENCH_INPUTS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

// The three workloads and their generated inputs. Everything a run sends
// to the server — the load, every read statement, every write statement —
// is generated here from the seed before any timing starts, together with
// the base state the oracle starts from.

namespace stmtbench {

enum class TableKind { kU32, kU64, kString };

struct Workload {
  const char* name;
  TableKind kind;
  const char* spec;          // IndexSpec grammar
  size_t rows;               // rows loaded at set-up
  size_t distinct;           // string tables: distinct values (else rows)
  int readers;               // closed-loop reader sessions
  size_t read_pool;          // distinct read statements per reader
  std::chrono::microseconds think;  // writer pause after each visible write
  int rounds;                // fresh servers per run; setup_s is the
                             // median of their set-up times
  int writes_per_second_cap; // sizes the pre-generated write schedule
};

/// nullptr for an unknown name.
const Workload* FindWorkload(std::string_view name);
/// "point_hot, wide_cold, string_dss".
std::string WorkloadNames();

inline constexpr size_t kStatementKeys = 256;
inline constexpr const char* kTable = "t";

/// One read statement: the text a session executes plus the operands the
/// checker needs (in statement order).
template <typename KeyT>
struct ReadStmt {
  std::string text;
  std::vector<KeyT> keys;
};

/// One write statement. `keys` is sorted and holds no duplicates.
template <typename KeyT>
struct WriteStmt {
  std::string text;
  bool insert = true;
  std::vector<KeyT> keys;
};

/// Integer tables. `stream` is sorted; the table loads `load` (point_hot:
/// the rows in random order) or, when `load` is empty, the time-ordered
/// prefix stream[0, rows) (wide_cold, whose appends continue the stream).
template <typename KeyT>
struct IntInputs {
  std::shared_ptr<const std::vector<KeyT>> stream;
  size_t rows = 0;
  std::vector<KeyT> load;
  std::vector<std::vector<ReadStmt<KeyT>>> reads;  // per reader
  std::vector<WriteStmt<KeyT>> writes;             // in send order

  std::vector<KeyT> LoadCopy() const {
    if (!load.empty()) return load;
    return std::vector<KeyT>(stream->begin(), stream->begin() + rows);
  }
};

/// String tables. `base_counts` (sorted by value) is the load's
/// value -> row count map.
struct StringInputs {
  std::vector<std::string> load;
  std::shared_ptr<const std::vector<std::pair<std::string, uint32_t>>>
      base_counts;
  std::vector<std::vector<ReadStmt<std::string>>> reads;
  std::vector<WriteStmt<std::string>> writes;

  std::vector<std::string> LoadCopy() const { return load; }
};

/// Writes at most seconds x cap + 64 statements can be sent in a run;
/// the schedule holds that many.
size_t WriteScheduleLength(const Workload& wl, double seconds);

IntInputs<uint32_t> GeneratePointHot(const Workload& wl, uint64_t seed,
                                     size_t schedule);
IntInputs<uint64_t> GenerateWideCold(const Workload& wl, uint64_t seed,
                                     size_t schedule);
StringInputs GenerateStringDss(const Workload& wl, uint64_t seed,
                               size_t schedule);

}  // namespace stmtbench

#endif  // STMTBENCH_INPUTS_H_
