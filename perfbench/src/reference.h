// The benchmark's own answer checker: an evaluator for QuerySpec written
// independently — plain scans, hash joins and hash group-bys over the
// generated columns — sharing no execution code with either of the
// program's engines.
//
// Answers are compared as bag digests: every row hashes to 64 bits (cells in
// the QuerySpec's output order), and a bag is (row count, sum of row hashes,
// sum of re-mixed row hashes). The digest is order-independent, so it
// matches a canonicalized result regardless of row order, and it is small
// enough to keep for every query of every timed batch.

#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exec/dataset.h"
#include "query_spec.h"
#include "storage/named_rows.h"

namespace perfbench {

struct BagDigest {
  uint64_t rows = 0;
  uint64_t sum = 0;
  uint64_t sum_mixed = 0;
  bool operator==(const BagDigest& o) const {
    return rows == o.rows && sum == o.sum && sum_mixed == o.sum_mixed;
  }
  bool operator!=(const BagDigest& o) const { return !(*this == o); }
};

/// Digest of one program result, its columns reordered to `spec`'s output
/// names. Fails (returns false) when a named column is missing.
bool DigestResult(const QuerySpec& spec, const mqo::NamedRows& result,
                  BagDigest* out);

/// Decoded copy of the tables the evaluator reads: numbers as double
/// (generated data is integer-valued, so sums are exact), strings as
/// std::string.
class RefDb {
 public:
  /// Decodes every column of `tables` from `data`.
  static RefDb Decode(const mqo::DataSet& data,
                      const std::vector<std::string>& tables);

  struct Column {
    bool is_string = false;
    std::vector<double> nums;
    std::vector<std::string> strs;
  };
  struct Table {
    size_t rows = 0;
    std::map<std::string, Column> columns;
  };
  const Table& table(const std::string& name) const;

 private:
  std::map<std::string, Table> tables_;
};

struct RefAnswer {
  BagDigest digest;
  std::string error;  ///< Non-empty when the spec cannot be evaluated.
};

/// Evaluates `spec` over the first `row_limits[t]` rows of each table t
/// (tables absent from the map are read whole) — how the benchmark checks
/// answers against an earlier version of an append-only table.
RefAnswer Evaluate(const QuerySpec& spec, const RefDb& db,
                   const std::map<std::string, size_t>& row_limits = {});

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
