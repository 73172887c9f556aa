// The benchmark's three workloads: generated data plus one round — the fixed
// sequence of steps a run repeats. The data comes from one fixed seed; the
// round's batches are drawn from the --seed argument.
//
//   dashboard_burst  few hundred queries per batch from four templates per
//                    date window, 500-row tables, 1 thread: the optimizer
//                    (parse, memo, greedy selection) dominates.
//   report_scan      ten TPC-D-shaped queries per batch (Q1/Q3/Q5/Q6/Q10
//                    shapes, two windows each) over 20k-row tables,
//                    2 threads: execution dominates.
//   session_refresh  one MqoSession per round serves small recurring-template
//                    batches; every sixth batch is followed by an append to
//                    `orders` plus InvalidateTable, and the shared segment
//                    cache runs under a budget below the round's distinct
//                    segment bytes, so it evicts, spills and reloads.
//
// Every literal is drawn from the generated data's own domains, so every
// query returns rows.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "exec/dataset.h"
#include "query_spec.h"

namespace perfbench {

/// One step of a round: a query batch, or (session_refresh) an append of
/// `append_slice` to the write table followed by MqoSession::InvalidateTable.
struct Step {
  bool write = false;
  int append_slice = -1;
  std::vector<QuerySpec> specs;
  std::vector<std::string> sql;
  /// Rows per table as of this step (tables that never change are absent):
  /// the reference evaluator reads these prefixes of the final tables.
  std::map<std::string, size_t> row_limits;
  /// The second batch of a near-literal pair (see README): its literals
  /// differ from the previous batch's only past the third decimal, so the
  /// cross-batch cache serves it the previous batch's segment.
  bool known_fault = false;
};

struct Workload {
  std::string name;
  int threads = 1;
  bool session = false;
  int rows = 0;        ///< DataGenOptions::max_rows_per_table
  int domain_cap = 0;  ///< DataGenOptions::domain_cap
  size_t cache_budget_bytes = 0;  ///< Shared segment cache budget; 0 = none.
  mqo::Catalog catalog;           ///< The TPC-D tables the workload reads.
  mqo::DataSet data;
  std::vector<Step> steps;  ///< One round.
  /// session_refresh: the appended table, its rows before the first append,
  /// and the slices appended in round order.
  std::string write_table;
  mqo::ColumnStore write_table_original;
  std::vector<mqo::ColumnStore> slices;

  int batches_per_round() const;
  int queries_per_round() const;
};

/// `table` with every row of `slice` appended (same schema), recompressed.
/// Column-wise rather than through ColumnStore::AppendRows, which infers
/// column types from the row values and so rejects the integer-valued
/// doubles generated data holds.
mqo::ColumnStore AppendSlice(const mqo::ColumnStore& table,
                             const mqo::ColumnStore& slice);

/// Builds workload `name`, its batches drawn from `seed`. `small` builds the
/// same templates over tiny tables, for cross-checking the reference
/// evaluator against the row interpreter. Throws std::invalid_argument for
/// an unknown name.
Workload MakeWorkload(const std::string& name, uint64_t seed,
                      bool small = false);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
