// One benchmark query, described once and rendered two ways: as SQL text for
// the program under test (parsed by its own front end) and as a plan-free
// description the benchmark's reference evaluator executes directly.
//
// The shape is the conjunctive select-join-aggregate the program's SQL
// dialect supports: FROM tables joined by column equalities, column-vs-
// literal filters, GROUP BY columns, and SUM/COUNT/MIN/MAX aggregates.

#ifndef PERFBENCH_QUERY_SPEC_H_
#define PERFBENCH_QUERY_SPEC_H_

#include <cctype>
#include <string>
#include <vector>

namespace perfbench {

/// A column qualified by its table (the benchmark never aliases tables).
struct Col {
  std::string table;
  std::string name;
  std::string Qualified() const { return table + "." + name; }
};

/// `col op literal`. `text` is the literal exactly as written into the SQL;
/// numeric literals are evaluated from that same text (strtod), so the
/// evaluator compares against the very double the program's parser reads.
struct Filter {
  Col col;
  std::string op;  ///< "=", "<", "<=", ">", ">="
  std::string text;
  bool is_string = false;
};

struct JoinEq {
  Col left;
  Col right;
};

struct Agg {
  std::string func;  ///< "sum", "count", "min", "max"
  Col arg;           ///< Ignored for count(*).
  /// The result-column name the program reports for this aggregate.
  std::string OutputName() const {
    return func == "count" ? "count(*)" : func + "(" + arg.Qualified() + ")";
  }
};

struct QuerySpec {
  std::vector<std::string> tables;  ///< FROM order = left-deep join order.
  std::vector<JoinEq> joins;
  std::vector<Filter> filters;
  std::vector<Col> group_by;
  std::vector<Agg> aggs;

  /// Result columns in the order the reference rows are laid out: GROUP BY
  /// columns, then aggregates.
  std::vector<std::string> OutputNames() const {
    std::vector<std::string> out;
    for (const auto& g : group_by) out.push_back(g.Qualified());
    for (const auto& a : aggs) out.push_back(a.OutputName());
    return out;
  }

  std::string ToSql() const {
    std::string sql = "SELECT ";
    bool first = true;
    auto item = [&](const std::string& s) {
      sql += first ? "" : ", ";
      sql += s;
      first = false;
    };
    for (const auto& g : group_by) item(g.Qualified());
    for (const auto& a : aggs) {
      std::string fn = a.func;
      for (auto& ch : fn) ch = static_cast<char>(std::toupper(ch));
      item(fn + "(" + (a.func == "count" ? "*" : a.arg.Qualified()) + ")");
    }
    sql += " FROM ";
    for (size_t i = 0; i < tables.size(); ++i) {
      sql += (i ? ", " : "") + tables[i];
    }
    std::string where;
    auto cond = [&](const std::string& s) {
      where += where.empty() ? " WHERE " : " AND ";
      where += s;
    };
    for (const auto& j : joins) {
      cond(j.left.Qualified() + " = " + j.right.Qualified());
    }
    for (const auto& f : filters) {
      cond(f.col.Qualified() + " " + f.op + " " +
           (f.is_string ? "'" + f.text + "'" : f.text));
    }
    sql += where;
    for (size_t i = 0; i < group_by.size(); ++i) {
      sql += (i ? ", " : " GROUP BY ") + group_by[i].Qualified();
    }
    return sql;
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_QUERY_SPEC_H_
