#include "reference.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <tuple>
#include <unordered_map>

namespace perfbench {

namespace {

uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t HashNumber(double d) {
  if (d == 0.0) d = 0.0;  // -0 and +0 are the same value
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return Mix64(bits ^ 0x6e756d6265720000ull);
}

uint64_t HashString(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ull;
  return Mix64(h ^ 0x7374720000000000ull);
}

uint64_t CombineCell(uint64_t row, uint64_t cell) {
  return Mix64(row * 0x9e3779b97f4a7c15ull + cell);
}

void AddRow(uint64_t row_hash, BagDigest* d) {
  ++d->rows;
  d->sum += row_hash;
  d->sum_mixed += Mix64(row_hash ^ 0x5bd1e9955bd1e995ull);
}

bool Compare(double a, const std::string& op, double b) {
  if (op == "=") return a == b;
  if (op == "<") return a < b;
  if (op == "<=") return a <= b;
  if (op == ">") return a > b;
  return a >= b;
}

bool Compare(const std::string& a, const std::string& op,
             const std::string& b) {
  if (op == "=") return a == b;
  if (op == "<") return a < b;
  if (op == "<=") return a <= b;
  if (op == ">") return a > b;
  return a >= b;
}

/// Appends one cell to a hash/group key.
void AppendKey(const RefDb::Column& col, uint32_t row, std::string* key) {
  if (col.is_string) {
    const std::string& s = col.strs[row];
    const uint32_t n = static_cast<uint32_t>(s.size());
    key->append(reinterpret_cast<const char*>(&n), sizeof(n));
    key->append(s);
  } else {
    double d = col.nums[row];
    if (d == 0.0) d = 0.0;
    key->append(reinterpret_cast<const char*>(&d), sizeof(d));
  }
}

uint64_t HashCell(const RefDb::Column& col, uint32_t row) {
  return col.is_string ? HashString(col.strs[row])
                       : HashNumber(col.nums[row]);
}

}  // namespace

bool DigestResult(const QuerySpec& spec, const mqo::NamedRows& result,
                  BagDigest* out) {
  std::vector<size_t> order;
  for (const auto& name : spec.OutputNames()) {
    size_t idx = result.columns.size();
    for (size_t i = 0; i < result.columns.size(); ++i) {
      if (result.columns[i].ToString() == name) idx = i;
    }
    if (idx == result.columns.size()) return false;
    order.push_back(idx);
  }
  BagDigest d;
  for (const auto& row : result.rows) {
    uint64_t h = 0;
    for (size_t idx : order) {
      const mqo::Value& v = row[idx];
      h = CombineCell(h, v.is_number() ? HashNumber(v.number())
                                       : HashString(v.str()));
    }
    AddRow(h, &d);
  }
  *out = d;
  return true;
}

RefDb RefDb::Decode(const mqo::DataSet& data,
                    const std::vector<std::string>& tables) {
  RefDb db;
  for (const auto& name : tables) {
    const mqo::ColumnStore* store = data.GetTable(name).ValueOrDie();
    Table t;
    t.rows = store->num_rows();
    for (size_t c = 0; c < store->num_columns(); ++c) {
      const mqo::ColumnVector& v = store->column(c);
      Column col;
      col.is_string = v.type() == mqo::VecType::kString;
      for (size_t r = 0; r < t.rows; ++r) {
        if (col.is_string) {
          col.strs.push_back(v.StringAt(r));
        } else if (v.type() == mqo::VecType::kInt64) {
          col.nums.push_back(static_cast<double>(v.Int64At(r)));
        } else {
          col.nums.push_back(v.doubles()[r]);
        }
      }
      t.columns[store->name(c)] = std::move(col);
    }
    db.tables_[name] = std::move(t);
  }
  return db;
}

const RefDb::Table& RefDb::table(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    throw std::runtime_error("reference: table not decoded: " + name);
  }
  return it->second;
}

RefAnswer Evaluate(const QuerySpec& spec, const RefDb& db,
                   const std::map<std::string, size_t>& row_limits) {
  RefAnswer answer;
  const size_t nt = spec.tables.size();
  auto table_index = [&](const Col& c) {
    for (size_t i = 0; i < nt; ++i) {
      if (spec.tables[i] == c.table) return i;
    }
    throw std::runtime_error("reference: column of unlisted table " +
                             c.Qualified());
  };
  auto column = [&](const Col& c) -> const RefDb::Column& {
    const auto& cols = db.table(c.table).columns;
    auto it = cols.find(c.name);
    if (it == cols.end()) {
      throw std::runtime_error("reference: unknown column " + c.Qualified());
    }
    return it->second;
  };

  // Scan + filter every table.
  std::vector<std::vector<uint32_t>> candidates(nt);
  for (size_t t = 0; t < nt; ++t) {
    const RefDb::Table& table = db.table(spec.tables[t]);
    size_t limit = table.rows;
    auto lim = row_limits.find(spec.tables[t]);
    if (lim != row_limits.end()) limit = std::min(limit, lim->second);
    std::vector<const Filter*> filters;
    for (const auto& f : spec.filters) {
      if (f.col.table == spec.tables[t]) filters.push_back(&f);
    }
    for (uint32_t r = 0; r < limit; ++r) {
      bool keep = true;
      for (const Filter* f : filters) {
        const RefDb::Column& col = column(f->col);
        keep = col.is_string
                   ? Compare(col.strs[r], f->op, f->text)
                   : Compare(col.nums[r], f->op,
                             std::strtod(f->text.c_str(), nullptr));
        if (!keep) break;
      }
      if (keep) candidates[t].push_back(r);
    }
  }

  // Left-deep hash joins in FROM order; a tuple is one row id per table.
  size_t width = 1;
  std::vector<uint32_t> tuples = candidates[0];
  for (size_t t = 1; t < nt; ++t) {
    // (earlier table index, earlier column, column of table t)
    std::vector<std::tuple<size_t, const RefDb::Column*, const RefDb::Column*>>
        keys;
    for (const auto& j : spec.joins) {
      const size_t li = table_index(j.left);
      const size_t ri = table_index(j.right);
      if (ri == t && li < t) keys.emplace_back(li, &column(j.left), &column(j.right));
      if (li == t && ri < t) keys.emplace_back(ri, &column(j.right), &column(j.left));
    }
    if (keys.empty()) {
      answer.error = "reference: no join condition for " + spec.tables[t];
      return answer;
    }
    std::unordered_map<std::string, std::vector<uint32_t>> build;
    std::string key;
    for (uint32_t r : candidates[t]) {
      key.clear();
      for (const auto& k : keys) AppendKey(*std::get<2>(k), r, &key);
      build[key].push_back(r);
    }
    std::vector<uint32_t> next;
    for (size_t i = 0; i < tuples.size(); i += width) {
      key.clear();
      for (const auto& k : keys) {
        AppendKey(*std::get<1>(k), tuples[i + std::get<0>(k)], &key);
      }
      auto it = build.find(key);
      if (it == build.end()) continue;
      for (uint32_t r : it->second) {
        next.insert(next.end(), tuples.begin() + i, tuples.begin() + i + width);
        next.push_back(r);
      }
    }
    tuples = std::move(next);
    ++width;
  }

  // Hash group-by.
  struct Group {
    size_t first_tuple = 0;  ///< Tuple offset supplying the group values.
    std::vector<double> acc;
  };
  std::vector<std::pair<size_t, const RefDb::Column*>> group_cols;
  for (const auto& g : spec.group_by) {
    group_cols.emplace_back(table_index(g), &column(g));
  }
  std::vector<std::pair<size_t, const RefDb::Column*>> agg_cols;
  for (const auto& a : spec.aggs) {
    if (a.func == "count") {
      agg_cols.emplace_back(0, nullptr);
    } else {
      agg_cols.emplace_back(table_index(a.arg), &column(a.arg));
    }
  }
  std::unordered_map<std::string, size_t> group_index;
  std::vector<Group> groups;
  std::string key;
  for (size_t i = 0; i < tuples.size(); i += width) {
    key.clear();
    for (const auto& [t, col] : group_cols) AppendKey(*col, tuples[i + t], &key);
    auto [it, fresh] = group_index.emplace(key, groups.size());
    if (fresh) {
      Group g;
      g.first_tuple = i;
      g.acc.assign(spec.aggs.size(), 0.0);
      for (size_t a = 0; a < spec.aggs.size(); ++a) {
        if (spec.aggs[a].func == "min" || spec.aggs[a].func == "max") {
          g.acc[a] = agg_cols[a].second->nums[tuples[i + agg_cols[a].first]];
        }
      }
      groups.push_back(std::move(g));
    }
    Group& g = groups[it->second];
    for (size_t a = 0; a < spec.aggs.size(); ++a) {
      const std::string& fn = spec.aggs[a].func;
      if (fn == "count") {
        g.acc[a] += 1.0;
        continue;
      }
      const double v = agg_cols[a].second->nums[tuples[i + agg_cols[a].first]];
      if (fn == "sum") g.acc[a] += v;
      if (fn == "min") g.acc[a] = std::min(g.acc[a], v);
      if (fn == "max") g.acc[a] = std::max(g.acc[a], v);
    }
  }
  if (groups.empty()) {
    answer.error = "reference: query has no input rows";
    return answer;
  }
  for (const Group& g : groups) {
    uint64_t h = 0;
    for (const auto& [t, col] : group_cols) {
      h = CombineCell(h, HashCell(*col, tuples[g.first_tuple + t]));
    }
    for (double v : g.acc) h = CombineCell(h, HashNumber(v));
    AddRow(h, &answer.digest);
  }
  return answer;
}

}  // namespace perfbench
