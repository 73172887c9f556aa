#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

#include "catalog/tpcd.h"
#include "common/rng.h"

namespace perfbench {

namespace {

using mqo::Rng;

/// Seed of the database and of session_refresh's appended rows, whatever
/// --seed is. As with TPC-D's own generator at a fixed scale factor, the data
/// is fixed and --seed draws the query parameters: windows, literals and
/// their mix. Seeded 500-row tables moved dashboard_burst's mqo_benefit by 9%
/// from seed to seed; on fixed tables the query draws move it by 0.1%. It
/// also keeps the inputs of the near-literal pairs, which read only supplier
/// and nation, the same in every run.
constexpr uint64_t kDataSeed = 0x51ed5eedull;

Col C(const std::string& table, const std::string& name) { return {table, name}; }

std::string Int(double v) { return std::to_string(static_cast<long long>(v)); }

Filter F(const std::string& table, const std::string& name,
         const std::string& op, const std::string& text) {
  return Filter{C(table, name), op, text, false};
}

Filter FStr(const std::string& table, const std::string& name,
            const std::string& value) {
  return Filter{C(table, name), "=", value, true};
}

JoinEq J(const std::string& lt, const std::string& lc, const std::string& rt,
         const std::string& rc) {
  return JoinEq{C(lt, lc), C(rt, rc)};
}

Agg Sum(const std::string& table, const std::string& name) {
  return Agg{"sum", C(table, name)};
}
Agg Count() { return Agg{"count", {}}; }

mqo::Catalog SubCatalog(const std::vector<std::string>& tables) {
  const mqo::Catalog full = mqo::MakeTpcdCatalog(1);
  mqo::Catalog out;
  for (const auto& t : tables) {
    (void)out.AddTable(*full.GetTable(t).ValueOrDie());
  }
  return out;
}

mqo::DataSet Generate(const mqo::Catalog& catalog, int rows, int cap,
                      uint64_t seed) {
  mqo::DataGenOptions gen;
  gen.max_rows_per_table = rows;
  gen.domain_cap = cap;
  gen.seed = seed;
  gen.numeric_compression = 1;
  return mqo::GenerateData(catalog, gen);
}

const mqo::ColumnVector& Column(const mqo::DataSet& data,
                                const std::string& table,
                                const std::string& name) {
  const mqo::ColumnStore* store = data.GetTable(table).ValueOrDie();
  return store->column(static_cast<size_t>(store->ColumnIndex(name)));
}

/// [min, max] of a numeric column of the generated data.
std::pair<double, double> Range(const mqo::DataSet& data,
                                const std::string& table,
                                const std::string& name) {
  const mqo::ColumnVector& col = Column(data, table, name);
  double lo = col.Number(0), hi = col.Number(0);
  for (size_t i = 1; i < col.size(); ++i) {
    lo = std::min(lo, col.Number(i));
    hi = std::max(hi, col.Number(i));
  }
  return {lo, hi};
}

/// The value of a random row of a string column.
std::string PickString(const mqo::DataSet& data, const std::string& table,
                       const std::string& name, Rng* rng) {
  const mqo::ColumnVector& col = Column(data, table, name);
  return col.StringAt(static_cast<size_t>(rng->NextInt(static_cast<int>(col.size()))));
}

/// A window start in [lo, hi - width], drawn from the middle half of stratum
/// `slot` of `slots` equal strata. Stratified draws keep every batch's mix of
/// window overlaps — and so its optimizer and executor work — alike from
/// seed to seed, while the literals themselves still vary with the seed.
double WindowStart(std::pair<double, double> range, double width, int slot,
                   int slots, Rng* rng) {
  const double free = std::max(0.0, range.second - width - range.first);
  return std::floor(range.first + free * (slot + 0.25 + 0.5 * rng->NextDouble()) /
                                      slots);
}

void AddBatch(std::vector<QuerySpec> specs, Workload* w, bool known_fault = false,
              std::map<std::string, size_t> row_limits = {}) {
  Step step;
  step.specs = std::move(specs);
  for (const auto& s : step.specs) step.sql.push_back(s.ToSql());
  step.known_fault = known_fault;
  step.row_limits = std::move(row_limits);
  w->steps.push_back(std::move(step));
}

// ---- dashboard templates (shared by dashboard_burst and session_refresh) ----

/// Windowed orders ⋈ lineitem, the core templates 0 and 1 share.
QuerySpec OrderLineitemCore(double d, double width) {
  QuerySpec q;
  q.tables = {"orders", "lineitem"};
  q.joins = {J("orders", "o_orderkey", "lineitem", "l_orderkey")};
  q.filters = {F("orders", "o_orderdate", ">=", Int(d)),
               F("orders", "o_orderdate", "<", Int(d + width))};
  return q;
}

/// Query `t` of a window starting at `order_d` (orders) / `ship_d`
/// (lineitem): templates 0..3 are the dashboard's, 4 and 5 two more readers
/// of the orders ⋈ lineitem core.
QuerySpec DashboardQuery(int t, double order_d, double order_w, double ship_d,
                         double ship_w) {
  QuerySpec q;
  switch (t) {
    case 0:  // revenue per customer key over the window
      q = OrderLineitemCore(order_d, order_w);
      q.group_by = {C("orders", "o_custkey")};
      q.aggs = {Sum("lineitem", "l_extendedprice")};
      break;
    case 1:  // the same core joined up to customer, grouped per order
      q = OrderLineitemCore(order_d, order_w);
      q.tables.push_back("customer");
      q.joins.push_back(J("orders", "o_custkey", "customer", "c_custkey"));
      q.group_by = {C("lineitem", "l_orderkey")};
      q.aggs = {Sum("lineitem", "l_extendedprice")};
      break;
    case 4:  // the core's daily order count and revenue
      q = OrderLineitemCore(order_d, order_w);
      q.group_by = {C("orders", "o_orderdate")};
      q.aggs = {Count(), Sum("lineitem", "l_extendedprice")};
      break;
    case 5:  // the core joined up to customer, per customer nation
      q = OrderLineitemCore(order_d, order_w);
      q.tables.push_back("customer");
      q.joins.push_back(J("orders", "o_custkey", "customer", "c_custkey"));
      q.group_by = {C("customer", "c_nationkey")};
      q.aggs = {Sum("lineitem", "l_quantity")};
      break;
    case 2:  // Q6 shape: scalar aggregate over the windowed lineitem
      q.tables = {"lineitem"};
      q.filters = {F("lineitem", "l_shipdate", ">=", Int(ship_d)),
                   F("lineitem", "l_shipdate", "<", Int(ship_d + ship_w)),
                   F("lineitem", "l_quantity", "<", "24")};
      q.aggs = {Sum("lineitem", "l_extendedprice"), Count()};
      break;
    default:  // windowed lineitem ⋈ supplier per nation (Q9 flavour)
      q.tables = {"lineitem", "supplier"};
      q.joins = {J("lineitem", "l_suppkey", "supplier", "s_suppkey")};
      q.filters = {F("lineitem", "l_shipdate", ">=", Int(ship_d)),
                   F("lineitem", "l_shipdate", "<", Int(ship_d + ship_w))};
      q.group_by = {C("supplier", "s_nationkey")};
      q.aggs = {Sum("lineitem", "l_extendedprice")};
      break;
  }
  return q;
}

struct DashboardWindows {
  std::pair<double, double> order_range, ship_range;
  double order_w = 0, ship_w = 0;
};

/// Windows covering `order_share` of the order dates and a fifth of the
/// ship dates.
DashboardWindows DashboardDomains(const mqo::DataSet& data, double order_share) {
  DashboardWindows d;
  d.order_range = Range(data, "orders", "o_orderdate");
  d.ship_range = Range(data, "lineitem", "l_shipdate");
  d.order_w = std::max(
      1.0, (d.order_range.second - d.order_range.first) * order_share);
  d.ship_w = std::max(1.0, (d.ship_range.second - d.ship_range.first) / 5);
  return d;
}

void BuildDashboard(Workload* w, Rng* rng) {
  constexpr int kBatchesPerRound = 16;
  constexpr int kWindows = 32;
  constexpr int kQueries = 256;  // each window's 4 templates appear twice
  const DashboardWindows dom = DashboardDomains(w->data, 1.0 / 16);
  for (int b = 0; b < kBatchesPerRound; ++b) {
    std::vector<std::pair<double, double>> windows;
    for (int k = 0; k < kWindows; ++k) {
      windows.emplace_back(
          WindowStart(dom.order_range, dom.order_w, k, kWindows, rng),
          WindowStart(dom.ship_range, dom.ship_w, k, kWindows, rng));
    }
    std::vector<QuerySpec> specs;
    for (int i = 0; i < kQueries; ++i) {
      const auto& win = windows[(i / 4) % kWindows];
      specs.push_back(
          DashboardQuery(i % 4, win.first, dom.order_w, win.second, dom.ship_w));
    }
    AddBatch(std::move(specs), w);
  }
}

// ---- report_scan ------------------------------------------------------------

void BuildReport(Workload* w, Rng* rng) {
  constexpr int kBatchesPerRound = 16;
  const mqo::DataSet& data = w->data;
  const auto ship = Range(data, "lineitem", "l_shipdate");
  const auto order = Range(data, "orders", "o_orderdate");
  const double ship_span = ship.second - ship.first;
  const double order_span = order.second - order.first;
  for (int b = 0; b < kBatchesPerRound; ++b) {
    // One market segment, region and return flag per batch; the two
    // variants of each shape differ in their date constants only.
    const std::string segment = PickString(data, "customer", "c_mktsegment", rng);
    const std::string region = PickString(data, "region", "r_name", rng);
    const std::string flag = PickString(data, "lineitem", "l_returnflag", rng);
    std::vector<QuerySpec> specs;
    for (int v = 0; v < 2; ++v) {
      {  // Q1: pricing summary over a shipdate prefix
        QuerySpec q;
        q.tables = {"lineitem"};
        const double d = std::floor(ship.second - ship_span * (0.1 + 0.05 * rng->NextDouble()));
        q.filters = {F("lineitem", "l_shipdate", "<=", Int(d))};
        q.group_by = {C("lineitem", "l_returnflag"), C("lineitem", "l_linestatus")};
        q.aggs = {Sum("lineitem", "l_quantity"), Sum("lineitem", "l_extendedprice"),
                  Count()};
        specs.push_back(q);
      }
      {  // Q3: shipping priority, customer ⋈ orders ⋈ lineitem
        QuerySpec q;
        q.tables = {"customer", "orders", "lineitem"};
        q.joins = {J("customer", "c_custkey", "orders", "o_custkey"),
                   J("orders", "o_orderkey", "lineitem", "l_orderkey")};
        const double d = std::floor(
            order.first + order_span * (0.35 + 0.15 * (v + 0.25 + 0.5 * rng->NextDouble())));
        q.filters = {FStr("customer", "c_mktsegment", segment),
                     F("orders", "o_orderdate", "<", Int(d)),
                     F("lineitem", "l_shipdate", ">", Int(d))};
        q.group_by = {C("lineitem", "l_orderkey"), C("orders", "o_orderdate"),
                      C("orders", "o_shippriority")};
        q.aggs = {Sum("lineitem", "l_extendedprice")};
        specs.push_back(q);
      }
      {  // Q5: local supplier volume, six-way join restricted to a region
        QuerySpec q;
        q.tables = {"customer", "orders", "lineitem", "supplier", "nation", "region"};
        q.joins = {J("customer", "c_custkey", "orders", "o_custkey"),
                   J("lineitem", "l_orderkey", "orders", "o_orderkey"),
                   J("lineitem", "l_suppkey", "supplier", "s_suppkey"),
                   J("customer", "c_nationkey", "supplier", "s_nationkey"),
                   J("supplier", "s_nationkey", "nation", "n_nationkey"),
                   J("nation", "n_regionkey", "region", "r_regionkey")};
        const double width = order_span * 2 / 7;  // two of seven years
        const double d = WindowStart(order, width, v, 2, rng);
        q.filters = {FStr("region", "r_name", region),
                     F("orders", "o_orderdate", ">=", Int(d)),
                     F("orders", "o_orderdate", "<", Int(d + width))};
        q.group_by = {C("nation", "n_name")};
        q.aggs = {Sum("lineitem", "l_extendedprice")};
        specs.push_back(q);
      }
      {  // Q6: forecast revenue, selective scalar aggregate
        QuerySpec q;
        q.tables = {"lineitem"};
        const double width = ship_span / 7;
        const double d = WindowStart(ship, width, v, 2, rng);
        q.filters = {F("lineitem", "l_shipdate", ">=", Int(d)),
                     F("lineitem", "l_shipdate", "<", Int(d + width)),
                     F("lineitem", "l_quantity", "<", "24")};
        q.aggs = {Sum("lineitem", "l_extendedprice"), Count()};
        specs.push_back(q);
      }
      {  // Q10: returned items per customer over a quarter
        QuerySpec q;
        q.tables = {"customer", "orders", "lineitem", "nation"};
        q.joins = {J("customer", "c_custkey", "orders", "o_custkey"),
                   J("lineitem", "l_orderkey", "orders", "o_orderkey"),
                   J("customer", "c_nationkey", "nation", "n_nationkey")};
        const double width = order_span / 14;
        const double d = WindowStart(order, width, v, 2, rng);
        q.filters = {F("orders", "o_orderdate", ">=", Int(d)),
                     F("orders", "o_orderdate", "<", Int(d + width)),
                     FStr("lineitem", "l_returnflag", flag)};
        q.group_by = {C("customer", "c_custkey"), C("customer", "c_name"),
                      C("nation", "n_name")};
        q.aggs = {Sum("lineitem", "l_extendedprice")};
        specs.push_back(q);
      }
    }
    AddBatch(std::move(specs), w);
  }
}

// ---- session_refresh --------------------------------------------------------

/// supplier ⋈ nation under `s_acctbal < literal`: the two queries of one
/// near-literal batch (a group-by and a scalar aggregate sharing the
/// filtered join).
std::vector<QuerySpec> AcctbalBatch(const std::string& literal) {
  QuerySpec q;
  q.tables = {"supplier", "nation"};
  q.joins = {J("supplier", "s_nationkey", "nation", "n_nationkey")};
  q.filters = {F("supplier", "s_acctbal", "<", literal)};
  q.aggs = {Count(), Sum("supplier", "s_acctbal")};
  QuerySpec grouped = q;
  grouped.group_by = {C("nation", "n_name")};
  return {grouped, q};
}

/// The smallest s_acctbal value >= `from` held by a supplier row that joins
/// a nation row, so that rows sit exactly on the pair's boundary.
double BoundaryValue(const mqo::DataSet& data, double from) {
  const mqo::ColumnVector& nkey = Column(data, "nation", "n_nationkey");
  std::set<int64_t> nations;
  for (size_t i = 0; i < nkey.size(); ++i) nations.insert(nkey.Int64At(i));
  const mqo::ColumnVector& bal = Column(data, "supplier", "s_acctbal");
  const mqo::ColumnVector& snat = Column(data, "supplier", "s_nationkey");
  double best = -1;
  for (size_t i = 0; i < bal.size(); ++i) {
    const double v = bal.Number(i);
    if (v >= std::max(from, 1.0) && nations.count(snat.Int64At(i)) > 0 &&
        (best < 0 || v < best)) {
      best = v;
    }
  }
  if (best < 0) throw std::runtime_error("no boundary value for the pair");
  return best;
}

void BuildSession(Workload* w, Rng* rng) {
  constexpr int kBatches = 36;     // template batches per round
  constexpr int kWindows = 6;      // recurring windows
  constexpr int kWriteEvery = 6;   // an append follows every 6th batch ...
  constexpr int kWrites = 5;       // ... but the last
  constexpr int kPairEvery = 12;   // a near-literal pair follows batch 7, 19, 31
  const int slice_rows = std::max(1, w->rows / 20);

  w->write_table = "orders";
  w->write_table_original = *w->data.GetTable("orders").ValueOrDie();
  for (int s = 0; s < kWrites; ++s) {
    mqo::DataSet slice = Generate(SubCatalog({"orders"}), slice_rows,
                                  w->domain_cap, kDataSeed + 1 + s);
    w->slices.push_back(*slice.GetTable("orders").ValueOrDie());
  }

  const DashboardWindows dom = DashboardDomains(w->data, 1.0 / 16);
  std::vector<std::pair<double, double>> windows;
  for (int k = 0; k < kWindows; ++k) {
    windows.emplace_back(
        WindowStart(dom.order_range, dom.order_w, k, kWindows, rng),
        WindowStart(dom.ship_range, dom.ship_w, k, kWindows, rng));
  }
  const auto bal = Range(w->data, "supplier", "s_acctbal");
  std::vector<double> pair_values;
  for (int p = 0; p < kBatches / kPairEvery; ++p) {
    const double share = (p + 1.0) / (kBatches / kPairEvery + 1);
    pair_values.push_back(
        BoundaryValue(w->data, bal.first + share * (bal.second - bal.first)));
  }

  size_t orders_rows = w->write_table_original.num_rows();
  int writes = 0;
  for (int b = 0; b < kBatches; ++b) {
    // One recurring window per batch: four readers of its orders ⋈ lineitem
    // core and two of its lineitem window, so materializing the cores is
    // clearly worth it; the window comes back every kWindows batches.
    const auto& win = windows[b % kWindows];
    std::vector<QuerySpec> specs;
    for (int t = 0; t < 6; ++t) {
      specs.push_back(
          DashboardQuery(t, win.first, dom.order_w, win.second, dom.ship_w));
    }
    AddBatch(std::move(specs), w, false, {{"orders", orders_rows}});
    if (b % kPairEvery == 7) {
      // Near-literal pair: v.0004 then (v-1).9996 — equal to three decimals.
      const long long v = static_cast<long long>(pair_values[b / kPairEvery]);
      AddBatch(AcctbalBatch(std::to_string(v) + ".0004"), w);
      AddBatch(AcctbalBatch(std::to_string(v - 1) + ".9996"), w,
               /*known_fault=*/true);
    }
    if (b % kWriteEvery == kWriteEvery - 1 && writes < kWrites) {
      Step write;
      write.write = true;
      write.append_slice = writes++;
      orders_rows += w->slices[write.append_slice].num_rows();
      w->steps.push_back(std::move(write));
    }
  }
}

}  // namespace

mqo::ColumnStore AppendSlice(const mqo::ColumnStore& table,
                             const mqo::ColumnStore& slice) {
  mqo::ColumnStore out;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    mqo::ColumnVector col = table.column(c);  // COW: the original stays intact
    col.AppendAll(slice.column(c));
    (void)out.AddColumn(table.name(c), std::move(col));
  }
  out.Compress(/*numeric_compression=*/true);
  return out;
}

int Workload::batches_per_round() const {
  int n = 0;
  for (const auto& s : steps) n += s.write ? 0 : 1;
  return n;
}

int Workload::queries_per_round() const {
  int n = 0;
  for (const auto& s : steps) n += static_cast<int>(s.sql.size());
  return n;
}

Workload MakeWorkload(const std::string& name, uint64_t seed, bool small) {
  Workload w;
  w.name = name;
  Rng rng(seed);
  std::vector<std::string> tables;
  if (name == "dashboard_burst") {
    w.threads = 1;
    w.rows = w.domain_cap = 500;
    tables = {"orders", "lineitem", "customer", "supplier"};
  } else if (name == "report_scan") {
    w.threads = 2;
    w.rows = w.domain_cap = 20000;
    tables = {"customer", "orders", "lineitem", "supplier", "nation", "region"};
  } else if (name == "session_refresh") {
    w.threads = 1;
    w.session = true;
    w.rows = w.domain_cap = 10000;
    w.cache_budget_bytes = 256 * 1024;
    tables = {"orders", "lineitem", "customer", "supplier", "nation"};
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  if (small) w.rows = w.domain_cap = 300;
  w.catalog = SubCatalog(tables);
  w.data = Generate(w.catalog, w.rows, w.domain_cap, kDataSeed);
  if (name == "dashboard_burst") BuildDashboard(&w, &rng);
  if (name == "report_scan") BuildReport(&w, &rng);
  if (name == "session_refresh") BuildSession(&w, &rng);
  return w;
}

}  // namespace perfbench
