#include "sql/agg.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "common/stats.hpp"
#include "sql/expr.hpp"
#include "sql/ops.hpp"

namespace oda::sql {
namespace {

bool needs_samples(AggKind k) { return k == AggKind::kP50 || k == AggKind::kP95 || k == AggKind::kP99; }

/// Per-group, per-aggregate accumulator.
struct AggState {
  double sum = 0.0;
  double sumsq = 0.0;
  std::size_t count = 0;
  double min = 0.0;
  double max = 0.0;
  Value first;
  Value last;
  std::vector<double> samples;                 // only for quantiles
  std::unordered_set<std::string> distincts;   // only for count-distinct

  void add(const Value& v, AggKind kind) {
    if (v.is_null()) return;
    if (kind == AggKind::kCountDistinct) {
      distincts.insert(v.to_string());
      ++count;
      return;
    }
    if (kind == AggKind::kFirst) {
      if (count == 0) first = v;
      ++count;
      return;
    }
    if (kind == AggKind::kLast) {
      last = v;
      ++count;
      return;
    }
    if (kind == AggKind::kCount) {
      ++count;
      return;
    }
    add_number(v.as_double(), kind);
  }

  /// A non-null numeric input of a numeric aggregate (count included).
  void add_number(double x, AggKind kind) {
    if (kind == AggKind::kCount) {
      ++count;
      return;
    }
    if (count == 0) {
      min = max = x;
    } else {
      min = std::min(min, x);
      max = std::max(max, x);
    }
    sum += x;
    sumsq += x * x;
    ++count;
    if (needs_samples(kind)) samples.push_back(x);
  }

  Value result(AggKind kind) const {
    switch (kind) {
      case AggKind::kCount: return Value(static_cast<std::int64_t>(count));
      case AggKind::kCountDistinct: return Value(static_cast<std::int64_t>(distincts.size()));
      case AggKind::kFirst: return first;
      case AggKind::kLast: return last;
      default: break;
    }
    if (count == 0) return Value::null();
    switch (kind) {
      case AggKind::kSum: return Value(sum);
      case AggKind::kMean: return Value(sum / static_cast<double>(count));
      case AggKind::kMin: return Value(min);
      case AggKind::kMax: return Value(max);
      case AggKind::kStd: {
        if (count < 2) return Value(0.0);
        const double n = static_cast<double>(count);
        const double var = std::max(0.0, (sumsq - sum * sum / n) / (n - 1));
        return Value(std::sqrt(var));
      }
      case AggKind::kP50: return Value(common::exact_quantile(samples, 0.50));
      case AggKind::kP95: return Value(common::exact_quantile(samples, 0.95));
      case AggKind::kP99: return Value(common::exact_quantile(samples, 0.99));
      default: throw std::logic_error("unreachable");
    }
  }
};

DataType output_type(const Table& t, const AggSpec& spec) {
  switch (spec.kind) {
    case AggKind::kCount:
    case AggKind::kCountDistinct:
      return DataType::kInt64;
    case AggKind::kFirst:
    case AggKind::kLast:
      return t.schema().field(t.col_index(spec.column)).type;
    default:
      return DataType::kFloat64;
  }
}

std::string output_name(const AggSpec& spec) {
  if (!spec.output_name.empty()) return spec.output_name;
  if (spec.column.empty()) return agg_name(spec.kind);
  return std::string(agg_name(spec.kind)) + "_" + spec.column;
}

}  // namespace

const char* agg_name(AggKind k) {
  switch (k) {
    case AggKind::kSum: return "sum";
    case AggKind::kMean: return "mean";
    case AggKind::kMin: return "min";
    case AggKind::kMax: return "max";
    case AggKind::kCount: return "count";
    case AggKind::kCountDistinct: return "count_distinct";
    case AggKind::kFirst: return "first";
    case AggKind::kLast: return "last";
    case AggKind::kStd: return "std";
    case AggKind::kP50: return "p50";
    case AggKind::kP95: return "p95";
    case AggKind::kP99: return "p99";
  }
  return "?";
}

Table group_by(const Table& t, std::span<const std::string> keys, std::span<const AggSpec> aggs) {
  std::vector<std::size_t> key_cols;
  key_cols.reserve(keys.size());
  for (const auto& k : keys) key_cols.push_back(t.col_index(k));

  // Numeric aggregates over int64/float64 columns read the typed column;
  // first/last/count_distinct and other input types go through Value.
  enum class Input { kStar, kTyped, kBoxed };
  std::vector<Input> inputs;
  std::vector<const Column*> agg_cols;
  inputs.reserve(aggs.size());
  agg_cols.reserve(aggs.size());
  for (const auto& a : aggs) {
    if (a.column.empty() && a.kind == AggKind::kCount) {
      inputs.push_back(Input::kStar);
      agg_cols.push_back(nullptr);
      continue;
    }
    const Column& col = t.column(t.col_index(a.column));
    const bool numeric_col = col.type() == DataType::kInt64 || col.type() == DataType::kFloat64;
    const bool numeric_agg =
        a.kind != AggKind::kFirst && a.kind != AggKind::kLast && a.kind != AggKind::kCountDistinct;
    inputs.push_back(numeric_col && numeric_agg ? Input::kTyped : Input::kBoxed);
    agg_cols.push_back(&col);
  }

  std::unordered_map<std::string, std::size_t> index;
  std::vector<std::size_t> exemplars;  // first row of each group, in first-seen order
  std::vector<std::vector<AggState>> states;
  std::string buf;
  for (std::size_t i = 0; i < t.num_rows(); ++i) {
    encode_key(t, key_cols, i, buf);
    auto [it, inserted] = index.try_emplace(buf, exemplars.size());
    if (inserted) {
      exemplars.push_back(i);
      states.emplace_back(aggs.size());
    }
    std::vector<AggState>& g = states[it->second];
    for (std::size_t a = 0; a < aggs.size(); ++a) {
      switch (inputs[a]) {
        case Input::kStar: g[a].add_number(1.0, aggs[a].kind); break;
        case Input::kTyped:
          if (!agg_cols[a]->is_null(i)) g[a].add_number(agg_cols[a]->double_at(i), aggs[a].kind);
          break;
        case Input::kBoxed: g[a].add(agg_cols[a]->get(i), aggs[a].kind); break;
      }
    }
  }

  Schema schema;
  std::vector<Column> cols;
  cols.reserve(keys.size() + aggs.size());
  for (std::size_t kc : key_cols) {
    schema.add(t.schema().field(kc));
    cols.emplace_back(t.column(kc).type()).append_from(t.column(kc), exemplars);
  }
  for (std::size_t a = 0; a < aggs.size(); ++a) {
    schema.add({output_name(aggs[a]), output_type(t, aggs[a])});
    Column& out = cols.emplace_back(schema.fields().back().type);
    out.reserve(states.size());
    for (const auto& g : states) out.append(g[a].result(aggs[a].kind));
  }
  return Table(std::move(schema), std::move(cols));
}

Table group_by(const Table& t, std::initializer_list<std::string> keys, std::initializer_list<AggSpec> aggs) {
  return group_by(t, std::span<const std::string>(keys.begin(), keys.size()),
                  std::span<const AggSpec>(aggs.begin(), aggs.size()));
}

Table window_aggregate(const Table& t, const std::string& time_column, common::Duration window,
                       std::span<const std::string> keys, std::span<const AggSpec> aggs,
                       const std::string& window_col) {
  const std::size_t tc = t.col_index(time_column);
  // Derive the window-start column without going through the expression
  // tree (this is the hottest Bronze→Silver path): typed column copies
  // plus one computed int64 column.
  Schema schema = t.schema();
  schema.add({window_col, DataType::kInt64});
  std::vector<Column> cols;
  cols.reserve(schema.size());
  for (std::size_t c = 0; c < t.num_columns(); ++c) cols.push_back(t.column(c));
  const Column& time_col = t.column(tc);
  Column& starts = cols.emplace_back(DataType::kInt64);
  starts.reserve(t.num_rows());
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    if (time_col.is_null(r)) {
      starts.append_null();
    } else {
      starts.append_int(common::window_start(time_col.int_at(r), window));
    }
  }
  const Table with_window(std::move(schema), std::move(cols));

  std::vector<std::string> all_keys;
  all_keys.reserve(keys.size() + 1);
  all_keys.push_back(window_col);
  all_keys.insert(all_keys.end(), keys.begin(), keys.end());
  return group_by(with_window, all_keys, aggs);
}

Table pivot_wider(const Table& t, std::span<const std::string> index_cols, const std::string& names_from,
                  const std::string& values_from) {
  std::vector<std::size_t> idx_cols;
  idx_cols.reserve(index_cols.size());
  for (const auto& c : index_cols) idx_cols.push_back(t.col_index(c));
  const std::size_t name_col = t.col_index(names_from);
  const std::size_t value_col = t.col_index(values_from);
  if (t.column(name_col).type() != DataType::kString) {
    throw std::invalid_argument("pivot_wider: names_from must be a string column");
  }

  // Stable output schema: sorted distinct names.
  std::vector<std::string> names;
  {
    std::unordered_set<std::string> seen;
    for (std::size_t i = 0; i < t.num_rows(); ++i) {
      if (t.column(name_col).is_null(i)) continue;
      const std::string& n = t.column(name_col).str_at(i);
      if (seen.insert(n).second) names.push_back(n);
    }
    std::sort(names.begin(), names.end());
  }
  std::unordered_map<std::string, std::size_t> name_index;
  for (std::size_t i = 0; i < names.size(); ++i) name_index[names[i]] = i;

  struct Cell {
    double sum = 0.0;
    std::size_t count = 0;
  };
  struct PivotRow {
    std::size_t exemplar_row;
    std::vector<Cell> cells;
  };
  std::unordered_map<std::string, std::size_t> row_index;
  std::vector<PivotRow> rows;
  std::string buf;
  for (std::size_t i = 0; i < t.num_rows(); ++i) {
    encode_key(t, idx_cols, i, buf);
    auto [it, inserted] = row_index.try_emplace(buf, rows.size());
    if (inserted) rows.push_back(PivotRow{i, std::vector<Cell>(names.size())});
    if (t.column(name_col).is_null(i) || t.column(value_col).is_null(i)) continue;
    Cell& cell = rows[it->second].cells[name_index.at(t.column(name_col).str_at(i))];
    cell.sum += t.column(value_col).double_at(i);
    cell.count += 1;
  }

  Schema schema;
  for (std::size_t k = 0; k < index_cols.size(); ++k) schema.add(t.schema().field(idx_cols[k]));
  for (const auto& n : names) schema.add({n, DataType::kFloat64});

  Table out(schema);
  out.reserve(rows.size());
  std::vector<Value> row(schema.size());
  for (const auto& pr : rows) {
    std::size_t c = 0;
    for (std::size_t ic : idx_cols) row[c++] = t.column(ic).get(pr.exemplar_row);
    for (const auto& cell : pr.cells) {
      row[c++] = cell.count ? Value(cell.sum / static_cast<double>(cell.count)) : Value::null();
    }
    out.append_row(row);
  }
  return out;
}

Table pivot_wider(const Table& t, std::initializer_list<std::string> index_cols, const std::string& names_from,
                  const std::string& values_from) {
  return pivot_wider(t, std::span<const std::string>(index_cols.begin(), index_cols.size()), names_from,
                     values_from);
}

Table pivot_longer(const Table& t, std::span<const std::string> id_cols, const std::string& name_col,
                   const std::string& value_col) {
  std::vector<std::size_t> ids;
  ids.reserve(id_cols.size());
  for (const auto& c : id_cols) ids.push_back(t.col_index(c));

  std::vector<std::size_t> melt;
  for (std::size_t c = 0; c < t.num_columns(); ++c) {
    if (std::find(ids.begin(), ids.end(), c) != ids.end()) continue;
    const DataType ty = t.column(c).type();
    if (ty == DataType::kFloat64 || ty == DataType::kInt64) melt.push_back(c);
  }

  Schema schema;
  for (std::size_t i : ids) schema.add(t.schema().field(i));
  schema.add({name_col, DataType::kString});
  schema.add({value_col, DataType::kFloat64});

  Table out(schema);
  out.reserve(t.num_rows() * melt.size());
  std::vector<Value> row(schema.size());
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    for (std::size_t m : melt) {
      std::size_t c = 0;
      for (std::size_t i : ids) row[c++] = t.column(i).get(r);
      row[c++] = Value(t.schema().field(m).name);
      row[c++] = t.column(m).is_null(r) ? Value::null() : Value(t.column(m).double_at(r));
      out.append_row(row);
    }
  }
  return out;
}

}  // namespace oda::sql
