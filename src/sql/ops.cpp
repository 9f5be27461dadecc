#include "sql/ops.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

namespace oda::sql {

Table filter(const Table& t, const ExprPtr& pred) {
  std::vector<std::size_t> keep;
  keep.reserve(t.num_rows() / 4);
  for (std::size_t i = 0; i < t.num_rows(); ++i) {
    const Value v = pred->eval(t, i);
    if (!v.is_null() && v.as_bool()) keep.push_back(i);
  }
  return t.take(keep);
}

Table project(const Table& t, std::span<const std::string> columns) {
  Schema schema;
  std::vector<Column> cols;
  cols.reserve(columns.size());
  for (const auto& name : columns) {
    const std::size_t i = t.col_index(name);
    schema.add(t.schema().field(i));
    cols.push_back(t.column(i));
  }
  return Table(std::move(schema), std::move(cols));
}

Table project(const Table& t, std::initializer_list<std::string> columns) {
  return project(t, std::span<const std::string>(columns.begin(), columns.size()));
}

Table with_column(const Table& t, const std::string& name, DataType type, const ExprPtr& e) {
  Schema schema = t.schema();
  schema.add({name, type});
  std::vector<Column> cols;
  cols.reserve(schema.size());
  for (std::size_t c = 0; c < t.num_columns(); ++c) cols.push_back(t.column(c));
  Column computed(type);
  computed.reserve(t.num_rows());
  for (std::size_t r = 0; r < t.num_rows(); ++r) computed.append(e->eval(t, r));
  cols.push_back(std::move(computed));
  return Table(std::move(schema), std::move(cols));
}

Table rename_column(const Table& t, const std::string& from, const std::string& to) {
  std::vector<Field> fields = t.schema().fields();
  fields[t.col_index(from)].name = to;
  std::vector<Column> cols;
  cols.reserve(t.num_columns());
  for (std::size_t c = 0; c < t.num_columns(); ++c) cols.push_back(t.column(c));
  return Table(Schema(std::move(fields)), std::move(cols));
}

Table sort_by(const Table& t, std::span<const SortKey> keys) {
  std::vector<std::size_t> key_cols;
  key_cols.reserve(keys.size());
  for (const auto& k : keys) key_cols.push_back(t.col_index(k.column));

  std::vector<std::size_t> idx(t.num_rows());
  std::iota(idx.begin(), idx.end(), 0);
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    for (std::size_t k = 0; k < keys.size(); ++k) {
      const Value va = t.column(key_cols[k]).get(a);
      const Value vb = t.column(key_cols[k]).get(b);
      if (va < vb) return keys[k].ascending;
      if (vb < va) return !keys[k].ascending;
    }
    return false;
  });
  return t.take(idx);
}

Table sort_by(const Table& t, std::initializer_list<SortKey> keys) {
  return sort_by(t, std::span<const SortKey>(keys.begin(), keys.size()));
}

Table limit(const Table& t, std::size_t n) {
  std::vector<std::size_t> idx(std::min(n, t.num_rows()));
  std::iota(idx.begin(), idx.end(), 0);
  return t.take(idx);
}

void encode_key(const Table& t, std::span<const std::size_t> key_cols, std::size_t i, std::string& out) {
  out.clear();
  for (std::size_t c : key_cols) {
    const Column& col = t.column(c);
    if (col.is_null(i)) {
      out.push_back('\x00');
      continue;
    }
    switch (col.type()) {
      case DataType::kInt64: {
        out.push_back('\x01');
        const std::int64_t v = col.int_at(i);
        out.append(reinterpret_cast<const char*>(&v), sizeof(v));
        break;
      }
      case DataType::kFloat64: {
        out.push_back('\x02');
        const double v = col.double_at(i);
        out.append(reinterpret_cast<const char*>(&v), sizeof(v));
        break;
      }
      case DataType::kString: {
        out.push_back('\x03');
        const std::string& s = col.str_at(i);
        const std::uint32_t n = static_cast<std::uint32_t>(s.size());
        out.append(reinterpret_cast<const char*>(&n), sizeof(n));
        out.append(s);
        break;
      }
      case DataType::kBool:
        out.push_back(col.bool_at(i) ? '\x05' : '\x04');
        break;
      case DataType::kNull:
        out.push_back('\x00');
        break;
    }
  }
}

Table distinct(const Table& t, std::span<const std::string> keys) {
  std::vector<std::size_t> key_cols;
  key_cols.reserve(keys.size());
  for (const auto& k : keys) key_cols.push_back(t.col_index(k));

  std::unordered_map<std::string, bool> seen;
  std::vector<std::size_t> keep;
  std::string buf;
  for (std::size_t i = 0; i < t.num_rows(); ++i) {
    encode_key(t, key_cols, i, buf);
    if (seen.try_emplace(buf, true).second) keep.push_back(i);
  }
  return t.take(keep);
}

Table hash_join(const Table& left, const Table& right, std::span<const std::string> keys, JoinType type,
                const std::string& suffix) {
  std::vector<std::size_t> lkeys, rkeys;
  for (const auto& k : keys) {
    lkeys.push_back(left.col_index(k));
    rkeys.push_back(right.col_index(k));
  }

  // Output schema: all left columns + right non-key columns (renamed on
  // collision).
  Schema schema = left.schema();
  std::vector<std::size_t> right_cols;
  for (std::size_t c = 0; c < right.num_columns(); ++c) {
    if (std::find(rkeys.begin(), rkeys.end(), c) != rkeys.end()) continue;
    Field f = right.schema().field(c);
    if (schema.contains(f.name)) f.name += suffix;
    schema.add(f);
    right_cols.push_back(c);
  }

  // Build side: right.
  std::unordered_map<std::string, std::vector<std::size_t>> build;
  build.reserve(right.num_rows());
  std::string buf;
  for (std::size_t i = 0; i < right.num_rows(); ++i) {
    encode_key(right, rkeys, i, buf);
    build[buf].push_back(i);
  }

  Table out(schema);
  std::vector<Value> row(schema.size());
  for (std::size_t i = 0; i < left.num_rows(); ++i) {
    encode_key(left, lkeys, i, buf);
    const auto it = build.find(buf);
    if (it == build.end()) {
      if (type == JoinType::kLeft) {
        std::size_t c = 0;
        for (; c < left.num_columns(); ++c) row[c] = left.column(c).get(i);
        for (std::size_t rc = 0; rc < right_cols.size(); ++rc) row[c + rc] = Value::null();
        out.append_row(row);
      }
      continue;
    }
    for (std::size_t j : it->second) {
      std::size_t c = 0;
      for (; c < left.num_columns(); ++c) row[c] = left.column(c).get(i);
      for (std::size_t rc = 0; rc < right_cols.size(); ++rc) row[c + rc] = right.column(right_cols[rc]).get(j);
      out.append_row(row);
    }
  }
  return out;
}

Table hash_join(const Table& left, const Table& right, std::initializer_list<std::string> keys, JoinType type,
                const std::string& suffix) {
  return hash_join(left, right, std::span<const std::string>(keys.begin(), keys.size()), type, suffix);
}

Table concat(std::span<const Table> tables) {
  if (tables.empty()) return Table{};
  Table out(tables.front().schema());
  std::size_t rows = 0;
  for (const auto& t : tables) rows += t.num_rows();
  out.reserve(rows);
  for (const auto& t : tables) out.append_table(t);
  return out;
}

}  // namespace oda::sql
