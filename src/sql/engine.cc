#include "sql/engine.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <limits>
#include <utility>

#include "query/scan_kernel.h"
#include "sql/parser.h"

namespace segdiff {
namespace sql {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Bounds collected for one column from the WHERE conjunction.
struct ColumnBounds {
  double lower = -kInf;
  bool lower_inclusive = true;
  double upper = kInf;
  bool upper_inclusive = true;
  bool any = false;
};

ColumnBounds BoundsFor(const std::vector<WhereClause>& where, size_t column,
                       const TableSchema& schema) {
  ColumnBounds bounds;
  for (const WhereClause& clause : where) {
    auto idx = schema.ColumnIndex(clause.column);
    if (!idx.ok() || *idx != column) {
      continue;
    }
    bounds.any = true;
    // Interval intersection. On a strict tightening the new clause's
    // inclusivity wins; on a tie the stricter (exclusive) side wins.
    auto tighten_upper = [&bounds](double value, bool inclusive) {
      if (value < bounds.upper) {
        bounds.upper = value;
        bounds.upper_inclusive = inclusive;
      } else if (value == bounds.upper && !inclusive) {
        bounds.upper_inclusive = false;
      }
    };
    auto tighten_lower = [&bounds](double value, bool inclusive) {
      if (value > bounds.lower) {
        bounds.lower = value;
        bounds.lower_inclusive = inclusive;
      } else if (value == bounds.lower && !inclusive) {
        bounds.lower_inclusive = false;
      }
    };
    switch (clause.op) {
      case CmpOp::kEq:
        tighten_lower(clause.value, true);
        tighten_upper(clause.value, true);
        break;
      case CmpOp::kLt:
        tighten_upper(clause.value, false);
        break;
      case CmpOp::kLe:
        tighten_upper(clause.value, true);
        break;
      case CmpOp::kGt:
        tighten_lower(clause.value, false);
        break;
      case CmpOp::kGe:
        tighten_lower(clause.value, true);
        break;
    }
  }
  return bounds;
}

std::string ValueToString(const Value& value) {
  if (value.type == ColumnType::kInt64) {
    return std::to_string(value.i);
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", value.d);
  return buf;
}

/// Matches `SET statement_timeout_ms = <n>` (case-insensitive keywords,
/// optional trailing semicolon). Returns true and fills `*out` on match.
/// The session command never reaches the SQL parser — it is engine
/// state, not a statement over tables.
bool ParseSetStatementTimeout(const std::string& text, uint64_t* out) {
  size_t pos = 0;
  auto skip_space = [&] {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  };
  auto eat_word = [&](const char* word) {
    const size_t len = std::strlen(word);
    if (text.size() - pos < len) return false;
    for (size_t i = 0; i < len; ++i) {
      if (std::tolower(static_cast<unsigned char>(text[pos + i])) !=
          word[i]) {
        return false;
      }
    }
    pos += len;
    return true;
  };
  skip_space();
  if (!eat_word("set")) return false;
  skip_space();
  if (!eat_word("statement_timeout_ms")) return false;
  skip_space();
  if (pos >= text.size() || text[pos] != '=') return false;
  ++pos;
  skip_space();
  uint64_t value = 0;
  bool any_digit = false;
  while (pos < text.size() &&
         std::isdigit(static_cast<unsigned char>(text[pos]))) {
    value = value * 10 + static_cast<uint64_t>(text[pos] - '0');
    any_digit = true;
    ++pos;
  }
  if (!any_digit) return false;
  skip_space();
  if (pos < text.size() && text[pos] == ';') {
    ++pos;
    skip_space();
  }
  if (pos != text.size()) return false;
  *out = value;
  return true;
}

}  // namespace

Result<QueryResult> Engine::Execute(const std::string& statement) {
  uint64_t timeout_ms = 0;
  if (ParseSetStatementTimeout(statement, &timeout_ms)) {
    statement_timeout_ms_ = timeout_ms;
    return QueryResult{};
  }
  SEGDIFF_ASSIGN_OR_RETURN(Statement parsed, Parse(statement));
  return Execute(parsed);
}

QueryContext Engine::StatementContext() const {
  QueryContext ctx = injected_ctx_;
  if (statement_timeout_ms_ > 0) {
    ctx.deadline = Deadline::Earlier(
        ctx.deadline, Deadline::AfterMillis(statement_timeout_ms_));
  }
  return ctx;
}

Result<QueryResult> Engine::Execute(const Statement& statement) {
  switch (statement.kind) {
    case StatementKind::kCreateTable:
      return ExecuteCreateTable(statement.create_table);
    case StatementKind::kCreateIndex:
      return ExecuteCreateIndex(statement.create_index);
    case StatementKind::kInsert:
      return ExecuteInsert(statement.insert);
    case StatementKind::kSelect:
      return ExecuteSelect(statement.select, statement.explain);
    case StatementKind::kDelete:
      return ExecuteDelete(statement.del);
    case StatementKind::kShowTables:
      return ExecuteShowTables();
    case StatementKind::kDescribe:
      return ExecuteDescribe(statement.describe);
  }
  return Status::Internal("unknown statement kind");
}

Result<QueryResult> Engine::ExecuteCreateTable(const CreateTableStmt& stmt) {
  std::vector<Column> columns;
  for (const ColumnDef& def : stmt.columns) {
    columns.push_back(Column{def.name, def.type});
  }
  SEGDIFF_ASSIGN_OR_RETURN(TableSchema schema,
                           TableSchema::Create(std::move(columns)));
  SEGDIFF_RETURN_IF_ERROR(
      db_->CreateTable(stmt.table, std::move(schema)).status());
  return QueryResult{};
}

Result<QueryResult> Engine::ExecuteCreateIndex(const CreateIndexStmt& stmt) {
  SEGDIFF_ASSIGN_OR_RETURN(Table * table, db_->GetTable(stmt.table));
  SEGDIFF_RETURN_IF_ERROR(
      table->CreateIndex(stmt.index, stmt.columns).status());
  if (db_->wal() != nullptr) {
    // The index build is not WAL-logged; checkpoint so the catalog
    // registers it durably before any logged inserts reference it.
    SEGDIFF_RETURN_IF_ERROR(db_->Checkpoint());
  }
  return QueryResult{};
}

Result<QueryResult> Engine::ExecuteInsert(const InsertStmt& stmt) {
  SEGDIFF_ASSIGN_OR_RETURN(Table * table, db_->GetTable(stmt.table));
  QueryResult result;
  for (const std::vector<double>& values : stmt.rows) {
    if (values.size() != table->schema().num_columns()) {
      return Status::InvalidArgument("INSERT arity mismatch for table " +
                                     stmt.table);
    }
    Row row;
    row.reserve(values.size());
    for (size_t i = 0; i < values.size(); ++i) {
      if (table->schema().column(i).type == ColumnType::kInt64) {
        row.push_back(Value::Int64(static_cast<int64_t>(values[i])));
      } else {
        row.push_back(Value::Double(values[i]));
      }
    }
    SEGDIFF_RETURN_IF_ERROR(table->Insert(row).status());
    ++result.rows_affected;
  }
  return result;
}

Result<QueryResult> Engine::ExecuteSelect(const SelectStmt& stmt,
                                          bool explain_only) {
  SEGDIFF_ASSIGN_OR_RETURN(Table * table, db_->GetTable(stmt.table));
  const TableSchema& schema = table->schema();
  // Stores written before zone maps existed rebuild theirs on first
  // query; fresh tables maintain them incrementally (no-op here).
  SEGDIFF_RETURN_IF_ERROR(table->EnsureZoneMap());

  // Aggregate bookkeeping (COUNT(*) handled via `matched`).
  const bool value_aggregate = stmt.aggregate != Aggregate::kNone &&
                               stmt.aggregate != Aggregate::kCount;
  size_t aggregate_idx = 0;
  if (value_aggregate) {
    SEGDIFF_ASSIGN_OR_RETURN(aggregate_idx,
                             schema.ColumnIndex(stmt.aggregate_column));
    if (schema.column(aggregate_idx).type != ColumnType::kDouble) {
      return Status::NotSupported("aggregate on non-DOUBLE column " +
                                  stmt.aggregate_column);
    }
  }

  // Output projection.
  QueryResult result;
  std::vector<size_t> projection;
  if (stmt.count) {
    result.columns = {"count"};
  } else if (value_aggregate) {
    static const char* kNames[] = {"", "count", "min", "max", "avg", "sum"};
    result.columns = {std::string(
                          kNames[static_cast<int>(stmt.aggregate)]) +
                      "(" + stmt.aggregate_column + ")"};
  } else if (stmt.star) {
    for (const Column& column : schema.columns()) {
      result.columns.push_back(column.name);
      projection.push_back(projection.size());
    }
  } else {
    for (const std::string& name : stmt.columns) {
      SEGDIFF_ASSIGN_OR_RETURN(size_t idx, schema.ColumnIndex(name));
      result.columns.push_back(name);
      projection.push_back(idx);
    }
  }

  // Full predicate: every WHERE conjunct (also validates column names
  // and rejects comparisons on BIGINT columns, which indexes and the
  // double-typed predicate layer do not support).
  Predicate predicate;
  for (const WhereClause& clause : stmt.where) {
    SEGDIFF_ASSIGN_OR_RETURN(size_t idx, schema.ColumnIndex(clause.column));
    if (schema.column(idx).type != ColumnType::kDouble) {
      return Status::NotSupported("WHERE on non-DOUBLE column " +
                                  clause.column);
    }
    predicate.And(idx, clause.op, clause.value);
  }

  std::optional<size_t> order_column;
  if (stmt.order_by.has_value()) {
    SEGDIFF_ASSIGN_OR_RETURN(size_t idx,
                             schema.ColumnIndex(stmt.order_by->column));
    order_column = idx;
  }

  // Rule-based access path: use an index whose leading column has an
  // upper bound in the WHERE clause (the shape of the paper's range
  // queries); otherwise scan.
  const TableIndex* chosen = nullptr;
  ColumnBounds chosen_bounds;
  for (const TableIndex& index : table->indexes()) {
    const ColumnBounds bounds =
        BoundsFor(stmt.where, index.key_columns[0], schema);
    if (bounds.any && bounds.upper < kInf) {
      chosen = &index;
      chosen_bounds = bounds;
      break;
    }
  }

  if (explain_only) {
    std::string zone_label = "zone map: none";
    if (const ZoneMap* zone_map = table->zone_map()) {
      const ZoneSurvey survey =
          SurveyZones(*zone_map, predicate.conditions());
      zone_label = "zone map: " + std::to_string(survey.zones_surviving) +
                   "/" + std::to_string(survey.zones_total) +
                   " pages match";
    }
    // Per-format storage breakdown: a compacted table answers most of
    // the query from compressed columnar segments, and the plan should
    // say so (pages read, compression ratio, segment-level pruning).
    const Table::FormatBreakdown breakdown = table->GetFormatBreakdown();
    std::string format_label =
        "format: row pages=" + std::to_string(breakdown.row_pages) +
        " rows=" + std::to_string(breakdown.row_rows) +
        "; columnar segments=" + std::to_string(breakdown.columnar_segments) +
        " pages=" + std::to_string(breakdown.columnar_pages) +
        " rows=" + std::to_string(breakdown.columnar_rows);
    std::string compression_label = "compression: none (pure row format)";
    if (breakdown.columnar_encoded_bytes > 0) {
      const double ratio =
          static_cast<double>(breakdown.columnar_logical_bytes) /
          static_cast<double>(breakdown.columnar_encoded_bytes);
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    "compression: encoded=%llu logical=%llu ratio=%.2fx",
                    static_cast<unsigned long long>(
                        breakdown.columnar_encoded_bytes),
                    static_cast<unsigned long long>(
                        breakdown.columnar_logical_bytes),
                    ratio);
      compression_label = buf;
    }
    std::string segment_label = "segment dir: none";
    if (const ColumnStore* columnar = table->columnar()) {
      const ColumnarSurvey survey =
          SurveyColumnarSegments(*columnar, predicate.conditions());
      segment_label =
          "segment dir: " + std::to_string(survey.segments_surviving) + "/" +
          std::to_string(survey.segments_total) + " segments match";
    }
    result.columns = {"plan"};
    result.rows.assign(7, Row{});
    result.row_labels = {
        std::string("table ") + stmt.table + " (" +
            std::to_string(table->row_count()) + " rows)",
        chosen != nullptr ? "access: index_scan(" + chosen->name + ")"
                          : "access: seq_scan",
        "residual conjuncts: " + std::to_string(stmt.where.size()),
        std::move(zone_label),
        std::move(format_label),
        std::move(compression_label),
        std::move(segment_label),
    };
    result.access_path = "explain";
    return result;
  }

  uint64_t matched = 0;
  double agg_min = kInf;
  double agg_max = -kInf;
  double agg_sum = 0.0;
  std::vector<Row> rows;
  const bool need_rows =
      (!stmt.count && !value_aggregate) || order_column.has_value();
  auto collect = [&](const char* record, RecordId) -> Status {
    ++matched;
    if (value_aggregate) {
      const double v = DecodeDoubleColumn(record, aggregate_idx);
      agg_min = std::min(agg_min, v);
      agg_max = std::max(agg_max, v);
      agg_sum += v;
    }
    if (need_rows) {
      rows.push_back(DecodeRow(schema, record));
    }
    return Status::OK();
  };

  // Statement governance: the session timeout (and any injected cancel
  // token) bounds the scan below; checks happen at page granularity.
  const QueryContext ctx = StatementContext();
  SEGDIFF_RETURN_IF_ERROR(ctx.Check());

  if (chosen != nullptr) {
    result.access_path = "index_scan(" + chosen->name + ")";
    IndexScanSpec spec;
    spec.context = &ctx;
    // Quarantined pages degrade to a flagged partial result (see
    // QueryResult::partial) rather than failing the statement.
    spec.skip_quarantined = true;
    spec.index = chosen->tree.get();
    IndexKey lower;
    for (int i = 0; i < kMaxIndexArity; ++i) {
      lower.vals[i] = -kInf;
    }
    lower.vals[0] = chosen_bounds.lower;
    lower.rid = 0;
    spec.lower = lower;
    const double upper = chosen_bounds.upper;
    const bool upper_inclusive = chosen_bounds.upper_inclusive;
    spec.key_continue = [upper, upper_inclusive](const IndexKey& key) {
      return upper_inclusive ? key.vals[0] <= upper : key.vals[0] < upper;
    };
    SEGDIFF_RETURN_IF_ERROR(IndexScan(*table, spec, predicate, collect,
                                      &result.scan_stats));
  } else {
    result.access_path = "seq_scan";
    SeqScanOptions scan_options;
    scan_options.context = &ctx;
    scan_options.skip_quarantined = true;
    SEGDIFF_RETURN_IF_ERROR(SeqScan(*table, predicate, collect,
                                    &result.scan_stats, scan_options));
  }
  result.partial = result.scan_stats.pages_quarantined > 0 ||
                   result.scan_stats.rows_quarantined > 0;

  if (order_column.has_value()) {
    const size_t column = *order_column;
    const bool ascending = stmt.order_by->ascending;
    std::stable_sort(rows.begin(), rows.end(),
                     [column, ascending](const Row& a, const Row& b) {
                       const double x = a[column].type == ColumnType::kInt64
                                            ? static_cast<double>(a[column].i)
                                            : a[column].d;
                       const double y = b[column].type == ColumnType::kInt64
                                            ? static_cast<double>(b[column].i)
                                            : b[column].d;
                       return ascending ? x < y : x > y;
                     });
  }
  if (stmt.limit.has_value() && rows.size() > *stmt.limit) {
    rows.resize(*stmt.limit);
  }

  if (stmt.count) {
    // LIMIT applies to result rows; COUNT(*) yields one row regardless.
    result.rows.push_back({Value::Int64(static_cast<int64_t>(matched))});
    return result;
  }
  if (value_aggregate) {
    if (matched == 0 && stmt.aggregate != Aggregate::kSum) {
      return result;  // MIN/MAX/AVG of nothing: empty result set
    }
    double out = 0.0;
    switch (stmt.aggregate) {
      case Aggregate::kMin:
        out = agg_min;
        break;
      case Aggregate::kMax:
        out = agg_max;
        break;
      case Aggregate::kAvg:
        out = agg_sum / static_cast<double>(matched);
        break;
      case Aggregate::kSum:
        out = agg_sum;
        break;
      case Aggregate::kNone:
      case Aggregate::kCount:
        return Status::Internal("unexpected aggregate");
    }
    result.rows.push_back({Value::Double(out)});
    return result;
  }

  result.rows.reserve(rows.size());
  for (Row& row : rows) {
    Row projected;
    projected.reserve(projection.size());
    for (size_t idx : projection) {
      projected.push_back(row[idx]);
    }
    result.rows.push_back(std::move(projected));
  }
  return result;
}

Result<QueryResult> Engine::ExecuteDelete(const DeleteStmt& stmt) {
  SEGDIFF_ASSIGN_OR_RETURN(Table * table, db_->GetTable(stmt.table));
  const TableSchema& schema = table->schema();
  Predicate predicate;
  for (const WhereClause& clause : stmt.where) {
    SEGDIFF_ASSIGN_OR_RETURN(size_t idx, schema.ColumnIndex(clause.column));
    if (schema.column(idx).type != ColumnType::kDouble) {
      return Status::NotSupported("WHERE on non-DOUBLE column " +
                                  clause.column);
    }
    predicate.And(idx, clause.op, clause.value);
  }
  QueryResult result;
  SEGDIFF_ASSIGN_OR_RETURN(result.rows_affected,
                           table->DeleteWhere(predicate));
  if (db_->wal() != nullptr) {
    // DeleteWhere rewrites the heap without logging the rewrite, which
    // invalidates the ordinals of every logged row append; checkpoint
    // (flush + log truncate) before anything else can crash-recover
    // against the compacted table.
    SEGDIFF_RETURN_IF_ERROR(db_->Checkpoint());
  }
  result.access_path = "rewrite";
  return result;
}

Result<QueryResult> Engine::ExecuteShowTables() {
  QueryResult result;
  result.columns = {"table", "rows", "indexes"};
  for (const auto& table : db_->tables()) {
    result.row_labels.push_back(table->name());
    result.rows.push_back(
        {Value::Int64(static_cast<int64_t>(table->row_count())),
         Value::Int64(static_cast<int64_t>(table->indexes().size()))});
  }
  return result;
}

Result<QueryResult> Engine::ExecuteDescribe(const DescribeStmt& stmt) {
  SEGDIFF_ASSIGN_OR_RETURN(Table * table, db_->GetTable(stmt.table));
  QueryResult result;
  result.columns = {"column", "type"};
  for (const Column& column : table->schema().columns()) {
    result.row_labels.push_back(column.name + " " +
                                (column.type == ColumnType::kDouble
                                     ? "DOUBLE"
                                     : "BIGINT"));
    result.rows.push_back({});
  }
  for (const TableIndex& index : table->indexes()) {
    std::string label = "index " + index.name + " (";
    for (size_t i = 0; i < index.key_columns.size(); ++i) {
      if (i > 0) label += ", ";
      label += table->schema().column(index.key_columns[i]).name;
    }
    label += ")";
    result.row_labels.push_back(std::move(label));
    result.rows.push_back({});
  }
  return result;
}

std::string FormatResult(const QueryResult& result) {
  std::string out;
  if (!result.access_path.empty()) {
    out += "-- " + result.access_path + "\n";
  }
  // A scan ran (seq or index): report what pruning + evaluation did.
  const ScanStats& stats = result.scan_stats;
  if (stats.rows_scanned + stats.rows_pruned + stats.pages_scanned +
          stats.pages_pruned >
      0) {
    out += "-- pages scanned=" + std::to_string(stats.pages_scanned) +
           " pruned=" + std::to_string(stats.pages_pruned) +
           ", rows scanned=" + std::to_string(stats.rows_scanned) +
           " pruned=" + std::to_string(stats.rows_pruned) + "\n";
  }
  if (result.partial) {
    out += "-- WARNING: partial result (" +
           std::to_string(stats.pages_quarantined) +
           " quarantined pages skipped, >=" +
           std::to_string(stats.rows_quarantined) + " rows unreadable)\n";
  }
  if (result.columns.empty()) {
    out += "ok";
    if (result.rows_affected > 0) {
      out += " (" + std::to_string(result.rows_affected) + " rows)";
    }
    out += "\n";
    return out;
  }
  for (size_t i = 0; i < result.columns.size(); ++i) {
    if (i > 0) out += " | ";
    out += result.columns[i];
  }
  out += "\n";
  for (size_t r = 0; r < result.rows.size(); ++r) {
    const Row& row = result.rows[r];
    if (r < result.row_labels.size()) {
      out += result.row_labels[r];
      if (!row.empty()) out += " | ";
    }
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += " | ";
      out += ValueToString(row[i]);
    }
    out += "\n";
  }
  out += "(" + std::to_string(result.rows.size()) + " rows)\n";
  return out;
}

}  // namespace sql
}  // namespace segdiff
