// Column-batch representation for the vectorized executor (DuckDB
// DataChunk-style): a fixed-width set of column vectors plus a selection
// vector produced by filters. Columns either borrow storage (zero-copy views
// into columnar stripes and materialized intermediates) or own it (operator
// outputs). Expressions evaluate directly on the columns
// (sql::EvalContext::columns); rows are built only for a join residual and
// for the final result.
#ifndef CITUSX_EXEC_BATCH_H_
#define CITUSX_EXEC_BATCH_H_

#include <iterator>
#include <memory>
#include <utility>
#include <vector>

#include "engine/hooks.h"

namespace citusx::exec {

/// One column of a batch: a borrowed pointer into backing storage plus the
/// optional owned vector backing it. `data == nullptr` marks a column the
/// scan projection skipped (reads as NULL).
struct ColumnRef {
  const std::vector<sql::Datum>* data = nullptr;
  std::shared_ptr<std::vector<sql::Datum>> owned;

  static ColumnRef Borrowed(const std::vector<sql::Datum>* d) {
    ColumnRef c;
    c.data = d;
    return c;
  }
  static ColumnRef Owned(std::vector<sql::Datum> d) {
    ColumnRef c;
    c.owned = std::make_shared<std::vector<sql::Datum>>(std::move(d));
    c.data = c.owned.get();
    return c;
  }
};

/// A batch: `rows` physical rows over `columns`, restricted to the indexes
/// in `sel` when `filtered` is set (selection vectors avoid copying
/// survivors after a filter, and select a morsel's range of a materialized
/// intermediate).
struct DataChunk {
  int64_t rows = 0;
  std::vector<ColumnRef> columns;
  bool filtered = false;
  std::vector<int64_t> sel;

  int64_t Count() const {
    return filtered ? static_cast<int64_t>(sel.size()) : rows;
  }
  /// Physical row index of logical position `i`.
  int64_t At(int64_t i) const {
    return filtered ? sel[static_cast<size_t>(i)] : i;
  }

  /// The column pointers an EvalContext reads (null = skipped column).
  std::vector<const std::vector<sql::Datum>*> ColumnPointers() const {
    std::vector<const std::vector<sql::Datum>*> out;
    out.reserve(columns.size());
    for (const ColumnRef& c : columns) out.push_back(c.data);
    return out;
  }

  /// Materialize logical row `i` into `out` (resized to the column count).
  void GatherRow(int64_t i, sql::Row* out) const {
    out->resize(columns.size());
    int64_t r = At(i);
    for (size_t c = 0; c < columns.size(); c++) {
      const auto* col = columns[c].data;
      (*out)[c] =
          col == nullptr ? sql::Datum::Null() : (*col)[static_cast<size_t>(r)];
    }
  }
};

/// Column-major rows: worker-local sink buffers, materialized intermediates
/// and hash-join build rows. A column stays `skipped` (stores nothing, reads
/// as NULL) while every row appended so far came from a skipped column.
struct ColumnStore {
  int64_t rows = 0;
  std::vector<std::vector<sql::Datum>> columns;
  std::vector<bool> skipped;

  explicit ColumnStore(size_t width = 0)
      : columns(width), skipped(width, true) {}

  size_t width() const { return columns.size(); }
  /// Column `c` for a DataChunk or an EvalContext (null = skipped).
  const std::vector<sql::Datum>* Column(size_t c) const {
    return skipped[c] ? nullptr : &columns[c];
  }

  /// Append the logical rows of `chunk`. An empty store takes the chunk's
  /// width; later chunks (of one pipeline) have the same width.
  void Append(const DataChunk& chunk) {
    int64_t n = chunk.Count();
    if (n == 0) return;
    if (rows == 0) *this = ColumnStore(chunk.columns.size());
    for (size_t c = 0; c < columns.size(); c++) {
      const std::vector<sql::Datum>* src =
          c < chunk.columns.size() ? chunk.columns[c].data : nullptr;
      std::vector<sql::Datum>& dst = columns[c];
      if (src == nullptr) {
        if (!skipped[c]) dst.resize(static_cast<size_t>(rows + n));
        continue;
      }
      Materialize(c);
      if (chunk.filtered) {
        for (int64_t r : chunk.sel) {
          dst.push_back((*src)[static_cast<size_t>(r)]);
        }
      } else {
        dst.insert(dst.end(), src->begin(), src->begin() + n);
      }
    }
    rows += n;
  }

  /// Append every row of `other` (same width), moving its values.
  void Append(ColumnStore&& other) {
    if (other.rows == 0) return;
    if (rows == 0) {
      *this = std::move(other);
      return;
    }
    for (size_t c = 0; c < columns.size(); c++) {
      std::vector<sql::Datum>& dst = columns[c];
      if (other.skipped[c]) {
        if (!skipped[c]) dst.resize(static_cast<size_t>(rows + other.rows));
        continue;
      }
      Materialize(c);
      dst.insert(dst.end(), std::make_move_iterator(other.columns[c].begin()),
                 std::make_move_iterator(other.columns[c].end()));
    }
    rows += other.rows;
    other = ColumnStore();
  }

 private:
  /// Turn skipped column `c` into stored NULLs before values arrive.
  void Materialize(size_t c) {
    if (!skipped[c]) return;
    skipped[c] = false;
    columns[c].resize(static_cast<size_t>(rows));
  }
};

}  // namespace citusx::exec

#endif  // CITUSX_EXEC_BATCH_H_
