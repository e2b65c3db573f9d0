#include "engine/exec.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/str.h"
#include "sql/deparser.h"

namespace citusx::engine {

namespace {
// Flush threshold: one simulated CPU charge per ~200us of work.
constexpr int64_t kCpuFlushNs = 200 * 1000;
}  // namespace

Status ExecContext::ChargeCpu(int64_t ns) {
  pending_cpu_ += ns;
  if (pending_cpu_ >= kCpuFlushNs) return FlushCpu();
  return Status::OK();
}

Status ExecContext::FlushCpu() {
  if (pending_cpu_ <= 0) return Status::OK();
  int64_t ns = pending_cpu_;
  pending_cpu_ = 0;
  if (cpu != nullptr && !cpu->Consume(ns)) {
    return Status::Cancelled("simulation stopping");
  }
  return Status::OK();
}

// ---- row-level helpers ----

Result<std::optional<sql::Row>> LockAndRecheck(ExecContext& ctx,
                                               TableInfo* table,
                                               storage::RowId rid,
                                               const sql::ExprPtr& filter) {
  CITUSX_RETURN_IF_ERROR(ctx.FlushCpu());
  CITUSX_RETURN_IF_ERROR(
      ctx.locks->Acquire(LockTag{table->oid, rid}, ctx.txn, LockMode::kExclusive));
  const storage::TupleVersion* latest =
      table->heap->LatestVersion(rid, *ctx.txns);
  if (latest == nullptr) return std::optional<sql::Row>();
  // Deleted by a committed transaction (or pending delete by another txn that
  // must have committed for us to get the lock)?
  if (latest->xmax != storage::kInvalidTxn && latest->xmax != ctx.txn &&
      !ctx.txns->IsAborted(latest->xmax)) {
    return std::optional<sql::Row>();
  }
  if (filter != nullptr) {
    auto ec = ctx.EvalCtx(&latest->row);
    CITUSX_ASSIGN_OR_RETURN(bool keep, sql::EvalPredicate(*filter, ec));
    if (!keep) return std::optional<sql::Row>();
  }
  return std::optional<sql::Row>(latest->row);
}

namespace {

// Evaluate a GIN index expression for a row; empty string when NULL.
Result<std::string> GinTextForRow(ExecContext& ctx, const IndexInfo& idx,
                                  const sql::Row& row) {
  auto ec = ctx.EvalCtx(&row);
  CITUSX_ASSIGN_OR_RETURN(sql::Datum v, sql::Eval(*idx.expression, ec));
  return v.is_null() ? std::string() : v.ToText();
}

// True if a unique-key conflict exists among live versions.
Result<bool> UniqueConflict(ExecContext& ctx, TableInfo* table,
                            storage::BtreeIndex* index,
                            const storage::IndexKey& key) {
  bool has_null = false;
  for (const auto& d : key) has_null = has_null || d.is_null();
  if (has_null) return false;  // NULLs never conflict
  std::vector<storage::RowId> candidates;
  if (!index->EqualRange(key, &candidates)) {
    return Status::Cancelled("simulation stopping");
  }
  for (storage::RowId rid : candidates) {
    const storage::TupleVersion* latest =
        table->heap->LatestVersion(rid, *ctx.txns);
    if (latest == nullptr) continue;
    if (latest->xmax != storage::kInvalidTxn &&
        !ctx.txns->IsAborted(latest->xmax)) {
      continue;  // deleted (possibly pending; simplification, see README)
    }
    // Re-verify the key matches (index entries can be stale).
    storage::IndexKey actual = index->KeyFromRow(latest->row);
    if (actual.size() == key.size()) {
      bool equal = true;
      for (size_t i = 0; i < key.size(); i++) {
        if (sql::Datum::Compare(actual[i], key[i]) != 0) equal = false;
      }
      if (equal) return true;
    }
  }
  return false;
}

}  // namespace

Status InsertRowWithIndexes(ExecContext& ctx, TableInfo* table, sql::Row row,
                            bool on_conflict_do_nothing, bool* inserted) {
  if (inserted != nullptr) *inserted = false;
  CITUSX_RETURN_IF_ERROR(ctx.ChargeCpu(ctx.cost->cpu_per_row_insert));
  if (table->is_columnar()) {
    CITUSX_RETURN_IF_ERROR(table->columnar->Insert(std::move(row), ctx.txn));
    if (inserted != nullptr) *inserted = true;
    return Status::OK();
  }
  // Unique checks first.
  for (const auto& idx : table->indexes) {
    if (idx->btree == nullptr || !idx->unique) continue;
    storage::IndexKey key = idx->btree->KeyFromRow(row);
    CITUSX_ASSIGN_OR_RETURN(bool conflict,
                            UniqueConflict(ctx, table, idx->btree.get(), key));
    if (conflict) {
      if (on_conflict_do_nothing) return Status::OK();
      return Status::AlreadyExists(
          StrFormat("duplicate key value violates unique constraint \"%s\"",
                    idx->name.c_str()));
    }
  }
  CITUSX_ASSIGN_OR_RETURN(storage::RowId rid,
                          table->heap->Insert(std::move(row), ctx.txn));
  // Maintain indexes; reread the stored row (moved above).
  const storage::TupleVersion* stored =
      table->heap->LatestVersion(rid, *ctx.txns);
  if (stored == nullptr) return Status::Internal("inserted row vanished");
  sql::Row row_copy = stored->row;
  for (const auto& idx : table->indexes) {
    if (idx->btree != nullptr) {
      CITUSX_RETURN_IF_ERROR(ctx.ChargeCpu(ctx.cost->cpu_per_index_insert));
      idx->btree->Insert(idx->btree->KeyFromRow(row_copy), rid);
    } else if (idx->gin != nullptr) {
      CITUSX_ASSIGN_OR_RETURN(std::string text,
                              GinTextForRow(ctx, *idx, row_copy));
      int64_t postings = idx->gin->Insert(text, rid);
      CITUSX_RETURN_IF_ERROR(
          ctx.ChargeCpu(postings * ctx.cost->cpu_per_trgm_insert));
    }
  }
  if (inserted != nullptr) *inserted = true;
  return Status::OK();
}

Status IndexNewVersion(ExecContext& ctx, TableInfo* table, storage::RowId rid,
                       const sql::Row& old_row, const sql::Row& new_row) {
  for (const auto& idx : table->indexes) {
    if (idx->btree != nullptr) {
      storage::IndexKey new_key = idx->btree->KeyFromRow(new_row);
      storage::IndexKey old_key = idx->btree->KeyFromRow(old_row);
      // HOT-style optimization: an unchanged key already has an entry
      // pointing at this version chain.
      bool same = new_key.size() == old_key.size();
      for (size_t i = 0; same && i < new_key.size(); i++) {
        same = sql::Datum::Compare(new_key[i], old_key[i]) == 0 &&
               new_key[i].is_null() == old_key[i].is_null();
      }
      if (same) continue;
      CITUSX_RETURN_IF_ERROR(ctx.ChargeCpu(ctx.cost->cpu_per_index_insert));
      idx->btree->Insert(new_key, rid);
    } else if (idx->gin != nullptr) {
      CITUSX_ASSIGN_OR_RETURN(std::string old_text,
                              GinTextForRow(ctx, *idx, old_row));
      CITUSX_ASSIGN_OR_RETURN(std::string text,
                              GinTextForRow(ctx, *idx, new_row));
      if (old_text == text) continue;
      int64_t postings = idx->gin->Insert(text, rid);
      CITUSX_RETURN_IF_ERROR(
          ctx.ChargeCpu(postings * ctx.cost->cpu_per_trgm_insert));
    }
  }
  return Status::OK();
}

// ---- scans ----

namespace {

// Shared per-candidate-row logic for heap scans: visibility, filter,
// locking, rowid projection. Returns false (in the bool) to stop.
Result<bool> EmitHeapRow(ExecContext& ctx, TableInfo* table,
                         storage::RowId rid, const sql::ExprPtr& filter,
                         bool lock_rows, bool emit_rowid,
                         const RowSink& sink) {
  CITUSX_RETURN_IF_ERROR(ctx.ChargeCpu(ctx.cost->cpu_per_row_scan));
  if (!table->heap->TouchRow(rid, /*dirty=*/false)) {
    return Status::Cancelled("simulation stopping");
  }
  const storage::TupleVersion* v =
      table->heap->VisibleVersion(rid, ctx.snapshot, *ctx.txns);
  if (v == nullptr) return true;
  if (filter != nullptr) {
    CITUSX_RETURN_IF_ERROR(ctx.ChargeCpu(ctx.cost->cpu_per_expr_eval));
    // The charge can yield, and a concurrent UPDATE may reallocate the
    // row's version vector meanwhile: look the version up again.
    v = table->heap->VisibleVersion(rid, ctx.snapshot, *ctx.txns);
    if (v == nullptr) return true;
    auto ec = ctx.EvalCtx(&v->row);
    CITUSX_ASSIGN_OR_RETURN(bool keep, sql::EvalPredicate(*filter, ec));
    if (!keep) return true;
  }
  sql::Row out;
  if (lock_rows) {
    CITUSX_ASSIGN_OR_RETURN(std::optional<sql::Row> locked,
                            LockAndRecheck(ctx, table, rid, filter));
    if (!locked.has_value()) return true;
    out = std::move(*locked);
  } else {
    out = v->row;
  }
  if (emit_rowid) out.push_back(sql::Datum::Int8(static_cast<int64_t>(rid)));
  return sink(out);
}

}  // namespace

Status SeqScanNode::Execute(ExecContext& ctx, const RowSink& sink) {
  if (table->is_columnar()) {
    if (lock_rows || emit_rowid) {
      return Status::NotSupported(
          "UPDATE/DELETE are not supported on columnar tables");
    }
    Status inner_status;
    bool finished = table->columnar->Scan(
        ctx.snapshot, *ctx.txns, projection, [&](const sql::Row& row) {
          Status s = ctx.ChargeCpu(ctx.cost->cpu_per_row_scan);
          if (!s.ok()) {
            inner_status = s;
            return false;
          }
          if (filter != nullptr) {
            auto ec = ctx.EvalCtx(&row);
            auto keep = sql::EvalPredicate(*filter, ec);
            if (!keep.ok()) {
              inner_status = keep.status();
              return false;
            }
            if (!*keep) return true;
          }
          sql::Row copy = row;
          auto cont = sink(copy);
          if (!cont.ok()) {
            inner_status = cont.status();
            return false;
          }
          return *cont;
        });
    if (!inner_status.ok()) return inner_status;
    if (!finished && inner_status.ok()) return Status::OK();
    return Status::OK();
  }
  storage::RowId n = table->heap->num_rows();
  for (storage::RowId rid = 0; rid < n; rid++) {
    CITUSX_ASSIGN_OR_RETURN(
        bool cont,
        EmitHeapRow(ctx, table, rid, filter, lock_rows, emit_rowid, sink));
    if (!cont) break;
  }
  return Status::OK();
}

Status IndexScanNode::Execute(ExecContext& ctx, const RowSink& sink) {
  CITUSX_RETURN_IF_ERROR(ctx.ChargeCpu(ctx.cost->cpu_per_index_lookup));
  std::vector<storage::RowId> candidates;
  if (!equal_keys.empty()) {
    storage::IndexKey key;
    for (const auto& e : equal_keys) {
      auto ec = ctx.EvalCtx(nullptr);
      CITUSX_ASSIGN_OR_RETURN(sql::Datum v, sql::Eval(*e, ec));
      key.push_back(std::move(v));
    }
    CITUSX_RETURN_IF_ERROR(ctx.FlushCpu());
    if (!index->EqualRange(key, &candidates)) {
      return Status::Cancelled("simulation stopping");
    }
  } else {
    sql::Datum lo_v, hi_v;
    bool has_lo = false, has_hi = false;
    auto ec = ctx.EvalCtx(nullptr);
    if (range_lo != nullptr) {
      CITUSX_ASSIGN_OR_RETURN(lo_v, sql::Eval(*range_lo, ec));
      has_lo = true;
    }
    if (range_hi != nullptr) {
      CITUSX_ASSIGN_OR_RETURN(hi_v, sql::Eval(*range_hi, ec));
      has_hi = true;
    }
    CITUSX_RETURN_IF_ERROR(ctx.FlushCpu());
    if (!index->Range(has_lo ? &lo_v : nullptr, lo_inclusive,
                      has_hi ? &hi_v : nullptr, hi_inclusive, &candidates)) {
      return Status::Cancelled("simulation stopping");
    }
  }
  // Stale entries can produce duplicate rids; each logical row is visited
  // once.
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  for (storage::RowId rid : candidates) {
    CITUSX_ASSIGN_OR_RETURN(
        bool cont,
        EmitHeapRow(ctx, table, rid, filter, lock_rows, emit_rowid, sink));
    if (!cont) break;
  }
  return Status::OK();
}

Status GinScanNode::Execute(ExecContext& ctx, const RowSink& sink) {
  auto ec = ctx.EvalCtx(nullptr);
  CITUSX_ASSIGN_OR_RETURN(sql::Datum pat, sql::Eval(*pattern, ec));
  if (pat.is_null()) return Status::OK();
  auto trigrams = storage::GinTrgmIndex::PatternTrigrams(pat.ToText());
  if (trigrams.empty()) {
    return Status::Internal("gin scan planned without extractable trigrams");
  }
  CITUSX_RETURN_IF_ERROR(
      ctx.ChargeCpu(static_cast<int64_t>(trigrams.size()) *
                    ctx.cost->cpu_per_index_lookup));
  CITUSX_RETURN_IF_ERROR(ctx.FlushCpu());
  std::vector<storage::RowId> candidates;
  if (!index->Candidates(trigrams, &candidates)) {
    return Status::Cancelled("simulation stopping");
  }
  for (storage::RowId rid : candidates) {
    // Rechecking a candidate re-evaluates the JSONB path expression and the
    // pattern match against the document: far more expensive than a plain
    // predicate.
    CITUSX_RETURN_IF_ERROR(ctx.ChargeCpu(ctx.cost->cpu_per_gin_recheck));
    CITUSX_ASSIGN_OR_RETURN(
        bool cont, EmitHeapRow(ctx, table, rid, filter, /*lock_rows=*/false,
                               emit_rowid, sink));
    if (!cont) break;
  }
  return Status::OK();
}

Status TempScanNode::Execute(ExecContext& ctx, const RowSink& sink) {
  for (const auto& row : relation->rows) {
    CITUSX_RETURN_IF_ERROR(ctx.ChargeCpu(ctx.cost->cpu_per_row_scan));
    if (filter != nullptr) {
      auto ec = ctx.EvalCtx(&row);
      CITUSX_ASSIGN_OR_RETURN(bool keep, sql::EvalPredicate(*filter, ec));
      if (!keep) continue;
    }
    sql::Row copy = row;
    CITUSX_ASSIGN_OR_RETURN(bool cont, sink(copy));
    if (!cont) break;
  }
  return Status::OK();
}

Status OneRowNode::Execute(ExecContext& ctx, const RowSink& sink) {
  sql::Row empty;
  return sink(empty).status();
}

Status ProjectNode::Execute(ExecContext& ctx, const RowSink& sink) {
  return input->Execute(ctx, [&](sql::Row& in) -> Result<bool> {
    CITUSX_RETURN_IF_ERROR(ctx.ChargeCpu(
        static_cast<int64_t>(exprs.size()) * ctx.cost->cpu_per_expr_eval));
    sql::Row out;
    out.reserve(exprs.size());
    auto ec = ctx.EvalCtx(&in);
    for (const auto& e : exprs) {
      CITUSX_ASSIGN_OR_RETURN(sql::Datum v, sql::Eval(*e, ec));
      out.push_back(std::move(v));
    }
    return sink(out);
  });
}

Status FilterNode::Execute(ExecContext& ctx, const RowSink& sink) {
  return input->Execute(ctx, [&](sql::Row& in) -> Result<bool> {
    CITUSX_RETURN_IF_ERROR(ctx.ChargeCpu(ctx.cost->cpu_per_expr_eval));
    auto ec = ctx.EvalCtx(&in);
    CITUSX_ASSIGN_OR_RETURN(bool keep, sql::EvalPredicate(*predicate, ec));
    if (!keep) return true;
    return sink(in);
  });
}

namespace {
Result<std::string> RowKey(ExecContext& ctx,
                           const std::vector<sql::ExprPtr>& keys,
                           const sql::Row& row) {
  std::string out;
  auto ec = ctx.EvalCtx(&row);
  for (const auto& k : keys) {
    CITUSX_ASSIGN_OR_RETURN(sql::Datum v, sql::Eval(*k, ec));
    if (v.is_null()) return std::string();  // NULL keys never join
    out += v.GroupKey();
    out.push_back('\x1f');
  }
  return out;
}
}  // namespace

Status HashJoinNode::Execute(ExecContext& ctx, const RowSink& sink) {
  // Build phase over the right input.
  std::unordered_map<std::string, std::vector<sql::Row>> table;
  CITUSX_RETURN_IF_ERROR(
      right->Execute(ctx, [&](sql::Row& row) -> Result<bool> {
        CITUSX_RETURN_IF_ERROR(ctx.ChargeCpu(ctx.cost->cpu_per_row_hash));
        CITUSX_ASSIGN_OR_RETURN(std::string key,
                                RowKey(ctx, right_keys, row));
        if (!key.empty()) table[key].push_back(std::move(row));
        return true;
      }));
  size_t right_width = right->output_types.size();
  // Probe phase.
  return left->Execute(ctx, [&](sql::Row& lrow) -> Result<bool> {
    CITUSX_RETURN_IF_ERROR(ctx.ChargeCpu(ctx.cost->cpu_per_row_hash));
    CITUSX_ASSIGN_OR_RETURN(std::string key, RowKey(ctx, left_keys, lrow));
    bool matched = false;
    if (!key.empty()) {
      auto it = table.find(key);
      if (it != table.end()) {
        for (const auto& rrow : it->second) {
          sql::Row combined = lrow;
          combined.insert(combined.end(), rrow.begin(), rrow.end());
          if (residual != nullptr) {
            auto ec = ctx.EvalCtx(&combined);
            CITUSX_ASSIGN_OR_RETURN(bool keep,
                                    sql::EvalPredicate(*residual, ec));
            if (!keep) continue;
          }
          matched = true;
          CITUSX_ASSIGN_OR_RETURN(bool cont, sink(combined));
          if (!cont) return false;
        }
      }
    }
    if (!matched && join_type == sql::JoinType::kLeft) {
      sql::Row combined = lrow;
      combined.resize(lrow.size() + right_width);  // NULL-padded
      return sink(combined);
    }
    return true;
  });
}

Status NestLoopJoinNode::Execute(ExecContext& ctx, const RowSink& sink) {
  std::vector<sql::Row> inner;
  CITUSX_RETURN_IF_ERROR(
      right->Execute(ctx, [&](sql::Row& row) -> Result<bool> {
        inner.push_back(std::move(row));
        return true;
      }));
  size_t right_width = right->output_types.size();
  return left->Execute(ctx, [&](sql::Row& lrow) -> Result<bool> {
    bool matched = false;
    for (const auto& rrow : inner) {
      CITUSX_RETURN_IF_ERROR(ctx.ChargeCpu(ctx.cost->cpu_per_expr_eval));
      sql::Row combined = lrow;
      combined.insert(combined.end(), rrow.begin(), rrow.end());
      if (predicate != nullptr) {
        auto ec = ctx.EvalCtx(&combined);
        CITUSX_ASSIGN_OR_RETURN(bool keep, sql::EvalPredicate(*predicate, ec));
        if (!keep) continue;
      }
      matched = true;
      CITUSX_ASSIGN_OR_RETURN(bool cont, sink(combined));
      if (!cont) return false;
    }
    if (!matched && join_type == sql::JoinType::kLeft) {
      sql::Row combined = lrow;
      combined.resize(lrow.size() + right_width);
      return sink(combined);
    }
    return true;
  });
}

namespace {

struct AggState {
  int64_t count = 0;
  double sum_f = 0;
  int64_t sum_i = 0;
  bool sum_is_float = false;
  bool any = false;
  sql::Datum min_max;
  std::set<std::string> distinct_seen;
};

void AggTransition(const AggSpec& spec, const sql::Datum& v, AggState* st) {
  if (spec.func == "count") {
    st->count++;
    return;
  }
  st->any = true;
  if (spec.func == "sum" || spec.func == "avg") {
    st->count++;
    if (v.type() == sql::TypeId::kFloat8) {
      st->sum_is_float = true;
      st->sum_f += v.float_value();
    } else {
      st->sum_i += v.AsInt64();
      st->sum_f += static_cast<double>(v.AsInt64());
    }
    return;
  }
  if (spec.func == "min") {
    if (st->min_max.is_null() || sql::Datum::Compare(v, st->min_max) < 0) {
      st->min_max = v;
    }
    return;
  }
  if (spec.func == "max") {
    if (st->min_max.is_null() || sql::Datum::Compare(v, st->min_max) > 0) {
      st->min_max = v;
    }
    return;
  }
}

sql::Datum AggFinal(const AggSpec& spec, const AggState& st) {
  if (spec.func == "count") return sql::Datum::Int8(st.count);
  if (spec.func == "sum") {
    if (!st.any) return sql::Datum::Null();
    return st.sum_is_float ? sql::Datum::Float8(st.sum_f)
                           : sql::Datum::Int8(st.sum_i);
  }
  if (spec.func == "avg") {
    if (st.count == 0) return sql::Datum::Null();
    return sql::Datum::Float8(st.sum_f / static_cast<double>(st.count));
  }
  return st.min_max;  // min/max; NULL when no input
}

}  // namespace

Status AggNode::Execute(ExecContext& ctx, const RowSink& sink) {
  struct Group {
    sql::Row keys;
    std::vector<AggState> states;
  };
  std::map<std::string, Group> groups;
  CITUSX_RETURN_IF_ERROR(
      input->Execute(ctx, [&](sql::Row& row) -> Result<bool> {
        CITUSX_RETURN_IF_ERROR(ctx.ChargeCpu(ctx.cost->cpu_per_row_hash));
        auto ec = ctx.EvalCtx(&row);
        std::string key;
        sql::Row key_vals;
        for (const auto& g : group_exprs) {
          CITUSX_ASSIGN_OR_RETURN(sql::Datum v, sql::Eval(*g, ec));
          key += v.GroupKey();
          key.push_back('\x1f');
          key_vals.push_back(std::move(v));
        }
        auto [it, added] = groups.try_emplace(key);
        if (added) {
          it->second.keys = std::move(key_vals);
          it->second.states.resize(aggs.size());
        }
        for (size_t i = 0; i < aggs.size(); i++) {
          const AggSpec& spec = aggs[i];
          sql::Datum v;
          if (spec.arg != nullptr) {
            CITUSX_ASSIGN_OR_RETURN(v, sql::Eval(*spec.arg, ec));
            if (v.is_null()) continue;  // aggregates skip NULLs
          }
          if (spec.distinct && spec.arg != nullptr) {
            std::string dkey = v.GroupKey();
            if (!it->second.states[i].distinct_seen.insert(dkey).second) {
              continue;
            }
          }
          AggTransition(spec, v, &it->second.states[i]);
        }
        return true;
      }));
  if (groups.empty() && group_exprs.empty()) {
    // Aggregate over empty input: one row of "empty" aggregates.
    Group g;
    g.states.resize(aggs.size());
    groups.emplace("", std::move(g));
  }
  for (auto& [key, g] : groups) {
    sql::Row out = g.keys;
    for (size_t i = 0; i < aggs.size(); i++) {
      out.push_back(AggFinal(aggs[i], g.states[i]));
    }
    CITUSX_ASSIGN_OR_RETURN(bool cont, sink(out));
    if (!cont) break;
  }
  return Status::OK();
}

Status SortNode::Execute(ExecContext& ctx, const RowSink& sink) {
  std::vector<sql::Row> rows;
  CITUSX_RETURN_IF_ERROR(
      input->Execute(ctx, [&](sql::Row& row) -> Result<bool> {
        rows.push_back(std::move(row));
        return true;
      }));
  CITUSX_RETURN_IF_ERROR(ctx.ChargeCpu(static_cast<int64_t>(rows.size()) *
                                       ctx.cost->cpu_per_row_sort));
  std::stable_sort(rows.begin(), rows.end(),
                   [this](const sql::Row& a, const sql::Row& b) {
                     for (size_t i = 0; i < sort_slots.size(); i++) {
                       size_t s = static_cast<size_t>(sort_slots[i]);
                       int c = sql::Datum::Compare(a[s], b[s]);
                       if (c != 0) return desc[i] ? c > 0 : c < 0;
                     }
                     return false;
                   });
  for (auto& row : rows) {
    CITUSX_ASSIGN_OR_RETURN(bool cont, sink(row));
    if (!cont) break;
  }
  return Status::OK();
}

Status LimitNode::Execute(ExecContext& ctx, const RowSink& sink) {
  int64_t skipped = 0, emitted = 0;
  return input->Execute(ctx, [&](sql::Row& row) -> Result<bool> {
    if (skipped < offset) {
      skipped++;
      return true;
    }
    if (limit >= 0 && emitted >= limit) return false;
    emitted++;
    CITUSX_ASSIGN_OR_RETURN(bool cont, sink(row));
    if (!cont) return false;
    return limit < 0 || emitted < limit;
  });
}

Status DistinctNode::Execute(ExecContext& ctx, const RowSink& sink) {
  std::set<std::string> seen;
  return input->Execute(ctx, [&](sql::Row& row) -> Result<bool> {
    CITUSX_RETURN_IF_ERROR(ctx.ChargeCpu(ctx.cost->cpu_per_row_hash));
    std::string key;
    for (const auto& d : row) {
      key += d.GroupKey();
      key.push_back('\x1f');
    }
    if (!seen.insert(key).second) return true;
    return sink(row);
  });
}

Status StripColumnsNode::Execute(ExecContext& ctx, const RowSink& sink) {
  return input->Execute(ctx, [&](sql::Row& row) -> Result<bool> {
    row.resize(static_cast<size_t>(keep));
    return sink(row);
  });
}

namespace {

void ExplainNode(const ExecNode* n, int depth, std::string* out) {
  if (n == nullptr) return;
  if (const ExecNode* child = n->explain_child(); child != nullptr) {
    ExplainNode(child, depth, out);
    return;
  }
  out->append(static_cast<size_t>(depth) * 2, ' ');
  auto line = [&](const std::string& text) {
    out->append(text);
    out->push_back('\n');
  };
  if (auto* s = dynamic_cast<const SeqScanNode*>(n)) {
    line(StrFormat("Seq Scan on %s%s%s", s->table->name.c_str(),
                   s->table->is_columnar() ? " (columnar)" : "",
                   s->filter ? ("  Filter: " +
                                sql::DeparseExpr(*s->filter)).c_str()
                             : ""));
  } else if (auto* i = dynamic_cast<const IndexScanNode*>(n)) {
    line(StrFormat("Index Scan on %s using %zu-column index%s",
                   i->table->name.c_str(), i->index->key_columns().size(),
                   i->equal_keys.empty() ? " (range)" : ""));
  } else if (auto* g = dynamic_cast<const GinScanNode*>(n)) {
    line(StrFormat("Bitmap Scan on %s using trigram index, pattern %s",
                   g->table->name.c_str(),
                   sql::DeparseExpr(*g->pattern).c_str()));
  } else if (dynamic_cast<const TempScanNode*>(n) != nullptr) {
    line("Scan on intermediate result");
  } else if (dynamic_cast<const OneRowNode*>(n) != nullptr) {
    line("Result (one row)");
  } else if (auto* p = dynamic_cast<const ProjectNode*>(n)) {
    line(StrFormat("Project (%zu columns)", p->exprs.size()));
    ExplainNode(p->input.get(), depth + 1, out);
  } else if (auto* f = dynamic_cast<const FilterNode*>(n)) {
    line("Filter: " + sql::DeparseExpr(*f->predicate));
    ExplainNode(f->input.get(), depth + 1, out);
  } else if (auto* hj = dynamic_cast<const HashJoinNode*>(n)) {
    line(StrFormat("Hash %s Join (%zu key(s))",
                   hj->join_type == sql::JoinType::kLeft ? "Left" : "Inner",
                   hj->left_keys.size()));
    ExplainNode(hj->left.get(), depth + 1, out);
    ExplainNode(hj->right.get(), depth + 1, out);
  } else if (auto* nl = dynamic_cast<const NestLoopJoinNode*>(n)) {
    line(StrFormat("Nested Loop %s Join",
                   nl->join_type == sql::JoinType::kLeft ? "Left" : "Inner"));
    ExplainNode(nl->left.get(), depth + 1, out);
    ExplainNode(nl->right.get(), depth + 1, out);
  } else if (auto* a = dynamic_cast<const AggNode*>(n)) {
    line(StrFormat("%sAggregate (%zu aggregate(s))",
                   a->group_exprs.empty() ? "" : "Group", a->aggs.size()));
    ExplainNode(a->input.get(), depth + 1, out);
  } else if (auto* so = dynamic_cast<const SortNode*>(n)) {
    line(StrFormat("Sort (%zu key(s))", so->sort_slots.size()));
    ExplainNode(so->input.get(), depth + 1, out);
  } else if (auto* l = dynamic_cast<const LimitNode*>(n)) {
    line(StrFormat("Limit %lld offset %lld",
                   static_cast<long long>(l->limit),
                   static_cast<long long>(l->offset)));
    ExplainNode(l->input.get(), depth + 1, out);
  } else if (auto* d = dynamic_cast<const DistinctNode*>(n)) {
    line("Distinct");
    ExplainNode(d->input.get(), depth + 1, out);
  } else if (auto* st = dynamic_cast<const StripColumnsNode*>(n)) {
    ExplainNode(st->input.get(), depth, out);  // invisible plumbing
    out->resize(out->size());
  } else {
    line("?node");
  }
}

}  // namespace

std::string ExplainPlan(const ExecNode& root) {
  std::string out;
  ExplainNode(&root, 0, &out);
  return out;
}

Result<QueryResult> CollectRows(ExecNode& plan, ExecContext& ctx) {
  QueryResult result;
  result.column_names = plan.output_names;
  result.column_types = plan.output_types;
  CITUSX_RETURN_IF_ERROR(plan.Execute(ctx, [&](sql::Row& row) -> Result<bool> {
    result.rows.push_back(std::move(row));
    return true;
  }));
  CITUSX_RETURN_IF_ERROR(ctx.FlushCpu());
  result.rows_affected = result.NumRows();
  result.command_tag = "SELECT";
  return result;
}

}  // namespace citusx::engine
