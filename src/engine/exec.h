// Execution engine: push-model plan nodes over MVCC storage.
//
// Each node streams rows into a sink callback; blocking operators (sort,
// hash join build, aggregation) materialize internally. CPU time is charged
// in batches against the node's simulated cores; I/O is charged by the
// storage layer through the buffer pool.
#ifndef CITUSX_ENGINE_EXEC_H_
#define CITUSX_ENGINE_EXEC_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "engine/catalog.h"
#include "engine/locks.h"
#include "engine/txn.h"
#include "obs/trace.h"
#include "sim/cost_model.h"
#include "sim/resources.h"
#include "sql/ast.h"
#include "sql/eval.h"

namespace citusx::engine {

/// Result of executing one statement.
struct QueryResult {
  std::vector<std::string> column_names;
  std::vector<sql::TypeId> column_types;
  std::vector<sql::Row> rows;
  int64_t rows_affected = 0;
  std::string command_tag;  // "SELECT", "INSERT", ...

  int64_t NumRows() const { return static_cast<int64_t>(rows.size()); }
};

/// An in-memory relation (used for intermediate results in distributed
/// plans and for VALUES).
struct TempRelation {
  std::vector<std::string> column_names;
  std::vector<sql::TypeId> column_types;
  std::vector<sql::Row> rows;
};

class ExecNode;
struct ExecContext;

/// An alternative plan executor (the vectorized engine in src/exec).
/// Consulted by ExecuteSelect after planning: returns a result to take over
/// execution of the plan tree, or nullopt to fall through to the volcano
/// path (unsupported plan shape). Registered per node via
/// Node::set_batch_executor.
using BatchExecutor =
    std::function<Result<std::optional<QueryResult>>(ExecNode&, ExecContext&)>;

/// Runtime context threaded through execution.
struct ExecContext {
  sim::Simulation* sim = nullptr;
  sim::CpuResource* cpu = nullptr;
  const sim::CostModel* cost = nullptr;
  Catalog* catalog = nullptr;
  TxnManager* txns = nullptr;
  LockManager* locks = nullptr;
  TxnId txn = storage::kInvalidTxn;
  Snapshot snapshot;
  const std::vector<sql::Datum>* params = nullptr;
  Rng* rng = nullptr;

  /// True when the session allows the registered batch executor to take
  /// over plan execution (citus.use_vectorized_executor GUC; sessions
  /// default it on).
  bool vectorize = true;

  /// The node's registered batch executor; nullptr or empty = volcano only.
  const BatchExecutor* batch_exec = nullptr;

  /// Active trace of the statement (EXPLAIN ANALYZE propagation): the batch
  /// executor parents its per-pipeline spans under `parent_span`. Null
  /// tracer = tracing off.
  obs::TraceCollector* tracer = nullptr;
  obs::TraceId trace = 0;
  obs::SpanId parent_span = 0;

  sql::EvalContext EvalCtx(const sql::Row* row) const {
    sql::EvalContext ec;
    ec.row = row;
    ec.params = params;
    ec.rng = rng;
    return ec;
  }

  /// Accumulate CPU nanoseconds; charged against the cores in batches.
  Status ChargeCpu(int64_t ns);
  /// Charge any accumulated remainder (call at statement end).
  Status FlushCpu();

  int64_t pending_cpu_ = 0;
};

/// Sink invoked per output row; return false to stop early (LIMIT).
using RowSink = std::function<Result<bool>(sql::Row&)>;

class ExecNode {
 public:
  virtual ~ExecNode() = default;
  /// Stream all output rows into `sink`.
  virtual Status Execute(ExecContext& ctx, const RowSink& sink) = 0;

  /// For transparent wrapper nodes: the child EXPLAIN should descend into.
  virtual const ExecNode* explain_child() const { return nullptr; }

  // Output layout metadata, filled by the planner.
  std::vector<std::string> output_names;
  std::vector<sql::TypeId> output_types;
};

using ExecNodePtr = std::unique_ptr<ExecNode>;

/// Sequential heap/columnar scan with optional filter, row locking
/// (FOR UPDATE / DML), and a hidden trailing rowid column for DML.
class SeqScanNode : public ExecNode {
 public:
  TableInfo* table = nullptr;
  sql::ExprPtr filter;  // bound; may be null
  bool lock_rows = false;
  bool emit_rowid = false;
  // Referenced column indexes (empty = all). Columnar scans read only
  // these; the vectorized heap source copies only these (others read as
  // NULL); volcano heap scans emit whole rows.
  std::vector<int> projection;

  Status Execute(ExecContext& ctx, const RowSink& sink) override;
};

/// B-tree index scan: equality on a key prefix or a range on the first
/// key column, plus residual filter.
class IndexScanNode : public ExecNode {
 public:
  TableInfo* table = nullptr;
  storage::BtreeIndex* index = nullptr;
  std::vector<sql::ExprPtr> equal_keys;  // bound exprs for key prefix
  sql::ExprPtr range_lo, range_hi;       // bound; either may be null
  bool lo_inclusive = true, hi_inclusive = true;
  sql::ExprPtr filter;  // residual, bound against table row
  bool lock_rows = false;
  bool emit_rowid = false;

  Status Execute(ExecContext& ctx, const RowSink& sink) override;
};

/// Trigram GIN index scan for LIKE/ILIKE '%literal%' patterns.
class GinScanNode : public ExecNode {
 public:
  TableInfo* table = nullptr;
  storage::GinTrgmIndex* index = nullptr;
  sql::ExprPtr pattern;  // bound expr producing the pattern text
  sql::ExprPtr filter;   // full predicate recheck, bound against table row
  bool emit_rowid = false;

  Status Execute(ExecContext& ctx, const RowSink& sink) override;
};

/// Scan over an in-memory relation (intermediate results, VALUES).
class TempScanNode : public ExecNode {
 public:
  const TempRelation* relation = nullptr;
  sql::ExprPtr filter;

  Status Execute(ExecContext& ctx, const RowSink& sink) override;
};

/// Emits exactly one empty row (SELECT without FROM).
class OneRowNode : public ExecNode {
 public:
  Status Execute(ExecContext& ctx, const RowSink& sink) override;
};

/// Evaluates target expressions over each input row.
class ProjectNode : public ExecNode {
 public:
  ExecNodePtr input;
  std::vector<sql::ExprPtr> exprs;  // bound against input layout

  Status Execute(ExecContext& ctx, const RowSink& sink) override;
};

class FilterNode : public ExecNode {
 public:
  ExecNodePtr input;
  sql::ExprPtr predicate;  // bound against input layout

  Status Execute(ExecContext& ctx, const RowSink& sink) override;
};

/// Hash join; output = left columns ++ right columns. Right side is built
/// into a hash table.
class HashJoinNode : public ExecNode {
 public:
  ExecNodePtr left;   // probe
  ExecNodePtr right;  // build
  std::vector<sql::ExprPtr> left_keys;   // bound against left layout
  std::vector<sql::ExprPtr> right_keys;  // bound against right layout
  sql::ExprPtr residual;  // bound against combined layout; may be null
  sql::JoinType join_type = sql::JoinType::kInner;

  Status Execute(ExecContext& ctx, const RowSink& sink) override;
};

/// Nested-loop join for non-equi conditions; right side materialized.
class NestLoopJoinNode : public ExecNode {
 public:
  ExecNodePtr left;
  ExecNodePtr right;
  sql::ExprPtr predicate;  // bound against combined layout; may be null
  sql::JoinType join_type = sql::JoinType::kInner;

  Status Execute(ExecContext& ctx, const RowSink& sink) override;
};

/// One aggregate call within an AggNode.
struct AggSpec {
  std::string func;  // count/sum/avg/min/max
  sql::ExprPtr arg;  // bound; null for count(*)
  bool distinct = false;
};

/// Hash aggregation. Output = group exprs ++ aggregate results. With no
/// group exprs produces exactly one row.
class AggNode : public ExecNode {
 public:
  ExecNodePtr input;
  std::vector<sql::ExprPtr> group_exprs;  // bound against input
  std::vector<AggSpec> aggs;

  Status Execute(ExecContext& ctx, const RowSink& sink) override;
};

class SortNode : public ExecNode {
 public:
  ExecNodePtr input;
  std::vector<int> sort_slots;  // into input layout
  std::vector<bool> desc;

  Status Execute(ExecContext& ctx, const RowSink& sink) override;
};

class LimitNode : public ExecNode {
 public:
  ExecNodePtr input;
  int64_t limit = -1;   // -1 = none
  int64_t offset = 0;

  Status Execute(ExecContext& ctx, const RowSink& sink) override;
};

class DistinctNode : public ExecNode {
 public:
  ExecNodePtr input;

  Status Execute(ExecContext& ctx, const RowSink& sink) override;
};

/// Drops the trailing `count` hidden columns (added for sorting).
class StripColumnsNode : public ExecNode {
 public:
  ExecNodePtr input;
  int keep = 0;

  Status Execute(ExecContext& ctx, const RowSink& sink) override;
};

/// Collect all rows of a plan into a QueryResult.
Result<QueryResult> CollectRows(ExecNode& plan, ExecContext& ctx);

/// EXPLAIN output: an indented description of a plan tree.
std::string ExplainPlan(const ExecNode& root);

// ---- shared helpers used by scans and DML ----

/// Lock a row and return its latest live version, rechecking `filter`
/// against it (read-committed semantics after a lock wait). Returns the row
/// (without lock) or nullopt if the row no longer qualifies.
Result<std::optional<sql::Row>> LockAndRecheck(ExecContext& ctx,
                                               TableInfo* table,
                                               storage::RowId rid,
                                               const sql::ExprPtr& filter);

/// Insert a row into a table, maintaining all indexes and enforcing unique
/// constraints. Charges CPU and I/O.
Status InsertRowWithIndexes(ExecContext& ctx, TableInfo* table, sql::Row row,
                            bool on_conflict_do_nothing, bool* inserted);

/// Index maintenance for a new row version created by UPDATE. Entries are
/// only added for keys that changed (HOT-style; unchanged keys already have
/// an entry pointing at this version chain).
Status IndexNewVersion(ExecContext& ctx, TableInfo* table, storage::RowId rid,
                       const sql::Row& old_row, const sql::Row& new_row);

}  // namespace citusx::engine

#endif  // CITUSX_ENGINE_EXEC_H_
