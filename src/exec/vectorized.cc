#include "exec/vectorized.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/str.h"
#include "exec/batch.h"
#include "sim/channel.h"
#include "storage/columnar.h"

namespace citusx::exec {

namespace {

using engine::ExecContext;
using engine::ExecNode;
using engine::QueryResult;
using sql::ExprPtr;

const sql::Datum kNullDatum;

// ---------------------------------------------------------------------------
// Plan IR: a volcano tree is translated into an ordered list of pipelines.
// Streaming operators (filter/project/hash-probe) live inside a pipeline;
// pipeline breakers (hash build, aggregate, and the sequential tail ops
// sort/limit/distinct/strip) terminate one and feed the next through a
// materialized intermediate. Every expression is a constant-folded clone of
// the planner's (see Fold).

struct VecSource {
  enum class Kind { kColumnar, kHeap, kTemp, kMaterialized };
  Kind kind = Kind::kMaterialized;
  engine::TableInfo* table = nullptr;  // kColumnar / kHeap
  ExprPtr filter;                      // scan filter, folded; may be null
  // The planner's scan filter, read by min/max stripe pruning: the stripes
  // scanned (and charged) do not depend on folding.
  ExprPtr prune_filter;
  std::vector<int> projection;         // kColumnar / kHeap: columns read
  const engine::TempRelation* temp = nullptr;  // kTemp
  int inter = -1;                      // kMaterialized: intermediate slot
  size_t width = 0;
};

struct VecOp {
  enum class Kind { kFilter, kProject, kHashProbe };
  Kind kind = Kind::kFilter;
  ExprPtr predicate;            // kFilter
  std::vector<ExprPtr> exprs;   // kProject
  // kProject: the input slot of each expression when every one is a plain
  // column reference (the projection then reuses the input columns).
  std::vector<int> passthrough;
  // kHashProbe:
  int build = -1;               // hash-table slot
  std::vector<ExprPtr> keys;    // probe keys over the left layout
  ExprPtr residual;
  sql::JoinType join_type = sql::JoinType::kInner;
  size_t build_width = 0;
};

/// Aggregate function, resolved once per plan.
enum class AggKind { kCount, kSum, kAvg, kMin, kMax, kOther };

struct VecAgg {
  AggKind kind = AggKind::kOther;
  ExprPtr arg;  // null for count(*)
  bool distinct = false;
};

struct VecSink {
  enum class Kind { kCollect, kHashBuild, kAggregate };
  Kind kind = Kind::kCollect;
  int target = -1;              // intermediate slot or hash-table slot
  // kHashBuild: key expressions over the build rows, the build row width,
  // and where each key's value is stored: its column when the key is a
  // column reference, else a computed-key column after the row's columns.
  std::vector<ExprPtr> keys;
  size_t build_width = 0;
  std::vector<int> key_cols;
  std::vector<ExprPtr> group_exprs;  // kAggregate
  std::vector<VecAgg> aggs;
};

/// Sequential op applied to a collected intermediate once its pipeline
/// completes (these are inherently order-sensitive, so they run on the
/// coordinating process).
struct PostOp {
  enum class Kind { kSort, kLimit, kDistinct, kStrip };
  Kind kind = Kind::kSort;
  std::vector<int> sort_slots;
  std::vector<bool> desc;
  int64_t limit = -1;
  int64_t offset = 0;
  int keep = 0;
};

struct Pipeline {
  VecSource source;
  std::vector<VecOp> ops;
  VecSink sink;
  std::vector<PostOp> posts;  // kCollect sinks only
  std::string desc;
};

struct VecPlan {
  std::vector<Pipeline> pipelines;
  int num_inters = 0;
  int num_hash_tables = 0;
  int final_inter = -1;  // slot holding the final row set
};

/// Constant-folds a bound expression for per-row evaluation: bottom-up,
/// every node whose children are all constants and that is not random()
/// becomes the constant it evaluates to. A node whose evaluation fails stays
/// as it is, so the error still surfaces per row (and not at all on empty
/// input), exactly as in the volcano executor. Column references,
/// parameters and aggregate slots are never constant. Unchanged subtrees are
/// shared and `e` is never mutated: the planner's tree is also deparsed into
/// SQL for other nodes.
ExprPtr Fold(const ExprPtr& e) {
  if (e == nullptr) return e;
  switch (e->kind) {
    case sql::ExprKind::kConst:
    case sql::ExprKind::kColumnRef:
    case sql::ExprKind::kParam:
    case sql::ExprKind::kAgg:
    case sql::ExprKind::kStar:
      return e;
    default:
      break;
  }
  std::vector<ExprPtr> args;
  args.reserve(e->args.size());
  bool changed = false;
  bool all_const = true;
  for (const ExprPtr& a : e->args) {
    ExprPtr f = Fold(a);
    changed |= f != a;
    all_const &= f != nullptr && f->kind == sql::ExprKind::kConst;
    args.push_back(std::move(f));
  }
  ExprPtr out = e;
  if (changed) {
    out = std::make_shared<sql::Expr>(*e);
    out->args = std::move(args);
  }
  if (all_const &&
      !(out->kind == sql::ExprKind::kFunc && out->func_name == "random")) {
    auto v = sql::Eval(*out, sql::EvalContext{});
    if (v.ok()) return sql::MakeConst(std::move(v).value());
  }
  return out;
}

std::vector<ExprPtr> FoldAll(const std::vector<ExprPtr>& exprs) {
  std::vector<ExprPtr> out;
  out.reserve(exprs.size());
  for (const ExprPtr& e : exprs) out.push_back(Fold(e));
  return out;
}

AggKind ResolveAgg(const std::string& func) {
  if (func == "count") return AggKind::kCount;
  if (func == "sum") return AggKind::kSum;
  if (func == "avg") return AggKind::kAvg;
  if (func == "min") return AggKind::kMin;
  if (func == "max") return AggKind::kMax;
  return AggKind::kOther;
}

// ---------------------------------------------------------------------------
// Builder: recognizes the volcano node shapes the vectorized engine covers;
// anything else (index scans, row locking, nested loops, OneRow) declines.

class Builder {
 public:
  explicit Builder(VecPlan* plan) : plan_(plan) {}

  /// Translate the subtree at `n` into an open pipeline (no sink yet).
  /// Returns false when the shape is unsupported.
  bool Build(const ExecNode* n, Pipeline* out) {
    if (auto* scan = dynamic_cast<const engine::SeqScanNode*>(n)) {
      if (scan->lock_rows || scan->emit_rowid) return false;
      out->source.kind = scan->table->is_columnar() ? VecSource::Kind::kColumnar
                                                    : VecSource::Kind::kHeap;
      out->source.table = scan->table;
      out->source.filter = Fold(scan->filter);
      out->source.prune_filter = scan->filter;
      out->source.projection = scan->projection;
      out->source.width = n->output_types.size();
      out->desc = "scan " + scan->table->name;
      return true;
    }
    if (auto* temp = dynamic_cast<const engine::TempScanNode*>(n)) {
      out->source.kind = VecSource::Kind::kTemp;
      out->source.temp = temp->relation;
      out->source.filter = Fold(temp->filter);
      out->source.width = n->output_types.size();
      out->desc = "scan intermediate";
      return true;
    }
    if (auto* filter = dynamic_cast<const engine::FilterNode*>(n)) {
      if (!Build(filter->input.get(), out)) return false;
      VecOp op;
      op.kind = VecOp::Kind::kFilter;
      op.predicate = Fold(filter->predicate);
      out->ops.push_back(std::move(op));
      out->desc += " -> filter";
      return true;
    }
    if (auto* proj = dynamic_cast<const engine::ProjectNode*>(n)) {
      if (!Build(proj->input.get(), out)) return false;
      VecOp op;
      op.kind = VecOp::Kind::kProject;
      op.exprs = FoldAll(proj->exprs);
      for (const ExprPtr& e : op.exprs) {
        if (e->kind != sql::ExprKind::kColumnRef || e->slot < 0) {
          op.passthrough.clear();
          break;
        }
        op.passthrough.push_back(e->slot);
      }
      out->ops.push_back(std::move(op));
      out->desc += " -> project";
      return true;
    }
    if (auto* join = dynamic_cast<const engine::HashJoinNode*>(n)) {
      if (join->join_type != sql::JoinType::kInner &&
          join->join_type != sql::JoinType::kLeft) {
        return false;
      }
      // Build side becomes its own pipeline ending in a hash-build sink.
      Pipeline build;
      if (!Build(join->right.get(), &build)) return false;
      int slot = plan_->num_hash_tables++;
      build.sink.kind = VecSink::Kind::kHashBuild;
      build.sink.target = slot;
      build.sink.keys = FoldAll(join->right_keys);
      build.sink.build_width = join->right->output_types.size();
      int computed = 0;
      for (const ExprPtr& k : build.sink.keys) {
        build.sink.key_cols.push_back(
            k->kind == sql::ExprKind::kColumnRef && k->slot >= 0
                ? k->slot
                : static_cast<int>(build.sink.build_width) + computed++);
      }
      build.desc += " -> hash build";
      plan_->pipelines.push_back(std::move(build));
      // Probe continues the current pipeline.
      if (!Build(join->left.get(), out)) return false;
      VecOp op;
      op.kind = VecOp::Kind::kHashProbe;
      op.build = slot;
      op.keys = FoldAll(join->left_keys);
      op.residual = Fold(join->residual);
      op.join_type = join->join_type;
      op.build_width = join->right->output_types.size();
      out->ops.push_back(std::move(op));
      out->desc += " -> hash probe";
      return true;
    }
    if (auto* agg = dynamic_cast<const engine::AggNode*>(n)) {
      Pipeline p;
      if (!Build(agg->input.get(), &p)) return false;
      int slot = plan_->num_inters++;
      p.sink.kind = VecSink::Kind::kAggregate;
      p.sink.target = slot;
      p.sink.group_exprs = FoldAll(agg->group_exprs);
      for (const engine::AggSpec& spec : agg->aggs) {
        VecAgg a;
        a.kind = ResolveAgg(spec.func);
        a.arg = Fold(spec.arg);
        a.distinct = spec.distinct;
        p.sink.aggs.push_back(std::move(a));
      }
      p.desc += " -> partial agg";
      plan_->pipelines.push_back(std::move(p));
      MaterializedSource(slot, n->output_types.size(), out);
      return true;
    }
    if (auto* sort = dynamic_cast<const engine::SortNode*>(n)) {
      PostOp post;
      post.kind = PostOp::Kind::kSort;
      post.sort_slots = sort->sort_slots;
      post.desc = sort->desc;
      return SequentialTail(sort->input.get(), std::move(post), "sort",
                            n->output_types.size(), out);
    }
    if (auto* limit = dynamic_cast<const engine::LimitNode*>(n)) {
      PostOp post;
      post.kind = PostOp::Kind::kLimit;
      post.limit = limit->limit;
      post.offset = limit->offset;
      return SequentialTail(limit->input.get(), std::move(post), "limit",
                            n->output_types.size(), out);
    }
    if (auto* distinct = dynamic_cast<const engine::DistinctNode*>(n)) {
      PostOp post;
      post.kind = PostOp::Kind::kDistinct;
      return SequentialTail(distinct->input.get(), std::move(post), "distinct",
                            n->output_types.size(), out);
    }
    if (auto* strip = dynamic_cast<const engine::StripColumnsNode*>(n)) {
      PostOp post;
      post.kind = PostOp::Kind::kStrip;
      post.keep = strip->keep;
      return SequentialTail(strip->input.get(), std::move(post), "strip",
                            n->output_types.size(), out);
    }
    // Transparent wrappers (plan owner nodes).
    if (const ExecNode* child = n->explain_child(); child != nullptr) {
      return Build(child, out);
    }
    return false;
  }

 private:
  void MaterializedSource(int slot, size_t width, Pipeline* out) {
    out->source.kind = VecSource::Kind::kMaterialized;
    out->source.inter = slot;
    out->source.width = width;
    out->desc = "scan intermediate";
  }

  /// Sort/limit/distinct/strip: collect the input pipeline into an
  /// intermediate and append a sequential post op. Consecutive tail ops
  /// chain onto the same pipeline instead of re-materializing.
  bool SequentialTail(const ExecNode* input, PostOp post, const char* name,
                      size_t width, Pipeline* out) {
    Pipeline p;
    if (!Build(input, &p)) return false;
    if (p.source.kind == VecSource::Kind::kMaterialized && p.ops.empty() &&
        !plan_->pipelines.empty() &&
        plan_->pipelines.back().sink.kind == VecSink::Kind::kCollect &&
        plan_->pipelines.back().sink.target == p.source.inter) {
      // The input already ends in a collected intermediate: chain.
      plan_->pipelines.back().posts.push_back(std::move(post));
      plan_->pipelines.back().desc += StrFormat(" -> %s", name);
      MaterializedSource(p.source.inter, width, out);
      return true;
    }
    int slot = plan_->num_inters++;
    p.sink.kind = VecSink::Kind::kCollect;
    p.sink.target = slot;
    p.posts.push_back(std::move(post));
    p.desc += StrFormat(" -> %s", name);
    plan_->pipelines.push_back(std::move(p));
    MaterializedSource(slot, width, out);
    return true;
  }

  VecPlan* plan_;
};

// ---------------------------------------------------------------------------
// Typed hash keys. Two key values are equal exactly when their
// Datum::GroupKey() strings are (the executors' historical key encoding):
// the same class and the same value. Classes: integer-like types (bool,
// int4, int8, date, timestamp) compare their int64 payload, float8 its exact
// bits (so -0.0 and 0.0 differ, and NaNs of one sign agree), text and jsonb
// their text. NULL is a class of its own: NULL group keys form one group,
// and join keys never reach the tables when NULL.

enum class KeyClass : uint8_t { kNull, kInt, kFloat, kText, kJson };

KeyClass ClassOf(sql::TypeId t) {
  switch (t) {
    case sql::TypeId::kNull:
      return KeyClass::kNull;
    case sql::TypeId::kFloat8:
      return KeyClass::kFloat;
    case sql::TypeId::kText:
      return KeyClass::kText;
    case sql::TypeId::kJsonb:
      return KeyClass::kJson;
    default:
      return KeyClass::kInt;
  }
}

uint64_t FloatBits(double d) {
  if (std::isnan(d)) {
    return std::signbit(d) ? 0xfff8000000000000ULL : 0x7ff8000000000000ULL;
  }
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

std::string JsonText(const sql::Datum& d) {
  return d.json_value() != nullptr ? d.json_value()->ToString() : "null";
}

uint64_t KeyHash(const sql::Datum& d) {
  KeyClass k = ClassOf(d.type());
  uint64_t v = 0;
  switch (k) {
    case KeyClass::kNull:
      break;
    case KeyClass::kInt:
      v = static_cast<uint64_t>(d.int_value());
      break;
    case KeyClass::kFloat:
      v = FloatBits(d.float_value());
      break;
    case KeyClass::kText:
      v = std::hash<std::string>{}(d.text_value());
      break;
    case KeyClass::kJson:
      v = std::hash<std::string>{}(JsonText(d));
      break;
  }
  return Mix64(v ^ static_cast<uint64_t>(k));
}

bool KeyEqual(const sql::Datum& a, const sql::Datum& b) {
  KeyClass k = ClassOf(a.type());
  if (k != ClassOf(b.type())) return false;
  switch (k) {
    case KeyClass::kNull:
      return true;
    case KeyClass::kInt:
      return a.int_value() == b.int_value();
    case KeyClass::kFloat:
      return FloatBits(a.float_value()) == FloatBits(b.float_value());
    case KeyClass::kText:
      return a.text_value() == b.text_value();
    case KeyClass::kJson:
      return JsonText(a) == JsonText(b);
  }
  return false;
}

uint64_t TupleHash(const std::vector<const sql::Datum*>& keys) {
  uint64_t h = 0;
  for (const sql::Datum* k : keys) h = Mix64(h ^ KeyHash(*k));
  return h;
}

/// Distinct key tuples in first-seen order, stored column-major, with an
/// open-addressing (linear probing) index over their hashes. Groups
/// aggregation and DISTINCT.
class GroupTable {
 public:
  explicit GroupTable(size_t width) : keys_(width) {}

  size_t size() const { return hashes_.size(); }
  const sql::Datum& Key(size_t g, size_t j) const { return keys_[j][g]; }
  uint64_t Hash(size_t g) const { return hashes_[g]; }
  /// The key columns, one entry per group; moved out by the owner.
  std::vector<std::vector<sql::Datum>>& keys() { return keys_; }

  /// The group of `keys` (hash `h`), added with a copy of the keys when
  /// new (`*added` then set).
  size_t FindOrAdd(const std::vector<const sql::Datum*>& keys, uint64_t h,
                   bool* added) {
    if ((size() + 1) * 2 > slots_.size()) Grow();
    size_t mask = slots_.size() - 1;
    for (size_t i = h & mask;; i = (i + 1) & mask) {
      uint32_t s = slots_[i];
      if (s == 0) {
        slots_[i] = static_cast<uint32_t>(size() + 1);
        hashes_.push_back(h);
        for (size_t j = 0; j < keys_.size(); j++) keys_[j].push_back(*keys[j]);
        *added = true;
        return size() - 1;
      }
      size_t g = s - 1;
      if (hashes_[g] == h && Equal(g, keys)) {
        *added = false;
        return g;
      }
    }
  }

 private:
  bool Equal(size_t g, const std::vector<const sql::Datum*>& keys) const {
    for (size_t j = 0; j < keys_.size(); j++) {
      if (!KeyEqual(keys_[j][g], *keys[j])) return false;
    }
    return true;
  }

  void Grow() {
    slots_.assign(std::max<size_t>(16, slots_.size() * 2), 0);
    size_t mask = slots_.size() - 1;
    for (size_t g = 0; g < size(); g++) {
      size_t i = hashes_[g] & mask;
      while (slots_[i] != 0) i = (i + 1) & mask;
      slots_[i] = static_cast<uint32_t>(g + 1);
    }
  }

  std::vector<std::vector<sql::Datum>> keys_;
  std::vector<uint64_t> hashes_;
  std::vector<uint32_t> slots_;  // 0 = empty, else group index + 1
};

/// Hash-join build side: the build rows column-major in one segment per
/// morsel worker (worker order), and a chained hash index over them whose
/// chains list rows in insertion order, so a key's matches come out in the
/// order the build pipeline produced them. Rows with a NULL key are never
/// stored.
class JoinTable {
 public:
  struct Segment {
    ColumnStore rows;  // build columns, then computed-key columns
    std::vector<uint64_t> hashes;
  };

  Status Build(std::vector<Segment> segments, std::vector<int> key_cols) {
    segments_.clear();
    seg_begin_.clear();
    key_cols_ = std::move(key_cols);
    size_t total = 0;
    for (Segment& s : segments) {
      if (s.rows.rows == 0) continue;
      seg_begin_.push_back(total);
      total += static_cast<size_t>(s.rows.rows);
      hashes_.insert(hashes_.end(), s.hashes.begin(), s.hashes.end());
      segments_.push_back(std::move(s.rows));
    }
    if (total >= kNone) {
      return Status::NotSupported("hash join build side too large");
    }
    size_t buckets = 1;
    while (buckets < total) buckets <<= 1;
    mask_ = buckets - 1;
    heads_.assign(buckets, kNone);
    next_.assign(total, kNone);
    // Head insertion from the last row back keeps every chain in row order.
    for (size_t g = total; g-- > 0;) {
      uint32_t& head = heads_[hashes_[g] & mask_];
      next_[g] = head;
      head = static_cast<uint32_t>(g);
    }
    return Status::OK();
  }

  int64_t size() const { return static_cast<int64_t>(hashes_.size()); }
  const ColumnStore& segment(size_t s) const { return segments_[s]; }
  /// True when build column `c` is skipped in every segment.
  bool ColumnSkipped(size_t c) const {
    for (const ColumnStore& seg : segments_) {
      if (seg.Column(c) != nullptr) return false;
    }
    return true;
  }

  /// Calls fn(segment, row) for every stored row whose key equals `keys`
  /// (hash `h`), in insertion order; stops at the first error.
  template <typename Fn>
  Status ForEachMatch(const std::vector<const sql::Datum*>& keys, uint64_t h,
                      Fn&& fn) const {
    if (heads_.empty()) return Status::OK();
    for (uint32_t g = heads_[h & mask_]; g != kNone; g = next_[g]) {
      if (hashes_[g] != h) continue;
      size_t s = 0;
      while (s + 1 < seg_begin_.size() && g >= seg_begin_[s + 1]) s++;
      size_t r = g - seg_begin_[s];
      const ColumnStore& seg = segments_[s];
      bool equal = true;
      for (size_t j = 0; j < keys.size() && equal; j++) {
        const std::vector<sql::Datum>* col =
            seg.Column(static_cast<size_t>(key_cols_[j]));
        equal = col != nullptr && KeyEqual(*keys[j], (*col)[r]);
      }
      if (equal) CITUSX_RETURN_IF_ERROR(fn(s, r));
    }
    return Status::OK();
  }

 private:
  static constexpr uint32_t kNone = UINT32_MAX;

  std::vector<ColumnStore> segments_;
  std::vector<size_t> seg_begin_;  // first global row of each segment
  std::vector<int> key_cols_;
  std::vector<uint64_t> hashes_;   // per global row
  std::vector<uint32_t> heads_;    // bucket -> first global row
  std::vector<uint32_t> next_;     // global row -> next in its chain
  size_t mask_ = 0;
};

// ---------------------------------------------------------------------------
// Aggregation state, mirroring the volcano executor's semantics exactly
// (sum/avg track int and float sums, aggregates skip NULLs, min/max via
// Datum::Compare). Partial states merge across morsel workers; DISTINCT
// arguments are collected as value sets and folded only at merge time so
// duplicates seen by different workers cannot double-count.

struct AggState {
  int64_t count = 0;
  double sum_f = 0;
  int64_t sum_i = 0;
  bool sum_is_float = false;
  bool any = false;
  sql::Datum min_max;
  std::map<std::string, sql::Datum> distinct_vals;  // key -> value
};

void AggTransition(AggKind kind, const sql::Datum& v, AggState* st) {
  if (kind == AggKind::kCount) {
    st->count++;
    return;
  }
  st->any = true;
  switch (kind) {
    case AggKind::kSum:
    case AggKind::kAvg:
      st->count++;
      if (v.type() == sql::TypeId::kFloat8) {
        st->sum_is_float = true;
        st->sum_f += v.float_value();
      } else {
        st->sum_i += v.AsInt64();
        st->sum_f += static_cast<double>(v.AsInt64());
      }
      return;
    case AggKind::kMin:
      if (st->min_max.is_null() || sql::Datum::Compare(v, st->min_max) < 0) {
        st->min_max = v;
      }
      return;
    case AggKind::kMax:
      if (st->min_max.is_null() || sql::Datum::Compare(v, st->min_max) > 0) {
        st->min_max = v;
      }
      return;
    default:
      return;
  }
}

void MergeAggState(const VecAgg& agg, const AggState& in, AggState* out) {
  if (agg.distinct) {
    for (const auto& [k, v] : in.distinct_vals) {
      out->distinct_vals.emplace(k, v);
    }
    return;
  }
  out->count += in.count;
  out->sum_i += in.sum_i;
  out->sum_f += in.sum_f;
  out->sum_is_float |= in.sum_is_float;
  out->any |= in.any;
  if (!in.min_max.is_null()) {
    if (out->min_max.is_null() ||
        (agg.kind == AggKind::kMin &&
         sql::Datum::Compare(in.min_max, out->min_max) < 0) ||
        (agg.kind == AggKind::kMax &&
         sql::Datum::Compare(in.min_max, out->min_max) > 0)) {
      out->min_max = in.min_max;
    }
  }
}

sql::Datum AggFinal(AggKind kind, const AggState& st) {
  switch (kind) {
    case AggKind::kCount:
      return sql::Datum::Int8(st.count);
    case AggKind::kSum:
      if (!st.any) return sql::Datum::Null();
      return st.sum_is_float ? sql::Datum::Float8(st.sum_f)
                             : sql::Datum::Int8(st.sum_i);
    case AggKind::kAvg:
      if (st.count == 0) return sql::Datum::Null();
      return sql::Datum::Float8(st.sum_f / static_cast<double>(st.count));
    default:
      return st.min_max;  // min/max; NULL when no input
  }
}

/// One worker's partial aggregation: its groups and their states
/// (group-major, one state per aggregate).
struct AggBuffer {
  GroupTable groups{0};
  std::vector<AggState> states;
};

// ---------------------------------------------------------------------------
// Runtime state shared by the coordinating process and the morsel workers.
// Heap-allocated and co-owned by every worker so cancellation at simulation
// shutdown cannot dangle (the adaptive-executor idiom).

struct MorselTask {
  int64_t begin = 0;   // heap/temp/materialized: row range
  int64_t end = 0;
  int64_t stripe = -1;  // columnar: read-unit index
};

struct PipelineRun {
  const Pipeline* pipe = nullptr;
  std::vector<ColumnStore>* inters = nullptr;
  std::vector<JoinTable>* hash_tables = nullptr;

  std::vector<MorselTask> morsels;
  size_t next_morsel = 0;
  int64_t pruned_stripes = 0;

  // Per-worker partial sinks, merged in worker order by the coordinator.
  std::vector<ColumnStore> local_rows;
  std::vector<JoinTable::Segment> local_builds;
  std::vector<AggBuffer> local_groups;

  bool abort = false;
  Status error;  // first error wins

  obs::TraceCollector* tracer = nullptr;
  obs::TraceId trace = 0;
  obs::SpanId span = 0;  // pipeline span

  std::unique_ptr<sim::Channel<int>> done;

  void Fail(Status s) {
    if (error.ok()) error = std::move(s);
    abort = true;
  }
};

/// An evaluation context over `cols` (a chunk's column pointers).
sql::EvalContext ColumnEvalCtx(
    const ExecContext& ctx,
    const std::vector<const std::vector<sql::Datum>*>* cols) {
  sql::EvalContext ec = ctx.EvalCtx(nullptr);
  ec.columns = cols;
  return ec;
}

/// Evaluates join `keys` at the context's row into `*out` (values in place
/// where possible, else in `scratch`). Returns false at the first NULL key:
/// NULL keys never join, and the keys after it are not evaluated.
Result<bool> EvalJoinKeys(const std::vector<ExprPtr>& keys,
                          const sql::EvalContext& ec,
                          std::vector<sql::Datum>* scratch,
                          std::vector<const sql::Datum*>* out) {
  for (size_t j = 0; j < keys.size(); j++) {
    CITUSX_ASSIGN_OR_RETURN((*out)[j],
                            sql::EvalRef(*keys[j], ec, &(*scratch)[j]));
    if ((*out)[j]->is_null()) return false;
  }
  return true;
}

// ---- min/max stripe pruning ------------------------------------------------

/// True when the scan filter provably rejects every row of a stripe, using
/// per-column min/max. Handles top-level AND of {col op const} and
/// {col BETWEEN a AND b}-shaped conjuncts; anything else is conservatively
/// kept.
bool StripePrunable(const sql::ExprPtr& filter,
                    const std::vector<storage::ColumnStats>& stats) {
  if (filter == nullptr) return false;
  std::vector<ExprPtr> conjuncts;
  engine::SplitConjuncts(filter, &conjuncts);
  for (const auto& c : conjuncts) {
    if (c->kind != sql::ExprKind::kBinary) continue;
    sql::BinOp op = c->bin_op;
    if (op != sql::BinOp::kEq && op != sql::BinOp::kLt &&
        op != sql::BinOp::kLe && op != sql::BinOp::kGt &&
        op != sql::BinOp::kGe) {
      continue;
    }
    const ExprPtr& lhs = c->args[0];
    const ExprPtr& rhs = c->args[1];
    const sql::Expr* col = nullptr;
    const sql::Expr* lit = nullptr;
    bool flipped = false;
    if (lhs->kind == sql::ExprKind::kColumnRef &&
        rhs->kind == sql::ExprKind::kConst) {
      col = lhs.get();
      lit = rhs.get();
    } else if (rhs->kind == sql::ExprKind::kColumnRef &&
               lhs->kind == sql::ExprKind::kConst) {
      col = rhs.get();
      lit = lhs.get();
      flipped = true;
    } else {
      continue;
    }
    // Bound scan filters reference the full table row, so the resolved slot
    // is the physical column index.
    int idx = col->slot;
    if (idx < 0 || static_cast<size_t>(idx) >= stats.size()) continue;
    const storage::ColumnStats& st = stats[static_cast<size_t>(idx)];
    if (!st.has_values) continue;  // all-NULL column never matches anyway,
                                   // but comparisons with NULL are not
                                   // prunable knowledge; keep conservative
    const sql::Datum& v = lit->value;
    if (v.is_null()) continue;
    // Normalize to col OP v.
    sql::BinOp norm = op;
    if (flipped) {
      switch (op) {
        case sql::BinOp::kLt: norm = sql::BinOp::kGt; break;
        case sql::BinOp::kLe: norm = sql::BinOp::kGe; break;
        case sql::BinOp::kGt: norm = sql::BinOp::kLt; break;
        case sql::BinOp::kGe: norm = sql::BinOp::kLe; break;
        default: break;
      }
    }
    int cmp_min = sql::Datum::Compare(st.min, v);
    int cmp_max = sql::Datum::Compare(st.max, v);
    bool impossible = false;
    switch (norm) {
      case sql::BinOp::kEq: impossible = cmp_min > 0 || cmp_max < 0; break;
      case sql::BinOp::kLt: impossible = cmp_min >= 0; break;
      case sql::BinOp::kLe: impossible = cmp_min > 0; break;
      case sql::BinOp::kGt: impossible = cmp_max <= 0; break;
      case sql::BinOp::kGe: impossible = cmp_max < 0; break;
      default: break;
    }
    if (impossible) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Morsel execution.

/// Read one morsel of the pipeline's source into a DataChunk. Returns false
/// in `*ok` on cancellation (no data touched afterwards).
Status ReadMorsel(ExecContext& ctx, PipelineRun& run, const MorselTask& m,
                  DataChunk* chunk, bool* cancelled) {
  *cancelled = false;
  const VecSource& src = run.pipe->source;
  switch (src.kind) {
    case VecSource::Kind::kColumnar: {
      storage::StripeView view;
      if (!src.table->columnar->ReadStripe(m.stripe, src.projection, &view)) {
        *cancelled = true;
        return Status::OK();
      }
      if (!ctx.ChargeCpu(view.rows * ctx.cost->vec_per_row_scan).ok()) {
        *cancelled = true;
        return Status::OK();
      }
      chunk->rows = view.rows;
      chunk->columns.clear();
      for (const auto* col : view.columns) {
        chunk->columns.push_back(ColumnRef::Borrowed(col));
      }
      return Status::OK();
    }
    case VecSource::Kind::kHeap: {
      if (!ctx.ChargeCpu((m.end - m.begin) * ctx.cost->vec_per_row_scan)
               .ok()) {
        *cancelled = true;
        return Status::OK();
      }
      // Copy only the projected columns; the others stay null (read as
      // NULL), as a columnar stripe's unprojected columns do.
      size_t width = static_cast<size_t>(src.table->schema().num_columns());
      std::vector<size_t> read;
      if (src.projection.empty()) {
        for (size_t c = 0; c < width; c++) read.push_back(c);
      } else {
        for (int c : src.projection) read.push_back(static_cast<size_t>(c));
      }
      std::vector<std::vector<sql::Datum>> cols(width);
      for (size_t c : read) {
        cols[c].reserve(static_cast<size_t>(m.end - m.begin));
      }
      int64_t rows = 0;
      for (int64_t rid = m.begin; rid < m.end; rid++) {
        if (!src.table->heap->TouchRow(static_cast<storage::RowId>(rid),
                                       /*dirty=*/false)) {
          *cancelled = true;
          return Status::OK();
        }
        const storage::TupleVersion* v = src.table->heap->VisibleVersion(
            static_cast<storage::RowId>(rid), ctx.snapshot, *ctx.txns);
        if (v == nullptr) continue;
        for (size_t c : read) cols[c].push_back(v->row[c]);
        rows++;
      }
      chunk->rows = rows;
      chunk->columns.assign(width, ColumnRef());
      for (size_t c : read) {
        chunk->columns[c] = ColumnRef::Owned(std::move(cols[c]));
      }
      return Status::OK();
    }
    case VecSource::Kind::kTemp: {
      if (!ctx.ChargeCpu((m.end - m.begin) * ctx.cost->vec_per_row_scan)
               .ok()) {
        *cancelled = true;
        return Status::OK();
      }
      const std::vector<sql::Row>& rows = src.temp->rows;
      std::vector<std::vector<sql::Datum>> cols(src.width);
      for (auto& c : cols) c.reserve(static_cast<size_t>(m.end - m.begin));
      for (int64_t r = m.begin; r < m.end; r++) {
        const sql::Row& row = rows[static_cast<size_t>(r)];
        for (size_t c = 0; c < src.width && c < row.size(); c++) {
          cols[c].push_back(row[c]);
        }
      }
      chunk->rows = m.end - m.begin;
      chunk->columns.clear();
      for (auto& c : cols) chunk->columns.push_back(ColumnRef::Owned(std::move(c)));
      return Status::OK();
    }
    case VecSource::Kind::kMaterialized: {
      if (!ctx.ChargeCpu((m.end - m.begin) * ctx.cost->vec_per_row_scan)
               .ok()) {
        *cancelled = true;
        return Status::OK();
      }
      // Zero-copy: the morsel selects its row range of the intermediate.
      const ColumnStore& store = (*run.inters)[static_cast<size_t>(src.inter)];
      chunk->rows = store.rows;
      chunk->columns.clear();
      for (size_t c = 0; c < src.width; c++) {
        chunk->columns.push_back(ColumnRef::Borrowed(
            c < store.width() ? store.Column(c) : nullptr));
      }
      chunk->filtered = true;
      chunk->sel.resize(static_cast<size_t>(m.end - m.begin));
      std::iota(chunk->sel.begin(), chunk->sel.end(), m.begin);
      return Status::OK();
    }
  }
  return Status::Internal("unreachable source kind");
}

/// Apply a filter expression to `chunk`, narrowing its selection vector.
Status FilterChunk(ExecContext& ctx, const ExprPtr& pred, DataChunk* chunk,
                   bool* cancelled) {
  *cancelled = false;
  int64_t n = chunk->Count();
  if (n == 0 || pred == nullptr) return Status::OK();
  if (!ctx.ChargeCpu(n * ctx.cost->vec_per_expr_eval).ok()) {
    *cancelled = true;
    return Status::OK();
  }
  auto cols = chunk->ColumnPointers();
  sql::EvalContext ec = ColumnEvalCtx(ctx, &cols);
  std::vector<int64_t> sel;
  sel.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; i++) {
    int64_t r = chunk->At(i);
    ec.index = static_cast<size_t>(r);
    CITUSX_ASSIGN_OR_RETURN(bool keep, sql::EvalPredicate(*pred, ec));
    if (keep) sel.push_back(r);
  }
  chunk->filtered = true;
  chunk->sel = std::move(sel);
  return Status::OK();
}

/// Evaluate projection expressions into fresh owned columns; a projection
/// of plain column references reuses the input columns instead.
Status ProjectChunk(ExecContext& ctx, const VecOp& op, DataChunk* chunk,
                    bool* cancelled) {
  *cancelled = false;
  const std::vector<ExprPtr>& exprs = op.exprs;
  int64_t n = chunk->Count();
  if (!ctx.ChargeCpu(n * static_cast<int64_t>(exprs.size()) *
                     ctx.cost->vec_per_expr_eval)
           .ok()) {
    *cancelled = true;
    return Status::OK();
  }
  bool passthrough = !op.passthrough.empty();
  for (int slot : op.passthrough) {
    passthrough &= static_cast<size_t>(slot) < chunk->columns.size();
  }
  if (passthrough) {
    std::vector<ColumnRef> cols;
    cols.reserve(op.passthrough.size());
    for (int slot : op.passthrough) {
      cols.push_back(chunk->columns[static_cast<size_t>(slot)]);
    }
    chunk->columns = std::move(cols);
    return Status::OK();
  }
  auto in = chunk->ColumnPointers();
  sql::EvalContext ec = ColumnEvalCtx(ctx, &in);
  std::vector<std::vector<sql::Datum>> cols(exprs.size());
  for (auto& c : cols) c.reserve(static_cast<size_t>(n));
  sql::Datum scratch;
  for (int64_t i = 0; i < n; i++) {
    ec.index = static_cast<size_t>(chunk->At(i));
    for (size_t e = 0; e < exprs.size(); e++) {
      CITUSX_ASSIGN_OR_RETURN(const sql::Datum* v,
                              sql::EvalRef(*exprs[e], ec, &scratch));
      cols[e].push_back(v == &scratch ? std::move(scratch) : *v);
    }
  }
  DataChunk out;
  out.rows = n;
  for (auto& c : cols) out.columns.push_back(ColumnRef::Owned(std::move(c)));
  *chunk = std::move(out);
  return Status::OK();
}

/// Probe a built hash table; emits combined rows into fresh owned columns.
Status ProbeChunk(ExecContext& ctx, const VecOp& op, const JoinTable& table,
                  DataChunk* chunk, bool* cancelled) {
  *cancelled = false;
  int64_t n = chunk->Count();
  if (!ctx.ChargeCpu(n * ctx.cost->vec_per_row_hash).ok()) {
    *cancelled = true;
    return Status::OK();
  }
  constexpr uint32_t kUnmatched = UINT32_MAX;
  struct Match {
    int64_t left;    // physical row of the probe chunk
    uint32_t seg;    // build segment, or kUnmatched (LEFT join padding)
    uint32_t row;    // row within the segment
  };
  std::vector<Match> matches;
  matches.reserve(static_cast<size_t>(n));
  auto in = chunk->ColumnPointers();
  sql::EvalContext ec = ColumnEvalCtx(ctx, &in);
  std::vector<sql::Datum> key_scratch(op.keys.size());
  std::vector<const sql::Datum*> keys(op.keys.size());
  size_t left_width = chunk->columns.size();
  sql::Row combined;  // join residual input: left row ++ build row
  for (int64_t i = 0; i < n; i++) {
    int64_t r = chunk->At(i);
    ec.index = static_cast<size_t>(r);
    CITUSX_ASSIGN_OR_RETURN(bool joinable,
                            EvalJoinKeys(op.keys, ec, &key_scratch, &keys));
    bool matched = false;
    if (joinable) {
      bool left_gathered = false;
      CITUSX_RETURN_IF_ERROR(table.ForEachMatch(
          keys, TupleHash(keys), [&](size_t s, size_t row) -> Status {
            if (op.residual != nullptr) {
              if (!left_gathered) {
                chunk->GatherRow(i, &combined);
                combined.resize(left_width + op.build_width);
                left_gathered = true;
              }
              const ColumnStore& seg = table.segment(s);
              for (size_t c = 0; c < op.build_width; c++) {
                const std::vector<sql::Datum>* col = seg.Column(c);
                combined[left_width + c] =
                    col == nullptr ? sql::Datum::Null() : (*col)[row];
              }
              auto rec = ctx.EvalCtx(&combined);
              CITUSX_ASSIGN_OR_RETURN(bool keep,
                                      sql::EvalPredicate(*op.residual, rec));
              if (!keep) return Status::OK();
            }
            matched = true;
            matches.push_back({r, static_cast<uint32_t>(s),
                               static_cast<uint32_t>(row)});
            return Status::OK();
          }));
    }
    if (!matched && op.join_type == sql::JoinType::kLeft) {
      matches.push_back({r, kUnmatched, 0});
    }
  }
  // Materialize the output columns; a column skipped on either side stays
  // skipped (reads as NULL).
  DataChunk out;
  out.rows = static_cast<int64_t>(matches.size());
  for (size_t c = 0; c < left_width; c++) {
    const std::vector<sql::Datum>* src = in[c];
    if (src == nullptr) {
      out.columns.emplace_back();
      continue;
    }
    std::vector<sql::Datum> col;
    col.reserve(matches.size());
    for (const Match& m : matches) {
      col.push_back((*src)[static_cast<size_t>(m.left)]);
    }
    out.columns.push_back(ColumnRef::Owned(std::move(col)));
  }
  for (size_t c = 0; c < op.build_width; c++) {
    if (table.ColumnSkipped(c)) {
      out.columns.emplace_back();
      continue;
    }
    std::vector<sql::Datum> col;
    col.reserve(matches.size());
    for (const Match& m : matches) {
      const std::vector<sql::Datum>* src =
          m.seg == kUnmatched ? nullptr : table.segment(m.seg).Column(c);
      col.push_back(src == nullptr ? sql::Datum::Null() : (*src)[m.row]);
    }
    out.columns.push_back(ColumnRef::Owned(std::move(col)));
  }
  *chunk = std::move(out);
  return Status::OK();
}

/// Feed a finished chunk into the worker-local sink.
Status SinkChunk(ExecContext& ctx, PipelineRun& run, int worker,
                 DataChunk& chunk, bool* cancelled) {
  *cancelled = false;
  int64_t n = chunk.Count();
  const VecSink& sink = run.pipe->sink;
  auto cols = chunk.ColumnPointers();
  sql::EvalContext ec = ColumnEvalCtx(ctx, &cols);
  switch (sink.kind) {
    case VecSink::Kind::kCollect: {
      run.local_rows[static_cast<size_t>(worker)].Append(chunk);
      return Status::OK();
    }
    case VecSink::Kind::kHashBuild: {
      if (!ctx.ChargeCpu(n * ctx.cost->vec_per_row_hash).ok()) {
        *cancelled = true;
        return Status::OK();
      }
      if (n == 0) return Status::OK();
      if (chunk.columns.size() != sink.build_width) {
        return Status::Internal("hash build input width does not match plan");
      }
      JoinTable::Segment& seg = run.local_builds[static_cast<size_t>(worker)];
      // Computed keys get columns of their own, indexed like the chunk's.
      size_t computed = 0;
      for (int k : sink.key_cols) {
        computed += static_cast<size_t>(k) >= sink.build_width;
      }
      std::vector<std::vector<sql::Datum>> computed_cols(
          computed, std::vector<sql::Datum>(static_cast<size_t>(chunk.rows)));
      std::vector<sql::Datum> key_scratch(sink.keys.size());
      std::vector<const sql::Datum*> keys(sink.keys.size());
      // Rows with a NULL key never join: only the others are kept.
      DataChunk kept;
      kept.rows = chunk.rows;
      kept.columns = chunk.columns;
      kept.filtered = true;
      for (int64_t i = 0; i < n; i++) {
        int64_t r = chunk.At(i);
        ec.index = static_cast<size_t>(r);
        CITUSX_ASSIGN_OR_RETURN(
            bool joinable, EvalJoinKeys(sink.keys, ec, &key_scratch, &keys));
        if (!joinable) continue;
        kept.sel.push_back(r);
        seg.hashes.push_back(TupleHash(keys));
        for (size_t j = 0; j < keys.size(); j++) {
          size_t kc = static_cast<size_t>(sink.key_cols[j]);
          if (kc >= sink.build_width) {
            computed_cols[kc - sink.build_width][static_cast<size_t>(r)] =
                *keys[j];
          }
        }
      }
      for (auto& c : computed_cols) {
        kept.columns.push_back(ColumnRef::Owned(std::move(c)));
      }
      seg.rows.Append(kept);
      return Status::OK();
    }
    case VecSink::Kind::kAggregate: {
      if (!ctx.ChargeCpu(n * ctx.cost->vec_per_row_hash).ok()) {
        *cancelled = true;
        return Status::OK();
      }
      AggBuffer& buf = run.local_groups[static_cast<size_t>(worker)];
      size_t naggs = sink.aggs.size();
      std::vector<sql::Datum> key_scratch(sink.group_exprs.size());
      std::vector<const sql::Datum*> keys(sink.group_exprs.size());
      sql::Datum arg_scratch;
      for (int64_t i = 0; i < n; i++) {
        ec.index = static_cast<size_t>(chunk.At(i));
        for (size_t j = 0; j < keys.size(); j++) {
          CITUSX_ASSIGN_OR_RETURN(
              keys[j], sql::EvalRef(*sink.group_exprs[j], ec, &key_scratch[j]));
        }
        bool added = false;
        size_t g = buf.groups.FindOrAdd(keys, TupleHash(keys), &added);
        if (added) buf.states.resize(buf.groups.size() * naggs);
        for (size_t a = 0; a < naggs; a++) {
          const VecAgg& agg = sink.aggs[a];
          const sql::Datum* v = &kNullDatum;
          if (agg.arg != nullptr) {
            CITUSX_ASSIGN_OR_RETURN(v,
                                    sql::EvalRef(*agg.arg, ec, &arg_scratch));
            if (v->is_null()) continue;  // aggregates skip NULLs
          }
          AggState& st = buf.states[g * naggs + a];
          if (agg.distinct && agg.arg != nullptr) {
            // Collect values only; folded at merge so workers cannot
            // double-count a value seen in several morsels.
            st.distinct_vals.emplace(v->GroupKey(), *v);
            continue;
          }
          AggTransition(agg.kind, *v, &st);
        }
      }
      return Status::OK();
    }
  }
  return Status::Internal("unreachable sink kind");
}

/// One worker process: claim morsels until none remain, running the
/// pipeline's operator chain over each. Every exit path sends exactly one
/// completion message, so the coordinator can never hang — a mid-query
/// crash or cancellation surfaces as an error status instead.
void MorselWorker(std::shared_ptr<PipelineRun> run, int worker,
                  ExecContext ctx) {
  Status status = Status::OK();
  bool cancelled = false;
  while (!cancelled && status.ok()) {
    if (run->abort || ctx.sim->stopping()) break;
    if (run->next_morsel >= run->morsels.size()) break;
    const MorselTask m = run->morsels[run->next_morsel++];
    obs::SpanId mspan = 0;
    if (run->tracer != nullptr) {
      mspan = run->tracer->StartSpan(run->trace, run->span, "morsel", "",
                                     ctx.sim->now());
    }
    if (!ctx.ChargeCpu(ctx.cost->vec_morsel_overhead).ok()) {
      cancelled = true;
      break;
    }
    DataChunk chunk;
    status = ReadMorsel(ctx, *run, m, &chunk, &cancelled);
    if (!status.ok() || cancelled) break;
    if (run->pipe->source.filter != nullptr) {
      status = FilterChunk(ctx, run->pipe->source.filter, &chunk, &cancelled);
      if (!status.ok() || cancelled) break;
    }
    for (const VecOp& op : run->pipe->ops) {
      switch (op.kind) {
        case VecOp::Kind::kFilter:
          status = FilterChunk(ctx, op.predicate, &chunk, &cancelled);
          break;
        case VecOp::Kind::kProject:
          status = ProjectChunk(ctx, op, &chunk, &cancelled);
          break;
        case VecOp::Kind::kHashProbe:
          status = ProbeChunk(
              ctx, op, (*run->hash_tables)[static_cast<size_t>(op.build)],
              &chunk, &cancelled);
          break;
      }
      if (!status.ok() || cancelled) break;
    }
    if (!status.ok() || cancelled) break;
    status = SinkChunk(ctx, *run, worker, chunk, &cancelled);
    if (run->tracer != nullptr) {
      run->tracer->SetRows(mspan, chunk.Count());
      run->tracer->EndSpan(mspan, ctx.sim->now());
    }
  }
  if (cancelled) {
    run->Fail(Status::Cancelled("simulation stopping"));
  } else if (!status.ok()) {
    run->Fail(std::move(status));
  }
  CITUSX_IGNORE_STATUS(ctx.FlushCpu(), "worker exit; cancellation handled");
  run->done->Send(worker);
}

// ---- sequential post ops ---------------------------------------------------

/// Pointers to row `r`'s values (skipped columns read as NULL).
void RowPointers(const ColumnStore& rows, size_t r,
                 std::vector<const sql::Datum*>* out) {
  out->resize(rows.width());
  for (size_t c = 0; c < rows.width(); c++) {
    const std::vector<sql::Datum>* col = rows.Column(c);
    (*out)[c] = col == nullptr ? &kNullDatum : &(*col)[r];
  }
}

/// A store holding `columns` (one entry per row) with none skipped.
ColumnStore DenseStore(std::vector<std::vector<sql::Datum>> columns,
                       int64_t rows) {
  ColumnStore out(columns.size());
  out.columns = std::move(columns);
  out.skipped.assign(out.columns.size(), false);
  out.rows = rows;
  return out;
}

Status ApplyPost(ExecContext& ctx, const PostOp& post, ColumnStore* rows) {
  size_t n = static_cast<size_t>(rows->rows);
  switch (post.kind) {
    case PostOp::Kind::kSort: {
      CITUSX_RETURN_IF_ERROR(
          ctx.ChargeCpu(rows->rows * ctx.cost->vec_per_row_sort));
      std::vector<const std::vector<sql::Datum>*> keys;
      for (int s : post.sort_slots) {
        keys.push_back(static_cast<size_t>(s) < rows->width()
                           ? rows->Column(static_cast<size_t>(s))
                           : nullptr);
      }
      // A stable sort of row indexes orders rows exactly as a stable sort
      // of the rows themselves.
      std::vector<size_t> perm(n);
      std::iota(perm.begin(), perm.end(), 0);
      std::stable_sort(perm.begin(), perm.end(), [&](size_t a, size_t b) {
        for (size_t i = 0; i < keys.size(); i++) {
          if (keys[i] == nullptr) continue;  // all NULL: ties
          int c = sql::Datum::Compare((*keys[i])[a], (*keys[i])[b]);
          if (c != 0) return post.desc[i] ? c > 0 : c < 0;
        }
        return false;
      });
      for (size_t c = 0; c < rows->width(); c++) {
        if (rows->skipped[c]) continue;
        std::vector<sql::Datum>& col = rows->columns[c];
        std::vector<sql::Datum> sorted;
        sorted.reserve(n);
        for (size_t r : perm) sorted.push_back(std::move(col[r]));
        col = std::move(sorted);
      }
      return Status::OK();
    }
    case PostOp::Kind::kLimit: {
      int64_t begin = std::min<int64_t>(post.offset, rows->rows);
      int64_t end = post.limit < 0
                        ? rows->rows
                        : std::min<int64_t>(begin + post.limit, rows->rows);
      for (size_t c = 0; c < rows->width(); c++) {
        if (rows->skipped[c]) continue;
        std::vector<sql::Datum>& col = rows->columns[c];
        col.erase(col.begin() + end, col.end());
        col.erase(col.begin(), col.begin() + begin);
      }
      rows->rows = end - begin;
      return Status::OK();
    }
    case PostOp::Kind::kDistinct: {
      CITUSX_RETURN_IF_ERROR(
          ctx.ChargeCpu(rows->rows * ctx.cost->vec_per_row_hash));
      // First occurrences, in order: the distinct rows are the table's keys.
      GroupTable seen(rows->width());
      std::vector<const sql::Datum*> row;
      for (size_t r = 0; r < n; r++) {
        RowPointers(*rows, r, &row);
        bool added = false;
        seen.FindOrAdd(row, TupleHash(row), &added);
      }
      int64_t distinct = static_cast<int64_t>(seen.size());
      *rows = DenseStore(std::move(seen.keys()), distinct);
      return Status::OK();
    }
    case PostOp::Kind::kStrip: {
      size_t keep = std::min(static_cast<size_t>(post.keep), rows->width());
      rows->columns.resize(keep);
      rows->skipped.resize(keep);
      return Status::OK();
    }
  }
  return Status::Internal("unreachable post op");
}

/// Merge the workers' partial aggregates (in worker order) and write one row
/// per group, in GroupKey order, into `*out`.
void FinishAggregate(const VecSink& sink, std::vector<AggBuffer>* locals,
                     ColumnStore* out) {
  size_t nkeys = sink.group_exprs.size();
  size_t naggs = sink.aggs.size();
  GroupTable merged(nkeys);
  std::vector<AggState> states;
  std::vector<const sql::Datum*> keys(nkeys);
  for (AggBuffer& local : *locals) {
    for (size_t g = 0; g < local.groups.size(); g++) {
      for (size_t j = 0; j < nkeys; j++) keys[j] = &local.groups.Key(g, j);
      bool added = false;
      size_t mg = merged.FindOrAdd(keys, local.groups.Hash(g), &added);
      if (added) states.resize(merged.size() * naggs);
      for (size_t a = 0; a < naggs; a++) {
        MergeAggState(sink.aggs[a], local.states[g * naggs + a],
                      &states[mg * naggs + a]);
      }
    }
    local = AggBuffer{};
  }
  size_t groups = merged.size();
  std::vector<std::vector<sql::Datum>> cols(nkeys + naggs);
  if (groups == 0 && nkeys == 0) {
    // Aggregate over empty input: one row of "empty" aggregates.
    for (size_t a = 0; a < naggs; a++) {
      cols[a].push_back(AggFinal(sink.aggs[a].kind, AggState{}));
    }
    *out = DenseStore(std::move(cols), 1);
    return;
  }
  // Groups come out in the order of their GroupKey() strings.
  std::vector<std::string> order_keys(groups);
  for (size_t g = 0; g < groups; g++) {
    for (size_t j = 0; j < nkeys; j++) {
      order_keys[g] += merged.Key(g, j).GroupKey();
      order_keys[g].push_back('\x1f');
    }
  }
  std::vector<size_t> order(groups);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return order_keys[a] < order_keys[b];
  });
  std::vector<std::vector<sql::Datum>>& key_cols = merged.keys();
  for (auto& c : cols) c.reserve(groups);
  for (size_t g : order) {
    for (size_t j = 0; j < nkeys; j++) {
      cols[j].push_back(std::move(key_cols[j][g]));
    }
    for (size_t a = 0; a < naggs; a++) {
      AggState& st = states[g * naggs + a];
      const VecAgg& agg = sink.aggs[a];
      // Fold collected DISTINCT values now that duplicates are merged.
      if (agg.distinct) {
        for (const auto& [dk, dv] : st.distinct_vals) {
          AggTransition(agg.kind, dv, &st);
        }
      }
      cols[nkeys + a].push_back(AggFinal(agg.kind, st));
    }
  }
  *out = DenseStore(std::move(cols), static_cast<int64_t>(groups));
}

// ---------------------------------------------------------------------------
// Pipeline driver.

Status RunPipeline(engine::Node* node, ExecContext& ctx, const Pipeline& pipe,
                   std::vector<ColumnStore>* inters,
                   std::vector<JoinTable>* hash_tables) {
  CITUSX_RETURN_IF_ERROR(ctx.ChargeCpu(ctx.cost->vec_pipeline_startup));

  auto run = std::make_shared<PipelineRun>();
  run->pipe = &pipe;
  run->inters = inters;
  run->hash_tables = hash_tables;
  run->done = std::make_unique<sim::Channel<int>>(ctx.sim);
  run->tracer = ctx.tracer;
  run->trace = ctx.trace;

  // Split the source into morsels.
  switch (pipe.source.kind) {
    case VecSource::Kind::kColumnar: {
      storage::ColumnarTable* col = pipe.source.table->columnar.get();
      int64_t units = col->num_read_units();
      for (int64_t s = 0; s < units; s++) {
        if (!col->StripeVisible(s, ctx.snapshot, *ctx.txns)) continue;
        const std::vector<storage::ColumnStats>* stats = col->StripeStats(s);
        if (stats != nullptr &&
            StripePrunable(pipe.source.prune_filter, *stats)) {
          run->pruned_stripes++;
          continue;
        }
        MorselTask m;
        m.stripe = s;
        run->morsels.push_back(m);
      }
      break;
    }
    case VecSource::Kind::kHeap:
    case VecSource::Kind::kTemp:
    case VecSource::Kind::kMaterialized: {
      int64_t n = 0;
      if (pipe.source.kind == VecSource::Kind::kHeap) {
        n = static_cast<int64_t>(pipe.source.table->heap->num_rows());
      } else if (pipe.source.kind == VecSource::Kind::kTemp) {
        n = static_cast<int64_t>(pipe.source.temp->rows.size());
      } else {
        n = (*inters)[static_cast<size_t>(pipe.source.inter)].rows;
      }
      for (int64_t b = 0; b < n; b += ctx.cost->vec_morsel_rows) {
        MorselTask m;
        m.begin = b;
        m.end = std::min(n, b + ctx.cost->vec_morsel_rows);
        run->morsels.push_back(m);
      }
      break;
    }
  }

  int workers = static_cast<int>(std::min<size_t>(
      static_cast<size_t>(std::max(1, ctx.cost->cores_per_node)),
      std::max<size_t>(1, run->morsels.size())));
  run->local_rows.resize(static_cast<size_t>(workers));
  run->local_builds.resize(static_cast<size_t>(workers));
  run->local_groups.resize(static_cast<size_t>(workers),
                           AggBuffer{GroupTable(pipe.sink.group_exprs.size()),
                                     {}});

  if (ctx.tracer != nullptr) {
    run->span = ctx.tracer->StartSpan(
        ctx.trace, ctx.parent_span, "pipeline",
        node != nullptr ? node->name() : std::string(), ctx.sim->now());
    ctx.tracer->SetAttr(run->span, "ops", pipe.desc);
    ctx.tracer->SetAttr(run->span, "morsels",
                        std::to_string(run->morsels.size()));
    ctx.tracer->SetAttr(run->span, "workers", std::to_string(workers));
    if (run->pruned_stripes > 0) {
      ctx.tracer->SetAttr(run->span, "pruned_stripes",
                          std::to_string(run->pruned_stripes));
    }
  }

  // Parallel morsel phase. The accumulated statement cost is flushed first
  // so it lands on the coordinating process, not a worker.
  CITUSX_RETURN_IF_ERROR(ctx.FlushCpu());
  if (workers == 1) {
    MorselWorker(run, 0, ctx);
    if (!run->done->Receive().has_value()) {
      run->abort = true;
      return Status::Cancelled("simulation stopping");
    }
  } else {
    for (int w = 0; w < workers; w++) {
      ExecContext wctx = ctx;
      wctx.pending_cpu_ = 0;
      ctx.sim->Spawn(StrFormat("morsel-worker-%d", w),
                     [run, w, wctx]() mutable { MorselWorker(run, w, wctx); },
                     /*daemon=*/true);
    }
    for (int w = 0; w < workers; w++) {
      if (!run->done->Receive().has_value()) {
        // This coordinating process was cancelled; workers co-own the run
        // state and drain on their own.
        run->abort = true;
        return Status::Cancelled("simulation stopping");
      }
    }
  }
  if (!run->error.ok()) {
    if (ctx.tracer != nullptr) ctx.tracer->EndSpan(run->span, ctx.sim->now());
    return run->error;
  }

  // Merge worker-local sinks in worker order (deterministic).
  int64_t out_rows = 0;
  switch (pipe.sink.kind) {
    case VecSink::Kind::kCollect: {
      ColumnStore& out = (*inters)[static_cast<size_t>(pipe.sink.target)];
      for (ColumnStore& local : run->local_rows) out.Append(std::move(local));
      for (const PostOp& post : pipe.posts) {
        CITUSX_RETURN_IF_ERROR(ApplyPost(ctx, post, &out));
      }
      out_rows = out.rows;
      break;
    }
    case VecSink::Kind::kHashBuild: {
      JoinTable& table = (*hash_tables)[static_cast<size_t>(pipe.sink.target)];
      CITUSX_RETURN_IF_ERROR(
          table.Build(std::move(run->local_builds), pipe.sink.key_cols));
      out_rows = table.size();
      break;
    }
    case VecSink::Kind::kAggregate: {
      ColumnStore& out = (*inters)[static_cast<size_t>(pipe.sink.target)];
      FinishAggregate(pipe.sink, &run->local_groups, &out);
      out_rows = out.rows;
      break;
    }
  }
  if (ctx.tracer != nullptr) {
    ctx.tracer->SetRows(run->span, out_rows);
    ctx.tracer->EndSpan(run->span, ctx.sim->now());
  }
  return Status::OK();
}

Result<std::optional<QueryResult>> RunVectorized(engine::Node* node,
                                                 ExecNode& plan,
                                                 ExecContext& ctx) {
  VecPlan vplan;
  Builder builder(&vplan);
  Pipeline root;
  if (!builder.Build(&plan, &root)) {
    return std::optional<QueryResult>();  // unsupported: volcano fallback
  }
  if (root.source.kind == VecSource::Kind::kMaterialized && root.ops.empty()) {
    // The tree ended in a breaker; its intermediate is the result.
    vplan.final_inter = root.source.inter;
  } else {
    vplan.final_inter = vplan.num_inters++;
    root.sink.kind = VecSink::Kind::kCollect;
    root.sink.target = vplan.final_inter;
    vplan.pipelines.push_back(std::move(root));
  }

  std::vector<ColumnStore> inters(static_cast<size_t>(vplan.num_inters));
  std::vector<JoinTable> hash_tables(
      static_cast<size_t>(vplan.num_hash_tables));
  for (const Pipeline& pipe : vplan.pipelines) {
    CITUSX_RETURN_IF_ERROR(RunPipeline(node, ctx, pipe, &inters, &hash_tables));
  }

  // The only place rows are built: the final result.
  ColumnStore& result = inters[static_cast<size_t>(vplan.final_inter)];
  QueryResult out;
  out.column_names = plan.output_names;
  out.column_types = plan.output_types;
  out.rows.resize(static_cast<size_t>(result.rows));
  for (size_t r = 0; r < out.rows.size(); r++) {
    sql::Row& row = out.rows[r];
    row.resize(result.width());
    for (size_t c = 0; c < result.width(); c++) {
      if (!result.skipped[c]) row[c] = std::move(result.columns[c][r]);
    }
  }
  out.command_tag = "SELECT";
  CITUSX_RETURN_IF_ERROR(ctx.FlushCpu());
  return std::optional<QueryResult>(std::move(out));
}

}  // namespace

Result<std::optional<QueryResult>> ExecuteVectorized(engine::ExecNode& plan,
                                                     engine::ExecContext& ctx) {
  return RunVectorized(nullptr, plan, ctx);
}

void InstallVectorizedExecutor(engine::Node* node) {
  node->set_batch_executor(
      [node](engine::ExecNode& plan,
             engine::ExecContext& ctx) -> Result<std::optional<QueryResult>> {
        return RunVectorized(node, plan, ctx);
      });
}

}  // namespace citusx::exec
