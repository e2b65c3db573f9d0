// Runtime expression evaluation.
#ifndef CITUSX_SQL_EVAL_H_
#define CITUSX_SQL_EVAL_H_

#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "sql/ast.h"
#include "sql/datum.h"

namespace citusx::sql {

/// Everything an expression may reference at runtime. Column references and
/// aggregate results must have been bound to slots in the input tuple by the
/// planner. The tuple is either `row` or, when `columns` is set, the
/// column-major tuple at physical index `index`: slot s reads
/// (*(*columns)[s])[index], and a null column pointer reads as NULL.
struct EvalContext {
  const Row* row = nullptr;             // current input tuple
  const std::vector<const std::vector<Datum>*>* columns = nullptr;
  size_t index = 0;
  const std::vector<Datum>* params = nullptr;  // $n values
  Rng* rng = nullptr;                   // for random()
};

/// Evaluate a bound expression. kColumnRef/kAgg nodes must have slot >= 0.
Result<Datum> Eval(const Expr& e, const EvalContext& ctx);

/// Like Eval, but constants and column references are returned in place
/// (no copy); any other result is stored in `*scratch`, which the returned
/// pointer then addresses.
Result<const Datum*> EvalRef(const Expr& e, const EvalContext& ctx,
                             Datum* scratch);

/// Evaluate to a boolean for filtering: NULL and false both reject.
Result<bool> EvalPredicate(const Expr& e, const EvalContext& ctx);

/// SQL LIKE/ILIKE matching with % and _ wildcards.
bool LikeMatch(const std::string& text, const std::string& pattern,
               bool case_insensitive);

/// Infer the static result type of a bound expression given input types.
/// Best-effort; returns kNull when unknown.
TypeId InferType(const Expr& e, const std::vector<TypeId>& input_types);

}  // namespace citusx::sql

#endif  // CITUSX_SQL_EVAL_H_
