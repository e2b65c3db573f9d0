// The benchmark's three workloads (ycsb_a, tpcc, tpch) on Citus 4+1.
//
// A workload owns its deployment options, its seeded inputs, the one-op
// body its closed-loop clients run, and the correctness gates evaluated
// outside the timed window. See README.md for why each was chosen.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "citus/deploy.h"
#include "common/rng.h"

namespace perfbench {

using citusx::Rng;
using citusx::Status;
namespace sim = citusx::sim;
namespace net = citusx::net;

/// Closed-loop shape of a workload. Virtual durations are fixed per
/// workload so every virtual metric is a function of the seed alone.
struct LoopShape {
  int clients = 1;
  sim::Time think_time = 0;  // keying time before each op
  sim::Time warmup = 0;      // virtual, not measured
  sim::Time window = 0;      // virtual, the deterministic measured window
  sim::Time chunk = 0;       // virtual step that extends the host window
  /// Cycle mode (one client only): the windows count ops instead of virtual
  /// time. The deterministic window is the first `cycle_ops` ops, and the
  /// host window ends on a cycle boundary, so both hold whole cycles of a
  /// fixed op sequence. warmup/window/chunk are unused.
  int cycle_ops = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual citusx::citus::DeploymentOptions Options() const = 0;
  virtual LoopShape Shape() const = 0;

  /// Called on the driving thread after the deployment exists, before any
  /// simulated process runs (stored procedures are registered here).
  virtual void Attach(citusx::citus::Deployment& deploy) {}

  /// Untimed DDL. Runs inside a simulated process.
  virtual Status CreateSchema(net::Connection& conn) = 0;
  /// The COPY load; its virtual duration is reported as virt_load_s.
  virtual Status Ingest(net::Connection& conn) = 0;
  /// Untimed post-load step (procedure delegation, oracle pass + warm-up).
  virtual Status Prepare(net::Connection& conn) { return Status::OK(); }

  /// Node client `c` connects to.
  virtual std::string Endpoint(citusx::citus::Deployment& deploy, int c) = 0;
  /// One op of client `c`. A non-OK status counts the op as failed.
  virtual Status Op(net::Connection& conn, int c, Rng& rng) = 0;
  /// Correctness gate after the clients have stopped; also reports any
  /// wrong answer the ops recorded.
  virtual Status Check(net::Connection& conn) = 0;
};

/// nullptr for an unknown workload name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
