// End-to-end tests of the single-node engine: DDL, DML, queries, MVCC,
// locking, transactions, prepared transactions, indexes, columnar storage.
#include <gtest/gtest.h>

#include "engine/node.h"
#include "engine/session.h"
#include "common/str.h"
#include "sim/simulation.h"

namespace citusx::engine {
namespace {

using sql::Datum;

// Test fixture running a single node inside a simulation. Each test body
// runs inside a simulated process.
class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : node_(&sim_, "pg1", sim::DefaultCostModel()) {}

  // Run `fn` as a simulated process and drive the simulation to completion.
  void RunSim(std::function<void()> fn) {
    sim_.Spawn("test", std::move(fn));
    sim_.Run();
    sim_.Shutdown();
  }

  QueryResult MustExec(Session& s, const std::string& sql) {
    auto r = s.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(r).value() : QueryResult{};
  }

  sim::Simulation sim_;
  Node node_;
};

TEST_F(EngineTest, CreateInsertSelect) {
  RunSim([&] {
    auto s = node_.OpenSession();
    MustExec(*s, "CREATE TABLE t (a bigint PRIMARY KEY, b text, c double precision)");
    MustExec(*s, "INSERT INTO t VALUES (1, 'one', 1.5), (2, 'two', 2.5)");
    QueryResult r = MustExec(*s, "SELECT a, b, c FROM t ORDER BY a");
    ASSERT_EQ(r.rows.size(), 2u);
    EXPECT_EQ(r.rows[0][0].int_value(), 1);
    EXPECT_EQ(r.rows[0][1].text_value(), "one");
    EXPECT_EQ(r.rows[1][2].float_value(), 2.5);
    EXPECT_EQ(r.column_names[1], "b");
  });
}

TEST_F(EngineTest, PrimaryKeyUniqueViolation) {
  RunSim([&] {
    auto s = node_.OpenSession();
    MustExec(*s, "CREATE TABLE t (k bigint PRIMARY KEY, v int)");
    MustExec(*s, "INSERT INTO t VALUES (1, 10)");
    auto dup = s->Execute("INSERT INTO t VALUES (1, 20)");
    EXPECT_FALSE(dup.ok());
    EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
    // ON CONFLICT DO NOTHING swallows it.
    QueryResult r =
        MustExec(*s, "INSERT INTO t VALUES (1, 20) ON CONFLICT DO NOTHING");
    EXPECT_EQ(r.rows_affected, 0);
    r = MustExec(*s, "SELECT v FROM t WHERE k = 1");
    ASSERT_EQ(r.rows.size(), 1u);
    EXPECT_EQ(r.rows[0][0].int_value(), 10);
  });
}

TEST_F(EngineTest, UpdateAndDelete) {
  RunSim([&] {
    auto s = node_.OpenSession();
    MustExec(*s, "CREATE TABLE t (k bigint PRIMARY KEY, v bigint)");
    for (int i = 0; i < 10; i++) {
      MustExec(*s, "INSERT INTO t VALUES (" + std::to_string(i) + ", 0)");
    }
    QueryResult u = MustExec(*s, "UPDATE t SET v = v + 5 WHERE k >= 7");
    EXPECT_EQ(u.rows_affected, 3);
    QueryResult r = MustExec(*s, "SELECT sum(v) FROM t");
    EXPECT_EQ(r.rows[0][0].int_value(), 15);
    QueryResult d = MustExec(*s, "DELETE FROM t WHERE k < 3");
    EXPECT_EQ(d.rows_affected, 3);
    r = MustExec(*s, "SELECT count(*) FROM t");
    EXPECT_EQ(r.rows[0][0].int_value(), 7);
  });
}

TEST_F(EngineTest, AggregatesAndGroupBy) {
  RunSim([&] {
    auto s = node_.OpenSession();
    MustExec(*s, "CREATE TABLE sales (region text, amount bigint, price double precision)");
    MustExec(*s,
             "INSERT INTO sales VALUES ('east', 10, 1.0), ('east', 20, 2.0), "
             "('west', 5, 3.0), ('west', 15, 1.0), ('north', 1, 9.0)");
    QueryResult r = MustExec(
        *s,
        "SELECT region, count(*), sum(amount), avg(price), min(amount), "
        "max(amount) FROM sales GROUP BY region ORDER BY region");
    ASSERT_EQ(r.rows.size(), 3u);
    EXPECT_EQ(r.rows[0][0].text_value(), "east");
    EXPECT_EQ(r.rows[0][1].int_value(), 2);
    EXPECT_EQ(r.rows[0][2].int_value(), 30);
    EXPECT_EQ(r.rows[0][3].float_value(), 1.5);
    EXPECT_EQ(r.rows[2][0].text_value(), "west");
    EXPECT_EQ(r.rows[2][4].int_value(), 5);
    EXPECT_EQ(r.rows[2][5].int_value(), 15);
    // HAVING.
    r = MustExec(*s,
                 "SELECT region FROM sales GROUP BY region "
                 "HAVING count(*) > 1 ORDER BY 1");
    ASSERT_EQ(r.rows.size(), 2u);
    // Aggregate over empty input.
    r = MustExec(*s, "SELECT count(*), sum(amount) FROM sales WHERE amount > 100");
    EXPECT_EQ(r.rows[0][0].int_value(), 0);
    EXPECT_TRUE(r.rows[0][1].is_null());
    // count(distinct).
    r = MustExec(*s, "SELECT count(DISTINCT region) FROM sales");
    EXPECT_EQ(r.rows[0][0].int_value(), 3);
  });
}

TEST_F(EngineTest, JoinsInnerLeftAndCommaSyntax) {
  RunSim([&] {
    auto s = node_.OpenSession();
    MustExec(*s, "CREATE TABLE a (id bigint, x text)");
    MustExec(*s, "CREATE TABLE b (id bigint, y text)");
    MustExec(*s, "INSERT INTO a VALUES (1, 'a1'), (2, 'a2'), (3, 'a3')");
    MustExec(*s, "INSERT INTO b VALUES (1, 'b1'), (3, 'b3'), (3, 'b3x')");
    QueryResult r = MustExec(
        *s, "SELECT a.x, b.y FROM a JOIN b ON a.id = b.id ORDER BY a.x, b.y");
    ASSERT_EQ(r.rows.size(), 3u);
    EXPECT_EQ(r.rows[0][0].text_value(), "a1");
    r = MustExec(
        *s,
        "SELECT a.x, b.y FROM a LEFT JOIN b ON a.id = b.id ORDER BY a.x, b.y");
    ASSERT_EQ(r.rows.size(), 4u);
    // a2 has no match: null-padded.
    bool found_null = false;
    for (const auto& row : r.rows) {
      if (row[0].text_value() == "a2") {
        EXPECT_TRUE(row[1].is_null());
        found_null = true;
      }
    }
    EXPECT_TRUE(found_null);
    // Comma join with WHERE condition becomes a hash join.
    r = MustExec(*s,
                 "SELECT count(*) FROM a, b WHERE a.id = b.id AND b.y <> 'b3'");
    EXPECT_EQ(r.rows[0][0].int_value(), 2);
  });
}

TEST_F(EngineTest, SubqueryInFrom) {
  RunSim([&] {
    auto s = node_.OpenSession();
    MustExec(*s, "CREATE TABLE reports (deviceid bigint, metric double precision)");
    MustExec(*s,
             "INSERT INTO reports VALUES (1, 10), (1, 20), (2, 30), (2, 50)");
    // The VeniceDB-style nested aggregation from §5 of the paper.
    QueryResult r = MustExec(
        *s,
        "SELECT avg(device_avg) FROM (SELECT deviceid, avg(metric) AS "
        "device_avg FROM reports GROUP BY deviceid) AS subq");
    ASSERT_EQ(r.rows.size(), 1u);
    EXPECT_EQ(r.rows[0][0].float_value(), 27.5);  // (15 + 40) / 2
  });
}

TEST_F(EngineTest, OrderByLimitOffsetDistinct) {
  RunSim([&] {
    auto s = node_.OpenSession();
    MustExec(*s, "CREATE TABLE t (v bigint, w text)");
    MustExec(*s,
             "INSERT INTO t VALUES (3,'c'), (1,'a'), (2,'b'), (5,'e'), "
             "(4,'d'), (3,'c')");
    QueryResult r = MustExec(*s, "SELECT v FROM t ORDER BY v DESC LIMIT 2");
    ASSERT_EQ(r.rows.size(), 2u);
    EXPECT_EQ(r.rows[0][0].int_value(), 5);
    EXPECT_EQ(r.rows[1][0].int_value(), 4);
    r = MustExec(*s, "SELECT v FROM t ORDER BY v LIMIT 2 OFFSET 2");
    // sorted: 1,2,3,3,4,5 -> offset 2 gives 3,3
    EXPECT_EQ(r.rows[0][0].int_value(), 3);
    EXPECT_EQ(r.rows[1][0].int_value(), 3);
    r = MustExec(*s, "SELECT DISTINCT v FROM t ORDER BY v");
    EXPECT_EQ(r.rows.size(), 5u);
    // ORDER BY expression not in targets (hidden sort column is stripped).
    r = MustExec(*s, "SELECT w FROM t ORDER BY v * -1 LIMIT 1");
    ASSERT_EQ(r.rows.size(), 1u);
    EXPECT_EQ(r.rows[0].size(), 1u);
    EXPECT_EQ(r.rows[0][0].text_value(), "e");
  });
}

TEST_F(EngineTest, IndexScansUsedAndCorrect) {
  RunSim([&] {
    auto s = node_.OpenSession();
    MustExec(*s, "CREATE TABLE t (k bigint PRIMARY KEY, grp bigint, v text)");
    MustExec(*s, "CREATE INDEX t_grp ON t (grp)");
    for (int i = 0; i < 200; i++) {
      MustExec(*s, StrFormat("INSERT INTO t VALUES (%d, %d, 'v%d')", i, i % 10, i));
    }
    int64_t hits_before = node_.buffer_pool().hits();
    QueryResult r = MustExec(*s, "SELECT v FROM t WHERE k = 42");
    ASSERT_EQ(r.rows.size(), 1u);
    EXPECT_EQ(r.rows[0][0].text_value(), "v42");
    EXPECT_GT(node_.buffer_pool().hits(), hits_before);
    r = MustExec(*s, "SELECT count(*) FROM t WHERE grp = 3");
    EXPECT_EQ(r.rows[0][0].int_value(), 20);
    // Range scan via pk index.
    r = MustExec(*s, "SELECT count(*) FROM t WHERE k >= 10 AND k < 20");
    EXPECT_EQ(r.rows[0][0].int_value(), 10);
    // Index remains correct after updates (stale entries rechecked).
    MustExec(*s, "UPDATE t SET grp = 99 WHERE k = 42");  // grp was 2
    r = MustExec(*s, "SELECT count(*) FROM t WHERE grp = 2");
    EXPECT_EQ(r.rows[0][0].int_value(), 19);
    r = MustExec(*s, "SELECT count(*) FROM t WHERE grp = 99");
    EXPECT_EQ(r.rows[0][0].int_value(), 1);
  });
}

TEST_F(EngineTest, GinTrgmIndexIlike) {
  RunSim([&] {
    auto s = node_.OpenSession();
    MustExec(*s, "CREATE TABLE docs (id bigint, body text)");
    MustExec(*s, "CREATE INDEX docs_trgm ON docs USING gin ((body))");
    MustExec(*s,
             "INSERT INTO docs VALUES (1, 'PostgreSQL is great'), "
             "(2, 'mysql is different'), (3, 'I love postgres a lot')");
    QueryResult r =
        MustExec(*s, "SELECT id FROM docs WHERE body ILIKE '%postgres%' ORDER BY id");
    ASSERT_EQ(r.rows.size(), 2u);
    EXPECT_EQ(r.rows[0][0].int_value(), 1);
    EXPECT_EQ(r.rows[1][0].int_value(), 3);
  });
}

TEST_F(EngineTest, MvccSnapshotIsolation) {
  RunSim([&] {
    auto s1 = node_.OpenSession();
    auto s2 = node_.OpenSession();
    MustExec(*s1, "CREATE TABLE t (k bigint PRIMARY KEY, v bigint)");
    MustExec(*s1, "INSERT INTO t VALUES (1, 100)");
    MustExec(*s1, "BEGIN");
    MustExec(*s1, "UPDATE t SET v = 200 WHERE k = 1");
    // s1 sees its own write; s2 still sees the old version.
    QueryResult r1 = MustExec(*s1, "SELECT v FROM t WHERE k = 1");
    EXPECT_EQ(r1.rows[0][0].int_value(), 200);
    QueryResult r2 = MustExec(*s2, "SELECT v FROM t WHERE k = 1");
    EXPECT_EQ(r2.rows[0][0].int_value(), 100);
    MustExec(*s1, "COMMIT");
    r2 = MustExec(*s2, "SELECT v FROM t WHERE k = 1");
    EXPECT_EQ(r2.rows[0][0].int_value(), 200);
  });
}

TEST_F(EngineTest, RollbackDiscardsWrites) {
  RunSim([&] {
    auto s = node_.OpenSession();
    MustExec(*s, "CREATE TABLE t (k bigint, v bigint)");
    MustExec(*s, "BEGIN");
    MustExec(*s, "INSERT INTO t VALUES (1, 1)");
    MustExec(*s, "ROLLBACK");
    QueryResult r = MustExec(*s, "SELECT count(*) FROM t");
    EXPECT_EQ(r.rows[0][0].int_value(), 0);
    // Error inside explicit txn aborts it until rollback.
    MustExec(*s, "BEGIN");
    auto bad = s->Execute("SELECT * FROM missing_table");
    EXPECT_FALSE(bad.ok());
    auto blocked = s->Execute("SELECT count(*) FROM t");
    EXPECT_FALSE(blocked.ok());
    EXPECT_EQ(blocked.status().code(), StatusCode::kAborted);
    MustExec(*s, "ROLLBACK");
    QueryResult ok = MustExec(*s, "SELECT count(*) FROM t");
    EXPECT_EQ(ok.rows[0][0].int_value(), 0);
  });
}

TEST_F(EngineTest, RowLockBlocksConcurrentUpdate) {
  // Two concurrent transactions updating the same row serialize; the second
  // sees the first one's committed value (no lost update).
  auto s0 = node_.OpenSession();
  sim_.Spawn("setup", [&] {
    MustExec(*s0, "CREATE TABLE t (k bigint PRIMARY KEY, v bigint)");
    MustExec(*s0, "INSERT INTO t VALUES (1, 0)");
  });
  sim_.Run();
  std::vector<std::unique_ptr<Session>> sessions;
  for (int i = 0; i < 5; i++) sessions.push_back(node_.OpenSession());
  for (int i = 0; i < 5; i++) {
    sim_.Spawn("w", [&, i] {
      Session& s = *sessions[static_cast<size_t>(i)];
      MustExec(s, "BEGIN");
      MustExec(s, "UPDATE t SET v = v + 1 WHERE k = 1");
      sim_.WaitFor(10 * sim::kMillisecond);
      MustExec(s, "COMMIT");
    });
  }
  sim_.Run();
  sim_.Spawn("check", [&] {
    QueryResult r = MustExec(*s0, "SELECT v FROM t WHERE k = 1");
    EXPECT_EQ(r.rows[0][0].int_value(), 5);
  });
  sim_.Run();
  sim_.Shutdown();
}

TEST_F(EngineTest, LocalDeadlockDetected) {
  node_.StartBackgroundWorkers();
  auto s0 = node_.OpenSession();
  auto s1 = node_.OpenSession();
  auto s2 = node_.OpenSession();
  sim_.Spawn("setup", [&] {
    MustExec(*s0, "CREATE TABLE t (k bigint PRIMARY KEY, v bigint)");
    MustExec(*s0, "INSERT INTO t VALUES (1, 0), (2, 0)");
  });
  sim_.Run();
  int deadlocks = 0, commits = 0;
  sim_.Spawn("t1", [&] {
    MustExec(*s1, "BEGIN");
    MustExec(*s1, "UPDATE t SET v = v + 1 WHERE k = 1");
    sim_.WaitFor(100 * sim::kMillisecond);
    auto r = s1->Execute("UPDATE t SET v = v + 1 WHERE k = 2");
    if (r.ok()) {
      MustExec(*s1, "COMMIT");
      commits++;
    } else {
      EXPECT_TRUE(r.status().IsDeadlock()) << r.status().ToString();
      deadlocks++;
      MustExec(*s1, "ROLLBACK");
    }
  });
  sim_.Spawn("t2", [&] {
    MustExec(*s2, "BEGIN");
    MustExec(*s2, "UPDATE t SET v = v + 1 WHERE k = 2");
    sim_.WaitFor(100 * sim::kMillisecond);
    auto r = s2->Execute("UPDATE t SET v = v + 1 WHERE k = 1");
    if (r.ok()) {
      MustExec(*s2, "COMMIT");
      commits++;
    } else {
      EXPECT_TRUE(r.status().IsDeadlock()) << r.status().ToString();
      deadlocks++;
      MustExec(*s2, "ROLLBACK");
    }
  });
  sim_.Run();
  EXPECT_EQ(deadlocks, 1);
  EXPECT_EQ(commits, 1);
  sim_.Shutdown();
}

TEST_F(EngineTest, PreparedTransactionsSurviveCrash) {
  RunSim([&] {
    auto s = node_.OpenSession();
    MustExec(*s, "CREATE TABLE t (k bigint, v bigint)");
    MustExec(*s, "BEGIN");
    MustExec(*s, "INSERT INTO t VALUES (1, 1)");
    MustExec(*s, "PREPARE TRANSACTION 'gid_1'");
    // Not visible yet.
    QueryResult r = MustExec(*s, "SELECT count(*) FROM t");
    EXPECT_EQ(r.rows[0][0].int_value(), 0);
    // Crash and restart: the prepared transaction survives.
    node_.Crash();
    node_.Restart();
    auto s2 = node_.OpenSession();
    auto gids = node_.txns().PreparedGids();
    ASSERT_EQ(gids.size(), 1u);
    EXPECT_EQ(gids[0], "gid_1");
    MustExec(*s2, "COMMIT PREPARED 'gid_1'");
    r = MustExec(*s2, "SELECT count(*) FROM t");
    EXPECT_EQ(r.rows[0][0].int_value(), 1);
  });
}

TEST_F(EngineTest, PreparedRollback) {
  RunSim([&] {
    auto s = node_.OpenSession();
    MustExec(*s, "CREATE TABLE t (k bigint)");
    MustExec(*s, "BEGIN");
    MustExec(*s, "INSERT INTO t VALUES (1)");
    MustExec(*s, "PREPARE TRANSACTION 'g2'");
    MustExec(*s, "ROLLBACK PREPARED 'g2'");
    QueryResult r = MustExec(*s, "SELECT count(*) FROM t");
    EXPECT_EQ(r.rows[0][0].int_value(), 0);
    auto missing = s->Execute("COMMIT PREPARED 'g2'");
    EXPECT_FALSE(missing.ok());
  });
}

TEST_F(EngineTest, CopyInAndDefaults) {
  RunSim([&] {
    auto s = node_.OpenSession();
    MustExec(*s,
             "CREATE TABLE ev (id bigint, ts timestamp, data jsonb, "
             "note text DEFAULT 'none')");
    auto r = s->CopyIn("ev", {"id", "ts", "data"},
                       {{"1", "2020-02-01 10:00:00", "{\"a\":1}"},
                        {"2", "2020-02-01 11:00:00", "{\"b\":[1,2]}"},
                        {"3", "2020-02-01 12:00:00", "\\N"}});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->rows_affected, 3);
    QueryResult q = MustExec(
        *s, "SELECT count(*) FROM ev WHERE jsonb_typeof(data->'b') = 'array'");
    EXPECT_EQ(q.rows[0][0].int_value(), 1);
    q = MustExec(*s, "SELECT count(*) FROM ev WHERE data IS NULL");
    EXPECT_EQ(q.rows[0][0].int_value(), 1);
  });
}

TEST_F(EngineTest, ColumnarTableScansAndRestrictions) {
  RunSim([&] {
    auto s = node_.OpenSession();
    s->SetVar("citusx.default_table_access_method", "columnar");
    MustExec(*s, "CREATE TABLE facts (k bigint, v bigint, label text)");
    s->SetVar("citusx.default_table_access_method", "");
    for (int i = 0; i < 100; i++) {
      MustExec(*s, StrFormat("INSERT INTO facts VALUES (%d, %d, 'x')", i, i * 2));
    }
    QueryResult r = MustExec(*s, "SELECT sum(v) FROM facts WHERE k < 10");
    EXPECT_EQ(r.rows[0][0].int_value(), 90);
    auto up = s->Execute("UPDATE facts SET v = 0 WHERE k = 1");
    EXPECT_FALSE(up.ok());
    EXPECT_EQ(up.status().code(), StatusCode::kNotSupported);
    auto del = s->Execute("DELETE FROM facts WHERE k = 1");
    EXPECT_FALSE(del.ok());
  });
}

TEST_F(EngineTest, VacuumReclaimsDeadVersions) {
  RunSim([&] {
    auto s = node_.OpenSession();
    MustExec(*s, "CREATE TABLE t (k bigint PRIMARY KEY, v bigint)");
    MustExec(*s, "INSERT INTO t VALUES (1, 0)");
    for (int i = 0; i < 50; i++) {
      MustExec(*s, "UPDATE t SET v = v + 1 WHERE k = 1");
    }
    TableInfo* t = node_.catalog().Find("t");
    ASSERT_NE(t, nullptr);
    EXPECT_GE(t->heap->dead_versions(), 50);
    int64_t reclaimed =
        t->heap->Vacuum(node_.txns().OldestActive(), node_.txns());
    EXPECT_GE(reclaimed, 50);
    QueryResult r = MustExec(*s, "SELECT v FROM t WHERE k = 1");
    EXPECT_EQ(r.rows[0][0].int_value(), 50);
  });
}

TEST_F(EngineTest, BufferPoolMemoryPressureCausesIo) {
  // A table larger than the buffer pool causes misses on repeated scans;
  // a smaller table does not.
  RunSim([&] {
    auto s = node_.OpenSession();
    MustExec(*s, "CREATE TABLE big (k bigint, pad text)");
    std::string pad(1000, 'x');
    // ~64MB pool; insert ~100MB of rows (logical accounting).
    int rows = 100000;
    for (int i = 0; i < rows; i++) {
      auto st = s->CopyIn("big", {},
                          {{std::to_string(i), pad}});
      ASSERT_TRUE(st.ok());
      if (i == 0) break;  // CopyIn per row is slow; bulk the rest
    }
    std::vector<std::vector<std::string>> bulk;
    for (int i = 1; i < rows; i++) bulk.push_back({std::to_string(i), pad});
    ASSERT_TRUE(s->CopyIn("big", {}, bulk).ok());
    int64_t misses_before = node_.buffer_pool().misses();
    MustExec(*s, "SELECT count(*) FROM big");
    int64_t misses_scan1 = node_.buffer_pool().misses() - misses_before;
    EXPECT_GT(misses_scan1, 1000);  // thrashing: most blocks not resident
    MustExec(*s, "SELECT count(*) FROM big");
    int64_t misses_scan2 = node_.buffer_pool().misses() - misses_before -
                           misses_scan1;
    EXPECT_GT(misses_scan2, 1000);  // still thrashing (LRU)
  });
}

TEST_F(EngineTest, ForUpdateLocksRows) {
  auto s0 = node_.OpenSession();
  auto s1 = node_.OpenSession();
  auto s2 = node_.OpenSession();
  sim_.Spawn("setup", [&] {
    MustExec(*s0, "CREATE TABLE t (k bigint PRIMARY KEY, v bigint)");
    MustExec(*s0, "INSERT INTO t VALUES (1, 10)");
  });
  sim_.Run();
  sim::Time update_done_at = -1;
  sim_.Spawn("locker", [&] {
    MustExec(*s1, "BEGIN");
    MustExec(*s1, "SELECT * FROM t WHERE k = 1 FOR UPDATE");
    sim_.WaitFor(50 * sim::kMillisecond);
    MustExec(*s1, "COMMIT");
  });
  sim_.Spawn("updater", [&] {
    sim_.WaitFor(sim::kMillisecond);
    MustExec(*s2, "UPDATE t SET v = 20 WHERE k = 1");
    update_done_at = sim_.now();
  });
  sim_.Run();
  EXPECT_GE(update_done_at, 50 * sim::kMillisecond);
  sim_.Shutdown();
}

TEST(EngineScanTest, FilteredScanSurvivesConcurrentVersionGrowth) {
  // A filtered seq scan charges its predicate before evaluating it; with a
  // predicate cost above the CPU flush threshold that charge yields. A
  // concurrent session updating the row under evaluation meanwhile grows
  // (and reallocates) the row's version vector, so the scan must not keep
  // a pointer into it across the charge.
  sim::CostModel cost = sim::DefaultCostModel();
  cost.cpu_per_expr_eval = 20 * sim::kMillisecond;
  sim::Simulation sim;
  Node node(&sim, "pg1", cost);
  auto setup = node.OpenSession();
  auto scanner = node.OpenSession();
  auto updater = node.OpenSession();
  sim.Spawn("setup", [&] {
    ASSERT_TRUE(
        setup->Execute("CREATE TABLE t (k bigint PRIMARY KEY, v bigint)").ok());
    ASSERT_TRUE(setup->Execute("INSERT INTO t VALUES (1, 0)").ok());
  });
  sim.Run();
  constexpr int kUpdates = 16;  // version capacity 1 -> 2 -> ... -> 16
  sim::Time scan_done_at = -1;
  sim::Time updates_done_at = -1;
  sim.Spawn("scanner", [&] {
    auto r = scanner->Execute("SELECT k, v FROM t WHERE v >= 0");
    scan_done_at = sim.now();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    // The scan's snapshot predates every update.
    ASSERT_EQ(r->rows.size(), 1u);
    EXPECT_EQ(r->rows[0][1].int_value(), 0);
  });
  sim.Spawn("updater", [&] {
    // Start once the scanner is parked in its predicate charge. No WHERE
    // clause: the updates themselves charge no predicate evaluation.
    sim.WaitFor(sim::kMillisecond);
    for (int i = 0; i < kUpdates; i++) {
      auto r = updater->Execute("UPDATE t SET v = v + 1");
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
    updates_done_at = sim.now();
  });
  sim.Run();
  sim.Shutdown();
  // Every update landed while the scanner was parked.
  ASSERT_GT(updates_done_at, 0);
  EXPECT_LT(updates_done_at, scan_done_at);
}

TEST_F(EngineTest, InsertSelectLocal) {
  RunSim([&] {
    auto s = node_.OpenSession();
    MustExec(*s, "CREATE TABLE raw (day bigint, n bigint)");
    MustExec(*s, "CREATE TABLE rollup (day bigint, total bigint)");
    MustExec(*s, "INSERT INTO raw VALUES (1, 10), (1, 20), (2, 5)");
    MustExec(*s,
             "INSERT INTO rollup SELECT day, sum(n) FROM raw GROUP BY day");
    QueryResult r = MustExec(*s, "SELECT total FROM rollup ORDER BY day");
    ASSERT_EQ(r.rows.size(), 2u);
    EXPECT_EQ(r.rows[0][0].int_value(), 30);
    EXPECT_EQ(r.rows[1][0].int_value(), 5);
  });
}

TEST_F(EngineTest, TruncateAndDrop) {
  RunSim([&] {
    auto s = node_.OpenSession();
    MustExec(*s, "CREATE TABLE t (k bigint PRIMARY KEY)");
    MustExec(*s, "INSERT INTO t VALUES (1), (2)");
    MustExec(*s, "TRUNCATE t");
    QueryResult r = MustExec(*s, "SELECT count(*) FROM t");
    EXPECT_EQ(r.rows[0][0].int_value(), 0);
    // Insert after truncate works (indexes truncated too).
    MustExec(*s, "INSERT INTO t VALUES (1)");
    MustExec(*s, "DROP TABLE t");
    auto gone = s->Execute("SELECT * FROM t");
    EXPECT_FALSE(gone.ok());
    MustExec(*s, "DROP TABLE IF EXISTS t");
  });
}

TEST_F(EngineTest, CaseInsensitiveKeywordsAndParams) {
  RunSim([&] {
    auto s = node_.OpenSession();
    MustExec(*s, "create table T (K bigint, V text)");
    MustExec(*s, "insert into t values (1, 'x')");
    auto r = s->Execute("SELECT v FROM t WHERE k = $1", {Datum::Int8(1)});
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->rows.size(), 1u);
    EXPECT_EQ(r->rows[0][0].text_value(), "x");
  });
}

}  // namespace
}  // namespace citusx::engine
