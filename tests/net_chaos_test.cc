#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "corpus_util.h"
#include "engine/concurrent_db.h"
#include "net/client.h"
#include "net/server.h"
#include "util/deadline.h"
#include "util/failpoint.h"
#include "util/status.h"

/// \file
/// Chaos test for the network front-end: several clients hammer one server
/// while failpoints inject latency, connection drops, and frame corruption
/// (the matrix in docs/NETWORKING.md). The assertions are the liveness and
/// integrity invariants, not success rates:
///
///   * no hangs — every operation carries a deadline and every client
///     thread joins (enforced with a watchdog);
///   * no torn responses — a corrupted frame surfaces as a CRC failure
///     (kCorruption / "write outcome unknown"), never as wrong data;
///   * consistent reads — `//b` is never touched by the chaos writers, so
///     every successful query returns exactly the initial ids in document
///     order, and per-thread `//n` counts never go backwards (snapshots
///     are published monotonically).

namespace cdbs::net {
namespace {

using engine::ConcurrentXmlDb;
using engine::NodeId;

constexpr char kDoc[] = "<root><a><b/><b/></a><c><b/></c></root>";

class NetChaosTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& site : util::Failpoints::ActiveSites()) {
      if (site.rfind("net.", 0) == 0 ||
          site.rfind("engine.concurrent.", 0) == 0) {
        util::Failpoints::Deactivate(site);
      }
    }
  }
};

/// True when `st` is an error the chaos profile legitimately produces.
/// Anything else (wrong data would show up as a mismatch elsewhere; an
/// unexpected code here) fails the run.
bool IsExpectedChaosFailure(const Status& st) {
  switch (st.code()) {
    case StatusCode::kIoError:            // drops, resets, exhausted retries
    case StatusCode::kCorruption:         // CRC-detected torn frame (reads)
    case StatusCode::kDeadlineExceeded:   // shed under injected latency
    case StatusCode::kRetryAfter:         // shed with attempts exhausted
    case StatusCode::kInternal:           // stream resync after id mismatch
      return true;
    default:
      return false;
  }
}

TEST_F(NetChaosTest, MixedWorkloadSurvivesInjectedFaults) {
  auto corpus = OpenCorpus(kDoc);
  ASSERT_TRUE(corpus.ok());
  ConcurrentXmlDb* db = (*corpus)->shard(0);
  ServerOptions server_options;
  server_options.read_timeout_ms = 2000;
  server_options.write_timeout_ms = 2000;
  auto server = Server::StartSharded(corpus->get(), server_options);
  ASSERT_TRUE(server.ok());

  // The reference answer chaos must never corrupt: the initial //b ids.
  const std::vector<NodeId> golden_b = db->Query("//b").value();
  ASSERT_EQ(golden_b.size(), 3u);

  // The chaos profile (also the CI chaos-net job's CDBS_FAILPOINTS line).
  ASSERT_TRUE(util::Failpoints::ActivateFromList(
                  "net.conn.delay=delay=5:prob=0.05;"
                  "net.conn.drop=prob=0.02;"
                  "net.frame.corrupt=prob=0.02")
                  .ok());

  constexpr int kThreads = 4;
  const int kOpsPerThread = std::getenv("CDBS_CHAOS_OPS")
                                ? std::atoi(std::getenv("CDBS_CHAOS_OPS"))
                                : 80;
  std::atomic<int> unexpected_failures{0};
  std::atomic<int> wrong_reads{0};
  std::atomic<int> monotonicity_violations{0};
  std::atomic<uint64_t> ok_ops{0};
  std::atomic<uint64_t> failed_ops{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ClientOptions copts;
      copts.port = (*server)->port();
      copts.max_attempts = 4;
      copts.base_backoff_ms = 1;
      copts.max_backoff_ms = 10;
      copts.jitter_seed = 1000 + static_cast<uint64_t>(t);
      auto client = CdbsClient::Connect(copts);
      if (!client.ok()) {
        // The very first connect raced a drop; that thread just sits out.
        return;
      }
      // Each thread works under its own tag so its committed inserts are
      // distinguishable: nodes in `my_inserts` had their insert confirmed
      // and have never been the target of any delete attempt — so every
      // later snapshot must contain at least those nodes.
      const std::string my_tag = "n" + std::to_string(t);
      std::vector<uint64_t> my_inserts;
      for (int i = 0; i < kOpsPerThread; ++i) {
        const auto deadline = util::Deadline::AfterMillis(3000);
        const int kind = i % 5;
        Status st = Status::OK();
        if (kind == 0) {
          st = (*client)->Ping(deadline);
        } else if (kind == 1) {
          // Integrity read: //b is immutable under this workload, so a
          // successful query must return exactly the golden ids in
          // document order.
          Result<std::vector<uint64_t>> r =
              (*client)->Query("//b", deadline);
          if (r.ok()) {
            bool match = r->size() == golden_b.size();
            for (size_t j = 0; match && j < r->size(); ++j) {
              match = (*r)[j] == static_cast<uint64_t>(golden_b[j]);
            }
            if (!match) wrong_reads.fetch_add(1);
          } else {
            st = r.status();
          }
        } else if (kind == 2) {
          // Durability read: everything this thread confirmed (and never
          // tried to delete) is still there. Ambiguous writes — torn
          // before their response — may add extras, never subtract.
          Result<std::vector<uint64_t>> r =
              (*client)->Query("//" + my_tag, deadline);
          if (r.ok()) {
            if (r->size() < my_inserts.size()) {
              monotonicity_violations.fetch_add(1);
            }
          } else {
            st = r.status();
          }
        } else if (kind == 3) {
          Result<uint64_t> r = (*client)->InsertAfter(
              static_cast<uint64_t>(golden_b[t % golden_b.size()]), my_tag,
              deadline);
          if (r.ok()) {
            my_inserts.push_back(*r);
          } else {
            st = r.status();
          }
        } else {
          if (!my_inserts.empty()) {
            Result<uint64_t> r =
                (*client)->Delete(my_inserts.back(), deadline);
            // Pop regardless of outcome: a delete that "failed" with a
            // torn stream may still have committed (that ambiguity is why
            // writes are never resent), so the node can no longer be
            // counted on to exist.
            my_inserts.pop_back();
            if (!r.ok() && r.status().code() != StatusCode::kNotFound) {
              st = r.status();
            }
          }
        }
        if (st.ok()) {
          ok_ops.fetch_add(1);
        } else {
          failed_ops.fetch_add(1);
          if (!IsExpectedChaosFailure(st)) {
            unexpected_failures.fetch_add(1);
            ADD_FAILURE() << "unexpected status under chaos: "
                          << st.ToString();
          }
        }
      }
    });
  }

  // Watchdog: "no hangs" is an assertion, not a hope. Every op is bounded
  // by a 3s deadline and a capped retry loop, so the whole run must finish
  // well inside the budget.
  std::atomic<bool> joined{false};
  std::thread watchdog([&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    while (!joined.load()) {
      if (std::chrono::steady_clock::now() > deadline) {
        fprintf(stderr, "chaos watchdog: clients still running, aborting\n");
        fflush(stderr);
        std::abort();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });
  for (auto& th : threads) th.join();
  joined.store(true);
  watchdog.join();

  EXPECT_EQ(unexpected_failures.load(), 0);
  EXPECT_EQ(wrong_reads.load(), 0) << "a torn frame was accepted as data";
  EXPECT_EQ(monotonicity_violations.load(), 0);
  EXPECT_GT(ok_ops.load(), 0u) << "chaos profile starved every operation";

  // Lift the chaos: the server recovers fully — clean reads, clean drain.
  for (const std::string& site : util::Failpoints::ActiveSites()) {
    if (site.rfind("net.", 0) == 0) util::Failpoints::Deactivate(site);
  }
  ClientOptions copts;
  copts.port = (*server)->port();
  copts.jitter_seed = 7;
  auto survivor = CdbsClient::Connect(copts);
  ASSERT_TRUE(survivor.ok());
  Result<std::vector<uint64_t>> final_b = (*survivor)->Query("//b");
  ASSERT_TRUE(final_b.ok());
  ASSERT_EQ(final_b->size(), golden_b.size());
  for (size_t j = 0; j < golden_b.size(); ++j) {
    EXPECT_EQ((*final_b)[j], static_cast<uint64_t>(golden_b[j]));
  }
  (*server)->Shutdown();
  (*corpus)->Shutdown();
  // The engine survived intact underneath: a direct read agrees.
  EXPECT_EQ(*db->Count("//b"), 3u);
}

}  // namespace
}  // namespace cdbs::net
