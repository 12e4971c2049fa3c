#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "shard/sharded_db.h"
#include "util/failpoint.h"
#include "util/status.h"
#include "xml/shakespeare.h"

/// \file
/// Multi-threaded stress over the sharded front-end (ctest label: stress;
/// also part of the ThreadSanitizer CI job's payload). Writer threads
/// hammer inserts into documents spread over every shard while reader
/// threads run doc-scoped queries and cross-shard scatter-gathers the
/// whole time. Invariants checked on every single read:
///
///   - a doc-scoped count never goes backwards (inserts only, and each
///     shard publishes monotonically),
///   - a scatter-gathered total with zero failed shards equals at least
///     the number of commits already acknowledged (read-your-writes per
///     shard, no lost updates),
///   - no query ever reports the synthetic shard root (id 0).

namespace cdbs::shard {
namespace {

using engine::WriteOp;

TEST(ShardStressTest, ConcurrentWritersAndScatterGatherReaders) {
  constexpr size_t kDocs = 8;
  constexpr size_t kShards = 4;
  constexpr int kWriters = 4;
  constexpr int kReaders = 3;
  constexpr int kInsertsPerWriter = 200;

  std::vector<xml::Document> docs;
  for (size_t i = 0; i < kDocs; ++i) {
    docs.push_back(xml::GeneratePlay(/*seed=*/100 + i, /*total_nodes=*/250));
  }
  ShardedDbOptions options;
  options.shard_count = kShards;
  options.shard.group_commit_limit = 8;
  auto opened = ShardedDb::Open(std::move(docs), options);
  ASSERT_TRUE(opened.ok()) << opened.status();
  ShardedDb* db = opened->get();

  // One insertion anchor per document (the first act's first scene).
  std::vector<engine::NodeId> anchors(kDocs);
  for (size_t d = 0; d < kDocs; ++d) {
    auto scene = db->QueryDoc(d, "/play/act/scene");
    ASSERT_TRUE(scene.ok());
    ASSERT_FALSE(scene->empty());
    anchors[d] = scene->front();
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> acked{0};       // commits acknowledged so far
  std::atomic<uint64_t> violations{0};  // invariant breaches seen by readers

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kInsertsPerWriter; ++i) {
        // Round-robin over documents so every shard's writer stays busy.
        const uint64_t doc = (w * kInsertsPerWriter + i) % kDocs;
        auto id =
            db->Submit(doc, WriteOp::InsertAfter(anchors[doc], "stress"))
                .get();
        if (id.ok()) {
          acked.fetch_add(1);
        } else {
          violations.fetch_add(1);  // uncontended inserts must all land
        }
      }
    });
  }

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      const uint64_t doc = r % kDocs;
      uint64_t last_doc_count = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        // Doc-scoped counts are monotone under an insert-only workload.
        auto count = db->CountDoc(doc, "/play//stress");
        if (!count.ok() || *count < last_doc_count) {
          violations.fetch_add(1);
        } else {
          last_doc_count = *count;
        }
        // A clean scatter-gather is a consistent global lower bound: every
        // acked insert before the gather started must be visible.
        const uint64_t floor = acked.load();
        auto gathered = db->CountAll("//stress");
        if (!gathered.ok() || gathered->failed_shards != 0 ||
            gathered->total < floor) {
          violations.fetch_add(1);
        }
        auto ids = db->QueryDoc(doc, "/play");
        if (!ids.ok() || ids->size() != 1 || ids->front() == 0) {
          violations.fetch_add(1);
        }
      }
    });
  }

  for (auto& t : writers) t.join();
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_EQ(acked.load(),
            static_cast<uint64_t>(kWriters) * kInsertsPerWriter);
  auto final_count = db->CountAll("//stress");
  ASSERT_TRUE(final_count.ok()) << final_count.status();
  EXPECT_EQ(final_count->total, acked.load());
  EXPECT_EQ(final_count->failed_shards, 0u);
  db->Shutdown();
}

TEST(ShardStressTest, ScatterGatherSurvivesConcurrentShardFlapping) {
  // Readers scatter-gather while a chaos thread flips one shard's
  // availability failpoint on and off. Gathers may come back partial but
  // must never fail outright (>=1 shard always answers) and OK entries
  // must carry exact per-shard counts.
  constexpr size_t kShards = 3;
  std::vector<xml::Document> docs;
  for (size_t i = 0; i < kShards; ++i) {
    docs.push_back(xml::GeneratePlay(/*seed=*/7 + i, /*total_nodes=*/300));
  }
  ShardedDbOptions options;
  options.shard_count = kShards;
  options.router = RouterKind::kExplicit;
  options.placement = {0, 1, 2};
  auto opened = ShardedDb::Open(std::move(docs), options);
  ASSERT_TRUE(opened.ok()) << opened.status();
  ShardedDb* db = opened->get();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> violations{0};
  std::thread chaos([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      ASSERT_TRUE(
          util::Failpoints::Activate("shard.1.unavailable", "always").ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      util::Failpoints::Deactivate("shard.1.unavailable");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      for (int i = 0; i < 300; ++i) {
        auto gathered = db->CountAll("/play/act");
        if (!gathered.ok()) {
          violations.fetch_add(1);  // only shard 1 flaps; never all-failed
          continue;
        }
        uint64_t ok_total = 0;
        for (const ShardCount& entry : gathered->per_shard) {
          if (entry.code == StatusCode::kOk) {
            // Five acts per play, one play per shard.
            if (entry.count != 5) violations.fetch_add(1);
            ok_total += entry.count;
          }
        }
        if (ok_total != gathered->total) violations.fetch_add(1);
        if (gathered->per_shard[0].code != StatusCode::kOk ||
            gathered->per_shard[2].code != StatusCode::kOk) {
          violations.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : readers) t.join();
  stop.store(true);
  chaos.join();
  util::Failpoints::DeactivateAll();
  EXPECT_EQ(violations.load(), 0u);
  db->Shutdown();
}

}  // namespace
}  // namespace cdbs::shard
