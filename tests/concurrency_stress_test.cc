#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "concurrency/snapshot.h"
#include "engine/concurrent_db.h"
#include "query/evaluator.h"
#include "query/xpath.h"
#include "xml/shakespeare.h"

/// \file
/// Multi-threaded reader/writer stress over the concurrent serving layer
/// (ctest label: stress; also the payload of the ThreadSanitizer CI job).
/// The headline scenario is the paper's frequent-update workload: a writer
/// hammers skewed CDBS insertions into one hot spot of Hamlet while reader
/// threads repeatedly evaluate //speaker — every reader must observe a
/// duplicate-free, document-ordered label sequence on every single query.

namespace cdbs {
namespace {

using engine::ConcurrentXmlDb;
using engine::ConcurrentXmlDbOptions;
using engine::NodeId;
using engine::WriteOp;

TEST(SnapshotManagerStressTest, ReadersNeverObserveTornOrFreedViews) {
  // Each published version is a vector whose every element equals its
  // epoch. A reader that ever sees a mixed or garbage vector caught a torn
  // publish or a use-after-free (TSan turns the latter into a hard error).
  using View = std::vector<uint64_t>;
  concurrency::SnapshotManager<View> mgr(
      std::make_unique<View>(View(64, 1)));
  constexpr int kReaders = 4;
  constexpr uint64_t kPublishes = 2000;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> inconsistencies{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto pin = mgr.Acquire();
        const View& v = pin.view();
        const uint64_t expect = v[0];
        bool ok = v.size() == 64 && expect >= 1 && expect <= kPublishes + 1;
        for (const uint64_t x : v) ok = ok && (x == expect);
        // Each view was published at the epoch its elements spell out.
        ok = ok && (expect == pin.epoch());
        if (!ok) inconsistencies.fetch_add(1);
      }
    });
  }
  for (uint64_t e = 2; e <= kPublishes + 1; ++e) {
    mgr.Publish(std::make_unique<View>(View(64, e)));
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(inconsistencies.load(), 0u);
  // With all pins dropped, one more publish reclaims every retiree.
  mgr.Publish(std::make_unique<View>(View(64, kPublishes + 2)));
  EXPECT_EQ(mgr.live_versions(), 1u);
}

TEST(ConcurrentStressTest, HamletReadersSeeOrderedDuplicateFreeSpeakers) {
  // Both CDBS families overflow under this skew. A CDBS-Prefix overflow
  // re-encode rewrites every label in place while readers hold forks of
  // the previous version: the whole-labeling case of the CowVector
  // in-place (use_count()==1) contract.
  for (const char* scheme : {"V-CDBS-Containment", "CDBS-Prefix"}) {
    SCOPED_TRACE(scheme);
    ConcurrentXmlDbOptions options;
    options.db.scheme_name = scheme;
    auto db = ConcurrentXmlDb::Open(xml::GenerateHamlet(), options);
    ASSERT_TRUE(db.ok());

    // The hot spot: the first <speaker> of the play. Every insertion lands
    // right after it — the paper's skewed "frequent insertions at one point"
    // scenario, which repeatedly squeezes new CDBS codes into the same gap
    // and eventually forces overflow re-encodes.
    const std::vector<NodeId> speakers = (*db)->Query("//speaker").value();
    ASSERT_FALSE(speakers.empty());
    const NodeId hot = speakers[0];
    const size_t initial_count = speakers.size();
    constexpr int kInserts = 400;
    constexpr int kReaders = 4;

    std::atomic<bool> writer_done{false};
    std::atomic<uint64_t> consistency_failures{0};
    std::atomic<uint64_t> reads_done{0};

    auto reader = [&] {
      const Result<query::Query> parsed = query::ParseQuery("//speaker");
      ASSERT_TRUE(parsed.ok());
      size_t last_count = 0;  // per-reader monotonicity floor
      do {
        const ConcurrentXmlDb::Snapshot snap = (*db)->PinSnapshot();
        const std::vector<NodeId> result =
            query::EvaluateQuery(*parsed, snap.view());
        bool ok = result.size() >= initial_count &&
                  result.size() >= last_count;
        // Document-order label sequence: strictly ascending under the SAME
        // snapshot's labels — which also rules out duplicates.
        for (size_t i = 1; ok && i < result.size(); ++i) {
          ok = snap->labeling().CompareOrder(result[i - 1], result[i]) < 0;
        }
        for (size_t i = 0; ok && i < result.size(); ++i) {
          ok = snap->tag(result[i]) == "speaker";
        }
        if (!ok) consistency_failures.fetch_add(1);
        last_count = result.size();
        reads_done.fetch_add(1);
      } while (!writer_done.load(std::memory_order_relaxed));
    };

    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (int r = 0; r < kReaders; ++r) readers.emplace_back(reader);

    // The writer: skewed insertions, every one of them a new <speaker>.
    for (int i = 0; i < kInserts; ++i) {
      Result<uint64_t> id =
          (*db)->Submit(WriteOp::InsertAfter(hot, "speaker")).get();
      ASSERT_TRUE(id.ok()) << id.status();
    }
    writer_done.store(true);
    for (std::thread& t : readers) t.join();

    EXPECT_EQ(consistency_failures.load(), 0u);
    EXPECT_GT(reads_done.load(), 0u);
    // Every reader eventually converges on the final count.
    EXPECT_EQ((*db)->Query("//speaker").value().size(),
              initial_count + kInserts);
    // The skewed hot spot must have forced at least one overflow re-encode —
    // the interesting code path this stress exists to exercise concurrently.
    EXPECT_GT((*db)->Stats().overflow_events, 0u);
  }
}

TEST(ConcurrentStressTest, StoreBackedPipelineStaysDurableUnderLoad) {
  const std::string path =
      ::testing::TempDir() + "/concurrent_stress_store.bin";
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  ConcurrentXmlDbOptions options;
  options.db.storage_path = path;
  options.group_commit_limit = 16;
  auto db = ConcurrentXmlDb::OpenFromXml(
      "<log><entry/><entry/></log>", options);
  ASSERT_TRUE(db.ok());
  const NodeId hot = (*db)->Query("//entry").value()[0];

  // Concurrent submitters + concurrent readers against a store-backed db:
  // bursts pile up behind the fsync and group-commit together.
  constexpr int kWriterThreads = 3;
  constexpr int kPerThread = 60;
  std::atomic<bool> done{false};
  std::thread background_reader([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const Result<uint64_t> n = (*db)->Count("//entry");
      ASSERT_TRUE(n.ok());
    }
  });
  std::vector<std::thread> writers;
  writers.reserve(kWriterThreads);
  for (int w = 0; w < kWriterThreads; ++w) {
    writers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        Result<uint64_t> id =
            (*db)->Submit(WriteOp::InsertAfter(hot, "entry")).get();
        ASSERT_TRUE(id.ok()) << id.status();
      }
    });
  }
  for (std::thread& t : writers) t.join();
  done.store(true);
  background_reader.join();

  EXPECT_EQ((*db)->Query("//entry").value().size(),
            2u + kWriterThreads * kPerThread);

  // Durability: a restart replays the log from the open-time checkpoint,
  // so the same ops on the same tree re-derive every node's label byte for
  // byte (Theorem 3.1).
  (*db)->Shutdown();
  const labeling::Labeling& lab = (*db)->underlying().labeling();
  auto recovered = ConcurrentXmlDb::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  const labeling::Labeling& replayed = (*recovered)->underlying().labeling();
  ASSERT_EQ(replayed.num_nodes(), lab.num_nodes());
  for (NodeId n = 0; n < lab.num_nodes(); ++n) {
    ASSERT_EQ(replayed.SerializeLabel(n), lab.SerializeLabel(n))
        << "node " << n;
  }
  EXPECT_EQ((*recovered)->underlying().ToXml(), (*db)->underlying().ToXml());
  (*recovered)->Shutdown();
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

}  // namespace
}  // namespace cdbs
