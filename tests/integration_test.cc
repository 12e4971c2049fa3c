// End-to-end integration: generated corpora, multiple schemes, mixed
// update workloads, and cross-scheme agreement. Any divergence between two
// schemes on any predicate is a bug in one of them — the schemes are
// different encodings of the same structural facts.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine/xml_db.h"
#include "labeling/registry.h"
#include "query/evaluator.h"
#include "query/tag_index.h"
#include "query/xpath.h"
#include "util/random.h"
#include "xml/generator.h"
#include "xml/shakespeare.h"

namespace cdbs {
namespace {

using labeling::InsertResult;
using labeling::Labeling;
using labeling::NodeId;

TEST(IntegrationTest, HamletQueryCountsAgreeAcrossSchemes) {
  const xml::Document hamlet = xml::GenerateHamlet();
  const std::vector<std::string> queries = {
      "/play/act",           "/play/act/scene",       "//speech",
      "//speech[1]",         "//line",                "/play/*",
      "//act[3]/following::speaker",
      "/play/personae/persona[5]/preceding-sibling::persona",
  };
  std::vector<uint64_t> reference;
  bool first = true;
  for (const char* scheme_name :
       {"V-CDBS-Containment", "QED-Prefix", "OrdPath1-Prefix",
        "DeweyID(UTF8)-Prefix", "F-Binary-Containment"}) {
    auto scheme = labeling::SchemeByName(scheme_name);
    const query::LabeledDocument labeled(hamlet, *scheme);
    std::vector<uint64_t> counts;
    for (const std::string& text : queries) {
      auto q = query::ParseQuery(text);
      ASSERT_TRUE(q.ok());
      counts.push_back(query::EvaluateQuery(*q, labeled).size());
    }
    if (first) {
      reference = counts;
      first = false;
      // Sanity: five acts, and the workload isn't trivially empty.
      EXPECT_EQ(counts[0], 5u);
      EXPECT_GT(counts[2], 500u);
    } else {
      EXPECT_EQ(counts, reference) << scheme_name;
    }
  }
}

// Applies an identical random update workload to the same document under
// two schemes and checks the predicates agree afterwards.
void RunMirroredWorkload(const std::string& scheme_a,
                         const std::string& scheme_b, uint64_t seed) {
  const xml::DatasetSpec& spec = xml::Table2Specs()[0];  // Movie shape
  const xml::Document doc = xml::GenerateFile(spec, seed, 150);
  auto la = labeling::SchemeByName(scheme_a)->Label(doc);
  auto lb = labeling::SchemeByName(scheme_b)->Label(doc);

  util::Random rng(seed * 31 + 7);
  std::vector<NodeId> live;
  for (NodeId n = 1; n < 150; ++n) live.push_back(n);

  for (int step = 0; step < 120; ++step) {
    const NodeId target = live[rng.Uniform(live.size())];
    const int op = static_cast<int>(rng.Uniform(3));
    if (op == 0 || live.size() < 40) {
      const InsertResult ra = la->InsertSiblingBefore(target);
      const InsertResult rb = lb->InsertSiblingBefore(target);
      ASSERT_EQ(ra.new_node, rb.new_node);
      live.push_back(ra.new_node);
    } else if (op == 1) {
      const InsertResult ra = la->InsertSiblingAfter(target);
      const InsertResult rb = lb->InsertSiblingAfter(target);
      ASSERT_EQ(ra.new_node, rb.new_node);
      live.push_back(ra.new_node);
    } else {
      // Delete only leaves so `live` stays easy to maintain.
      if (la->skeleton().SubtreeSize(target) != 1) continue;
      const auto removed_a = la->DeleteSubtree(target);
      const auto removed_b = lb->DeleteSubtree(target);
      ASSERT_EQ(removed_a.removed, removed_b.removed);
      live.erase(std::find(live.begin(), live.end(), target));
    }
  }

  // Cross-scheme agreement on a sample grid of live nodes.
  for (size_t i = 0; i < live.size(); i += 3) {
    for (size_t j = 0; j < live.size(); j += 5) {
      const NodeId a = live[i];
      const NodeId b = live[j];
      ASSERT_EQ(la->IsAncestor(a, b), lb->IsAncestor(a, b))
          << scheme_a << " vs " << scheme_b << " (" << a << "," << b << ")";
      ASSERT_EQ(la->IsParent(a, b), lb->IsParent(a, b))
          << scheme_a << " vs " << scheme_b << " (" << a << "," << b << ")";
      ASSERT_EQ(la->CompareOrder(a, b), lb->CompareOrder(a, b))
          << scheme_a << " vs " << scheme_b << " (" << a << "," << b << ")";
    }
  }
}

class MirroredWorkloadTest
    : public ::testing::TestWithParam<std::pair<const char*, const char*>> {};

TEST_P(MirroredWorkloadTest, SchemesAgreeAfterMixedUpdates) {
  RunMirroredWorkload(GetParam().first, GetParam().second, 11);
  RunMirroredWorkload(GetParam().first, GetParam().second, 12);
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, MirroredWorkloadTest,
    ::testing::Values(
        std::make_pair("V-CDBS-Containment", "QED-Containment"),
        std::make_pair("V-CDBS-Containment", "OrdPath1-Prefix"),
        std::make_pair("QED-Prefix", "F-CDBS-Containment"),
        std::make_pair("V-CDBS-Containment", "Hybrid-CDBS/QED-Containment"),
        std::make_pair("CDBS-Prefix", "V-Binary-Containment")),
    [](const ::testing::TestParamInfo<std::pair<const char*, const char*>>&
           info) {
      std::string name = std::string(info.param.first) + "_vs_" +
                         info.param.second;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(IntegrationTest, XmlDbSurvivesMixedWorkloadWithPersistence) {
  engine::XmlDbOptions options;
  options.storage_path = ::testing::TempDir() + "/integration_store.db";
  xml::Document play = xml::GeneratePlay(21, 1200);
  auto db = engine::XmlDb::Open(std::move(play), options);
  ASSERT_TRUE(db.ok());
  util::Random rng(99);
  uint64_t expected_acts = 5;
  for (int i = 0; i < 30; ++i) {
    auto acts = (*db)->Query("/play/act");
    ASSERT_TRUE(acts.ok());
    ASSERT_EQ(acts->size(), expected_acts);
    const NodeId target = (*acts)[rng.Uniform(acts->size())];
    if (rng.Bernoulli(0.5)) {
      ASSERT_TRUE((*db)->InsertElementBefore(target, "act").ok());
      ++expected_acts;
    } else {
      auto removed = (*db)->DeleteElement(target);
      ASSERT_TRUE(removed.ok());
      --expected_acts;
    }
  }
  EXPECT_EQ(*(*db)->Count("/play/act"), expected_acts);
  std::remove(options.storage_path.c_str());
  std::remove((options.storage_path + ".wal").c_str());
}

TEST(IntegrationTest, DatasetWideLabelingSmoke) {
  // Label an entire small dataset with every scheme; totals must be
  // positive and CDBS==Binary equalities must hold corpus-wide.
  const xml::DatasetSpec& spec = xml::Table2Specs()[0];  // D1, 490 files
  xml::DatasetSpec small = spec;
  small.num_files = 25;
  small.total_nodes = 2000;
  const auto files = xml::GenerateDataset(small);
  uint64_t vbin = 0;
  uint64_t vcdbs = 0;
  for (const auto& scheme : labeling::AllSchemes()) {
    uint64_t total = 0;
    for (const xml::Document& doc : files) {
      total += scheme->Label(doc)->TotalLabelBits();
    }
    EXPECT_GT(total, 0u) << scheme->name();
    if (scheme->name() == "V-Binary-Containment") vbin = total;
    if (scheme->name() == "V-CDBS-Containment") vcdbs = total;
  }
  EXPECT_EQ(vbin, vcdbs);  // Theorem 4.4 corpus-wide
}

}  // namespace
}  // namespace cdbs
