// Label-based query evaluation, checked against hand-computed answers on a
// miniature play and cross-checked across ALL labeling schemes (every scheme
// must return identical result sets — only their speed differs).

#include "query/evaluator.h"

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "dom_reference.h"
#include "labeling/registry.h"
#include "query/xpath.h"
#include "xml/parser.h"
#include "xml/shakespeare.h"

namespace cdbs::query {
namespace {

constexpr char kMiniPlay[] =
    "<play>"
    "<title/>"
    "<personae>"
    "<title/>"
    "<persona/><persona/><persona/>"
    "<pgroup><persona/><grpdescr/></pgroup>"
    "<pgroup><persona/></pgroup>"
    "</personae>"
    "<act>"
    "<title/>"
    "<scene><speech><speaker/><line/><line/></speech></scene>"
    "</act>"
    "<act>"
    "<title/>"
    "<scene><speech><speaker/><line/></speech>"
    "<speech><speaker/><line/></speech></scene>"
    "<scene><speech><speaker/><line/></speech></scene>"
    "</act>"
    "</play>";

class EvaluatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto parsed = xml::ParseXml(kMiniPlay);
    ASSERT_TRUE(parsed.ok());
    doc_ = std::make_unique<xml::Document>(std::move(parsed).value());
    scheme_ = labeling::SchemeByName("V-CDBS-Containment");
    labeled_ = std::make_unique<LabeledDocument>(*doc_, *scheme_);
  }

  uint64_t Count(const std::string& query_text) {
    auto query = ParseQuery(query_text);
    EXPECT_TRUE(query.ok()) << query.status();
    return EvaluateQuery(*query, *labeled_).size();
  }

  std::unique_ptr<xml::Document> doc_;
  std::unique_ptr<labeling::LabelingScheme> scheme_;
  std::unique_ptr<LabeledDocument> labeled_;
};

TEST_F(EvaluatorTest, RootStep) {
  EXPECT_EQ(Count("/play"), 1u);
  EXPECT_EQ(Count("/nomatch"), 0u);
  EXPECT_EQ(Count("/*"), 1u);
}

TEST_F(EvaluatorTest, ChildSteps) {
  EXPECT_EQ(Count("/play/act"), 2u);
  EXPECT_EQ(Count("/play/title"), 1u);
  EXPECT_EQ(Count("/play/act/scene"), 3u);
  EXPECT_EQ(Count("/play/act/scene/speech"), 4u);
}

TEST_F(EvaluatorTest, DescendantSteps) {
  EXPECT_EQ(Count("//speech"), 4u);
  EXPECT_EQ(Count("//line"), 5u);
  EXPECT_EQ(Count("//persona"), 5u);
  EXPECT_EQ(Count("/play//title"), 4u);
  EXPECT_EQ(Count("//scene//line"), 5u);
}

TEST_F(EvaluatorTest, WildcardSteps) {
  // Children of play: title, personae, act, act.
  EXPECT_EQ(Count("/play/*"), 4u);
  EXPECT_EQ(Count("/play/*//line"), 5u);
}

TEST_F(EvaluatorTest, PositionalPredicates) {
  EXPECT_EQ(Count("/play/act[1]"), 1u);
  EXPECT_EQ(Count("/play/act[2]"), 1u);
  EXPECT_EQ(Count("/play/act[3]"), 0u);
  // //scene[2]: scenes that are the second scene child of their parent:
  // only act 2's second scene.
  EXPECT_EQ(Count("//scene[2]"), 1u);
  // //speech[1]: first speech of each scene: 3 scenes.
  EXPECT_EQ(Count("//speech[1]"), 3u);
}

TEST_F(EvaluatorTest, ExistencePredicates) {
  // personae has a title child.
  EXPECT_EQ(Count("/play/personae[./title]"), 1u);
  EXPECT_EQ(Count("/play/personae[./nomatch]"), 0u);
  // Only the first pgroup has a grpdescr.
  EXPECT_EQ(Count("//pgroup[.//grpdescr]"), 1u);
  EXPECT_EQ(Count("//pgroup[.//grpdescr]/persona"), 1u);
  // Q2 shape on the mini play.
  EXPECT_EQ(Count("/play//personae[./title]/pgroup[.//grpdescr]/persona"),
            1u);
}

TEST_F(EvaluatorTest, PrecedingSibling) {
  // persona[3]'s preceding siblings inside personae: title + 2 personas.
  EXPECT_EQ(Count("/play/personae/persona[3]/preceding-sibling::*"), 3u);
  EXPECT_EQ(Count("/play/personae/persona[1]/preceding-sibling::*"), 1u);
  EXPECT_EQ(Count("/play/personae/persona[3]/preceding-sibling::persona"),
            2u);
  EXPECT_EQ(Count("/play/act[1]/preceding-sibling::act"), 0u);
  EXPECT_EQ(Count("/play/act[2]/preceding-sibling::act"), 1u);
}

TEST_F(EvaluatorTest, FollowingAxis) {
  // Speakers after act[1] (not its descendants): the 3 speakers of act 2.
  EXPECT_EQ(Count("//act[1]/following::speaker"), 3u);
  EXPECT_EQ(Count("//act[2]/following::speaker"), 0u);
  // Everything after the personae element.
  EXPECT_EQ(Count("/play/personae/following::act"), 2u);
}

TEST_F(EvaluatorTest, ParentAxis) {
  EXPECT_EQ(Count("//speaker/parent::speech"), 4u);
  EXPECT_EQ(Count("//speaker/parent::*"), 4u);
  EXPECT_EQ(Count("//speaker/parent::scene"), 0u);
  // Two speeches share a parent scene in act 2: dedup applies.
  EXPECT_EQ(Count("//speech/parent::scene"), 3u);
  EXPECT_EQ(Count("/play/parent::*"), 0u);  // the root has no parent
}

TEST_F(EvaluatorTest, AncestorAxis) {
  EXPECT_EQ(Count("//line/ancestor::act"), 2u);
  EXPECT_EQ(Count("//line/ancestor::scene"), 3u);
  // play(1) + acts(2) + scenes(3) + speeches(4), deduplicated.
  EXPECT_EQ(Count("//line/ancestor::*"), 10u);
  EXPECT_EQ(Count("//grpdescr/ancestor::pgroup"), 1u);
  EXPECT_EQ(Count("//grpdescr/ancestor::persona"), 0u);
}

TEST_F(EvaluatorTest, FindParentWorks) {
  // play (id 0) is the parent of its first child (id 1, the title).
  EXPECT_EQ(FindParent(*labeled_, 1), 0u);
  EXPECT_EQ(FindParent(*labeled_, 0), labeling::kNoNode);
}

TEST_F(EvaluatorTest, EmptyIntermediateShortCircuits) {
  EXPECT_EQ(Count("/play/nomatch/act"), 0u);
  EXPECT_EQ(Count("//nomatch//line"), 0u);
}

// Every labeling scheme must produce identical result counts: queries are
// answered purely from labels, so this is an end-to-end consistency check
// of all predicate implementations.
class EvaluatorSchemeParityTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(EvaluatorSchemeParityTest, MatchesReferenceCounts) {
  auto parsed = xml::ParseXml(kMiniPlay);
  ASSERT_TRUE(parsed.ok());
  const xml::Document doc = std::move(parsed).value();
  auto scheme = labeling::SchemeByName(GetParam());
  LabeledDocument labeled(doc, *scheme);
  const std::pair<const char*, uint64_t> expectations[] = {
      {"/play/act", 2},
      {"//speech", 4},
      {"/play/*//line", 5},
      {"/play/act[2]/scene", 2},
      {"/play//personae[./title]/pgroup[.//grpdescr]/persona", 1},
      {"/play/personae/persona[3]/preceding-sibling::*", 3},
      {"//act[1]/following::speaker", 3},
  };
  for (const auto& [text, want] : expectations) {
    auto query = ParseQuery(text);
    ASSERT_TRUE(query.ok());
    EXPECT_EQ(EvaluateQuery(*query, labeled).size(), want)
        << GetParam() << " on " << text;
  }
}

// Predicate paths honour [n] and every axis, exactly as the main path does:
// the answers (ids and counts) are the DOM walk's on Hamlet, whose personae
// has 23 persona children and whose 20 scenes include 2 in act 5.
TEST_P(EvaluatorSchemeParityTest, PredicatePathsMatchDomWalkOnHamlet) {
  const xml::Document hamlet = xml::GenerateHamlet();
  const RefTree tree = RefTree::FromDocument(hamlet);
  const RefEvaluator reference(tree);
  auto scheme = labeling::SchemeByName(GetParam());
  LabeledDocument labeled(hamlet, *scheme);
  const std::pair<const char*, uint64_t> expectations[] = {
      {"/play/personae[./persona[500]]", 0},
      {"/play/personae[./persona[23]]", 1},
      {"/play/act[./scene[99]]", 0},
      {"/play/act/scene[./following::act]", 18},
      {"/play/act[5]/scene[./preceding-sibling::scene]", 1},
  };
  for (const auto& [text, want] : expectations) {
    auto query = ParseQuery(text);
    ASSERT_TRUE(query.ok());
    const std::vector<NodeId> got = EvaluateQuery(*query, labeled);
    EXPECT_EQ(got, reference.Evaluate(*query)) << GetParam() << " on " << text;
    EXPECT_EQ(got.size(), want) << GetParam() << " on " << text;
  }
}

// [n] on following::, preceding-sibling::, parent:: and ancestor:: used to
// be dropped, so `/play/act[1]/following::act[2]` answered 4 on Hamlet, like
// the query without [2]. Those forms are now rejected; the forms without
// [n] still answer.
TEST(EvaluatorPositionTest, OtherAxesRejectPositionOnHamlet) {
  const xml::Document hamlet = xml::GenerateHamlet();
  auto scheme = labeling::SchemeByName("V-CDBS-Containment");
  LabeledDocument labeled(hamlet, *scheme);
  const std::pair<const char*, uint64_t> cases[] = {
      {"/play/act[1]/following::act", 4},
      {"/play/act[5]/preceding-sibling::act", 4},
      {"//scene/parent::act", 5},
      {"//speech/ancestor::act", 5},
  };
  for (const auto& [text, want] : cases) {
    auto query = ParseQuery(text);
    ASSERT_TRUE(query.ok()) << text;
    EXPECT_EQ(EvaluateQuery(*query, labeled).size(), want) << text;
    const std::string positional = std::string(text) + "[2]";
    EXPECT_EQ(ParseQuery(positional).status().code(),
              StatusCode::kInvalidArgument)
        << positional;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, EvaluatorSchemeParityTest,
    ::testing::Values("Prime", "DeweyID(UTF8)-Prefix", "OrdPath1-Prefix",
                      "OrdPath2-Prefix", "CDBS-Prefix", "QED-Prefix",
                      "Float-point-Containment", "V-Binary-Containment",
                      "F-Binary-Containment", "V-CDBS-Containment",
                      "F-CDBS-Containment", "QED-Containment"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(EvaluatorCorpusTest, CountMatchesSumsOverDocuments) {
  auto scheme = labeling::SchemeByName("V-CDBS-Containment");
  const xml::Document play1 = xml::GeneratePlay(1, 400);
  const xml::Document play2 = xml::GeneratePlay(2, 500);
  LabeledDocument l1(play1, *scheme);
  LabeledDocument l2(play2, *scheme);
  auto query = ParseQuery("/play/act");
  ASSERT_TRUE(query.ok());
  const uint64_t c1 = EvaluateQuery(*query, l1).size();
  const uint64_t c2 = EvaluateQuery(*query, l2).size();
  EXPECT_EQ(c1, 5u);
  EXPECT_EQ(c2, 5u);
  EXPECT_EQ(CountMatches(*query, {&l1, &l2}), c1 + c2);
}

TEST(EvaluatorCorpusTest, Table3QueriesRunOnGeneratedPlays) {
  auto scheme = labeling::SchemeByName("V-CDBS-Containment");
  const xml::Document play = xml::GeneratePlay(42, 3000);
  LabeledDocument labeled(play, *scheme);
  // Q1: exactly one act[4] per play; Q5 speeches > 0; Q6 lines > Q5.
  auto q1 = ParseQuery(Table3Queries()[0]);
  auto q5 = ParseQuery(Table3Queries()[4]);
  auto q6 = ParseQuery(Table3Queries()[5]);
  ASSERT_TRUE(q1.ok() && q5.ok() && q6.ok());
  EXPECT_EQ(EvaluateQuery(*q1, labeled).size(), 1u);
  const uint64_t speeches = EvaluateQuery(*q5, labeled).size();
  const uint64_t lines = EvaluateQuery(*q6, labeled).size();
  EXPECT_GT(speeches, 100u);
  EXPECT_GT(lines, speeches);
}

}  // namespace
}  // namespace cdbs::query
