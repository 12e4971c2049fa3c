#include "query/xpath.h"

#include <string>
#include <utility>

#include <gtest/gtest.h>

namespace cdbs::query {
namespace {

TEST(XPathParseTest, SimpleChildPath) {
  auto q = ParseQuery("/play/act");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->steps.size(), 2u);
  EXPECT_EQ(q->steps[0].axis, Axis::kChild);
  EXPECT_EQ(q->steps[0].name, "play");
  EXPECT_EQ(q->steps[1].name, "act");
  EXPECT_EQ(q->steps[1].position, 0);
}

TEST(XPathParseTest, DescendantAxis) {
  auto q = ParseQuery("//act/scene");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->steps[0].axis, Axis::kDescendant);
  EXPECT_EQ(q->steps[1].axis, Axis::kChild);
}

TEST(XPathParseTest, PositionalPredicate) {
  auto q = ParseQuery("/play/act[4]");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->steps[1].position, 4);
}

TEST(XPathParseTest, Wildcard) {
  auto q = ParseQuery("/play/*//line");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->steps.size(), 3u);
  EXPECT_EQ(q->steps[1].name, "*");
  EXPECT_EQ(q->steps[2].axis, Axis::kDescendant);
  EXPECT_EQ(q->steps[2].name, "line");
}

TEST(XPathParseTest, ExistencePredicates) {
  auto q = ParseQuery("/play//personae[./title]/pgroup[.//grpdescr]/persona");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->steps.size(), 4u);
  const Step& personae = q->steps[1];
  EXPECT_EQ(personae.axis, Axis::kDescendant);
  ASSERT_EQ(personae.predicates.size(), 1u);
  ASSERT_EQ(personae.predicates[0].steps.size(), 1u);
  EXPECT_EQ(personae.predicates[0].steps[0].axis, Axis::kChild);
  EXPECT_EQ(personae.predicates[0].steps[0].name, "title");
  const Step& pgroup = q->steps[2];
  ASSERT_EQ(pgroup.predicates.size(), 1u);
  EXPECT_EQ(pgroup.predicates[0].steps[0].axis, Axis::kDescendant);
  EXPECT_EQ(pgroup.predicates[0].steps[0].name, "grpdescr");
}

TEST(XPathParseTest, PrecedingSibling) {
  auto q = ParseQuery("/play/personae/persona[12]/preceding-sibling::*");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->steps.size(), 4u);
  EXPECT_EQ(q->steps[2].position, 12);
  EXPECT_EQ(q->steps[3].axis, Axis::kPrecedingSibling);
  EXPECT_EQ(q->steps[3].name, "*");
}

TEST(XPathParseTest, FollowingAxis) {
  auto q = ParseQuery("//act[2]/following::speaker");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->steps[0].position, 2);
  EXPECT_EQ(q->steps[1].axis, Axis::kFollowing);
  EXPECT_EQ(q->steps[1].name, "speaker");
}

TEST(XPathParseTest, ParentAndAncestorAxes) {
  auto q = ParseQuery("//speaker/parent::speech/ancestor::act");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->steps.size(), 3u);
  EXPECT_EQ(q->steps[1].axis, Axis::kParent);
  EXPECT_EQ(q->steps[1].name, "speech");
  EXPECT_EQ(q->steps[2].axis, Axis::kAncestor);
  EXPECT_EQ(q->steps[2].name, "act");
}

TEST(XPathParseTest, AllTable3QueriesParse) {
  for (const std::string& text : Table3Queries()) {
    EXPECT_TRUE(ParseQuery(text).ok()) << text;
  }
  EXPECT_EQ(Table3Queries().size(), 6u);
}

TEST(XPathParseTest, RejectsMalformed) {
  EXPECT_FALSE(ParseQuery("").ok());
  EXPECT_FALSE(ParseQuery("play/act").ok());      // must start with /
  EXPECT_FALSE(ParseQuery("/play/act[").ok());    // unterminated predicate
  EXPECT_FALSE(ParseQuery("/play/act[0]").ok());  // positions are 1-based
  EXPECT_FALSE(ParseQuery("/play/act[1][2]").ok());
  EXPECT_FALSE(ParseQuery("/play/act]").ok());
  EXPECT_FALSE(ParseQuery("/play/act[foo]").ok());  // bare name predicate
  EXPECT_FALSE(ParseQuery("//").ok());
}

// [n] ranks same-name siblings on child and descendant steps only; on the
// other axes it is rejected, not silently ignored.
TEST(XPathParseTest, RejectsPositionOnOtherAxes) {
  const std::pair<const char*, const char*> cases[] = {
      {"/play/act[1]/following::act[2]", "following::"},
      {"/play/act[5]/preceding-sibling::act[1]", "preceding-sibling::"},
      {"//scene/parent::act[3]", "parent::"},
      {"//speech/ancestor::act[2]", "ancestor::"},
      {"//act[./following::act[1]]", "following::"},
  };
  for (const auto& [text, axis] : cases) {
    auto q = ParseQuery(text);
    ASSERT_FALSE(q.ok()) << text;
    EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument) << text;
    EXPECT_NE(q.status().message().find(axis), std::string::npos)
        << text << ": " << q.status();
  }
  EXPECT_TRUE(ParseQuery("/play/act[1]/following::act").ok());
  EXPECT_TRUE(ParseQuery("//scene/parent::act[./title]").ok());
}

TEST(XPathParseTest, KeepsOriginalText) {
  auto q = ParseQuery("/a/b");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->text, "/a/b");
}

}  // namespace
}  // namespace cdbs::query
