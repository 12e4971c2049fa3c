#include "query/xpath.h"

#include <cctype>

namespace cdbs::query {

namespace {

// Recursive-descent parser over the query text.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Query> Run() {
    Query query;
    query.text = std::string(text_);
    CDBS_RETURN_NOT_OK(ParseSteps(&query.steps, /*relative=*/false));
    if (pos_ != text_.size()) {
      return Status::InvalidArgument("trailing characters in query: " +
                                     std::string(text_.substr(pos_)));
    }
    if (query.steps.empty()) {
      return Status::InvalidArgument("empty query");
    }
    return query;
  }

 private:
  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  bool Consume(std::string_view token) {
    if (text_.substr(pos_, token.size()) != token) return false;
    pos_ += token.size();
    return true;
  }

  static bool IsNameChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '-' || c == '.';
  }

  Status ParseSteps(std::vector<Step>* steps, bool relative) {
    for (;;) {
      Axis axis;
      if (Consume("//")) {
        axis = Axis::kDescendant;
      } else if (Consume("/")) {
        axis = Axis::kChild;
      } else {
        if (steps->empty() && !relative) {
          return Status::InvalidArgument("query must start with '/' or '//'");
        }
        return Status::OK();
      }
      Step step;
      step.axis = axis;
      CDBS_RETURN_NOT_OK(ParseStepBody(&step));
      steps->push_back(std::move(step));
    }
  }

  Status ParseStepBody(Step* step) {
    // Optional named axis overriding the '/'-derived one.
    if (Consume("preceding-sibling::")) {
      step->axis = Axis::kPrecedingSibling;
    } else if (Consume("following::")) {
      step->axis = Axis::kFollowing;
    } else if (Consume("parent::")) {
      step->axis = Axis::kParent;
    } else if (Consume("ancestor::")) {
      step->axis = Axis::kAncestor;
    }
    // Name test.
    if (Consume("*")) {
      step->name = "*";
    } else {
      std::string name;
      while (!AtEnd() && IsNameChar(Peek())) {
        name.push_back(Peek());
        ++pos_;
      }
      if (name.empty()) {
        return Status::InvalidArgument("expected a name test at offset " +
                                       std::to_string(pos_));
      }
      step->name = std::move(name);
    }
    // Predicates.
    while (Consume("[")) {
      CDBS_RETURN_NOT_OK(ParsePredicate(step));
      if (!Consume("]")) {
        return Status::InvalidArgument("expected ']' at offset " +
                                       std::to_string(pos_));
      }
    }
    return Status::OK();
  }

  Status ParsePredicate(Step* step) {
    if (AtEnd()) return Status::InvalidArgument("unterminated predicate");
    if (std::isdigit(static_cast<unsigned char>(Peek()))) {
      int position = 0;
      while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
        position = position * 10 + (Peek() - '0');
        ++pos_;
      }
      if (position < 1) {
        return Status::InvalidArgument("positional predicate must be >= 1");
      }
      if (step->position != 0) {
        return Status::InvalidArgument("duplicate positional predicate");
      }
      if (const char* axis = AxisName(step->axis)) {
        return Status::InvalidArgument(
            std::string("positional predicate [n] is not supported on the ") +
            axis + " axis");
      }
      step->position = position;
      return Status::OK();
    }
    if (!Consume(".")) {
      return Status::InvalidArgument(
          "predicate must be a number or a relative path at offset " +
          std::to_string(pos_));
    }
    RelativePath rel;
    CDBS_RETURN_NOT_OK(ParseSteps(&rel.steps, /*relative=*/true));
    if (rel.steps.empty()) {
      return Status::InvalidArgument("empty relative path in predicate");
    }
    step->predicates.push_back(std::move(rel));
    return Status::OK();
  }

  // The named axes on which [n] is rejected (nullptr for child and
  // descendant, where it ranks same-name siblings).
  static const char* AxisName(Axis axis) {
    switch (axis) {
      case Axis::kPrecedingSibling:
        return "preceding-sibling::";
      case Axis::kFollowing:
        return "following::";
      case Axis::kParent:
        return "parent::";
      case Axis::kAncestor:
        return "ancestor::";
      case Axis::kChild:
      case Axis::kDescendant:
        break;
    }
    return nullptr;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<Query> ParseQuery(std::string_view text) { return Parser(text).Run(); }

const std::vector<std::string>& Table3Queries() {
  static const std::vector<std::string>* queries =
      new std::vector<std::string>{
          "/play/act[4]",
          "/play//personae[./title]/pgroup[.//grpdescr]/persona",
          "/play/personae/persona[12]/preceding-sibling::*",
          "//act[2]/following::speaker",
          "//act/scene/speech",
          "/play/*//line",
      };
  return *queries;
}

}  // namespace cdbs::query
