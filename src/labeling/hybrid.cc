#include "labeling/hybrid.h"

#include <variant>

#include "labeling/containment.h"
#include "obs/metrics.h"

namespace cdbs::labeling {

namespace {

/// Containment codec that starts in CDBS mode and flips to QED mode on the
/// first overflow. A value is a variant, but at any moment every live value
/// is in the same mode; the flip happens inside Init(), which the labeling
/// calls when it re-encodes after an overflow.
class HybridContainmentCodec {
 public:
  using CdbsWord = CdbsContainmentCodec::Value;
  using Value = std::variant<CdbsWord, core::QedCode>;
  static constexpr OverflowPolicy kOverflowPolicy =
      OverflowPolicy::kReencodeAll;

  void Init(uint64_t count, std::vector<Value>* values) {
    values->clear();
    values->reserve(count);
    if (!switched_to_qed_) {
      cdbs_.Init(count, &cdbs_scratch_);
      for (const CdbsWord code : cdbs_scratch_) values->emplace_back(code);
      cdbs_scratch_.clear();
    } else {
      std::vector<core::QedCode> codes;
      qed_.Init(count, &codes);
      for (auto& code : codes) values->emplace_back(std::move(code));
    }
  }

  int Compare(const Value& a, const Value& b) const {
    if (std::holds_alternative<CdbsWord>(a)) {
      return cdbs_.Compare(std::get<CdbsWord>(a), std::get<CdbsWord>(b));
    }
    const auto& qa = std::get<core::QedCode>(a);
    const auto& qb = std::get<core::QedCode>(b);
    return qa < qb ? -1 : (qa > qb ? 1 : 0);
  }

  size_t StoredBits(const Value& v) const {
    if (std::holds_alternative<CdbsWord>(v)) {
      return cdbs_.StoredBits(std::get<CdbsWord>(v));
    }
    return qed_.StoredBits(std::get<core::QedCode>(v));
  }

  bool TryInsertTwoBetween(const Value& left, const Value& right, Value* v1,
                           Value* v2, uint64_t* neighbor_bits) {
    if (std::holds_alternative<CdbsWord>(left)) {
      CdbsWord m1 = 0;
      CdbsWord m2 = 0;
      if (cdbs_.TryInsertTwoBetween(std::get<CdbsWord>(left),
                                    std::get<CdbsWord>(right), &m1, &m2,
                                    neighbor_bits)) {
        *v1 = m1;
        *v2 = m2;
        return true;
      }
      // CDBS length field overflowed: the next re-encode (Init) emits QED.
      switched_to_qed_ = true;
      obs::MetricRegistry::Default()
          .GetCounter("labeling.hybrid.qed_fallbacks",
                      "Hybrid labelings that abandoned CDBS for QED after a "
                      "length-field overflow")
          ->Increment();
      return false;
    }
    core::QedCode m1;
    core::QedCode m2;
    qed_.TryInsertTwoBetween(std::get<core::QedCode>(left),
                             std::get<core::QedCode>(right), &m1, &m2,
                             neighbor_bits);
    *v1 = std::move(m1);
    *v2 = std::move(m2);
    return true;  // QED never overflows
  }

  void NoteUniverse(uint64_t count) {
    cdbs_.NoteUniverse(count);
    qed_.NoteUniverse(count);
  }

  std::string Serialize(const Value& v) const {
    if (std::holds_alternative<CdbsWord>(v)) {
      return cdbs_.Serialize(std::get<CdbsWord>(v));
    }
    return qed_.Serialize(std::get<core::QedCode>(v));
  }

  /// Test hook: whether the QED fallback has been taken.
  bool switched_to_qed() const { return switched_to_qed_; }

 private:
  bool switched_to_qed_ = false;
  CdbsContainmentCodec cdbs_{/*fixed_width=*/false};
  QedContainmentCodec qed_;
  std::vector<CdbsWord> cdbs_scratch_;
};

class HybridScheme : public LabelingScheme {
 public:
  HybridScheme() : name_("Hybrid-CDBS/QED-Containment") {}

  const std::string& name() const override { return name_; }

  std::unique_ptr<Labeling> Label(const xml::Document& doc) const override {
    return std::make_unique<ContainmentLabeling<HybridContainmentCodec>>(
        name_, HybridContainmentCodec(), doc);
  }

 private:
  std::string name_;
};

}  // namespace

std::unique_ptr<LabelingScheme> MakeHybridContainment() {
  return std::make_unique<HybridScheme>();
}

}  // namespace cdbs::labeling
