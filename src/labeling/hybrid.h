#ifndef CDBS_LABELING_HYBRID_H_
#define CDBS_LABELING_HYBRID_H_

#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "core/qed.h"
#include "labeling/containment.h"
#include "labeling/label.h"

/// \file
/// Hybrid-CDBS/QED-Containment — our implementation of the paper's stated
/// future work ("how to efficiently process the skewed insertion problem",
/// Section 8), automating Section 6's guidance:
///
///  * start with V-CDBS codes (most compact, cheapest insertions);
///  * on the first length-field overflow — the signature of skewed
///    insertion — re-encode once into QED codes, which can never overflow
///    again.
///
/// Under uniform updates the hybrid behaves exactly like V-CDBS; under
/// sustained skew it pays one re-label and then matches QED's
/// zero-relabeling behaviour, instead of re-encoding every ~W insertions.

namespace cdbs::labeling {

/// Counts one CDBS-to-QED switch (`labeling.hybrid.qed_fallbacks`).
void NoteQedFallback();

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
      NoteQedFallback();
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

  size_t SerializedSize(const Value& v) const {
    if (std::holds_alternative<CdbsWord>(v)) {
      return cdbs_.SerializedSize(std::get<CdbsWord>(v));
    }
    return qed_.SerializedSize(std::get<core::QedCode>(v));
  }

  /// Test hook: whether the QED fallback has been taken.
  bool switched_to_qed() const { return switched_to_qed_; }

 private:
  bool switched_to_qed_ = false;
  CdbsContainmentCodec cdbs_{/*fixed_width=*/false};
  QedContainmentCodec qed_;
  std::vector<CdbsWord> cdbs_scratch_;
};

/// Factory for Hybrid-CDBS/QED-Containment.
std::unique_ptr<LabelingScheme> MakeHybridContainment();

}  // namespace cdbs::labeling

#endif  // CDBS_LABELING_HYBRID_H_
