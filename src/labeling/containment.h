#ifndef CDBS_LABELING_CONTAINMENT_H_
#define CDBS_LABELING_CONTAINMENT_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/binary_codec.h"
#include "core/bit_string.h"
#include "core/cdbs.h"
#include "core/qed.h"
#include "labeling/label.h"
#include "util/check.h"
#include "util/cow_vector.h"

/// \file
/// Containment (interval) labeling — Zhang et al.'s "start,end,level" scheme
/// — parameterized by the *value codec*. The codec is what the paper varies:
///
///   V-Binary / F-Binary : plain integers (most compact, but any insertion
///                         shifts every following value — mass re-labeling);
///   Float-point         : QRS's reals (a few insertions per gap, then
///                         global re-labeling);
///   V-CDBS / F-CDBS     : this paper's codes (as compact as binary, and
///                         insertion touches only the new label, until the
///                         rare length-field overflow);
///   QED                 : quaternary codes (slightly larger, overflow-free);
///   Hybrid              : V-CDBS codes until the first overflow, QED after.
///
/// `u` is an ancestor of `v` iff start(u) < start(v) and end(v) < end(u) in
/// the codec's order; parent additionally requires a level difference of 1.
///
/// Every codec also abbreviates a value to a 32-bit order key (`Key`), the
/// Labeling::OrderKey/EndKey contract: Key(a) < Key(b) implies a < b.

namespace cdbs::labeling {

/// Euler-tour ranks: each node gets a start rank at entry and an end rank at
/// exit; 2 * size() ranks total, 1-based.
void ComputeEulerRanks(const TreeSkeleton& sk, std::vector<uint64_t>* start,
                       std::vector<uint64_t>* end);

/// What a codec does when a gap cannot take two more values.
enum class OverflowPolicy {
  /// Integers: shift every value at/after the gap up by two (partial
  /// re-label, the classical containment update).
  kShiftIntegers,
  /// Everything else: re-encode all values from scratch.
  kReencodeAll,
};

/// ---- Codecs -------------------------------------------------------------

/// Plain integer values; V (variable + length field) or F (fixed width)
/// only changes the size accounting.
class IntContainmentCodec {
 public:
  using Value = uint64_t;
  static constexpr OverflowPolicy kOverflowPolicy =
      OverflowPolicy::kShiftIntegers;

  explicit IntContainmentCodec(bool fixed_width) : fixed_(fixed_width) {}

  void Init(uint64_t count, std::vector<Value>* values) {
    universe_ = count;
    values->resize(count);
    for (uint64_t i = 0; i < count; ++i) (*values)[i] = i + 1;
  }

  int Compare(const Value& a, const Value& b) const {
    return a < b ? -1 : (a > b ? 1 : 0);
  }

  /// The order key: the value saturated at 2^32 - 1, exact below it.
  static uint32_t Key(Value v) {
    return v > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(v);
  }

  size_t StoredBits(const Value& v) const {
    return fixed_ ? core::FBinaryStoredBits(universe_)
                  : core::VBinaryStoredBits(v, universe_);
  }

  /// Integers can host two new values only if the gap is wide enough (it
  /// never is after a fresh consecutive encoding, but becomes so after a
  /// shift opened room elsewhere).
  bool TryInsertTwoBetween(const Value& left, const Value& right, Value* v1,
                           Value* v2, uint64_t* neighbor_bits) {
    *neighbor_bits = 0;
    if (right <= left || right - left < 3) return false;
    *v1 = left + 1;
    *v2 = left + 2;
    return true;
  }

  void NoteUniverse(uint64_t count) { universe_ = count; }

  std::string Serialize(const Value& v) const {
    std::string out(sizeof(Value), '\0');
    std::memcpy(out.data(), &v, sizeof(Value));
    return out;
  }

  size_t SerializedSize(const Value&) const { return sizeof(Value); }

 private:
  bool fixed_;
  uint64_t universe_ = 0;
};

/// QRS float values (32-bit): midpoint insertion until the float gap is
/// exhausted (~18-25 insertions at one spot), then global re-labeling.
class FloatContainmentCodec {
 public:
  using Value = float;
  static constexpr OverflowPolicy kOverflowPolicy =
      OverflowPolicy::kReencodeAll;

  void Init(uint64_t count, std::vector<Value>* values) {
    values->resize(count);
    for (uint64_t i = 0; i < count; ++i) {
      (*values)[i] = static_cast<float>(i + 1);
    }
  }

  int Compare(const Value& a, const Value& b) const {
    return a < b ? -1 : (a > b ? 1 : 0);
  }

  /// The order key: the IEEE bit pattern, which orders positive floats (all
  /// values are) as their values. Exact.
  static uint32_t Key(Value v) { return std::bit_cast<uint32_t>(v); }

  size_t StoredBits(const Value&) const { return 32; }

  bool TryInsertTwoBetween(const Value& left, const Value& right, Value* v1,
                           Value* v2, uint64_t* neighbor_bits) {
    *neighbor_bits = 0;
    const float m1 = (left + right) / 2.0f;
    const float m2 = (m1 + right) / 2.0f;
    if (!(left < m1 && m1 < m2 && m2 < right)) return false;  // exhausted
    *v1 = m1;
    *v2 = m2;
    return true;
  }

  void NoteUniverse(uint64_t) {}

  std::string Serialize(const Value& v) const {
    std::string out(sizeof(Value), '\0');
    std::memcpy(out.data(), &v, sizeof(Value));
    return out;
  }

  size_t SerializedSize(const Value&) const { return sizeof(Value); }
};

/// V-CDBS / F-CDBS values. Codes are the paper's binary strings; the length
/// field (V) or storage slot (F) is sized with the headroom Example 4.2
/// implies (expressible size >= initial width + 2), so intermittent
/// insertions never overflow but sustained skewed insertion eventually does
/// (Example 6.1).
///
/// In memory a code is one word (core::CodeToWord): its bits MSB-aligned,
/// zero-padded below, so comparison is one integer compare, as for
/// V-Binary. Algorithm 2 fills the words directly; the overflow limit keeps
/// every code under 64 bits. Codes are decoded to `core::BitString` only to
/// insert (Algorithm 1) and to serialize.
class CdbsContainmentCodec {
 public:
  using Value = uint64_t;
  static constexpr OverflowPolicy kOverflowPolicy =
      OverflowPolicy::kReencodeAll;

  explicit CdbsContainmentCodec(bool fixed_width) : fixed_(fixed_width) {}

  /// Bits in the code a word holds.
  static size_t CodeBits(Value v) { return core::WordCodeBits(v); }

  /// The word of a CDBS code (empty, or at most 63 bits ending in "1").
  static Value Encode(const core::BitString& code) {
    return core::CodeToWord(code);
  }

  /// The code a word holds (the inverse of Encode).
  static core::BitString Decode(Value v) { return core::WordToCode(v); }

  void Init(uint64_t count, std::vector<Value>* values) {
    *values = core::EncodeRangeWords(count);
    width_ = static_cast<size_t>(core::FixedWidthForCount(count));
    // Length field must express sizes up to width_ + 2 (first insertion
    // anywhere fits); the field is ceil(log2(width_ + 3)) bits.
    length_field_bits_ = 0;
    while ((width_ + 2) >> length_field_bits_) ++length_field_bits_;
    max_code_bits_ = (size_t{1} << length_field_bits_) - 1;
    // Holds for any count below 2^61; the word layout depends on it.
    CDBS_CHECK(max_code_bits_ < 64);
  }

  int Compare(Value a, Value b) const { return a < b ? -1 : (a > b ? 1 : 0); }

  /// The order key: the word's top 32 bits, i.e. the code's first 32 bits,
  /// which hold the whole code while it is at most 32 bits long.
  static uint32_t Key(Value v) { return static_cast<uint32_t>(v >> 32); }

  size_t StoredBits(Value v) const {
    // F-CDBS: fixed slots of the initial width (codes grown past the width
    // live in the slot headroom; see DESIGN.md). V-CDBS: length field +
    // code bits.
    return fixed_ ? width_ : length_field_bits_ + CodeBits(v);
  }

  bool TryInsertTwoBetween(Value left, Value right, Value* v1, Value* v2,
                           uint64_t* neighbor_bits) {
    auto [m1, m2] =
        core::AssignTwoMiddleBinaryStrings(Decode(left), Decode(right));
    if (m2.size() > max_code_bits_) return false;  // overflow (Example 6.1)
    CDBS_CHECK(m1.size() < 64 && m2.size() < 64);
    // Deriving m1 modifies one bit of a neighbour's code (Algorithm 1).
    *neighbor_bits = 1;
    *v1 = Encode(m1);
    *v2 = Encode(m2);
    return true;
  }

  void NoteUniverse(uint64_t) {}

  /// Length byte, then the code packed MSB-first into whole bytes.
  std::string Serialize(Value v) const {
    const size_t bits = CodeBits(v);
    std::string out;
    out.push_back(static_cast<char>(bits));
    for (size_t i = 0; i < (bits + 7) / 8; ++i) {
      out.push_back(static_cast<char>(v >> (56 - 8 * i)));
    }
    return out;
  }

  size_t SerializedSize(Value v) const { return 1 + (CodeBits(v) + 7) / 8; }

 private:
  bool fixed_;
  size_t width_ = 0;
  size_t length_field_bits_ = 0;
  size_t max_code_bits_ = 0;
};

/// QED quaternary values: never overflow; the separator digit "0" replaces
/// any length field.
class QedContainmentCodec {
 public:
  using Value = core::QedCode;
  static constexpr OverflowPolicy kOverflowPolicy =
      OverflowPolicy::kReencodeAll;  // unreachable; QED never overflows

  void Init(uint64_t count, std::vector<Value>* values) {
    *values = core::QedEncodeRange(count);
  }

  int Compare(const Value& a, const Value& b) const {
    return a < b ? -1 : (a > b ? 1 : 0);
  }

  /// The order key: the first 16 digits, 2 bits each, MSB first, padded
  /// with the separator digit 0. A code then keys no higher than its
  /// extensions, and codes that differ in their first 16 digits key apart.
  static uint32_t Key(const Value& v) {
    uint32_t key = 0;
    for (size_t i = 0; i < 16; ++i) {
      key = key << 2 | (i < v.size() ? static_cast<uint32_t>(v[i] - '0') : 0);
    }
    return key;
  }

  /// 2 bits per digit plus the 2-bit "0" separator.
  size_t StoredBits(const Value& v) const { return 2 * v.size() + 2; }

  bool TryInsertTwoBetween(const Value& left, const Value& right, Value* v1,
                           Value* v2, uint64_t* neighbor_bits) {
    auto [m1, m2] = core::QedInsertTwoBetween(left, right);
    *neighbor_bits = 2;  // one quaternary digit of a neighbour
    *v1 = std::move(m1);
    *v2 = std::move(m2);
    return true;
  }

  void NoteUniverse(uint64_t) {}

  std::string Serialize(const Value& v) const { return v; }

  size_t SerializedSize(const Value& v) const { return v.size(); }
};

/// Counts one CDBS-to-QED switch (`labeling.hybrid.qed_fallbacks`).
void NoteQedFallback();

/// Hybrid values (labeling/hybrid.h): CDBS mode until the first overflow,
/// then QED mode. A value is a variant, but at any moment every live value
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

  /// The order key of the value's mode. Every live value shares one mode,
  /// and the switch re-encodes them all, which rekeys every tag list.
  static uint32_t Key(const Value& v) {
    if (std::holds_alternative<CdbsWord>(v)) {
      return CdbsContainmentCodec::Key(std::get<CdbsWord>(v));
    }
    return QedContainmentCodec::Key(std::get<core::QedCode>(v));
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

/// ---- The labeling -------------------------------------------------------

/// Containment labeling over any codec above. Final, so a caller holding
/// the concrete type (WithContainment) calls its keys without a vtable.
template <typename Codec>
class ContainmentLabeling final : public Labeling {
 public:
  using Value = typename Codec::Value;

  ContainmentLabeling(std::string name, Codec codec, TreeSkeleton skeleton)
      : name_(std::move(name)), codec_(std::move(codec)) {
    skeleton_ = std::move(skeleton);
    Encode();
  }

  const std::string& scheme_name() const override { return name_; }
  size_t num_nodes() const override { return skeleton_.size(); }

  uint64_t TotalLabelBits() const override {
    uint64_t total = 0;
    for (size_t i = 0; i < start_.size(); ++i) {
      // start + end + a level byte (all containment variants store level
      // the same way; the paper's size comparisons exclude it, so do we).
      total += codec_.StoredBits(start_[i]) + codec_.StoredBits(end_[i]);
    }
    return total;
  }

  bool IsAncestor(NodeId a, NodeId d) const override {
    return codec_.Compare(start_[a], start_[d]) < 0 &&
           codec_.Compare(end_[d], end_[a]) < 0;
  }

  bool IsParent(NodeId p, NodeId c) const override {
    return Level(c) - Level(p) == 1 && IsAncestor(p, c);
  }

  int CompareOrder(NodeId a, NodeId b) const override {
    return codec_.Compare(start_[a], start_[b]);
  }

  int Level(NodeId n) const override { return skeleton_.level(n); }

  uint32_t OrderKey(NodeId n) const override { return Codec::Key(start_[n]); }
  uint32_t EndKey(NodeId n) const override { return Codec::Key(end_[n]); }

  InsertResult InsertSiblingBefore(NodeId target) override {
    // The new interval goes between the value preceding start(target) —
    // the previous sibling's end, or the parent's start — and
    // start(target). Values are passed by value: InsertWithGap appends to
    // the COW vectors, which may path-copy the chunk a reference would
    // point into.
    const NodeId prev = skeleton_.prev_sibling(target);
    Value left = prev != kNoNode ? end_[prev]
                                 : start_[skeleton_.parent(target)];
    Value right = start_[target];
    return InsertWithGap(skeleton_.AddSiblingBefore(target), std::move(left),
                         std::move(right));
  }

  InsertResult InsertSiblingAfter(NodeId target) override {
    const NodeId next = skeleton_.next_sibling(target);
    Value left = end_[target];
    Value right = next != kNoNode ? start_[next]
                                  : end_[skeleton_.parent(target)];
    return InsertWithGap(skeleton_.AddSiblingAfter(target), std::move(left),
                         std::move(right));
  }

  std::string SerializeLabel(NodeId n) const override {
    std::string out = codec_.Serialize(start_[n]);
    out += codec_.Serialize(end_[n]);
    out.push_back(static_cast<char>(Level(n)));
    return out;
  }

  size_t SerializedLabelSize(NodeId n) const override {
    return codec_.SerializedSize(start_[n]) + codec_.SerializedSize(end_[n]) +
           1;
  }

  DeleteResult DeleteSubtree(NodeId target) override {
    DeleteResult result;
    result.removed = skeleton_.RemoveSubtree(target);
    // Remaining labels keep their relative order; nothing is rewritten.
    return result;
  }

  const TreeSkeleton& skeleton() const override { return skeleton_; }

  std::unique_ptr<Labeling> ForkShared() const override {
    // The copy constructor is COW across all per-node state (CowVector
    // labels + COW TreeSkeleton), so a fork shares every chunk.
    return std::make_unique<ContainmentLabeling<Codec>>(*this);
  }

  /// The label columns, read-only: readers that decide structure from the
  /// values directly (query/evaluator.cc) instead of per-node virtual
  /// calls. Every codec orders its values by the Value's `<`. A label's
  /// level is the skeleton's level column, shared rather than copied: it
  /// never changes after an insert, and a re-encode leaves it alone.
  const util::CowVector<Value>& starts() const { return start_; }
  const util::CowVector<Value>& ends() const { return end_; }
  const util::CowVector<uint16_t>& levels() const {
    return skeleton_.levels();
  }

  /// Test hooks: a value as its codec presents it (CDBS words decode to
  /// their BitString).
  auto start_value(NodeId n) const { return Present(start_[n]); }
  auto end_value(NodeId n) const { return Present(end_[n]); }

 private:
  static auto Present(const Value& v) {
    if constexpr (requires { Codec::Decode(v); }) {
      return Codec::Decode(v);
    } else {
      return v;
    }
  }

  // Assigns fresh codes to every live node from the current skeleton;
  // labels of removed nodes are left stale (their ids are dead).
  void Encode() {
    std::vector<uint64_t> start_rank;
    std::vector<uint64_t> end_rank;
    ComputeEulerRanks(skeleton_, &start_rank, &end_rank);
    std::vector<Value> values;
    codec_.Init(2 * skeleton_.live_count(), &values);
    start_.Resize(skeleton_.size());
    end_.Resize(skeleton_.size());
    for (size_t i = 0; i < skeleton_.size(); ++i) {
      if (skeleton_.is_removed(static_cast<NodeId>(i))) continue;
      // Each rank indexes `values` exactly once, so moving out is safe.
      start_.Set(i, std::move(values[start_rank[i] - 1]));
      end_.Set(i, std::move(values[end_rank[i] - 1]));
    }
  }

  // Takes the gap endpoints by value: appending below may path-copy the
  // chunks the caller's labels live in, so references must not survive.
  InsertResult InsertWithGap(NodeId id, Value left, Value right) {
    InsertResult result;
    result.new_node = id;
    Value v1{};
    Value v2{};
    uint64_t neighbor_bits = 0;
    if (codec_.TryInsertTwoBetween(left, right, &v1, &v2, &neighbor_bits)) {
      start_.PushBack(std::move(v1));
      end_.PushBack(std::move(v2));
      codec_.NoteUniverse(2 * skeleton_.size());
      result.neighbor_bits_modified = neighbor_bits;
      return result;
    }
    result.overflow = true;
    NoteOverflowEvent();
    if constexpr (Codec::kOverflowPolicy == OverflowPolicy::kShiftIntegers) {
      // Classical containment re-labeling: every value >= right shifts up
      // by two to open the gap. Count nodes with at least one changed
      // value.
      const Value pivot = right;
      for (size_t i = 0; i < start_.size(); ++i) {
        if (skeleton_.is_removed(static_cast<NodeId>(i))) continue;
        bool touched = false;
        if (codec_.Compare(start_[i], pivot) >= 0) {
          start_.Mutable(i) += 2;
          touched = true;
        }
        if (codec_.Compare(end_[i], pivot) >= 0) {
          end_.Mutable(i) += 2;
          touched = true;
        }
        if (touched) ++result.relabeled;
      }
      start_.PushBack(pivot);
      end_.PushBack(pivot + 1);
      codec_.NoteUniverse(2 * skeleton_.size());
    } else {
      // Full re-encode of every value (the new node included).
      Encode();
      result.relabeled = skeleton_.size() - 1;
    }
    return result;
  }

  std::string name_;
  Codec codec_;
  TreeSkeleton skeleton_;
  util::CowVector<Value> start_;
  util::CowVector<Value> end_;
};

/// Calls f(containment) when `lab` is a ContainmentLabeling<Codec>;
/// returns whether it was.
template <typename Codec, typename F>
bool WithContainmentOver(const Labeling& lab, F& f) {
  const auto* containment =
      dynamic_cast<const ContainmentLabeling<Codec>*>(&lab);
  if (containment != nullptr) f(*containment);
  return containment != nullptr;
}

/// Calls f(containment) with `lab` as the ContainmentLabeling it is, over
/// whichever codec above, and returns true; returns false, calling
/// nothing, when it is none. This is the one list of the containment
/// codecs: readers that take the label columns in place (the evaluator's
/// view, the tag index's key fill) dispatch through it once per document
/// or evaluation, never per node.
template <typename F>
bool WithContainment(const Labeling& lab, F&& f) {
  return WithContainmentOver<CdbsContainmentCodec>(lab, f) ||
         WithContainmentOver<IntContainmentCodec>(lab, f) ||
         WithContainmentOver<FloatContainmentCodec>(lab, f) ||
         WithContainmentOver<QedContainmentCodec>(lab, f) ||
         WithContainmentOver<HybridContainmentCodec>(lab, f);
}

/// ---- Factories ----------------------------------------------------------

std::unique_ptr<LabelingScheme> MakeVBinaryContainment();
std::unique_ptr<LabelingScheme> MakeFBinaryContainment();
std::unique_ptr<LabelingScheme> MakeVCdbsContainment();
std::unique_ptr<LabelingScheme> MakeFCdbsContainment();
std::unique_ptr<LabelingScheme> MakeQedContainment();

}  // namespace cdbs::labeling

#endif  // CDBS_LABELING_CONTAINMENT_H_
