#ifndef CDBS_LABELING_CONTAINMENT_H_
#define CDBS_LABELING_CONTAINMENT_H_

#include <cstring>
#include <memory>
#include <string>
#include <utility>
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
///   QED                 : quaternary codes (slightly larger, overflow-free).
///
/// `u` is an ancestor of `v` iff start(u) < start(v) and end(v) < end(u) in
/// the codec's order; parent additionally requires a level difference of 1.

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
};

/// ---- The labeling -------------------------------------------------------

/// Containment labeling over any codec above.
template <typename Codec>
class ContainmentLabeling : public Labeling {
 public:
  using Value = typename Codec::Value;

  ContainmentLabeling(std::string name, Codec codec, const xml::Document& doc)
      : name_(std::move(name)), codec_(std::move(codec)) {
    skeleton_ = TreeSkeleton::FromDocument(doc, nullptr);
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
    return level_[c] - level_[p] == 1 && IsAncestor(p, c);
  }

  int CompareOrder(NodeId a, NodeId b) const override {
    return codec_.Compare(start_[a], start_[b]);
  }

  int Level(NodeId n) const override { return level_[n]; }

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
    out.push_back(static_cast<char>(level_[n]));
    return out;
  }

  DeleteResult DeleteSubtree(NodeId target) override {
    DeleteResult result;
    result.removed = skeleton_.RemoveSubtree(target);
    // Remaining labels keep their relative order; nothing is rewritten.
    return result;
  }

  const TreeSkeleton& skeleton() const override { return skeleton_; }

  std::unique_ptr<Labeling> Clone() const override {
    return std::make_unique<ContainmentLabeling<Codec>>(*this);
  }

  std::unique_ptr<Labeling> ForkShared() const override {
    // The copy constructor is COW across all per-node state (CowVector
    // labels/levels + COW TreeSkeleton), so a fork shares every chunk:
    // O(chunks), not O(nodes). This is the fast path the concurrent
    // engine's publish takes for the whole containment family (V/F-Binary,
    // Float, V/F-CDBS, QED, Hybrid).
    return std::make_unique<ContainmentLabeling<Codec>>(*this);
  }

  bool SupportsSharedFork() const override { return true; }

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
    level_.Resize(skeleton_.size());
    for (size_t i = 0; i < skeleton_.size(); ++i) {
      if (skeleton_.is_removed(static_cast<NodeId>(i))) continue;
      // Each rank indexes `values` exactly once, so moving out is safe.
      start_.Set(i, std::move(values[start_rank[i] - 1]));
      end_.Set(i, std::move(values[end_rank[i] - 1]));
      level_.Set(i, skeleton_.level(static_cast<NodeId>(i)));
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
      level_.PushBack(skeleton_.level(id));
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
        if (touched) result.relabeled_nodes.push_back(static_cast<NodeId>(i));
      }
      start_.PushBack(pivot);
      end_.PushBack(pivot + 1);
      level_.PushBack(skeleton_.level(id));
      codec_.NoteUniverse(2 * skeleton_.size());
      result.relabeled = result.relabeled_nodes.size();
    } else {
      // Full re-encode of every value (the new node included).
      const uint64_t existing = skeleton_.size() - 1;
      Encode();
      result.relabeled = existing;
      result.relabeled_nodes.reserve(existing);
      for (uint64_t i = 0; i < existing; ++i) {
        result.relabeled_nodes.push_back(static_cast<NodeId>(i));
      }
    }
    return result;
  }

  std::string name_;
  Codec codec_;
  TreeSkeleton skeleton_;
  util::CowVector<Value> start_;
  util::CowVector<Value> end_;
  util::CowVector<int> level_;
};

/// ---- Factories ----------------------------------------------------------

std::unique_ptr<LabelingScheme> MakeVBinaryContainment();
std::unique_ptr<LabelingScheme> MakeFBinaryContainment();
std::unique_ptr<LabelingScheme> MakeVCdbsContainment();
std::unique_ptr<LabelingScheme> MakeFCdbsContainment();
std::unique_ptr<LabelingScheme> MakeQedContainment();

}  // namespace cdbs::labeling

#endif  // CDBS_LABELING_CONTAINMENT_H_
