#include "labeling/containment.h"

namespace cdbs::labeling {

void ComputeEulerRanks(const TreeSkeleton& sk, std::vector<uint64_t>* start,
                       std::vector<uint64_t>* end) {
  start->assign(sk.size(), 0);
  end->assign(sk.size(), 0);
  if (sk.size() == 0) return;
  uint64_t counter = 0;
  NodeId cur = 0;  // root
  (*start)[cur] = ++counter;
  for (;;) {
    const NodeId child = sk.first_child(cur);
    if (child != kNoNode) {
      cur = child;
      (*start)[cur] = ++counter;
      continue;
    }
    (*end)[cur] = ++counter;
    for (;;) {
      const NodeId sibling = sk.next_sibling(cur);
      if (sibling != kNoNode) {
        cur = sibling;
        (*start)[cur] = ++counter;
        break;
      }
      cur = sk.parent(cur);
      if (cur == kNoNode) return;
      (*end)[cur] = ++counter;
    }
  }
}

std::unique_ptr<LabelingScheme> MakeVBinaryContainment() {
  return MakeScheme<ContainmentLabeling<IntContainmentCodec>>(
      "V-Binary-Containment", IntContainmentCodec(/*fixed_width=*/false));
}

std::unique_ptr<LabelingScheme> MakeFBinaryContainment() {
  return MakeScheme<ContainmentLabeling<IntContainmentCodec>>(
      "F-Binary-Containment", IntContainmentCodec(/*fixed_width=*/true));
}

std::unique_ptr<LabelingScheme> MakeVCdbsContainment() {
  return MakeScheme<ContainmentLabeling<CdbsContainmentCodec>>(
      "V-CDBS-Containment", CdbsContainmentCodec(/*fixed_width=*/false));
}

std::unique_ptr<LabelingScheme> MakeFCdbsContainment() {
  return MakeScheme<ContainmentLabeling<CdbsContainmentCodec>>(
      "F-CDBS-Containment", CdbsContainmentCodec(/*fixed_width=*/true));
}

std::unique_ptr<LabelingScheme> MakeQedContainment() {
  return MakeScheme<ContainmentLabeling<QedContainmentCodec>>(
      "QED-Containment", QedContainmentCodec());
}

}  // namespace cdbs::labeling
