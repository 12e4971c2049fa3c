#include "labeling/float_containment.h"

#include "labeling/containment.h"

namespace cdbs::labeling {

std::unique_ptr<LabelingScheme> MakeFloatContainment() {
  return MakeScheme<ContainmentLabeling<FloatContainmentCodec>>(
      "Float-point-Containment", FloatContainmentCodec());
}

}  // namespace cdbs::labeling
