#include "labeling/hybrid.h"

#include "obs/metrics.h"

namespace cdbs::labeling {

void NoteQedFallback() {
  obs::MetricRegistry::Default()
      .GetCounter("labeling.hybrid.qed_fallbacks",
                  "Hybrid labelings that abandoned CDBS for QED after a "
                  "length-field overflow")
      ->Increment();
}

std::unique_ptr<LabelingScheme> MakeHybridContainment() {
  return MakeScheme<ContainmentLabeling<HybridContainmentCodec>>(
      "Hybrid-CDBS/QED-Containment", HybridContainmentCodec());
}

}  // namespace cdbs::labeling
