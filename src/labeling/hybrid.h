#ifndef CDBS_LABELING_HYBRID_H_
#define CDBS_LABELING_HYBRID_H_

#include <memory>

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
/// Its codec, `HybridContainmentCodec`, sits with the other containment
/// codecs in labeling/containment.h.

namespace cdbs::labeling {

/// Factory for Hybrid-CDBS/QED-Containment.
std::unique_ptr<LabelingScheme> MakeHybridContainment();

}  // namespace cdbs::labeling

#endif  // CDBS_LABELING_HYBRID_H_
