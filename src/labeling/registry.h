#ifndef CDBS_LABELING_REGISTRY_H_
#define CDBS_LABELING_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "labeling/label.h"

/// \file
/// Central registry of every labeling scheme, paper-named, for the
/// experiment harness.

namespace cdbs::labeling {

/// All schemes in the paper's reporting order: Prime, the prefix schemes,
/// then the containment schemes — plus our Hybrid-CDBS/QED extension
/// (Section 8's future work) at the end.
std::vector<std::unique_ptr<LabelingScheme>> AllSchemes();

/// The dynamic schemes only (those that avoid re-labeling on intermittent
/// updates): OrdPath1/2-Prefix, CDBS-Prefix, QED-Prefix,
/// Float-point-Containment, V/F-CDBS-Containment, QED-Containment.
std::vector<std::unique_ptr<LabelingScheme>> DynamicSchemes();

/// Looks up one scheme by its paper name; null for unknown names.
std::unique_ptr<LabelingScheme> SchemeByName(const std::string& name);

}  // namespace cdbs::labeling

#endif  // CDBS_LABELING_REGISTRY_H_
