#include "labeling/registry.h"

#include "labeling/containment.h"
#include "labeling/dewey.h"
#include "labeling/float_containment.h"
#include "labeling/hybrid.h"
#include "labeling/ordpath.h"
#include "labeling/prefix.h"
#include "labeling/prime.h"

namespace cdbs::labeling {

std::vector<std::unique_ptr<LabelingScheme>> AllSchemes() {
  std::vector<std::unique_ptr<LabelingScheme>> schemes;
  schemes.push_back(MakePrimeScheme());
  schemes.push_back(MakeDeweyPrefix());
  schemes.push_back(MakeBinaryStringPrefix());
  schemes.push_back(MakeOrdPath1Prefix());
  schemes.push_back(MakeOrdPath2Prefix());
  schemes.push_back(MakeCdbsPrefix());
  schemes.push_back(MakeQedPrefix());
  schemes.push_back(MakeFloatContainment());
  schemes.push_back(MakeVBinaryContainment());
  schemes.push_back(MakeFBinaryContainment());
  schemes.push_back(MakeVCdbsContainment());
  schemes.push_back(MakeFCdbsContainment());
  schemes.push_back(MakeQedContainment());
  // Our extension (the paper's stated future work): CDBS with an automatic
  // QED fallback for skewed insertion.
  schemes.push_back(MakeHybridContainment());
  return schemes;
}

std::vector<std::unique_ptr<LabelingScheme>> DynamicSchemes() {
  std::vector<std::unique_ptr<LabelingScheme>> schemes;
  schemes.push_back(MakeOrdPath1Prefix());
  schemes.push_back(MakeOrdPath2Prefix());
  schemes.push_back(MakeCdbsPrefix());
  schemes.push_back(MakeQedPrefix());
  schemes.push_back(MakeFloatContainment());
  schemes.push_back(MakeVCdbsContainment());
  schemes.push_back(MakeFCdbsContainment());
  schemes.push_back(MakeQedContainment());
  schemes.push_back(MakeHybridContainment());
  return schemes;
}

std::unique_ptr<LabelingScheme> SchemeByName(const std::string& name) {
  for (auto& scheme : AllSchemes()) {
    if (scheme->name() == name) return std::move(scheme);
  }
  return nullptr;
}

}  // namespace cdbs::labeling
