#include "util/ordered_varint.h"

#include "util/check.h"

namespace cdbs::util {

size_t OrderedVarintLength(uint64_t value) {
  CDBS_CHECK(value <= kMaxOrderedVarint);
  if (value < 0x80) return 1;
  size_t len = 2;  // PutOrderedVarint's length rule
  while (value >> (5 * len + 1) != 0) ++len;
  return len;
}

Status EncodeOrderedVarint(uint64_t value, std::string* out) {
  if (value > kMaxOrderedVarint) {
    return Status::InvalidArgument("ordered varint value exceeds 2^31-1");
  }
  char buf[6];
  out->append(buf, PutOrderedVarint(buf, value));
  return Status::OK();
}

Status DecodeOrderedVarint(std::string_view data, size_t* pos,
                           uint64_t* value) {
  const char* end = data.data() + data.size();
  const char* next = *pos <= data.size()
                         ? GetOrderedVarint(data.data() + *pos, end, value)
                         : nullptr;
  if (next == nullptr) {
    return Status::Corruption("ordered varint: truncated or malformed");
  }
  *pos = static_cast<size_t>(next - data.data());
  return Status::OK();
}

}  // namespace cdbs::util
