// Correctness tests for the zero-RLE byte codec (util/label_codec.h,
// docs/ENCODING.md). Mirrors the randomized style of
// bit_string_fuzz_test.cc — every fuzzed operation is checked against a
// trivially-correct reference — plus adversarial decoding over truncated
// and bit-flipped streams, which must fail cleanly (Corruption), never
// crash or over-allocate.

#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "util/label_codec.h"
#include "util/ordered_varint.h"
#include "util/random.h"

namespace cdbs::util {
namespace {

std::string CompressedRoundtrip(const std::string& in) {
  std::string compressed;
  CompressBytes(in, &compressed);
  size_t pos = 0;
  std::string out;
  EXPECT_TRUE(DecompressBytes(compressed, &pos, in.size(), &out).ok());
  EXPECT_EQ(pos, compressed.size());
  EXPECT_EQ(out, in);
  return compressed;
}

TEST(ZeroRleTest, RoundtripShapes) {
  CompressedRoundtrip("");
  CompressedRoundtrip("no zeros at all");
  CompressedRoundtrip(std::string(1000, '\0'));
  CompressedRoundtrip(std::string("\0", 1));
  CompressedRoundtrip("lone\0zero stays literal" + std::string(1, '\0'));
  // Page-image shape: slot payloads separated by zero padding.
  std::string page;
  for (int i = 0; i < 32; ++i) {
    page += "record" + std::to_string(i);
    page.append(40, '\0');
  }
  const std::string compressed = CompressedRoundtrip(page);
  EXPECT_LT(compressed.size(), page.size() / 2);
}

// The byte-at-a-time compressor the word-scanning CompressBytes replaced.
// Its token stream is the format: WAL records written by either must be
// identical.
std::string ReferenceCompress(std::string_view in) {
  constexpr size_t kMaxRun = size_t{1} << 24;
  std::string out;
  EXPECT_TRUE(EncodeOrderedVarint(in.size(), &out).ok());
  size_t i = 0;
  while (i < in.size()) {
    size_t run = 0;
    if (in[i] == '\0') {
      while (i + run < in.size() && run < kMaxRun && in[i + run] == '\0') {
        ++run;
      }
      EXPECT_TRUE(EncodeOrderedVarint((run << 1) | 1, &out).ok());
    } else {
      while (i + run < in.size() && run < kMaxRun &&
             (in[i + run] != '\0' ||
              (i + run + 1 < in.size() && in[i + run + 1] != '\0'))) {
        ++run;
      }
      EXPECT_TRUE(EncodeOrderedVarint(run << 1, &out).ok());
      out.append(in.data() + i, run);
    }
    i += run;
  }
  return out;
}

void ExpectMatchesReference(const std::string& in) {
  std::string compressed = "prefix";
  CompressBytes(in, &compressed);
  ASSERT_EQ(compressed, "prefix" + ReferenceCompress(in))
      << "input of " << in.size() << " bytes";
  size_t pos = 6;
  std::string out = "kept";
  ASSERT_TRUE(DecompressBytes(compressed, &pos, in.size(), &out).ok());
  EXPECT_EQ(pos, compressed.size());
  EXPECT_EQ(out, "kept" + in);
}

TEST(ZeroRleTest, MatchesTheByteLoopReferenceOnEdgeInputs) {
  auto zeros = [](size_t n) { return std::string(n, '\0'); };
  auto literal = [](size_t n) { return std::string(n, 'x'); };
  const std::vector<std::string> inputs = {
      "",
      zeros(1),
      zeros(1000),
      literal(1000),
      "no zero at all",
      "lone" + zeros(1) + "zero inside a literal",
      "zero pair at the end" + zeros(2),
      "lone zero at the end" + zeros(1),
      zeros(1) + "leading lone zero",
      // Token widths grow from 1 to 2 bytes past a 63-byte run and from 2
      // to 3 past a 1023-byte run, for zero and literal runs alike.
      "a" + zeros(63) + "b", "a" + zeros(64) + "b",
      "a" + zeros(1023) + "b", "a" + zeros(1024) + "b",
      literal(63) + zeros(2), literal(64) + zeros(2),
      literal(1023) + zeros(2), literal(1024) + zeros(2),
      // Runs past the 2^24-byte token cap split into two tokens.
      zeros((size_t{1} << 24) + 3),
      literal((size_t{1} << 24) + 3),
  };
  for (const std::string& in : inputs) ExpectMatchesReference(in);
  // Every string of up to 16 bytes over {zero, non-zero}: each alignment
  // of a run and a zero pair against the 8-byte scan.
  for (size_t n = 0; n <= 16; ++n) {
    for (uint32_t bits = 0; bits < (1u << n); ++bits) {
      std::string in(n, '\0');
      for (size_t i = 0; i < n; ++i) {
        if ((bits >> i) & 1) in[i] = static_cast<char>(0x80 | i);
      }
      ExpectMatchesReference(in);
    }
  }
}

TEST(ZeroRleFuzzTest, MatchesTheByteLoopReferenceOnRandomInputs) {
  util::Random rng(24);
  for (int round = 0; round < 1000; ++round) {
    std::string in;
    const size_t segments = rng.Uniform(40);
    for (size_t s = 0; s < segments; ++s) {
      switch (rng.Uniform(4)) {
        case 0:
          in.append(rng.Uniform(200), '\0');
          break;
        case 1:  // a lone zero
          in.push_back('\0');
          break;
        case 2:  // little-endian ids, as kQuery responses carry them
          for (size_t k = rng.Uniform(16); k > 0; --k) {
            const uint64_t id = rng.Uniform(uint64_t{1} << rng.Uniform(40));
            in.append(reinterpret_cast<const char*>(&id), sizeof(id));
          }
          break;
        default:
          for (size_t k = rng.Uniform(100); k > 0; --k) {
            in.push_back(static_cast<char>(rng.Uniform(256)));
          }
      }
    }
    ExpectMatchesReference(in);
  }
}

TEST(ZeroRleTest, MaybeCompressRespectsThresholdAndGain) {
  std::string out = "sentinel";
  // Below min_size: untouched, false.
  EXPECT_FALSE(MaybeCompressBytes(std::string(10, '\0'), 64, &out));
  EXPECT_EQ(out, "sentinel");
  // Incompressible (random-ish literals): false even above min_size.
  util::Random rng(7);
  std::string noise;
  for (int i = 0; i < 256; ++i) {
    noise.push_back(static_cast<char>(1 + rng.Uniform(255)));
  }
  EXPECT_FALSE(MaybeCompressBytes(noise, 64, &out));
  EXPECT_EQ(out, "sentinel");
  // Zero-padded payload: compresses, strictly smaller.
  std::string padded = noise + std::string(4096, '\0');
  ASSERT_TRUE(MaybeCompressBytes(padded, 64, &out));
  EXPECT_LT(out.size(), padded.size());
  size_t pos = 0;
  std::string back;
  ASSERT_TRUE(DecompressBytes(out, &pos, padded.size(), &back).ok());
  EXPECT_EQ(back, padded);
}

TEST(ZeroRleTest, DecompressEnforcesMaxOut) {
  // A receiver hands its frame cap as max_out; a stream claiming a bigger
  // original must be rejected before any allocation of that size.
  std::string compressed;
  CompressBytes(std::string(1024, '\0'), &compressed);
  size_t pos = 0;
  std::string out;
  const Status status = DecompressBytes(compressed, &pos, 1023, &out);
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
}

TEST(ZeroRleTest, DecompressRejectsCorruptStreams) {
  const std::string original = "payload" + std::string(100, '\0') + "tail";
  std::string compressed;
  CompressBytes(original, &compressed);
  // Every truncation fails cleanly.
  for (size_t cut = 0; cut < compressed.size(); ++cut) {
    size_t pos = 0;
    std::string out;
    EXPECT_FALSE(DecompressBytes(compressed.substr(0, cut), &pos,
                                 original.size(), &out)
                     .ok())
        << "cut " << cut;
  }
  // Self-framing: trailing bytes after the stream are left unconsumed for
  // the caller to judge (the frame layer treats them as corruption).
  std::string padded = compressed + "garbage";
  size_t pos = 0;
  std::string out;
  ASSERT_TRUE(DecompressBytes(padded, &pos, original.size(), &out).ok());
  EXPECT_EQ(pos, compressed.size());
  EXPECT_EQ(out, original);
}

TEST(ZeroRleFuzzTest, RandomPayloadsRoundtripAndFlipsNeverCrash) {
  util::Random rng(1717);
  for (int round = 0; round < 200; ++round) {
    // Payloads biased toward zero runs of random lengths.
    std::string in;
    const size_t segments = rng.Uniform(20);
    for (size_t s = 0; s < segments; ++s) {
      if (rng.Bernoulli(0.5)) {
        in.append(rng.Uniform(300), '\0');
      } else {
        const size_t len = rng.Uniform(50);
        for (size_t j = 0; j < len; ++j) {
          in.push_back(static_cast<char>(rng.Uniform(256)));
        }
      }
    }
    const std::string compressed = CompressedRoundtrip(in);

    // Single-byte corruption: clean failure or a bounded wrong answer.
    if (!compressed.empty()) {
      std::string mutated = compressed;
      const size_t i = rng.Uniform(mutated.size());
      mutated[i] = static_cast<char>(mutated[i] ^ (1u << rng.Uniform(8)));
      size_t pos = 0;
      std::string out;
      const Status status =
          DecompressBytes(mutated, &pos, in.size(), &out);
      if (status.ok()) {
        EXPECT_LE(out.size(), in.size());
        EXPECT_LE(pos, mutated.size());
      } else {
        EXPECT_EQ(status.code(), StatusCode::kCorruption);
      }
    }
  }
}

}  // namespace
}  // namespace cdbs::util
