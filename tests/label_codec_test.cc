// Correctness tests for the compact-encoding codec layer
// (util/label_codec.h, docs/ENCODING.md): front-coded label runs and
// zero-RLE byte compression. Mirrors the randomized style of
// bit_string_fuzz_test.cc — every fuzzed operation is checked against a
// trivially-correct reference — plus adversarial decoding over truncated
// and bit-flipped streams, which must fail cleanly (Corruption), never
// crash or over-allocate.

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "util/label_codec.h"
#include "util/ordered_varint.h"
#include "util/random.h"

namespace cdbs::util {
namespace {

std::string Roundtrip(const std::vector<std::string>& records) {
  std::string encoded;
  EXPECT_TRUE(EncodeFrontCodedRun(records, &encoded).ok());
  size_t pos = 0;
  std::vector<std::string> decoded;
  EXPECT_TRUE(DecodeFrontCodedRun(encoded, &pos, records.size(), &decoded)
                  .ok());
  EXPECT_EQ(pos, encoded.size());
  EXPECT_EQ(decoded, records);
  return encoded;
}

// ---------------------------------------------------------------------------
// Front-coded runs

TEST(FrontCodingTest, RoundtripBasics) {
  Roundtrip({});
  Roundtrip({""});
  Roundtrip({"", "", ""});
  Roundtrip({"a"});
  Roundtrip({"a", "a", "a"});            // identical records: pure prefixes
  Roundtrip({"abc", "abd", "abda", ""});  // shrinking record mid-run
  Roundtrip({std::string("\0\0x", 3), std::string("\0\0y", 3)});  // NULs
}

TEST(FrontCodingTest, SharedPrefixRunsCompress) {
  // A deep-label cluster: long common stem, tiny per-record delta — the
  // document-order shape CDBS produces. The encoding must come out far
  // smaller than the raw concatenation.
  const std::string stem(200, 'p');
  std::vector<std::string> records;
  size_t raw = 0;
  for (int i = 0; i < 64; ++i) {
    records.push_back(stem + static_cast<char>('a' + i % 26) +
                      std::to_string(i));
    raw += records.back().size();
  }
  std::sort(records.begin(), records.end());
  const std::string encoded = Roundtrip(records);
  EXPECT_LT(encoded.size(), raw / 4) << "front coding lost its advantage";
}

TEST(FrontCodingTest, OrderPreservedOverAdversarialRuns) {
  // Runs engineered to stress the prefix chain: single-element runs,
  // records that are prefixes of their successor and vice versa,
  // alternating deep/shallow labels. Decoding must restore the exact
  // bytes, so bytewise order of the decoded run equals the input order.
  const std::vector<std::vector<std::string>> runs = {
      {"x"},
      {"a", "ab", "abc", "abcd", "abcde"},      // each a prefix of the next
      {"abcde", "abcd", "abc", "ab", "a"},       // and the reverse
      {std::string(500, 'z'), "a", std::string(400, 'z'), "b"},
      {"\x01", "\x01\x80", "\x02", "\x7f", "\x80", "\xff"},
  };
  for (const auto& run : runs) {
    const std::string encoded = Roundtrip(run);
    // Sorted input stays sorted after decode (trivially true given exact
    // roundtrip — asserted anyway as the property downstream relies on).
    std::vector<std::string> sorted = run;
    std::sort(sorted.begin(), sorted.end());
    std::string enc2;
    ASSERT_TRUE(EncodeFrontCodedRun(sorted, &enc2).ok());
    size_t pos = 0;
    std::vector<std::string> decoded;
    ASSERT_TRUE(
        DecodeFrontCodedRun(enc2, &pos, sorted.size(), &decoded).ok());
    ASSERT_TRUE(std::is_sorted(decoded.begin(), decoded.end()));
    ASSERT_EQ(decoded, sorted);
    (void)encoded;
  }
}

TEST(FrontCodingTest, IncrementalAppendMatchesRunEncoder) {
  const std::vector<std::string> records = {"", "ant", "antelope", "bee",
                                            "bee"};
  std::string whole;
  ASSERT_TRUE(EncodeFrontCodedRun(records, &whole).ok());
  std::string incremental;
  std::string_view prev;
  for (const std::string& r : records) {
    ASSERT_TRUE(AppendFrontCodedRecord(prev, r, &incremental).ok());
    prev = r;
  }
  EXPECT_EQ(incremental, whole);
}

TEST(FrontCodingTest, MaxRecordSizeBounds) {
  // Every record's encoded footprint stays within the planning bound used
  // for page-capacity arithmetic.
  for (const size_t size : {size_t{0}, size_t{1}, size_t{127}, size_t{128},
                            size_t{4096}}) {
    const std::string record(size, 'r');
    std::string encoded;
    // Worst case: predecessor shares nothing.
    ASSERT_TRUE(AppendFrontCodedRecord("unrelated", record, &encoded).ok());
    EXPECT_LE(encoded.size(), MaxFrontCodedRecordSize(size)) << size;
  }
}

TEST(FrontCodingTest, DecodeRejectsCorruptStreams) {
  std::vector<std::string> out;
  size_t pos = 0;

  // Truncated mid-varint / mid-suffix.
  std::string encoded;
  ASSERT_TRUE(EncodeFrontCodedRun({"hello", "help"}, &encoded).ok());
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    pos = 0;
    out.clear();
    EXPECT_FALSE(
        DecodeFrontCodedRun(encoded.substr(0, cut), &pos, 2, &out).ok())
        << "cut " << cut;
  }

  // Shared-prefix length exceeding the predecessor.
  std::string bogus;
  ASSERT_TRUE(EncodeOrderedVarint(10, &bogus).ok());  // shared=10, prev=""
  ASSERT_TRUE(EncodeOrderedVarint(0, &bogus).ok());
  pos = 0;
  out.clear();
  Status status = DecodeFrontCodedRun(bogus, &pos, 1, &out);
  EXPECT_EQ(status.code(), StatusCode::kCorruption);

  // Suffix length pointing past the buffer must not over-read or
  // pre-allocate unbounded memory.
  bogus.clear();
  ASSERT_TRUE(EncodeOrderedVarint(0, &bogus).ok());
  ASSERT_TRUE(EncodeOrderedVarint(kMaxOrderedVarint, &bogus).ok());
  pos = 0;
  out.clear();
  status = DecodeFrontCodedRun(bogus, &pos, 1, &out);
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
}

TEST(FrontCodingFuzzTest, RandomSortedRunsRoundtrip) {
  util::Random rng(20260808);
  for (int round = 0; round < 50; ++round) {
    // Random labels over a tiny alphabet so prefixes collide often, sorted
    // into a run like a v3 page holds.
    std::vector<std::string> records;
    const size_t n = rng.Uniform(40);
    for (size_t i = 0; i < n; ++i) {
      std::string r;
      const size_t len = rng.Uniform(64);
      for (size_t j = 0; j < len; ++j) {
        r.push_back(static_cast<char>(rng.Uniform(4)));  // incl. NUL
      }
      records.push_back(std::move(r));
    }
    std::sort(records.begin(), records.end());
    Roundtrip(records);
  }
}

TEST(FrontCodingFuzzTest, BitFlippedStreamsNeverCrash) {
  util::Random rng(4242);
  std::vector<std::string> records;
  for (int i = 0; i < 16; ++i) {
    records.push_back("label" + std::to_string(i * i));
  }
  std::sort(records.begin(), records.end());
  std::string encoded;
  ASSERT_TRUE(EncodeFrontCodedRun(records, &encoded).ok());
  for (int round = 0; round < 500; ++round) {
    std::string mutated = encoded;
    const size_t i = rng.Uniform(mutated.size());
    mutated[i] = static_cast<char>(mutated[i] ^ (1u << rng.Uniform(8)));
    size_t pos = 0;
    std::vector<std::string> out;
    // Either decodes to *some* run or reports Corruption; must not crash,
    // over-read, or loop. A successful decode must consume within bounds.
    const Status status =
        DecodeFrontCodedRun(mutated, &pos, records.size(), &out);
    if (status.ok()) {
      EXPECT_LE(pos, mutated.size());
      EXPECT_EQ(out.size(), records.size());
    } else {
      EXPECT_EQ(status.code(), StatusCode::kCorruption);
    }
  }
}

// ---------------------------------------------------------------------------
// Zero-RLE byte compression

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
// Its token stream is the format: WAL records and compressed frames
// written by either must be identical.
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
