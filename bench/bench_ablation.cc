// E7 — Ablations of the design choices DESIGN.md calls out:
//
//  (a) bit-packed BitString comparison vs a naive byte-per-bit string
//      comparison (why the library packs bits);
//  (b) per-insertion neighbour modification cost: CDBS (1 bit) vs QED
//      (2 bits) vs OrdPath (component arithmetic), measured directly;
//  (c) label growth vs insertion skew: max code length after N insertions
//      with a varying fraction of skewed (fixed-place) insertions;
//  (d) V- vs F- storage overhead across universe sizes (length fields vs
//      fixed slots, Example 4.2 generalized);
//  (e) the navigational evaluator vs stack-based structural joins; the
//      bench exits 1 when their answers differ on any query.

#include <cstdio>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/binary_codec.h"
#include "labeling/registry.h"
#include "query/evaluator.h"
#include "query/structural_join.h"
#include "util/stopwatch.h"
#include "xml/shakespeare.h"
#include "core/cdbs.h"
#include "core/qed.h"
#include "labeling/ordpath.h"
#include "util/random.h"

namespace {

using cdbs::core::AssignMiddleBinaryString;
using cdbs::core::BitString;
using cdbs::core::EncodeRange;
using cdbs::core::FixedWidthForCount;
using cdbs::core::QedEncodeRange;
using cdbs::core::QedInsertBetween;
using cdbs::core::VLengthFieldBits;

// --- (a) packed vs naive comparison --------------------------------------

void BM_PackedCompare(benchmark::State& state) {
  const auto codes = EncodeRange(1 << 14);
  size_t a = 1;
  size_t b = 12345;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codes[a].Compare(codes[b]));
    a = (a + 129) % codes.size();
    b = (b + 511) % codes.size();
  }
}
BENCHMARK(BM_PackedCompare);

void BM_NaiveByteStringCompare(benchmark::State& state) {
  const auto packed = EncodeRange(1 << 14);
  std::vector<std::string> codes;
  codes.reserve(packed.size());
  for (const BitString& c : packed) codes.push_back(c.ToString());
  size_t a = 1;
  size_t b = 12345;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codes[a].compare(codes[b]));
    a = (a + 129) % codes.size();
    b = (b + 511) % codes.size();
  }
}
BENCHMARK(BM_NaiveByteStringCompare);

// --- (b) insertion micro-cost per encoding --------------------------------

void BM_InsertCdbs(benchmark::State& state) {
  const auto codes = EncodeRange(1 << 12);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(AssignMiddleBinaryString(codes[i], codes[i + 1]));
    i = (i + 1) % (codes.size() - 1);
  }
}
BENCHMARK(BM_InsertCdbs);

void BM_InsertQed(benchmark::State& state) {
  const auto codes = QedEncodeRange(1 << 12);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(QedInsertBetween(codes[i], codes[i + 1]));
    i = (i + 1) % (codes.size() - 1);
  }
}
BENCHMARK(BM_InsertQed);

void BM_InsertOrdPath(benchmark::State& state) {
  using cdbs::labeling::OrdPathInsertBetween;
  using cdbs::labeling::OrdPathSelf;
  std::vector<OrdPathSelf> selves;
  for (int i = 0; i < (1 << 12); ++i) selves.push_back({2 * i + 1});
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(OrdPathInsertBetween(selves[i], selves[i + 1]));
    i = (i + 1) % (selves.size() - 1);
  }
}
BENCHMARK(BM_InsertOrdPath);

// --- (c) label growth vs skew ---------------------------------------------

void PrintSkewGrowth() {
  cdbs::bench::Heading(
      "ablation (c): max CDBS code bits after 4096 insertions vs skew");
  std::printf("%-12s %12s %12s\n", "skew", "max bits", "avg bits");
  for (const double skew : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    cdbs::util::Random rng(8);
    std::vector<BitString> codes = EncodeRange(64);
    size_t fixed_pos = 32;
    for (int i = 0; i < 4096; ++i) {
      const size_t pos = rng.Bernoulli(skew)
                             ? fixed_pos
                             : static_cast<size_t>(
                                   rng.Uniform(codes.size() + 1));
      const BitString left = pos == 0 ? BitString() : codes[pos - 1];
      const BitString right =
          pos == codes.size() ? BitString() : codes[pos];
      codes.insert(codes.begin() + static_cast<ptrdiff_t>(pos),
                   AssignMiddleBinaryString(left, right));
      if (pos <= fixed_pos) ++fixed_pos;  // keep aiming at the same gap
    }
    size_t max_bits = 0;
    uint64_t total = 0;
    for (const BitString& c : codes) {
      max_bits = std::max(max_bits, c.size());
      total += c.size();
    }
    std::printf("%-12.2f %12zu %12.1f\n", skew, max_bits,
                static_cast<double>(total) / static_cast<double>(codes.size()));
  }
  std::printf(
      "(0%% skew stays ~log N; 100%% skew approaches one bit per insertion "
      "— the O(N) lower bound of Cohen et al. the paper cites)\n");
}

// --- (d) V vs F storage ----------------------------------------------------

void PrintVvsF() {
  cdbs::bench::Heading(
      "ablation (d): V (length fields) vs F (fixed slots) total bits");
  std::printf("%-12s %14s %14s %14s\n", "N", "V total", "F total",
              "V/F ratio");
  for (uint64_t n = 1 << 8; n <= (1 << 22); n <<= 2) {
    const uint64_t v_total =
        cdbs::core::VCodeTotalBitsExact(n) + n * VLengthFieldBits(n);
    const uint64_t f_total = n * static_cast<uint64_t>(FixedWidthForCount(n));
    std::printf("%-12llu %14llu %14llu %14.3f\n",
                static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(v_total),
                static_cast<unsigned long long>(f_total),
                static_cast<double>(v_total) / static_cast<double>(f_total));
  }
}

}  // namespace

// --- (a) packed vs naive storage -------------------------------------------

void PrintPackedStorage() {
  cdbs::bench::Heading(
      "ablation (a): bit-packed vs byte-per-bit code storage (2^14 codes)");
  const auto packed = EncodeRange(1 << 14);
  uint64_t packed_bytes = 0;
  uint64_t naive_bytes = 0;
  for (const BitString& c : packed) {
    packed_bytes += c.storage_bytes();
    naive_bytes += c.size();  // one byte per bit
  }
  std::printf(
      "packed: %llu bytes   byte-per-bit: %llu bytes   (%.1fx smaller; "
      "compare costs are benchmarked below)\n",
      static_cast<unsigned long long>(packed_bytes),
      static_cast<unsigned long long>(naive_bytes),
      static_cast<double>(naive_bytes) / static_cast<double>(packed_bytes));
}

// --- (e) navigational probing vs stack-based structural joins --------------

// Returns false when the two strategies disagree on any query.
bool PrintJoinAblation() {
  cdbs::bench::Heading(
      "ablation (e): navigational evaluator vs structural joins "
      "(V-CDBS labels)");
  const cdbs::xml::Document play = cdbs::xml::GeneratePlay(3, 40000);
  auto scheme = cdbs::labeling::SchemeByName("V-CDBS-Containment");
  const cdbs::query::LabeledDocument doc(play, *scheme);
  std::printf("%-24s %12s %12s %10s\n", "query", "navigate ms", "join ms",
              "matches");
  bool agree = true;
  for (const char* text :
       {"/play/act/scene", "//scene/speech", "//act//line",
        "/play/*//line"}) {
    auto query = cdbs::query::ParseQuery(text);
    if (!query.ok()) {
      std::fprintf(stderr, "FAIL: cannot parse %s\n", text);
      agree = false;
      continue;
    }
    cdbs::util::Stopwatch nav_timer;
    const auto nav = cdbs::query::EvaluateQuery(*query, doc);
    const double nav_ms = nav_timer.ElapsedMillis();
    cdbs::util::Stopwatch join_timer;
    const auto join = cdbs::query::EvaluateWithStructuralJoins(*query, doc);
    const double join_ms = join_timer.ElapsedMillis();
    std::printf("%-24s %12.2f %12.2f %10zu%s\n", text, nav_ms, join_ms,
                join.size(), join == nav ? "" : "  MISMATCH");
    agree = agree && join == nav;
  }
  return agree;
}

int main(int argc, char** argv) {
  {
    auto timer = cdbs::bench::Phase("packed_storage");
    PrintPackedStorage();
  }
  {
    auto timer = cdbs::bench::Phase("skew_growth");
    PrintSkewGrowth();
  }
  {
    auto timer = cdbs::bench::Phase("v_vs_f");
    PrintVvsF();
  }
  bool joins_agree;
  {
    auto timer = cdbs::bench::Phase("join_ablation");
    joins_agree = PrintJoinAblation();
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  cdbs::bench::DumpMetrics("ablation");
  if (!joins_agree) {
    std::fprintf(stderr,
                 "FAIL: navigation and structural joins disagree (MISMATCH "
                 "above)\n");
    return 1;
  }
  return 0;
}
