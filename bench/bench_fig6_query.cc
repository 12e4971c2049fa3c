// E3 — Table 3 + Figure 6: queries Q1-Q6 over D5 scaled up 10 times.
//
// The corpus is the Shakespeare stand-in replicated CDBS_SCALE times
// (default 10, as in the paper). For every scheme we report, per query, the
// number of matches (Table 3's right column) and the response time
// (Figure 6). Expected shape: Prime slowest by a wide margin (big-integer
// modular arithmetic); Float-point slow among containment schemes; CDBS
// containment fastest; QED-Prefix faster than OrdPath1/OrdPath2.
//
// Each response time is the fastest of kRuns evaluations. The bench exits
// non-zero when V-CDBS or F-CDBS takes more than kCdbsBudget times
// V-Binary's time on Q5 or Q6 in the same run (the CDBS read-path guard;
// docs/ENCODING.md).

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "labeling/registry.h"
#include "query/evaluator.h"
#include "query/tag_index.h"
#include "query/xpath.h"
#include "util/stopwatch.h"
#include "xml/shakespeare.h"

namespace {

using cdbs::labeling::LabelingScheme;
using cdbs::query::LabeledDocument;
using cdbs::query::ParseQuery;
using cdbs::query::Query;
using cdbs::query::Table3Queries;
using cdbs::xml::Document;

// The schemes Figure 6 plots.
const char* kSchemes[] = {
    "Prime",
    "OrdPath1-Prefix",
    "OrdPath2-Prefix",
    "QED-Prefix",
    "Float-point-Containment",
    "V-Binary-Containment",
    "F-Binary-Containment",
    "V-CDBS-Containment",
    "F-CDBS-Containment",
    "QED-Containment",
};

constexpr int kRuns = 3;
constexpr double kCdbsBudget = 1.25;

}  // namespace

int main() {
  const uint64_t scale = cdbs::bench::EnvKnob("CDBS_SCALE", 10);
  cdbs::bench::Heading("Building the scaled D5 corpus");
  auto build_phase = cdbs::bench::Phase("build_corpus");
  const std::vector<Document> base = cdbs::xml::GenerateShakespeareDataset();
  const std::vector<Document> corpus =
      cdbs::xml::ScaleDataset(base, static_cast<size_t>(scale));
  build_phase.StopAndRecord();
  uint64_t total_nodes = 0;
  for (const Document& doc : corpus) total_nodes += doc.node_count();
  std::printf("%zu files, %llu elements (scale x%llu)\n", corpus.size(),
              static_cast<unsigned long long>(total_nodes),
              static_cast<unsigned long long>(scale));

  std::vector<Query> queries;
  for (const std::string& text : Table3Queries()) {
    auto parsed = ParseQuery(text);
    if (!parsed.ok()) {
      std::printf("query parse failure: %s\n",
                  parsed.status().ToString().c_str());
      return 1;
    }
    queries.push_back(std::move(parsed).value());
  }

  cdbs::bench::Heading(
      "Table 3 / Figure 6: matches and response time (ms) per query");
  std::printf("%-26s %10s", "scheme", "label(s)");
  for (size_t q = 0; q < queries.size(); ++q) {
    std::printf("     Q%zu(ms)", q + 1);
  }
  std::printf("\n");

  bool counts_printed = false;
  std::map<std::string, std::vector<double>> millis;  // per scheme, per query
  for (const char* scheme_name : kSchemes) {
    const std::unique_ptr<LabelingScheme> scheme =
        cdbs::labeling::SchemeByName(scheme_name);
    cdbs::util::Stopwatch label_timer;
    std::vector<std::unique_ptr<LabeledDocument>> labeled;
    labeled.reserve(corpus.size());
    {
      auto label_phase = cdbs::bench::Phase("label");
      for (const Document& doc : corpus) {
        labeled.push_back(std::make_unique<LabeledDocument>(doc, *scheme));
      }
    }
    const double label_seconds = label_timer.ElapsedSeconds();

    std::printf("%-26s %10.2f", scheme_name, label_seconds);
    std::fflush(stdout);
    std::vector<uint64_t> counts;
    for (const Query& query : queries) {
      double best_ms = 0;
      uint64_t matches = 0;
      for (int run = 0; run < kRuns; ++run) {
        auto query_phase = cdbs::bench::Phase("query");
        cdbs::util::Stopwatch timer;
        matches = 0;
        for (const auto& doc : labeled) {
          matches += EvaluateQuery(query, *doc).size();
        }
        const double ms = timer.ElapsedMillis();
        best_ms = run == 0 ? ms : std::min(best_ms, ms);
      }
      counts.push_back(matches);
      millis[scheme_name].push_back(best_ms);
      std::printf(" %10.1f", best_ms);
      std::fflush(stdout);
    }
    std::printf("\n");
    if (!counts_printed) {
      counts_printed = true;
      std::printf("%-26s %10s", "  matches (all schemes)", "");
      for (const uint64_t c : counts) {
        std::printf(" %10llu", static_cast<unsigned long long>(c));
      }
      std::printf("\n%-26s %10s %10s %10s %10s %10s %10s %10s\n",
                  "  paper Table 3 counts", "", "370", "2690", "4240",
                  "184060", "309330", "1078330");
    }
  }
  std::printf(
      "\nexpected shape (paper Fig. 6): Prime slowest by far; Float-point "
      "slower than the other containment schemes; CDBS-Containment the "
      "fastest; QED-Prefix beats OrdPath1/OrdPath2.\n");
  cdbs::bench::DumpMetrics("fig6_query");

  // The CDBS read-path guard: word codes compare like V-Binary's integers.
  bool over_budget = false;
  const std::vector<double>& binary = millis["V-Binary-Containment"];
  for (const char* cdbs : {"V-CDBS-Containment", "F-CDBS-Containment"}) {
    for (const size_t q : {4u, 5u}) {  // Q5, Q6
      const double ratio = millis[cdbs][q] / std::max(binary[q], 0.01);
      std::printf("%s Q%zu: %.2fx V-Binary\n", cdbs, q + 1, ratio);
      if (ratio > kCdbsBudget) {
        std::fprintf(stderr, "FAIL: %s Q%zu is %.2fx V-Binary (budget %.2fx)\n",
                     cdbs, q + 1, ratio, kCdbsBudget);
        over_budget = true;
      }
    }
  }
  return over_budget ? 1 : 0;
}
