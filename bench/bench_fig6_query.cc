// E3 — Table 3 + Figure 6: queries Q1-Q6 over D5 scaled up 10 times.
//
// The corpus is the Shakespeare stand-in replicated CDBS_SCALE times
// (default 10, as in the paper). For every scheme we report, per query, the
// number of matches (Table 3's right column) and the response time
// (Figure 6). Expected shape: Prime slowest by a wide margin (big-integer
// modular arithmetic); Float-point slow among containment schemes; CDBS
// containment fastest; QED-Prefix faster than OrdPath1/OrdPath2.
//
// Each response time is the fastest of kRuns timings, and each timing
// repeats the query over the corpus until at least kMinTimedMs of work has
// run, so fast queries are not measured at timer resolution. The bench exits
// non-zero when any scheme's match counts differ from the first scheme's,
// when a scheme's count entry (CountMatches, which never builds the match
// list where it can avoid it) disagrees with the collected list's size,
// or when V-CDBS or F-CDBS takes more than kCdbsBudget times V-Binary's
// time on Q5 or Q6 (the CDBS read-path guard) or to label the corpus (the
// labeling guard: Algorithm 2 writes word codes directly; docs/ENCODING.md).
// The guards re-time those three schemes round-robin, kGuardRounds rounds,
// so that a host slowing down for a few seconds hits all of them alike
// instead of whichever scheme the table happened to be timing.

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
using Labeled = std::vector<std::unique_ptr<LabeledDocument>>;

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
constexpr int kGuardRounds = 5;
constexpr double kMinTimedMs = 50;
constexpr double kCdbsBudget = 1.25;
const char* const kGuardBase = "V-Binary-Containment";
const char* const kGuarded[] = {"V-CDBS-Containment", "F-CDBS-Containment"};
constexpr size_t kGuardedQueries[] = {4, 5};  // Q5, Q6

// Milliseconds per evaluation of `query` over the whole corpus, from as
// many back-to-back evaluations as fill kMinTimedMs. Sets `*matches`.
double TimeQueryMs(const Query& query, const Labeled& labeled,
                   uint64_t* matches) {
  auto query_phase = cdbs::bench::Phase("query");
  cdbs::util::Stopwatch timer;
  int reps = 0;
  do {
    *matches = 0;
    for (const auto& doc : labeled) {
      *matches += EvaluateQuery(query, *doc).size();
    }
    ++reps;
  } while (timer.ElapsedMillis() < kMinTimedMs);
  return timer.ElapsedMillis() / reps;
}

// Labels every document of `corpus` with `scheme`; sets `*seconds` to the
// time it took.
Labeled LabelCorpus(const std::vector<Document>& corpus,
                    const LabelingScheme& scheme, double* seconds) {
  auto label_phase = cdbs::bench::Phase("label");
  cdbs::util::Stopwatch timer;
  Labeled labeled;
  labeled.reserve(corpus.size());
  for (const Document& doc : corpus) {
    labeled.push_back(std::make_unique<LabeledDocument>(doc, scheme));
  }
  *seconds = timer.ElapsedSeconds();
  return labeled;
}

// True when a guarded scheme's best time is over kCdbsBudget times
// V-Binary's, which counts as at least `floor`; prints every ratio.
bool OverBudget(const std::map<std::string, double>& best, const char* what,
                double floor) {
  bool over = false;
  for (const char* cdbs : kGuarded) {
    const double ratio = best.at(cdbs) / std::max(best.at(kGuardBase), floor);
    std::printf("%s %s: %.2fx V-Binary\n", cdbs, what, ratio);
    if (ratio > kCdbsBudget) {
      std::fprintf(stderr, "FAIL: %s %s is %.2fx V-Binary (budget %.2fx)\n",
                   cdbs, what, ratio, kCdbsBudget);
      over = true;
    }
  }
  return over;
}

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

  std::vector<uint64_t> first_counts;  // every scheme must match these
  bool counts_differ = false;
  std::map<std::string, Labeled> guard_corpora;  // kept for the guard
  for (const char* scheme_name : kSchemes) {
    const std::unique_ptr<LabelingScheme> scheme =
        cdbs::labeling::SchemeByName(scheme_name);
    double label_seconds = 0;
    Labeled labeled = LabelCorpus(corpus, *scheme, &label_seconds);

    std::printf("%-26s %10.2f", scheme_name, label_seconds);
    std::fflush(stdout);
    std::vector<uint64_t> counts;
    for (const Query& query : queries) {
      double best_ms = 0;
      uint64_t matches = 0;
      for (int run = 0; run < kRuns; ++run) {
        const double ms = TimeQueryMs(query, labeled, &matches);
        best_ms = run == 0 ? ms : std::min(best_ms, ms);
      }
      counts.push_back(matches);
      std::printf(" %10.1f", best_ms);
      std::fflush(stdout);
    }
    std::printf("\n");
    std::vector<const LabeledDocument*> docs;
    for (const auto& doc : labeled) docs.push_back(doc.get());
    for (size_t q = 0; q < queries.size(); ++q) {
      const uint64_t counted = cdbs::query::CountMatches(queries[q], docs);
      if (counted != counts[q]) {
        std::fprintf(stderr, "FAIL: %s Q%zu counts %llu but collects %llu\n",
                     scheme_name, q + 1,
                     static_cast<unsigned long long>(counted),
                     static_cast<unsigned long long>(counts[q]));
        counts_differ = true;
      }
    }
    if (first_counts.empty()) {
      first_counts = counts;
      std::printf("%-26s %10s", "  matches (all schemes)", "");
      for (const uint64_t c : counts) {
        std::printf(" %10llu", static_cast<unsigned long long>(c));
      }
      std::printf("\n%-26s %10s %10s %10s %10s %10s %10s %10s\n",
                  "  paper Table 3 counts", "", "370", "2690", "4240",
                  "184060", "309330", "1078330");
    } else if (counts != first_counts) {
      std::fprintf(stderr, "FAIL: %s match counts differ from %s's\n",
                   scheme_name, kSchemes[0]);
      counts_differ = true;
    }
    const std::string name = scheme_name;
    if (name == kGuardBase || name == kGuarded[0] || name == kGuarded[1]) {
      guard_corpora[name] = std::move(labeled);
    }
  }
  std::printf(
      "\nexpected shape (paper Fig. 6): Prime slowest by far; Float-point "
      "slower than the other containment schemes; CDBS-Containment the "
      "fastest; QED-Prefix beats OrdPath1/OrdPath2.\n");
  cdbs::bench::DumpMetrics("fig6_query");

  // The CDBS read-path guard: word codes compare like V-Binary's integers.
  bool over_budget = false;
  for (const size_t q : kGuardedQueries) {
    std::map<std::string, double> best_ms;
    for (int round = 0; round < kGuardRounds; ++round) {
      for (const auto& [name, labeled] : guard_corpora) {
        uint64_t matches = 0;
        const double ms = TimeQueryMs(queries[q], labeled, &matches);
        best_ms[name] = round == 0 ? ms : std::min(best_ms[name], ms);
      }
    }
    const std::string what = "Q" + std::to_string(q + 1);
    over_budget |= OverBudget(best_ms, what.c_str(), /*floor=*/0.01);
  }

  // The CDBS labeling guard: Algorithm 2 fills the words V-CDBS and F-CDBS
  // store, so labeling costs what V-Binary's integers cost. The kept
  // corpora go first, so only one re-labeled corpus is alive at a time.
  guard_corpora.clear();
  std::map<std::string, double> best_label_s;
  for (int round = 0; round < kGuardRounds; ++round) {
    for (const char* name : {kGuardBase, kGuarded[0], kGuarded[1]}) {
      double seconds = 0;
      LabelCorpus(corpus, *cdbs::labeling::SchemeByName(name), &seconds);
      best_label_s[name] =
          round == 0 ? seconds : std::min(best_label_s[name], seconds);
    }
  }
  over_budget |= OverBudget(best_label_s, "labeling", /*floor=*/1e-3);
  return over_budget || counts_differ ? 1 : 0;
}
