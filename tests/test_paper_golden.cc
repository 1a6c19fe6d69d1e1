// Golden pins of the paper's results on the evaluation world the figure
// benches use (bench::BuildPaperWorld). The parity gates compare the
// serving path against the reference oracle, but both call the same
// classification and parsing code, so a change there moves them together.
// These two committed files pin the answers themselves:
//
//   golden/paper_stream.tsv   fig6's survey stream, every question asked
//                             through CqadsEngine::Ask: one line per
//                             question with the classified domain, exact
//                             count, SQL, interpretation and every answer
//                             (row, rank_sim to 9 significant digits,
//                             measure label)
//   golden/paper_figures.json the numbers of Figures 2, 4 and 5, §5.3 and
//                             Table 2, from the same eval::Run* calls and
//                             seeds as the benches, each to 4 decimals
//
// Rounding the doubles keeps last-bit libm differences between toolchains
// out of the check; ids, domains, labels and text compare exactly.
//
// Regenerate both files after an intended change with
//   CQADS_REGENERATE_GOLDEN=1 ./test_paper_golden
// and say in the change which lines moved and why.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.h"
#include "core/cqads_engine.h"
#include "eval/experiments.h"

namespace cqads {
namespace {

const std::string kGoldenDir = CQADS_GOLDEN_DIR;

std::string Format(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

/// rank_sim to 9 significant digits.
std::string Sig9(double v) { return Format("%.9g", v); }
/// A figure value to 4 decimals.
std::string Dec4(double v) { return Format("%.4f", v); }

/// Keeps one record per line: tabs, newlines and backslashes are escaped.
std::string Escape(std::string_view s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '\t':
        out += "\\t";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        out += c;
    }
  }
  return out;
}

/// One stream line, tab-separated:
///   index, generated domain, question, then either "error" and the status,
///   or the classified domain, exact count, contradiction flag, SQL,
///   interpretation, the partial answers' measure labels ('|'-joined), and
///   the answers: "row=rank_sim" for an exact answer, "row:rank_sim:label"
///   for a partial one, where label indexes the label list.
std::string StreamLine(std::size_t index, const std::string& domain,
                       const std::string& question,
                       const Result<core::AskResult>& asked) {
  std::string line = std::to_string(index) + "\t" + domain + "\t" +
                     Escape(question) + "\t";
  if (!asked.ok()) return line + "error\t" + Escape(asked.status().ToString());
  const core::AskResult& r = asked.value();
  std::vector<std::string> labels;
  std::string answers;
  for (const core::Answer& a : r.answers) {
    if (!answers.empty()) answers += ' ';
    answers += std::to_string(a.row);
    if (a.exact) {
      answers += "=" + Sig9(a.rank_sim);
      continue;
    }
    std::size_t label = 0;
    while (label < labels.size() && labels[label] != a.measure) ++label;
    if (label == labels.size()) labels.push_back(a.measure);
    answers += ":" + Sig9(a.rank_sim) + ":" + std::to_string(label);
  }
  std::string label_list;
  for (const std::string& l : labels) {
    if (!label_list.empty()) label_list += '|';
    label_list += l;
  }
  return line + r.domain + "\t" + std::to_string(r.exact_count) + "\t" +
         (r.contradiction ? "1" : "0") + "\t" + Escape(r.sql) + "\t" +
         Escape(r.interpretation) + "\t" + Escape(label_list) + "\t" +
         answers;
}

/// Minimal ordered JSON object writer: one "key": value per line, so a
/// diff names the figure and the number that moved.
class JsonLines {
 public:
  void Open(const std::string& key) {
    Key(key);
    out_ += "{\n";
    ++depth_;
    first_ = true;
  }
  void Close() {
    --depth_;
    out_ += "\n" + Indent() + "}";
    first_ = false;
  }
  void Number(const std::string& key, double v) {
    Key(key);
    out_ += Dec4(v);
  }
  void Count(const std::string& key, std::size_t v) {
    Key(key);
    out_ += std::to_string(v);
  }
  void Text(const std::string& key, const std::string& v) {
    Key(key);
    out_ += "\"" + v + "\"";
  }
  std::string Finish() const { return "{\n" + out_ + "\n}\n"; }

 private:
  std::string Indent() const { return std::string(2 * depth_, ' '); }
  void Key(const std::string& key) {
    if (!first_) out_ += ",\n";
    first_ = false;
    out_ += Indent() + "\"" + key + "\": ";
  }

  std::string out_;
  int depth_ = 1;
  bool first_ = true;
};

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

bool Regenerating() {
  const char* v = std::getenv("CQADS_REGENERATE_GOLDEN");
  return v != nullptr && std::string(v) == "1";
}

/// Compares `actual` with the committed golden file line by line (or
/// rewrites the file when regenerating). Reports the first few lines that
/// moved, each with its line number.
void CheckGolden(const std::string& name, const std::string& actual) {
  const std::string path = kGoldenDir + "/" + name;
  if (Regenerating()) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    std::printf("rewrote %s (%zu bytes)\n", path.c_str(), actual.size());
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (CQADS_REGENERATE_GOLDEN=1 writes it)";
  std::stringstream buf;
  buf << in.rdbuf();
  if (buf.str() == actual) return;
  const std::vector<std::string> want = Lines(buf.str());
  const std::vector<std::string> got = Lines(actual);
  std::size_t moved = 0;
  for (std::size_t i = 0; i < std::max(want.size(), got.size()); ++i) {
    const std::string w = i < want.size() ? want[i] : "<missing>";
    const std::string g = i < got.size() ? got[i] : "<missing>";
    if (w == g) continue;
    if (++moved <= 8) {
      ADD_FAILURE() << name << " line " << (i + 1) << " moved\n  golden: " << w
                    << "\n  actual: " << g;
    }
  }
  ADD_FAILURE() << name << ": " << moved << " line(s) moved (golden "
                << want.size() << " lines, actual " << got.size() << ")";
}

class PaperGoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { world_ = bench::BuildPaperWorld().release(); }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }
  static datagen::World* world_;
};

datagen::World* PaperGoldenTest::world_ = nullptr;

TEST_F(PaperGoldenTest, SurveyStreamAnswers) {
  // fig6_efficiency's full stream (seed 660, 80 car + 82 per other domain).
  const auto questions = eval::GenerateSurveyQuestions(*world_, 80, 82, 660);
  std::string text;
  std::size_t index = 0;
  for (const auto& [domain, qs] : questions) {
    for (const auto& q : qs) {
      text += StreamLine(index++, domain, q.text, world_->engine().Ask(q.text));
      text += '\n';
    }
  }
  EXPECT_EQ(index, 654u);
  CheckGolden("paper_stream.tsv", text);
}

TEST_F(PaperGoldenTest, FigureNumbers) {
  JsonLines json;

  // Figure 2 (fig2_classification).
  {
    const auto questions = eval::GenerateSurveyQuestions(*world_, 80, 82, 650);
    const auto r = eval::RunClassification(*world_, questions);
    json.Open("fig2_classification");
    json.Count("questions", r.total_questions);
    json.Open("accuracy");
    for (const auto& [domain, acc] : r.per_domain_accuracy) {
      json.Number(domain, acc);
    }
    json.Close();
    json.Number("average_accuracy", r.average_accuracy);
    json.Close();
  }

  // Figure 4 (fig4_boolean).
  {
    const auto r =
        eval::RunBooleanInterpretation(*world_, "cars", 182, 10, 90, 412);
    json.Open("fig4_boolean");
    json.Count("implicit_count", r.implicit_count);
    json.Count("explicit_count", r.explicit_count);
    json.Number("implicit_accuracy", r.implicit_accuracy);
    json.Number("explicit_accuracy", r.explicit_accuracy);
    json.Number("overall_accuracy", r.overall_accuracy);
    double mean = 0.0;
    for (const auto& s : r.sampled) mean += s.appraiser_agreement;
    if (!r.sampled.empty()) mean /= r.sampled.size();
    json.Number("mean_sampled_agreement", mean);
    json.Close();
  }

  // Figure 5 (fig5_ranking): all five approaches, and CQAds per domain.
  {
    const auto r = eval::RunRanking(*world_, 5, 22, 886);
    json.Open("fig5_ranking");
    json.Count("questions_used", r.questions_used);
    json.Count("appraiser_responses", r.appraiser_responses);
    auto scores = [&](const std::string& key, const eval::RankingScores& s) {
      json.Open(key);
      json.Number("p_at_1", s.p_at_1);
      json.Number("p_at_5", s.p_at_5);
      json.Number("mrr", s.mrr);
      json.Close();
    };
    for (const char* name :
         {"CQAds", "AIMQ", "Cosine", "FAQFinder", "Random"}) {
      auto it = r.scores.find(name);
      ASSERT_NE(it, r.scores.end()) << name;
      scores(name, it->second);
    }
    json.Open("cqads_per_domain");
    for (const auto& [domain, s] : r.cqads_per_domain) scores(domain, s);
    json.Close();
    json.Close();
  }

  // §5.3 (sec53_exact_match).
  {
    const auto questions = eval::GenerateSurveyQuestions(*world_, 80, 82, 653);
    const auto r = eval::RunExactMatch(*world_, questions);
    json.Open("sec53_exact_match");
    json.Count("questions_evaluated", r.questions_evaluated);
    json.Number("precision", r.precision);
    json.Number("recall", r.recall);
    json.Number("f_measure", r.f_measure);
    json.Count("all_or_nothing", r.all_or_nothing);
    json.Close();
  }

  // Table 2 (table2_partial): the top-5 partial answers of the running
  // example.
  {
    const std::string question =
        "Find Honda Accord blue less than 15,000 dollars";
    auto asked = world_->engine().AskInDomain("cars", question);
    ASSERT_TRUE(asked.ok()) << asked.status();
    const db::Table* table = world_->table("cars");
    json.Open("table2_partial");
    json.Count("exact_count", asked.value().exact_count);
    std::size_t rank = 0;
    for (const core::Answer& a : asked.value().answers) {
      if (a.exact) continue;
      if (++rank > 5) break;
      json.Open("rank" + std::to_string(rank));
      json.Count("row", a.row);
      json.Text("make", table->cell(a.row, 0).AsText());
      json.Text("model", table->cell(a.row, 1).AsText());
      json.Text("price", table->cell(a.row, 3).AsText());
      json.Text("color", table->cell(a.row, 5).AsText());
      json.Number("rank_sim", a.rank_sim);
      json.Text("measure", a.measure);
      json.Close();
    }
    json.Close();
  }

  CheckGolden("paper_figures.json", json.Finish());
}

}  // namespace
}  // namespace cqads
