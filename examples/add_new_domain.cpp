// Adding a new ads domain (§4.6): the paper claims a new domain needs only
// a relational schema and attribute-value pools — the identifiers table,
// tagging, Boolean rules, SQL generation, and ranking come for free. This
// example builds a ninth domain (boat ads) from scratch, wires it into an
// engine alongside the built-in domains, and asks questions against it.
#include <cstdio>

#include "common/rng.h"
#include "core/cqads_engine.h"
#include "datagen/ads_generator.h"
#include "datagen/question_gen.h"
#include "qlog/log_generator.h"
#include "qlog/ti_matrix.h"

using namespace cqads;

namespace {

// 1. The schema: Type I identity, Type II descriptions, Type III quantities.
datagen::DomainSpec MakeBoatSpec() {
  db::Attribute type;
  type.name = "type";
  type.attr_type = db::AttrType::kTypeI;
  db::Attribute brand;
  brand.name = "brand";
  brand.attr_type = db::AttrType::kTypeII;
  brand.aliases = {"brand", "maker"};
  db::Attribute hull;
  hull.name = "hull";
  hull.attr_type = db::AttrType::kTypeII;
  hull.aliases = {"hull"};
  db::Attribute length;
  length.name = "length";
  length.attr_type = db::AttrType::kTypeIII;
  length.data_kind = db::DataKind::kNumeric;
  length.unit_keywords = {"feet", "ft"};
  length.aliases = {"length"};
  db::Attribute price;
  price.name = "price";
  price.attr_type = db::AttrType::kTypeIII;
  price.data_kind = db::DataKind::kNumeric;
  price.unit_keywords = {"dollars", "usd"};
  price.aliases = {"price", "cost"};

  datagen::DomainSpec spec;
  spec.schema = db::Schema("boats", {type, brand, hull, length, price});
  spec.type_i_attrs = {0};
  // Latent segments: 0 sail, 1 motor, 2 paddle.
  spec.identities = {
      {{"sailboat"}, 0, 1.0}, {{"catamaran"}, 0, 0.6}, {{"sloop"}, 0, 0.4},
      {{"speedboat"}, 1, 1.0}, {{"pontoon"}, 1, 0.8},  {{"yacht"}, 1, 0.4},
      {{"canoe"}, 2, 0.7},     {{"kayak"}, 2, 0.9},
  };
  spec.pool_groups[1] = {{"bayliner", "sea ray"},
                         {"catalina", "beneteau"},
                         {"old town", "hobie"}};
  spec.pool_groups[2] = {{"fiberglass"}, {"aluminum"}, {"wood"}};
  spec.numerics[3] = {8, 60, true, 24, 10, true};
  spec.numerics[4] = {300, 250000, true, 18000, 9000, true};
  spec.cluster_value_mult = {{0, 1.6}, {1, 1.2}, {2, 0.05}};
  spec.domain_keywords = {"boat", "boats", "watercraft", "marine"};
  return spec;
}

}  // namespace

int main() {
  Rng rng(7);
  datagen::DomainSpec boats = MakeBoatSpec();

  // 2. Ads (the paper crawls ~500 per domain; we generate them).
  auto table_result = datagen::GenerateAds(boats, 500, &rng);
  if (!table_result.ok()) {
    std::printf("ads generation failed: %s\n",
                table_result.status().ToString().c_str());
    return 1;
  }
  db::Table table = std::move(table_result).value();

  // 3. Query log -> TI-matrix (identity relatedness for partial matching).
  qlog::LogGenSpec log_spec;
  for (const auto& id : boats.identities) {
    log_spec.values.push_back(id.values[0]);
    log_spec.cluster_of.push_back(id.cluster);
  }
  log_spec.num_sessions = 1000;
  qlog::TiMatrix ti =
      qlog::TiMatrix::Build(qlog::GenerateQueryLog(log_spec, &rng));

  // 4. Register the domain: the trie lexicon, tagger, executor, and Eq. 4
  //    ranges are derived automatically from the schema and the ads.
  core::CqadsEngine engine;
  if (auto st = engine.AddDomain(&table, std::move(ti)); !st.ok()) {
    std::printf("AddDomain failed: %s\n", st.ToString().c_str());
    return 1;
  }
  if (auto st = engine.TrainClassifier(); !st.ok()) {
    std::printf("TrainClassifier failed: %s\n", st.ToString().c_str());
    return 1;
  }

  std::printf("=== CQAds with a brand-new domain: boat ads ===\n");
  std::printf("lexicon keywords: %zu trie nodes over %zu entries\n",
              engine.runtime("boats")->lexicon->flat_trie().node_count(),
              engine.runtime("boats")->lexicon->flat_trie().size());

  const char* questions[] = {
      "fiberglass speedboat under $25,000",
      "cheapest catalina sailboat",
      "kayak or canoe less than 800 dollars",
      "aluminum boat between 16 and 24 feet",
      "sailbot under 30000",  // misspelling: corrected by the trie
  };
  for (const char* q : questions) {
    std::printf("\nQ: %s\n", q);
    auto result = engine.AskInDomain("boats", q);
    if (!result.ok()) {
      std::printf("   error: %s\n", result.status().ToString().c_str());
      continue;
    }
    const auto& r = result.value();
    std::printf("   interpretation: %s\n", r.interpretation.c_str());
    std::printf("   answers: %zu exact, %zu partial\n", r.exact_count,
                r.answers.size() - r.exact_count);
    std::size_t shown = 0;
    for (const auto& a : r.answers) {
      if (shown++ >= 3) break;
      std::printf("     %s %s | %s | %s ft | $%s\n",
                  a.exact ? "[exact]  " : "[partial]",
                  table.cell(a.row, 0).AsText().c_str(),
                  table.cell(a.row, 2).AsText().c_str(),
                  table.cell(a.row, 3).AsText().c_str(),
                  table.cell(a.row, 4).AsText().c_str());
    }
  }
  return 0;
}
