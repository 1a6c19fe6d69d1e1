// Shared test fixtures: a small deterministic car-ads table mirroring the
// paper's running example, plus helpers to build lexicons and engines on it.
#ifndef CQADS_TESTS_TEST_FIXTURES_H_
#define CQADS_TESTS_TEST_FIXTURES_H_

#include <memory>
#include <string>
#include <vector>

#include "db/schema.h"
#include "db/table.h"

namespace cqads::testing {

/// Car schema matching the paper's examples: make/model Type I, year/price/
/// mileage Type III, color/transmission/doors/drivetrain Type II, plus a
/// feature list.
inline db::Schema MiniCarSchema() {
  using db::AttrType;
  using db::Attribute;
  using db::DataKind;
  auto cat = [](std::string name, AttrType t,
                std::vector<std::string> aliases =
                    std::vector<std::string>{}) {
    Attribute a;
    a.name = std::move(name);
    a.attr_type = t;
    a.data_kind = DataKind::kCategorical;
    a.aliases = std::move(aliases);
    return a;
  };
  db::Attribute year;
  year.name = "year";
  year.attr_type = AttrType::kTypeIII;
  year.data_kind = DataKind::kNumeric;
  year.aliases = {"year"};
  db::Attribute price;
  price.name = "price";
  price.attr_type = AttrType::kTypeIII;
  price.data_kind = DataKind::kNumeric;
  price.unit_keywords = {"dollars", "dollar", "usd"};
  price.aliases = {"price", "cost"};
  db::Attribute mileage;
  mileage.name = "mileage";
  mileage.attr_type = AttrType::kTypeIII;
  mileage.data_kind = DataKind::kNumeric;
  mileage.unit_keywords = {"miles", "mi"};
  mileage.aliases = {"mileage"};
  db::Attribute features;
  features.name = "features";
  features.attr_type = AttrType::kTypeII;
  features.data_kind = DataKind::kTextList;

  return db::Schema("cars",
                    {cat("make", AttrType::kTypeI, {"maker"}),
                     cat("model", AttrType::kTypeI), year, price, mileage,
                     cat("color", AttrType::kTypeII, {"color"}),
                     cat("transmission", AttrType::kTypeII),
                     cat("doors", AttrType::kTypeII),
                     cat("drivetrain", AttrType::kTypeII), features});
}

struct MiniCar {
  const char* make;
  const char* model;
  double year;
  double price;
  double mileage;
  const char* color;
  const char* transmission;
  const char* doors;
  const char* drivetrain;
  const char* features;
};

/// Fixed fleet including Table 2's cast (Honda Accord, Chevy Malibu, Toyota
/// Camry, Ford Focus) with controlled attribute values.
inline const std::vector<MiniCar>& MiniCarRows() {
  static const std::vector<MiniCar>* kRows = new std::vector<MiniCar>{
      {"honda", "accord", 2007, 8900, 131000, "blue", "automatic", "4 door",
       "2 wheel drive", "cd player;power steering"},
      {"honda", "accord", 2004, 16536, 80000, "blue", "automatic", "4 door",
       "2 wheel drive", "cd player;cassette player"},
      {"honda", "accord", 2002, 6600, 150000, "gold", "automatic", "4 door",
       "2 wheel drive", "gps;auto off headlights"},
      {"honda", "civic", 2005, 5500, 90000, "red", "manual", "2 door",
       "2 wheel drive", "cd player"},
      {"chevy", "malibu", 2003, 5899, 120000, "blue", "automatic", "4 door",
       "2 wheel drive", "anti lock brakes;power steering"},
      {"toyota", "camry", 2006, 8561, 95000, "blue", "automatic", "4 door",
       "2 wheel drive", "cd player;power steering"},
      {"toyota", "corolla", 2008, 7200, 60000, "white", "automatic",
       "4 door", "2 wheel drive", "cd player"},
      {"ford", "focus", 2005, 6795, 88000, "blue", "manual", "2 door",
       "2 wheel drive", "cd player;radio;power door locks"},
      {"ford", "mustang", 2009, 18500, 30000, "red", "manual", "2 door",
       "2 wheel drive", "gps;leather seats"},
      {"bmw", "m3", 2010, 42000, 15000, "black", "manual", "2 door",
       "2 wheel drive", "gps;leather seats;sunroof"},
      {"toyota", "highlander", 2007, 15500, 70000, "silver", "automatic",
       "4 door", "4 wheel drive", "gps;backup camera"},
      {"jeep", "cherokee", 2004, 9800, 110000, "green", "automatic",
       "4 door", "4 wheel drive", "cruise control"},
      {"mazda", "mazda3", 2006, 7800, 72000, "silver", "automatic", "4 door",
       "2 wheel drive", "cd player;bluetooth"},
  };
  return *kRows;
}

/// One MiniCarSchema record.
inline db::Record MiniCarRecord(const MiniCar& c) {
  db::Record r;
  r.push_back(db::Value::Text(c.make));
  r.push_back(db::Value::Text(c.model));
  r.push_back(db::Value::Real(c.year));
  r.push_back(db::Value::Real(c.price));
  r.push_back(db::Value::Real(c.mileage));
  r.push_back(db::Value::Text(c.color));
  r.push_back(db::Value::Text(c.transmission));
  r.push_back(db::Value::Text(c.doors));
  r.push_back(db::Value::Text(c.drivetrain));
  r.push_back(db::Value::Text(c.features));
  return r;
}

inline db::Table MiniCarTable() {
  db::Table table(MiniCarSchema());
  for (const MiniCar& c : MiniCarRows()) {
    auto id = table.Insert(MiniCarRecord(c));
    if (!id.ok()) throw std::runtime_error(id.status().ToString());
  }
  table.BuildIndexes();
  return table;
}

}  // namespace cqads::testing

#endif  // CQADS_TESTS_TEST_FIXTURES_H_
