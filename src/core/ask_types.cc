#include "core/ask_types.h"

#include <charconv>
#include <cstdint>

namespace cqads::core {
namespace {

void AppendDecimal(std::uint64_t n, std::string* out) {
  char buf[20];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), n).ptr);
}

/// chars_format::general at precision 17 writes the bytes of printf's
/// "%.17g", which is what std::ostream writes at precision(17) — the form
/// canonical strings have always carried, down to "inf", "-nan" and the
/// exponent of a denormal.
void AppendDouble(double d, std::string* out) {
  char buf[32];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), d,
                                 std::chars_format::general, 17)
                       .ptr);
}

}  // namespace

std::string CanonicalAskResultString(const AskResult& result) {
  // An upper bound on the rendered size, so the string is allocated once:
  // 78 bytes of header text and digits, and at most 66 per answer line
  // besides its measure (a 10-digit row, a 24-character double).
  std::size_t bound = 78 + result.domain.size() + result.sql.size() +
                      result.interpretation.size();
  for (const Answer& a : result.answers) bound += 66 + a.measure.size();
  std::string out;
  out.reserve(bound);
  out.append("domain=").append(result.domain);
  out.append("\nsql=").append(result.sql);
  out.append("\ninterpretation=").append(result.interpretation);
  out.append(result.contradiction ? "\ncontradiction=1\nexact_count="
                                  : "\ncontradiction=0\nexact_count=");
  AppendDecimal(result.exact_count, &out);
  out.push_back('\n');
  for (const Answer& a : result.answers) {
    out.append("row=");
    AppendDecimal(a.row, &out);
    out.append(a.exact ? " exact=1 rank_sim=" : " exact=0 rank_sim=");
    AppendDouble(a.rank_sim, &out);
    out.append(" measure=").append(a.measure);
    out.push_back('\n');
  }
  return out;
}

}  // namespace cqads::core
