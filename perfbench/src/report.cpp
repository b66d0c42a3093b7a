#include "report.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>

namespace perfbench {

namespace {

bool alnum(char c) { return std::isalnum(static_cast<unsigned char>(c)) != 0; }

}  // namespace

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64 || !alnum(name[0])) return false;
  for (char c : name)
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  return true;
}

bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  for (char c : unit)
    if (!alnum(c) && c != '_' && c != '/' && c != '%' && c != '.' && c != '-')
      return false;
  return true;
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  std::set<std::string> seen;
  for (const Metric& m : metrics) {
    if (!valid_metric_name(m.name) || !seen.insert(m.name).second)
      throw std::invalid_argument("bad or repeated metric name: " + m.name);
    if (!valid_unit(m.unit))
      throw std::invalid_argument("bad unit for " + m.name + ": " + m.unit);
    if (!std::isfinite(m.value))
      throw std::invalid_argument("non-finite value for " + m.name);
    char value[32];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    if (seen.size() > 1) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
