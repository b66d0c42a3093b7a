// The benchmark's result line: named metrics with units, plus the
// correctness verdict, as one JSON object.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// [A-Za-z0-9][A-Za-z0-9_.-]*, at most 64 characters.
bool valid_metric_name(std::string_view name);
/// [A-Za-z0-9_/%.-]+, at most 16 characters.
bool valid_unit(std::string_view unit);

/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}
/// Throws std::invalid_argument on an invalid or repeated name or unit, or a
/// non-finite value.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const std::vector<Metric>& metrics);

}  // namespace perfbench
