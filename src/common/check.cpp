#include "common/check.h"

#include <string_view>

namespace turret::detail {

namespace {

/// `file` from its last "src/" component on: __FILE__ carries the build's
/// absolute source path, and check errors flow into goldens, journals and
/// search results, which must not depend on where the repo is checked out.
std::string_view repo_relative(std::string_view file) {
  if (file.starts_with("src/")) return file;
  const std::size_t at = file.rfind("/src/");
  return at == std::string_view::npos ? file : file.substr(at + 1);
}

}  // namespace

void check_failed(const char* expr, const char* file, int line,
                  const std::string& msg) {
  std::string what = "TURRET_CHECK failed: ";
  what += expr;
  what += " at ";
  what += repo_relative(file);
  what += ":";
  what += std::to_string(line);
  if (!msg.empty()) {
    what += " — ";
    what += msg;
  }
  throw std::logic_error(what);
}

}  // namespace turret::detail
