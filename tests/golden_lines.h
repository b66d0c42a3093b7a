// Line-keyed golden files shared by parameterized tests.
//
// The file is a JSON array with one entry per line. Each entry carries its
// owner's key (e.g. `"system":"pbft"`), so every test instance checks only
// its own lines, and a run under TURRET_UPDATE_GOLDEN=1 rewrites the whole
// file from the entries of every instance.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

namespace turret::golden {

inline std::string path_of(const std::string& file) {
  return std::string(TURRET_GOLDEN_DIR) + "/" + file;
}

inline bool updating() {
  return std::getenv("TURRET_UPDATE_GOLDEN") != nullptr;
}

/// Lines joined with '\n', so a mismatch prints as a line diff.
inline std::string joined(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) out += l + "\n";
  return out;
}

/// The entries of golden `file` that contain `key`, trailing commas dropped.
inline std::vector<std::string> lines_with(const std::string& file,
                                           const std::string& key) {
  std::ifstream in(path_of(file), std::ios::binary);
  EXPECT_TRUE(in) << "missing golden file " << path_of(file)
                  << "; run with TURRET_UPDATE_GOLDEN=1 to create it";
  std::vector<std::string> out;
  for (std::string line; std::getline(in, line);) {
    if (line.find(key) == std::string::npos) continue;
    if (!line.empty() && line.back() == ',') line.pop_back();
    out.push_back(line);
  }
  return out;
}

/// Rewrite golden `file` as a JSON array of `entries`, one per line.
inline void write_lines(const std::string& file,
                        const std::vector<std::string>& entries) {
  std::ofstream out(path_of(file), std::ios::binary);
  ASSERT_TRUE(out) << "cannot write " << path_of(file);
  out << "[\n";
  for (std::size_t i = 0; i < entries.size(); ++i)
    out << entries[i] << (i + 1 < entries.size() ? ",\n" : "\n");
  out << "]\n";
}

}  // namespace turret::golden
