// Write-ahead search journal (crash/kill recovery for long searches).
//
// A search over thousands of branches should survive the controller being
// killed: every completed branch outcome is appended to an on-disk journal
// keyed by (injection point, action, windows), and a restarted search opened
// with resume=true replays recorded outcomes instead of re-executing their
// branches. Because the platform is deterministic and cost accounting is a
// pure function of (attempts, windows), a resumed search produces a
// SearchResult identical to the uninterrupted run.
//
// Record framing: 8-byte magic, then repeated
//   [u32 key length][key bytes][u32 payload length][payload bytes].
// Appends are flushed per record; a kill mid-append leaves at most one
// truncated record at the tail, which open() detects and ignores.
//
// Keys may legitimately repeat (greedy re-evaluates surviving actions at the
// same injection point across repetitions), so replay is per-key FIFO: each
// lookup consumes the oldest unconsumed record for that key. Search merge
// order is deterministic, so a resumed run consumes records in exactly the
// order the interrupted run appended them.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"

namespace turret::search {

class Journal {
 public:
  /// Open `path` for journaling. resume=false truncates (fresh journal);
  /// resume=true loads existing records for replay, then appends new ones.
  /// Throws std::runtime_error if the file cannot be opened or (resume) has a
  /// corrupt header. A truncated tail record is tolerated and dropped.
  static std::unique_ptr<Journal> open(const std::string& path, bool resume);

  ~Journal();
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Consume and return the oldest unconsumed payload recorded for `key`,
  /// or nullopt if none remain (the branch must then execute live).
  std::optional<Bytes> replay(const std::string& key);

  /// Would replay(key) return a record right now? Consumes nothing.
  bool holds(const std::string& key) const;

  /// Append one record and flush it to disk.
  void append(const std::string& key, BytesView payload);

  std::size_t recorded() const;  ///< records loaded at open (resume only)
  std::size_t replayed() const;  ///< records consumed by replay() so far
  std::size_t appended() const;  ///< records appended this session

  /// All records of `path` in file order (debugging/tooling; tests use it to
  /// simulate a mid-run kill by re-writing a prefix of a finished journal).
  struct RawEntry {
    std::string key;
    Bytes payload;
  };
  static std::vector<RawEntry> read_all(const std::string& path);

 private:
  Journal() = default;

  mutable std::mutex mu_;
  std::FILE* file_ = nullptr;
  /// Per-key FIFO of payloads loaded at open; replay() consumes in order.
  struct PendingKey {
    std::vector<Bytes> payloads;
    std::size_t next = 0;
  };
  std::map<std::string, PendingKey> pending_;
  std::size_t recorded_ = 0;
  std::size_t replayed_ = 0;
  std::size_t appended_ = 0;
};

}  // namespace turret::search
