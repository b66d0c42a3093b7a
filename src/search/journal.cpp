#include "search/journal.h"

#include <cstring>
#include <filesystem>
#include <stdexcept>

namespace turret::search {
namespace {

constexpr char kMagic[8] = {'T', 'U', 'R', 'R', 'E', 'T', 'J', '1'};

/// Read one length-prefixed field; false on EOF or a truncated tail.
bool read_field(std::FILE* f, Bytes* out) {
  std::uint32_t n = 0;
  if (std::fread(&n, sizeof n, 1, f) != 1) return false;
  out->resize(n);
  return n == 0 || std::fread(out->data(), 1, n, f) == n;
}

void write_field(std::FILE* f, const void* data, std::uint32_t n) {
  if (std::fwrite(&n, sizeof n, 1, f) != 1 ||
      (n != 0 && std::fwrite(data, 1, n, f) != n)) {
    throw std::runtime_error("journal: short write");
  }
}

}  // namespace

std::unique_ptr<Journal> Journal::open(const std::string& path, bool resume) {
  std::unique_ptr<Journal> j(new Journal);

  if (resume) {
    // Load phase: everything readable before the first truncated record.
    std::FILE* in = std::fopen(path.c_str(), "rb");
    if (in == nullptr)
      throw std::runtime_error("journal: cannot open '" + path +
                               "' for resume");
    char magic[sizeof kMagic];
    if (std::fread(magic, 1, sizeof magic, in) != sizeof magic ||
        std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
      std::fclose(in);
      throw std::runtime_error("journal: '" + path +
                               "' is not a turret journal");
    }
    Bytes key, payload;
    long good = static_cast<long>(sizeof kMagic);
    while (read_field(in, &key) && read_field(in, &payload)) {
      j->pending_[std::string(key.begin(), key.end())].payloads.push_back(
          payload);
      ++j->recorded_;
      good = std::ftell(in);
    }
    std::fclose(in);
    // Drop any torn tail record (a kill mid-append) before appending: new
    // records must land where the next resume's loader — which stops at the
    // first tear — will actually read them.
    std::error_code ec;
    std::filesystem::resize_file(path, static_cast<std::uintmax_t>(good), ec);
  }

  // Append phase: "ab" keeps the loaded records, "wb" starts fresh. A fresh
  // journal writes the header immediately so that a search killed before its
  // first branch still leaves a resumable file.
  j->file_ = std::fopen(path.c_str(), resume ? "ab" : "wb");
  if (j->file_ == nullptr)
    throw std::runtime_error("journal: cannot open '" + path +
                             "' for append");
  if (!resume) {
    if (std::fwrite(kMagic, 1, sizeof kMagic, j->file_) != sizeof kMagic)
      throw std::runtime_error("journal: cannot write header");
    std::fflush(j->file_);
  }
  return j;
}

Journal::~Journal() {
  if (file_ != nullptr) std::fclose(file_);
}

std::optional<Bytes> Journal::replay(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = pending_.find(key);
  if (it == pending_.end() || it->second.next >= it->second.payloads.size())
    return std::nullopt;
  ++replayed_;
  return it->second.payloads[it->second.next++];
}

bool Journal::holds(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = pending_.find(key);
  return it != pending_.end() && it->second.next < it->second.payloads.size();
}

void Journal::append(const std::string& key, BytesView payload) {
  std::lock_guard<std::mutex> lock(mu_);
  write_field(file_, key.data(), static_cast<std::uint32_t>(key.size()));
  write_field(file_, payload.data(),
              static_cast<std::uint32_t>(payload.size()));
  // Flush per record: after a kill, everything up to the last completed
  // append is recoverable, at worst plus one truncated tail record.
  std::fflush(file_);
  ++appended_;
}

std::size_t Journal::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_;
}

std::size_t Journal::replayed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return replayed_;
}

std::size_t Journal::appended() const {
  std::lock_guard<std::mutex> lock(mu_);
  return appended_;
}

std::vector<Journal::RawEntry> Journal::read_all(const std::string& path) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr)
    throw std::runtime_error("journal: cannot open '" + path + "'");
  char magic[sizeof kMagic];
  if (std::fread(magic, 1, sizeof magic, in) != sizeof magic ||
      std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    std::fclose(in);
    throw std::runtime_error("journal: '" + path + "' is not a turret journal");
  }
  std::vector<RawEntry> out;
  Bytes key, payload;
  while (read_field(in, &key) && read_field(in, &payload)) {
    out.push_back({std::string(key.begin(), key.end()), payload});
  }
  std::fclose(in);
  return out;
}

}  // namespace turret::search
