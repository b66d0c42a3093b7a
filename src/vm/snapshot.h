// Page-sharing-aware snapshot management (paper §IV-C, Table II).
//
// save_plain() is stock KVM: each VM's full memory image is written to its
// own blob. save_shared() is the paper's optimization: a KSM-style scan
// finds pages whose content is identical in two or more VMs, writes each such
// page once into a *shared page map* blob, and each VM's blob stores only a
// pfn-keyed reference for shared pages plus raw content for private ones.
// Loading restores images bit-for-bit in both modes.
//
// Blobs go through a BlobStore so benchmarks can choose between in-memory
// buffers and real files, and can model KVM's migration-bandwidth throttle.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <unordered_map>

#include "common/bytes.h"
#include "vm/memory.h"

namespace turret::vm {

/// Destination/source for snapshot blobs.
class BlobStore {
 public:
  virtual ~BlobStore() = default;
  virtual void put(const std::string& name, const Bytes& data) = 0;
  virtual Bytes get(const std::string& name) const = 0;
  virtual bool contains(const std::string& name) const = 0;
};

/// Blobs kept in RAM (unit tests).
class MemoryBlobStore final : public BlobStore {
 public:
  void put(const std::string& name, const Bytes& data) override;
  Bytes get(const std::string& name) const override;
  bool contains(const std::string& name) const override;

  std::uint64_t total_bytes() const;
  void clear() { blobs_.clear(); }

 private:
  std::unordered_map<std::string, Bytes> blobs_;
};

/// Blobs written to files under a directory (used by the Table II bench so
/// that snapshot save/load pays real I/O cost like KVM does).
class FileBlobStore final : public BlobStore {
 public:
  explicit FileBlobStore(std::string directory);
  void put(const std::string& name, const Bytes& data) override;
  Bytes get(const std::string& name) const override;
  bool contains(const std::string& name) const override;

 private:
  std::string dir_;
};

struct SaveReport {
  std::uint64_t bytes_written = 0;   ///< total across all blobs
  std::uint32_t total_pages = 0;     ///< sum over VMs
  std::uint32_t shared_pages = 0;    ///< pages referenced from the shared map
  std::uint32_t shared_unique = 0;   ///< distinct pages in the shared map
};

/// The KSM analog: an index of pages whose content is identical in two or
/// more VMs. In the paper KSM merges pages continuously while the VMs run and
/// the modified KVM merely *queries* it during save (the added interface);
/// accordingly, scan() is done outside the save path and save_shared()
/// consults the index in O(1) per page.
class KsmIndex {
 public:
  /// Full scan of a fleet. Hash collisions are settled by byte comparison;
  /// colliding but unequal pages stay private (KSM's stable tree demands
  /// equality).
  void scan(std::span<const MemoryImage* const> vms);

  bool scanned() const { return scanned_; }

  /// Safe before scan() and for out-of-range (vm, pfn): returns false.
  bool is_shared(std::size_t vm, std::size_t pfn) const;
  /// Safe before scan() and for out-of-range (vm, pfn): returns 0.
  std::uint64_t page_key(std::size_t vm, std::size_t pfn) const;
  /// (vm, pfn) of the canonical copy of every distinct shared page, sorted by
  /// (vm, pfn) so iteration order is deterministic across runs.
  const std::vector<std::pair<std::size_t, std::size_t>>& canonical() const {
    return canonical_;
  }

 private:
  /// The pages with one content hash: the first page seen is canonical, and
  /// a byte-equal page of another VM makes the bucket shared. Equal-hash but
  /// unequal-content pages are not members (they stay private).
  struct Bucket {
    std::pair<std::size_t, std::size_t> canonical;
    bool multi_vm = false;
  };

  void insert_page(std::span<const MemoryImage* const> vms, std::size_t v,
                   std::size_t p);

  bool scanned_ = false;
  std::unordered_map<std::uint64_t, Bucket> buckets_;
  std::vector<std::vector<std::uint64_t>> hashes_;
  std::vector<std::vector<std::uint8_t>> member_;  ///< page is in its bucket
  std::vector<std::pair<std::size_t, std::size_t>> canonical_;
};

class SnapshotManager {
 public:
  /// Stock save: one blob per VM ("<prefix>.vm<i>") with the full image.
  static SaveReport save_plain(std::span<const MemoryImage* const> vms,
                               BlobStore& store, const std::string& prefix);

  /// Page-sharing-aware save: "<prefix>.shared" plus per-VM residual blobs.
  /// `ksm` must have scanned exactly these images.
  static SaveReport save_shared(std::span<const MemoryImage* const> vms,
                                const KsmIndex& ksm, BlobStore& store,
                                const std::string& prefix);

  /// Convenience overload that scans first (tests; not for timing).
  static SaveReport save_shared(std::span<const MemoryImage* const> vms,
                                BlobStore& store, const std::string& prefix);

  static void load_plain(std::span<MemoryImage*> vms, const BlobStore& store,
                         const std::string& prefix);

  static void load_shared(std::span<MemoryImage*> vms, const BlobStore& store,
                          const std::string& prefix);
};

}  // namespace turret::vm
