// Paged VM memory images.
//
// The paper's page-sharing-aware snapshot management (§IV-C) exploits that
// co-located VMs have many identical memory pages (same guest OS, same
// libraries, same application binary) — KSM merges them at run time and the
// modified KVM writes each shared page once, into a shared page map, with
// per-VM snapshots holding only a pfn reference.
//
// Here a MemoryImage is the paged view of one VM: a deterministic "OS image"
// region and "application image" region (identical across VMs booted from
// the same profile), a per-VM unique region (stacks, buffers), and a heap
// region holding the guest's serialized protocol state. The heap sits last,
// after every fixed-size region. Identical-page detection, the shared map,
// and save/load live in snapshot.h. Execution branching does not page VM
// memory: a testbed snapshot carries each VM's serialized state directly
// (runtime/testbed.h); these images model the paper's Table II fleets.
#pragma once

#include <cstdint>

#include "common/bytes.h"
#include "serial/serial.h"

namespace turret::vm {

constexpr std::size_t kPageSize = 4096;

/// Shape of a VM's memory. Defaults model a small appliance guest scaled
/// down from the paper's 128 MiB VMs (documented in DESIGN.md): the OS and
/// application images are sharable across VMs, heap and unique regions are
/// not.
struct MemoryProfile {
  std::uint32_t os_pages = 1024;      ///< 4 MiB guest OS image, shared
  std::uint32_t app_pages = 256;      ///< 1 MiB application image, shared
  std::uint32_t unique_pages = 1536;  ///< 6 MiB stacks/buffers, per-VM
  std::uint64_t boot_seed = 0x05f5e100;  ///< determines OS/app image contents

  std::uint32_t min_total_pages() const {
    return os_pages + app_pages + unique_pages;
  }
};

/// One VM's paged memory, stored as one contiguous buffer.
class MemoryImage {
 public:
  MemoryImage() = default;

  /// Build the image for VM `vm_uid`: OS/app regions from the profile's boot
  /// seed (identical for every VM), unique pages derived from vm_uid, and the
  /// guest state laid out into heap pages at the end.
  void materialize(const MemoryProfile& profile, std::uint64_t vm_uid,
                   BytesView guest_state);

  /// Re-extract the guest state bytes from the heap region.
  Bytes extract_guest_state() const;

  std::size_t page_count() const { return data_.size() / kPageSize; }

  BytesView page(std::size_t pfn) const {
    return BytesView(data_.data() + pfn * kPageSize, kPageSize);
  }
  void set_page(std::size_t pfn, BytesView content);

  /// Raw access for whole-image IO.
  const Bytes& raw() const { return data_; }
  /// Replace the page content with a flat buffer (layout metadata is kept —
  /// pair with load_meta).
  void assign_pages(Bytes data);
  void resize_pages(std::size_t n);

  std::uint64_t page_hash(std::size_t pfn) const;

  /// Layout metadata (region offsets); saved alongside page content so that
  /// extract_guest_state() works on a loaded image.
  void save_meta(serial::Writer& w) const;
  void load_meta(serial::Reader& r);

 private:
  Bytes data_;
  std::uint32_t heap_start_pfn_ = 0;
  std::uint32_t heap_pages_ = 0;
  std::uint32_t guest_state_bytes_ = 0;
};

}  // namespace turret::vm
