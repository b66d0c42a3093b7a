#include "vm/memory.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"
#include "common/hash.h"
#include "common/rng.h"

namespace turret::vm {
namespace {

// Fill a page with deterministic pseudo-content. Low entropy-rate content
// (repeating words) models real OS image pages better than pure noise and
// keeps generation cheap.
void fill_page(Bytes& data, std::size_t pfn, std::uint64_t seed) {
  std::uint64_t word = mix64(seed ^ (pfn * 0x9e3779b97f4a7c15ull));
  std::uint8_t* p = data.data() + pfn * kPageSize;
  for (std::size_t off = 0; off < kPageSize; off += 8) {
    std::memcpy(p + off, &word, 8);
    if ((off & 0x1ff) == 0x1f8) word = mix64(word);  // new word every 512 B
  }
}

}  // namespace

void MemoryImage::materialize(const MemoryProfile& profile,
                              std::uint64_t vm_uid, BytesView guest_state) {
  heap_pages_ = static_cast<std::uint32_t>(
      (guest_state.size() + kPageSize - 1) / kPageSize);
  guest_state_bytes_ = static_cast<std::uint32_t>(guest_state.size());
  const std::size_t total =
      profile.os_pages + profile.app_pages + profile.unique_pages + heap_pages_;
  data_.assign(total * kPageSize, 0);

  std::size_t pfn = 0;
  // OS image — same for every VM booted from this profile.
  for (std::uint32_t i = 0; i < profile.os_pages; ++i, ++pfn)
    fill_page(data_, pfn, profile.boot_seed ^ 0x05ull);
  // Application image — also shared.
  for (std::uint32_t i = 0; i < profile.app_pages; ++i, ++pfn)
    fill_page(data_, pfn, profile.boot_seed ^ 0xa9ull);
  // Unique region — differs per VM.
  for (std::uint32_t i = 0; i < profile.unique_pages; ++i, ++pfn)
    fill_page(data_, pfn, mix64(vm_uid) ^ (0x1234abcdull + i));
  // Heap last: the guest state, zero-padded to whole pages.
  heap_start_pfn_ = static_cast<std::uint32_t>(pfn);
  if (!guest_state.empty()) {
    std::memcpy(data_.data() + pfn * kPageSize, guest_state.data(),
                guest_state.size());
  }
}

Bytes MemoryImage::extract_guest_state() const {
  TURRET_CHECK(static_cast<std::size_t>(heap_start_pfn_) + heap_pages_ <=
               page_count());
  TURRET_CHECK(guest_state_bytes_ <=
               static_cast<std::uint64_t>(heap_pages_) * kPageSize);
  Bytes out(guest_state_bytes_);
  std::size_t copied = 0;
  for (std::size_t pfn = heap_start_pfn_; copied < out.size(); ++pfn) {
    const std::size_t n = std::min(kPageSize, out.size() - copied);
    std::memcpy(out.data() + copied, page(pfn).data(), n);
    copied += n;
  }
  return out;
}

void MemoryImage::set_page(std::size_t pfn, BytesView content) {
  TURRET_CHECK(content.size() == kPageSize);
  TURRET_CHECK(pfn < page_count());
  std::memcpy(data_.data() + pfn * kPageSize, content.data(), kPageSize);
}

void MemoryImage::assign_pages(Bytes data) {
  TURRET_CHECK(data.size() % kPageSize == 0);
  data_ = std::move(data);
}

void MemoryImage::resize_pages(std::size_t n) {
  data_.assign(n * kPageSize, 0);
}

void MemoryImage::save_meta(serial::Writer& w) const {
  w.u32(heap_start_pfn_);
  w.u32(heap_pages_);
  w.u32(guest_state_bytes_);
}

void MemoryImage::load_meta(serial::Reader& r) {
  heap_start_pfn_ = r.u32();
  heap_pages_ = r.u32();
  guest_state_bytes_ = r.u32();
}

std::uint64_t MemoryImage::page_hash(std::size_t pfn) const {
  return fnv1a(page(pfn));
}

}  // namespace turret::vm
