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
  base_.reset();
  local_.clear();
  data_.assign(total * kPageSize, 0);
  dirty_.assign(total, true);
  epoch_ = 0;
  cow_faults_ = 0;

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
  // Heap last, so update_heap() can grow it without renumbering any pfn.
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

void MemoryImage::update_heap(BytesView guest_state) {
  const std::uint32_t needed = static_cast<std::uint32_t>(
      (guest_state.size() + kPageSize - 1) / kPageSize);
  if (needed > heap_pages_) {
    TURRET_CHECK_MSG(
        static_cast<std::size_t>(heap_start_pfn_) + heap_pages_ ==
            page_count(),
        "heap growth requires the heap-last layout");
    grow_pages(page_count() + (needed - heap_pages_));
    heap_pages_ = needed;
  }
  guest_state_bytes_ = static_cast<std::uint32_t>(guest_state.size());

  Bytes scratch(kPageSize);
  std::size_t off = 0;
  for (std::uint32_t p = 0; p < needed; ++p, off += kPageSize) {
    const std::size_t n = std::min(kPageSize, guest_state.size() - off);
    const std::uint8_t* expected = guest_state.data() + off;
    if (n < kPageSize) {
      // Partial last page: zero-padded, so the tail beyond the state is
      // deterministic regardless of what was there before.
      std::memcpy(scratch.data(), expected, n);
      std::memset(scratch.data() + n, 0, kPageSize - n);
      expected = scratch.data();
    }
    const std::size_t pfn = heap_start_pfn_ + p;
    if (std::memcmp(page(pfn).data(), expected, kPageSize) != 0) {
      set_page(pfn, BytesView(expected, kPageSize));
    }
  }
}

void MemoryImage::set_page(std::size_t pfn, BytesView content) {
  TURRET_CHECK(content.size() == kPageSize);
  TURRET_CHECK(pfn < page_count());
  std::memcpy(writable_page(pfn), content.data(), kPageSize);
  dirty_[pfn] = true;
}

std::uint8_t* MemoryImage::writable_page(std::size_t pfn) {
  if (!base_) return data_.data() + pfn * kPageSize;
  Bytes& local = local_[pfn];
  if (local.empty()) {
    // COW fault: first write to a shared page copies it out of the base.
    local.assign(base_->pages[pfn]->bytes.begin(),
                 base_->pages[pfn]->bytes.end());
    ++cow_faults_;
  }
  return local.data();
}

void MemoryImage::grow_pages(std::size_t new_count) {
  const std::size_t old_count = page_count();
  TURRET_CHECK(new_count >= old_count);
  if (base_) {
    local_.resize(new_count);
    for (std::size_t pfn = old_count; pfn < new_count; ++pfn)
      local_[pfn].assign(kPageSize, 0);
  } else {
    data_.resize(new_count * kPageSize, 0);
  }
  dirty_.resize(new_count, true);
}

const Bytes& MemoryImage::raw() const {
  TURRET_CHECK_MSG(!base_, "raw() on an adopted image; use flatten()");
  return data_;
}

Bytes MemoryImage::flatten() const {
  if (!base_) return data_;
  Bytes out(page_count() * kPageSize);
  for (std::size_t pfn = 0; pfn < page_count(); ++pfn) {
    std::memcpy(out.data() + pfn * kPageSize, page(pfn).data(), kPageSize);
  }
  return out;
}

void MemoryImage::assign_pages(Bytes data) {
  TURRET_CHECK(data.size() % kPageSize == 0);
  base_.reset();
  local_.clear();
  data_ = std::move(data);
  dirty_.assign(data_.size() / kPageSize, true);
}

void MemoryImage::resize_pages(std::size_t n) {
  base_.reset();
  local_.clear();
  data_.assign(n * kPageSize, 0);
  dirty_.assign(n, true);
}

void MemoryImage::adopt(std::shared_ptr<const PageFrames> frames) {
  TURRET_CHECK(frames != nullptr);
  base_ = std::move(frames);
  data_.clear();
  data_.shrink_to_fit();
  local_.assign(base_->pages.size(), Bytes{});
  dirty_.assign(base_->pages.size(), false);
  heap_start_pfn_ = base_->heap_start_pfn;
  heap_pages_ = base_->heap_pages;
  guest_state_bytes_ = base_->state_bytes;
  cow_faults_ = 0;
}

std::size_t MemoryImage::dirty_count() const {
  return static_cast<std::size_t>(
      std::count(dirty_.begin(), dirty_.end(), true));
}

void MemoryImage::clear_dirty() {
  dirty_.assign(page_count(), false);
  ++epoch_;
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
