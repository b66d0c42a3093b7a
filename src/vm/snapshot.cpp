#include "vm/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/check.h"
#include "common/hash.h"
#include "serial/serial.h"

namespace turret::vm {

// ---------------------------------------------------------------------------
// Blob stores
// ---------------------------------------------------------------------------

void MemoryBlobStore::put(const std::string& name, const Bytes& data) {
  blobs_[name] = data;
}

Bytes MemoryBlobStore::get(const std::string& name) const {
  auto it = blobs_.find(name);
  TURRET_CHECK_MSG(it != blobs_.end(), "missing blob '" + name + "'");
  return it->second;
}

bool MemoryBlobStore::contains(const std::string& name) const {
  return blobs_.count(name) != 0;
}

std::uint64_t MemoryBlobStore::total_bytes() const {
  std::uint64_t n = 0;
  for (const auto& [_, b] : blobs_) n += b.size();
  return n;
}

FileBlobStore::FileBlobStore(std::string directory) : dir_(std::move(directory)) {
  std::filesystem::create_directories(dir_);
}

void FileBlobStore::put(const std::string& name, const Bytes& data) {
  const std::string path = dir_ + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  TURRET_CHECK_MSG(out.good(), "cannot open " + path + " for writing");
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  TURRET_CHECK_MSG(out.good(), "short write to " + path);
}

Bytes FileBlobStore::get(const std::string& name) const {
  const std::string path = dir_ + "/" + name;
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  TURRET_CHECK_MSG(in.good(), "cannot open " + path);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  Bytes data(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(data.data()), size);
  TURRET_CHECK_MSG(in.good(), "short read from " + path);
  return data;
}

bool FileBlobStore::contains(const std::string& name) const {
  return std::filesystem::exists(dir_ + "/" + name);
}

// ---------------------------------------------------------------------------
// SnapshotManager
// ---------------------------------------------------------------------------

namespace {

std::string vm_blob_name(const std::string& prefix, std::size_t i) {
  return prefix + ".vm" + std::to_string(i);
}

bool pages_equal(BytesView a, BytesView b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size()) == 0;
}

}  // namespace

SaveReport SnapshotManager::save_plain(std::span<const MemoryImage* const> vms,
                                       BlobStore& store,
                                       const std::string& prefix) {
  SaveReport rep;
  for (std::size_t i = 0; i < vms.size(); ++i) {
    const MemoryImage& img = *vms[i];
    serial::Writer w;
    img.save_meta(w);
    w.u32(static_cast<std::uint32_t>(img.page_count()));
    w.bytes(img.raw());
    const Bytes blob = w.take();
    rep.bytes_written += blob.size();
    rep.total_pages += static_cast<std::uint32_t>(img.page_count());
    store.put(vm_blob_name(prefix, i), blob);
  }
  return rep;
}

void SnapshotManager::load_plain(std::span<MemoryImage*> vms,
                                 const BlobStore& store,
                                 const std::string& prefix) {
  for (std::size_t i = 0; i < vms.size(); ++i) {
    const Bytes blob = store.get(vm_blob_name(prefix, i));
    serial::Reader r(blob);
    vms[i]->load_meta(r);
    const std::uint32_t pages = r.u32();
    Bytes data = r.bytes();
    if (data.size() != static_cast<std::size_t>(pages) * kPageSize) {
      throw serial::SerialError(
          "plain snapshot page count/size mismatch: " +
          std::to_string(pages) + " pages vs " + std::to_string(data.size()) +
          " bytes");
    }
    vms[i]->assign_pages(std::move(data));
  }
}

void KsmIndex::insert_page(std::span<const MemoryImage* const> vms,
                           std::size_t v, std::size_t p) {
  const std::uint64_t h = vms[v]->page_hash(p);
  hashes_[v][p] = h;
  const auto [it, fresh] = buckets_.try_emplace(h, Bucket{{v, p}});
  member_[v][p] = 1;
  if (fresh) return;
  Bucket& b = it->second;
  const auto [cv, cp] = b.canonical;
  if (!pages_equal(vms[cv]->page(cp), vms[v]->page(p))) {
    // Hash collision with different content: stays private, like KSM's
    // stable tree which demands byte equality.
    member_[v][p] = 0;
    return;
  }
  if (cv != v) b.multi_vm = true;
}

void KsmIndex::scan(std::span<const MemoryImage* const> vms) {
  buckets_.clear();
  hashes_.assign(vms.size(), {});
  member_.assign(vms.size(), {});
  std::size_t total_pages = 0;
  for (const MemoryImage* img : vms) total_pages += img->page_count();
  buckets_.reserve(total_pages);
  for (std::size_t v = 0; v < vms.size(); ++v) {
    hashes_[v].resize(vms[v]->page_count());
    member_[v].assign(vms[v]->page_count(), 0);
    for (std::size_t p = 0; p < vms[v]->page_count(); ++p)
      insert_page(vms, v, p);
  }
  scanned_ = true;
  canonical_.clear();
  for (const auto& [h, b] : buckets_) {
    if (b.multi_vm) canonical_.push_back(b.canonical);
  }
  std::sort(canonical_.begin(), canonical_.end());
}

bool KsmIndex::is_shared(std::size_t vm, std::size_t pfn) const {
  if (!scanned_ || vm >= member_.size() || pfn >= member_[vm].size()) {
    return false;
  }
  if (!member_[vm][pfn]) return false;
  auto it = buckets_.find(hashes_[vm][pfn]);
  return it != buckets_.end() && it->second.multi_vm;
}

std::uint64_t KsmIndex::page_key(std::size_t vm, std::size_t pfn) const {
  if (!scanned_ || vm >= hashes_.size() || pfn >= hashes_[vm].size()) {
    return 0;
  }
  return hashes_[vm][pfn];
}

SaveReport SnapshotManager::save_shared(
    std::span<const MemoryImage* const> vms, const KsmIndex& ksm,
    BlobStore& store, const std::string& prefix) {
  TURRET_CHECK_MSG(ksm.scanned(),
                   "save_shared() requires a scanned KsmIndex");
  SaveReport rep;

  // Shared page map: each distinct shared page's content written once, keyed
  // by its content hash (the role the pfn plays in the paper's shared map).
  serial::Writer shared;
  for (const auto& [v, p] : ksm.canonical()) {
    shared.u64(ksm.page_key(v, p));
    // Pages are fixed-size; write raw without a length prefix.
    shared.raw_bytes(vms[v]->page(p));
  }
  rep.shared_unique = static_cast<std::uint32_t>(ksm.canonical().size());
  const Bytes shared_blob = shared.take();
  rep.bytes_written += shared_blob.size();
  store.put(prefix + ".shared", shared_blob);

  // Per-VM residual snapshots: shared pages as references, the rest raw.
  for (std::size_t v = 0; v < vms.size(); ++v) {
    const MemoryImage& img = *vms[v];
    serial::Writer w;
    img.save_meta(w);
    w.u32(static_cast<std::uint32_t>(img.page_count()));
    for (std::size_t p = 0; p < img.page_count(); ++p) {
      if (ksm.is_shared(v, p)) {
        w.u8(1);
        w.u64(ksm.page_key(v, p));
        ++rep.shared_pages;
      } else {
        w.u8(0);
        w.raw_bytes(img.page(p));
      }
      ++rep.total_pages;
    }
    const Bytes blob = w.take();
    rep.bytes_written += blob.size();
    store.put(vm_blob_name(prefix, v), blob);
  }
  return rep;
}

SaveReport SnapshotManager::save_shared(
    std::span<const MemoryImage* const> vms, BlobStore& store,
    const std::string& prefix) {
  KsmIndex ksm;
  ksm.scan(vms);
  return save_shared(vms, ksm, store, prefix);
}

void SnapshotManager::load_shared(std::span<MemoryImage*> vms,
                                  const BlobStore& store,
                                  const std::string& prefix) {
  // Index the shared page map by hash. Corrupt or truncated blobs must fail
  // with a clear exception, never read out of bounds.
  const Bytes shared_blob = store.get(prefix + ".shared");
  if (shared_blob.size() % (8 + kPageSize) != 0) {
    throw serial::SerialError(
        "shared page map is truncated or misaligned: " +
        std::to_string(shared_blob.size()) + " bytes is not a multiple of " +
        std::to_string(8 + kPageSize));
  }
  std::unordered_map<std::uint64_t, const std::uint8_t*> shared;
  shared.reserve(shared_blob.size() / (8 + kPageSize));
  for (std::size_t off = 0; off < shared_blob.size(); off += 8 + kPageSize) {
    std::uint64_t h;
    std::memcpy(&h, shared_blob.data() + off, 8);
    shared.emplace(h, shared_blob.data() + off + 8);
  }

  for (std::size_t v = 0; v < vms.size(); ++v) {
    const Bytes blob = store.get(vm_blob_name(prefix, v));
    serial::Reader r(blob);
    vms[v]->load_meta(r);
    const std::uint32_t pages = r.u32();
    vms[v]->resize_pages(pages);
    for (std::uint32_t p = 0; p < pages; ++p) {
      const std::uint8_t marker = r.u8();
      if (marker == 1) {
        const std::uint64_t h = r.u64();
        auto it = shared.find(h);
        if (it == shared.end()) {
          throw serial::SerialError(
              "snapshot references a page missing from the shared map (vm " +
              std::to_string(v) + ", pfn " + std::to_string(p) + ")");
        }
        vms[v]->set_page(p, BytesView(it->second, kPageSize));
      } else if (marker == 0) {
        vms[v]->set_page(p, r.raw_bytes(kPageSize));
      } else {
        throw serial::SerialError("corrupt residual snapshot: bad page marker " +
                                  std::to_string(marker) + " (vm " +
                                  std::to_string(v) + ", pfn " +
                                  std::to_string(p) + ")");
      }
    }
    if (!r.exhausted()) {
      throw serial::SerialError(
          "residual snapshot for vm " + std::to_string(v) + " has " +
          std::to_string(r.remaining()) + " trailing bytes");
    }
  }
}

}  // namespace turret::vm
