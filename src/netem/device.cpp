#include "netem/device.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace turret::netem {
namespace {

// CRC32 (IEEE 802.3 polynomial), table-driven — the FCS a CSMA device
// computes on egress and verifies on ingress.
std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

std::uint32_t crc32(BytesView data) {
  static const std::array<std::uint32_t, 256> kTable = make_crc_table();
  std::uint32_t c = 0xffffffffu;
  for (std::uint8_t b : data) c = kTable[(c ^ b) & 0xff] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

}  // namespace

Duration BundledDevice::receive(const Packet& p) {
  // Header sanity, then a single bounded copy into the guest ring buffer
  // with an internet-style 16-bit checksum — the minimum a real device path
  // must still do.
  if (p.frag_index >= p.frag_count || p.payload.size() > p.msg_bytes) {
    ++stats_.drops;
    return -1;
  }
  // Internet-style 16-bit checksum over big-endian byte pairs, computed as
  // two byte reductions: sum == 256*Σ(even-index bytes) + Σ(odd-index bytes)
  // mod 2^32 over the paired prefix. Byte addition commutes, so the folded
  // value is bit-identical to the old serial shift/or pair walk; only the
  // evaluation order changes. On SSE2, psadbw horizontal-sums 8 masked bytes
  // per instruction; elsewhere a little-endian SWAR loop masks even/odd bytes
  // into 16-bit lanes (a 2048-byte block bounds lane carries: 256 adds of
  // ≤255 stays under 0xffff). The scalar tail handles the remainder.
  const std::uint8_t* bytes = p.payload.data();
  const std::size_t paired = p.payload.size() & ~std::size_t{1};
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  std::size_t i = 0;
#if defined(__SSE2__)
  if (paired >= 16) {
    const __m128i even = _mm_set1_epi16(0x00FF);
    const __m128i zero = _mm_setzero_si128();
    __m128i acc_hi = zero;
    __m128i acc_lo = zero;
    for (; i + 16 <= paired; i += 16) {
      const __m128i w =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes + i));
      acc_hi =
          _mm_add_epi64(acc_hi, _mm_sad_epu8(_mm_and_si128(w, even), zero));
      acc_lo = _mm_add_epi64(acc_lo, _mm_sad_epu8(_mm_srli_epi16(w, 8), zero));
    }
    alignas(16) std::uint64_t h[2];
    alignas(16) std::uint64_t l[2];
    _mm_store_si128(reinterpret_cast<__m128i*>(h), acc_hi);
    _mm_store_si128(reinterpret_cast<__m128i*>(l), acc_lo);
    hi = h[0] + h[1];
    lo = l[0] + l[1];
  }
#else
  if constexpr (std::endian::native == std::endian::little) {
    constexpr std::uint64_t kLane = 0x00FF00FF00FF00FFull;
    auto lanes = [](std::uint64_t a) {
      return (a & 0xffff) + ((a >> 16) & 0xffff) + ((a >> 32) & 0xffff) +
             (a >> 48);
    };
    while (paired - i >= 8) {
      const std::size_t stop =
          i + std::min<std::size_t>((paired - i) & ~std::size_t{7}, 2048);
      std::uint64_t acc_hi = 0;
      std::uint64_t acc_lo = 0;
      for (; i < stop; i += 8) {
        std::uint64_t w;
        std::memcpy(&w, bytes + i, 8);
        acc_hi += w & kLane;
        acc_lo += (w >> 8) & kLane;
      }
      hi += lanes(acc_hi);
      lo += lanes(acc_lo);
    }
  }
#endif
  for (; i < paired; i += 2) {
    hi += bytes[i];
    lo += bytes[i + 1];
  }
  std::uint32_t sum = static_cast<std::uint32_t>(hi * 256 + lo);
  checksum_ = (sum & 0xffff) + (sum >> 16);  // stored: the work is not elided
  ++stats_.packets;
  stats_.bytes += p.wire_size();
  return 2 * kMicrosecond;  // pass-through latency
}

Duration CsmaDevice::receive(const Packet& p) {
  if (p.frag_index >= p.frag_count || p.payload.size() > p.msg_bytes) {
    ++stats_.drops;
    return -1;
  }

  // (1) Reconstruct the Ethernet frame the sender-side device would have put
  // on the medium: dst/src MACs derived from node ids, ethertype, payload.
  // The frame buffer is reused across packets, as NS3's device does.
  static thread_local Bytes frame;
  frame.clear();
  frame.reserve(p.wire_size());
  auto push_mac = [](NodeId id) {
    frame.push_back(0x02);  // locally administered
    frame.push_back(0x00);
    frame.push_back(static_cast<std::uint8_t>(id >> 24));
    frame.push_back(static_cast<std::uint8_t>(id >> 16));
    frame.push_back(static_cast<std::uint8_t>(id >> 8));
    frame.push_back(static_cast<std::uint8_t>(id));
  };
  push_mac(p.dst);
  push_mac(p.src);
  frame.push_back(0x08);
  frame.push_back(0x00);
  frame.insert(frame.end(), p.payload.begin(), p.payload.end());

  // (2) Verify the FCS over the frame as the receiver must.
  const std::uint32_t fcs = crc32(frame);
  if (fcs == 0xffffffffu) {  // an FCS mismatch would reject the frame
    ++stats_.drops;
    return -1;
  }

  // (3) Promiscuous-mode destination filtering: every device on the shared
  // medium inspects the frame; model the per-device MAC comparison cost.
  std::uint32_t match = 0;
  for (std::uint32_t d = 0; d < channel_size_; ++d) {
    std::uint32_t mac_tail = d;
    if (mac_tail == p.dst) ++match;
    // Touch the backoff/deference state machine per attached device, the way
    // NS3's CsmaNetDevice consults the channel state for each endpoint.
    backoff_state_ = backoff_state_ * 6364136223846793005ull + mac_tail + 1442695040888963407ull;
  }
  if (match == 0) {
    ++stats_.drops;
    return -1;
  }

  ++stats_.packets;
  stats_.bytes += p.wire_size();
  // CSMA adds deference latency on top of processing.
  return 6 * kMicrosecond;
}

std::unique_ptr<NetDevice> make_device(DeviceKind kind,
                                       std::uint32_t channel_size) {
  switch (kind) {
    case DeviceKind::kBundled: return std::make_unique<BundledDevice>();
    case DeviceKind::kCsma: return std::make_unique<CsmaDevice>(channel_size);
  }
  return nullptr;
}

}  // namespace turret::netem
