// Emulated network devices.
//
// NS3's CSMA device supports emulation but "performs unnecessary processing";
// the paper replaces it with a *bundled* device with less per-packet overhead
// (Fig. 4: CSMA tops out below 1000 pkts/s, bundled reaches ~2500 pkts/s).
//
// We reproduce both: CsmaDevice does the full CSMA/CD-style work a general
// broadcast-medium device must do (Ethernet framing, FCS/CRC32 computation
// and check, promiscuous destination filtering across the attached channel,
// deference/backoff bookkeeping), while BundledDevice hands the packet
// straight through with a header sanity check. The difference is real CPU
// work, measured by bench_fig4_netdevice. Each device also reports a small
// virtual-time processing latency, which the emulator does not apply yet: it
// reads only the sign (accepted or rejected).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "netem/packet.h"

namespace turret::netem {

enum class DeviceKind : std::uint8_t { kBundled = 0, kCsma = 1 };

struct DeviceStats {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t drops = 0;  ///< framing/FCS rejects (normally zero)
};

/// A receive-path device attached to one emulator end node.
class NetDevice {
 public:
  virtual ~NetDevice() = default;

  /// Process one arriving packet. Returns the device's virtual-time
  /// processing latency, or a negative value if the device rejected the
  /// packet (counted as a drop). Emulator::deliver_packet uses only the sign:
  /// an accepted payload reaches the node with no added latency.
  virtual Duration receive(const Packet& p) = 0;

  virtual DeviceKind kind() const = 0;
  virtual std::string_view name() const = 0;

  const DeviceStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

 protected:
  DeviceStats stats_;
};

/// The paper's low-overhead device: validates the header and delivers.
class BundledDevice final : public NetDevice {
 public:
  Duration receive(const Packet& p) override;
  DeviceKind kind() const override { return DeviceKind::kBundled; }
  std::string_view name() const override { return "bundled"; }

  /// The folded 16-bit checksum of the last accepted frame.
  std::uint32_t last_checksum() const { return checksum_; }

 private:
  std::uint32_t checksum_ = 0;
};

/// A faithful-to-its-cost CSMA device: frames the packet, computes and checks
/// the FCS, scans the broadcast domain for the destination, and simulates the
/// medium-access state machine bookkeeping.
class CsmaDevice final : public NetDevice {
 public:
  /// `channel_size` is the number of devices on the shared medium (the
  /// emulated LAN); destination filtering scans all of them.
  explicit CsmaDevice(std::uint32_t channel_size)
      : channel_size_(channel_size) {}

  Duration receive(const Packet& p) override;
  DeviceKind kind() const override { return DeviceKind::kCsma; }
  std::string_view name() const override { return "csma"; }

 private:
  std::uint32_t channel_size_;
  std::uint64_t backoff_state_ = 0x243f6a8885a308d3ull;
};

std::unique_ptr<NetDevice> make_device(DeviceKind kind, std::uint32_t channel_size);

}  // namespace turret::netem
