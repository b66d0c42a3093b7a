// The malicious proxy (paper §III-D, §IV-B).
//
// Installed on the emulator's ingress path, it sees every message entering
// the network. Messages from benign senders pass through untouched. Messages
// from malicious senders are reported to the controller's observer (attack
// injection point detection) and, while an action is armed, transformed:
// dropped, delayed, diverted, duplicated, or decoded/mutated/re-encoded for
// lying actions. The application is never modified — everything happens in
// the network path, on real wire bytes, using only the schema.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <set>

#include "common/rng.h"
#include "netem/emulator.h"
#include "proxy/action.h"
#include "proxy/audit.h"
#include "wire/message.h"
#include "wire/signed_adapter.h"

namespace turret::proxy {

struct ProxyStats {
  std::uint64_t observed = 0;   ///< malicious-sender messages seen
  std::uint64_t injected = 0;   ///< messages an armed action transformed
  std::uint64_t undecodable = 0;  ///< matching tag but decode failed
};

class MaliciousProxy final : public netem::IngressInterceptor {
 public:
  /// Called for every message a malicious node sends (armed or not); the
  /// controller uses it to discover attack injection points. Returning true
  /// asks the proxy to HOLD the message briefly for re-interception — the
  /// controller snapshots while it is held, so a branch's armed action
  /// applies to the very message that created the injection point.
  using SendObserver =
      std::function<bool(NodeId src, NodeId dst, wire::TypeTag tag)>;

  /// `schema` must outlive the proxy. `malicious` are the sender ids whose
  /// traffic is intercepted (paper: listed in the NS3 configuration file).
  MaliciousProxy(const wire::Schema& schema, std::set<NodeId> malicious,
                 std::uint32_t cluster_size);

  void set_observer(SendObserver observer) { observer_ = std::move(observer); }

  /// Tell the proxy the scenario's guests seal their traffic with `adapter`
  /// (must outlive the proxy; nullptr = plain wire). The proxy then peeks
  /// tags through the authenticator trailer and rewrites lies *inside* the
  /// sealed envelope, replaying the original trailer — it holds no keys, so
  /// mutations to MAC-covered fields arrive detectably broken.
  void set_signed_adapter(const wire::SignedAdapter* adapter) {
    signed_adapter_ = adapter;
  }

  /// Arm an action. Resets the proxy RNG deterministically from the action's
  /// identity so that branches are reproducible.
  void arm(const MaliciousAction& action);
  void disarm() { action_.reset(); }
  const std::optional<MaliciousAction>& armed() const { return action_; }

  bool is_malicious(NodeId node) const { return malicious_.count(node) != 0; }
  /// Honest senders bypass the proxy: on_send would only pass them through.
  bool intercepts(NodeId src) const override { return is_malicious(src); }
  const ProxyStats& stats() const { return stats_; }

  /// Enable the bounded audit log (see proxy/audit.h). Off by default; the
  /// search layer turns it on when the scenario enables network capture.
  void enable_audit(std::uint32_t capacity);
  const AuditLog* audit() const { return audit_.get(); }

  std::vector<Delivery> on_send(Time now, NodeId src, NodeId dst,
                                const MessageBuf& message) override;

  /// Snapshot state: counters plus the audit log, carried inside the
  /// emulator section of testbed snapshots so a restored branch does not
  /// keep pre-snapshot totals.
  void save_state(serial::Writer& w) const override;
  void load_state(serial::Reader& r) override;

 private:
  Bytes apply_lie(BytesView message, std::vector<wire::FieldDiff>* diffs);

  /// How long a held-for-snapshot message waits before re-entering the
  /// interceptor.
  static constexpr Duration kHoldDelay = 1 * kMicrosecond;

  const wire::Schema& schema_;
  const wire::SignedAdapter* signed_adapter_ = nullptr;
  std::set<NodeId> malicious_;
  std::uint32_t cluster_size_;
  std::optional<MaliciousAction> action_;
  SendObserver observer_;
  Rng rng_;
  ProxyStats stats_;
  std::unique_ptr<AuditLog> audit_;  ///< null = audit disabled
};

/// Apply a lying strategy to one decoded field. Exposed for tests and for the
/// enumeration layer's self-checks. Uses `rng` for kRandom.
void mutate_field(wire::DecodedMessage& msg, std::uint32_t field_index,
                  LieStrategy strategy, std::int64_t operand, Rng& rng);

}  // namespace turret::proxy
