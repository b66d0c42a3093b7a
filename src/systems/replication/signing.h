// Guest-side use of the authenticated wire layer (wire/signed_adapter.h).
//
// Guests stay unmodified in spirit: they call seal_send / verify_open at
// their network boundary exactly where a real implementation would call its
// crypto library, and the rest of the state machine never sees the trailer.
// Verification failures are counted under search::kTamperMetric, which the
// executor folds into WindowPerf.tampers — the TamperDetected observation
// the search algorithms weight.
#pragma once

#include <optional>
#include <utility>

#include "search/scenario.h"
#include "systems/replication/config.h"
#include "systems/replication/crypto.h"
#include "vm/guest.h"
#include "wire/signed_adapter.h"

namespace turret::systems {

/// Seal an outgoing message under the node's key (pass-through when the
/// scenario runs without an adapter), appending the trailer to `inner`'s
/// buffer. Charges the signing cost.
inline Bytes seal_message(const wire::SignedAdapter* adapter,
                          vm::GuestContext& ctx, const BftConfig& cfg,
                          Bytes inner) {
  if (adapter == nullptr) return inner;
  charge_sign(ctx, cfg);
  return adapter->seal(ctx.self(), std::move(inner));
}

/// Check and strip an incoming message's authenticator. Returns the inner
/// wire bytes when the MAC verifies (or no adapter is configured), as a view
/// into `msg` that is valid only while `msg` is; nullopt when it does not —
/// the caller drops the message. Verification burns CPU either way, and a
/// failure counts one TamperDetected observation: the receiver catches the
/// mutation, but catching it is all it can do.
inline std::optional<BytesView> verify_open(const wire::SignedAdapter* adapter,
                                            vm::GuestContext& ctx,
                                            const BftConfig& cfg,
                                            BytesView msg) {
  if (adapter == nullptr) return msg;
  charge_verify(ctx, cfg);
  const auto opened = adapter->open(msg);
  if (!opened || !opened->verified) {
    ctx.count(search::kTamperMetric);
    return std::nullopt;
  }
  return opened->inner;
}

}  // namespace turret::systems
