#include "proxy/proxy.h"

#include "common/check.h"
#include "common/fault.h"
#include "common/hash.h"
#include "common/log.h"

namespace turret::proxy {

void mutate_field(wire::DecodedMessage& msg, std::uint32_t field_index,
                  LieStrategy strategy, std::int64_t operand, Rng& rng) {
  TURRET_CHECK(msg.spec != nullptr);
  TURRET_CHECK(field_index < msg.values.size());
  const wire::FieldType type = msg.spec->fields[field_index].type;
  wire::Value& v = msg.values[field_index];

  if (type == wire::FieldType::kBool) {
    v = wire::Value::of_bool(!v.as_bool());
    return;
  }

  if (wire::is_float(type)) {
    const double orig = v.as_double();
    double out = orig;
    const double limit = (type == wire::FieldType::kF32)
                             ? 3.4028234e38
                             : 1.7976931348623157e308;
    switch (strategy) {
      case LieStrategy::kMin: out = -limit; break;
      case LieStrategy::kMax: out = limit; break;
      case LieStrategy::kRandom:
        out = (rng.next_double() - 0.5) * 2e6;
        break;
      case LieStrategy::kSpanning: out = static_cast<double>(operand); break;
      case LieStrategy::kAdd: out = orig + static_cast<double>(operand); break;
      case LieStrategy::kSub: out = orig - static_cast<double>(operand); break;
      case LieStrategy::kMul: out = orig * static_cast<double>(operand); break;
      case LieStrategy::kFlip: out = -orig; break;
    }
    v = wire::Value::of_double(out);
    return;
  }

  TURRET_CHECK_MSG(wire::is_integer(type), "lying on a non-numeric field");
  // Work in 64-bit, then let encode() narrow with two's-complement wrap —
  // exactly what happens when forged bytes hit a fixed-width wire field.
  const bool is_signed = wire::is_signed_integer(type);
  std::int64_t orig = is_signed ? v.as_signed()
                                : static_cast<std::int64_t>(v.as_unsigned());
  std::int64_t out = orig;
  switch (strategy) {
    case LieStrategy::kMin: out = wire::integer_min(type); break;
    case LieStrategy::kMax:
      out = static_cast<std::int64_t>(wire::integer_max(type));
      break;
    case LieStrategy::kRandom:
      out = static_cast<std::int64_t>(rng.next_u64());
      break;
    case LieStrategy::kSpanning: out = operand; break;
    case LieStrategy::kAdd: out = orig + operand; break;
    case LieStrategy::kSub: out = orig - operand; break;
    case LieStrategy::kMul: out = orig * operand; break;
    case LieStrategy::kFlip: out = ~orig; break;
  }
  if (is_signed) {
    v = wire::Value::of_signed(out);
  } else {
    v = wire::Value::of_unsigned(static_cast<std::uint64_t>(out));
  }
}

MaliciousProxy::MaliciousProxy(const wire::Schema& schema,
                               std::set<NodeId> malicious,
                               std::uint32_t cluster_size)
    : schema_(schema),
      malicious_(std::move(malicious)),
      cluster_size_(cluster_size),
      rng_(0x70726f7879ull) {}

void MaliciousProxy::arm(const MaliciousAction& action) {
  action_ = action;
  // Deterministic per-action randomness: the same branch replays identically.
  rng_ = Rng(hash_combine(fnv1a(action.describe()), action.target_tag));
}

void MaliciousProxy::enable_audit(std::uint32_t capacity) {
  audit_ = std::make_unique<AuditLog>(capacity);
}

Bytes MaliciousProxy::apply_lie(BytesView message,
                                std::vector<wire::FieldDiff>* diffs) {
  const bool sealed =
      signed_adapter_ != nullptr && wire::SignedAdapter::looks_sealed(message);
  const BytesView inner =
      sealed ? wire::SignedAdapter::inner_view(message) : message;
  wire::DecodedMessage decoded = wire::decode(schema_, inner);
  std::optional<wire::DecodedMessage> original;
  if (diffs != nullptr) original = decoded;
  mutate_field(decoded, action_->field_index, action_->strategy,
               action_->operand, rng_);
  if (diffs != nullptr) *diffs = wire::diff_messages(*original, decoded);
  Bytes forged = wire::encode(decoded);
  // The proxy has no keys: it can only replay the original authenticator.
  // Lies on MAC-covered fields therefore fail verification at the receiver.
  if (sealed)
    return wire::SignedAdapter::replace_inner(message, std::move(forged));
  return forged;
}

std::vector<netem::IngressInterceptor::Delivery> MaliciousProxy::on_send(
    Time now, NodeId src, NodeId dst, const MessageBuf& message) {
  // Untampered deliveries share the sender's buffer (a refcount bump); only
  // the lie path below materializes fresh bytes.
  auto pass = [&]() -> std::vector<Delivery> { return {{dst, message, 0}}; };
  if (!is_malicious(src)) return pass();

  wire::TypeTag tag = 0;
  try {
    tag = wire::peek_tag(signed_adapter_ != nullptr
                             ? wire::SignedAdapter::inner_view(message)
                             : message);
  } catch (const wire::WireError&) {
    return pass();  // not a protocol message we understand
  }
  // Shared shape of this decision's audit record; each path below fills in
  // what it changed, then record() appends (no-op while audit is disabled).
  AuditRecord rec;
  rec.t = now;
  rec.src = src;
  rec.dst = dst;
  rec.tag = tag;
  rec.new_dst = dst;
  rec.old_delivery = now;
  rec.new_delivery = now;
  const auto record = [&](AuditDecision decision) {
    if (audit_ == nullptr) return;
    rec.decision = decision;
    if (action_) rec.action = action_->describe();
    audit_->append(std::move(rec));
  };
  ++stats_.observed;
  if (observer_ && observer_(src, dst, tag)) {
    // Injection-point capture: hold the message while the controller
    // snapshots; it re-enters interception on release.
    rec.new_delivery = now + kHoldDelay;
    record(AuditDecision::kHeld);
    return {{dst, message, kHoldDelay, /*reintercept=*/true}};
  }

  if (!action_ || action_->target_tag != tag) {
    record(AuditDecision::kObserved);
    return pass();
  }
  fault::inject(fault::kProxyMutate);
  ++stats_.injected;

  switch (action_->kind) {
    case ActionKind::kDrop:
      if (rng_.next_bool(action_->drop_probability)) {
        rec.new_delivery = -1;
        record(AuditDecision::kDropped);
        return {};
      }
      record(AuditDecision::kObserved);
      return pass();

    case ActionKind::kDelay:
      rec.new_delivery = now + action_->delay;
      record(AuditDecision::kDelayed);
      return {{dst, message, action_->delay}};

    case ActionKind::kDivert: {
      // Deliver to a node other than the intended destination.
      if (cluster_size_ <= 1) {
        record(AuditDecision::kObserved);
        return pass();
      }
      NodeId other = static_cast<NodeId>(rng_.next_below(cluster_size_));
      if (other == dst) other = (other + 1) % cluster_size_;
      rec.new_dst = other;
      record(AuditDecision::kDiverted);
      return {{other, message, 0}};
    }

    case ActionKind::kDuplicate: {
      std::vector<Delivery> out;
      out.reserve(action_->copies + 1);
      for (std::uint32_t i = 0; i <= action_->copies; ++i)
        out.push_back({dst, message, 0});
      rec.copies = action_->copies;
      record(AuditDecision::kDuplicated);
      return out;
    }

    case ActionKind::kLie: {
      try {
        Bytes forged = apply_lie(
            message, audit_ != nullptr ? &rec.diffs : nullptr);
        record(AuditDecision::kMutated);
        return {{dst, std::move(forged), 0}};
      } catch (const wire::WireError& e) {
        // Schema/type mismatch: pass the original through rather than forging
        // garbage the schema cannot describe.
        ++stats_.undecodable;
        TLOG_DEBUG("proxy: cannot lie on tag %u: %s", tag, e.what());
        record(AuditDecision::kUndecodable);
        return pass();
      }
    }
  }
  return pass();
}

void MaliciousProxy::save_state(serial::Writer& w) const {
  w.u64(stats_.observed);
  w.u64(stats_.injected);
  w.u64(stats_.undecodable);
  w.boolean(audit_ != nullptr);
  if (audit_ != nullptr) audit_->save(w);
}

void MaliciousProxy::load_state(serial::Reader& r) {
  stats_.observed = r.u64();
  stats_.injected = r.u64();
  stats_.undecodable = r.u64();
  const bool has_audit = r.boolean();
  TURRET_CHECK_MSG(has_audit == (audit_ != nullptr),
                   "snapshot audit state does not match proxy config");
  if (audit_ != nullptr) audit_->load(r);
}

}  // namespace turret::proxy
