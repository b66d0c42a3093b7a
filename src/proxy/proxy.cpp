#include "proxy/proxy.h"

#include <bit>

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
  if (sealed) return wire::SignedAdapter::replace_inner(message, forged);
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

void MaliciousProxy::residual_fingerprint(Hasher128& h,
                                          Duration remaining) const {
  const auto fold_rng = [&h, this] {
    std::uint64_t state[4];
    rng_.save_state(state);
    for (const std::uint64_t s : state) h.update_u64(s);
  };
  const auto fold_double = [&h](double v) {
    h.update_u64(std::bit_cast<std::uint64_t>(v));
  };

  if (!action_) {
    h.update(std::string_view("pass"));
    return;
  }
  const MaliciousAction& a = *action_;
  switch (a.kind) {
    case ActionKind::kDrop:
      if (a.drop_probability >= 1.0) {
        // Every future matching message vanishes; the RNG still draws per
        // message but the draw cannot change any delivery.
        h.update(std::string_view("suppress"));
        h.update_u64(a.target_tag);
      } else if (a.drop_probability <= 0.0) {
        h.update(std::string_view("pass"));
      } else {
        h.update(std::string_view("droprand"));
        h.update_u64(a.target_tag);
        fold_double(a.drop_probability);
        fold_rng();
      }
      return;

    case ActionKind::kDelay:
      if (a.delay > remaining) {
        // Released past the horizon: within this branch's observation
        // windows the message might as well have been dropped.
        h.update(std::string_view("suppress"));
        h.update_u64(a.target_tag);
      } else {
        h.update(std::string_view("delay"));
        h.update_u64(a.target_tag);
        h.update_i64(a.delay);
      }
      return;

    case ActionKind::kDivert:
      if (cluster_size_ <= 1) {
        // on_send passes diverts through in a one-node cluster.
        h.update(std::string_view("pass"));
        return;
      }
      h.update(std::string_view("divert"));
      h.update_u64(a.target_tag);
      fold_rng();
      return;

    case ActionKind::kDuplicate:
      h.update(std::string_view("dup"));
      h.update_u64(a.target_tag);
      h.update_u64(a.copies);
      return;

    case ActionKind::kLie: {
      const wire::MessageSpec* spec = schema_.by_tag(a.target_tag);
      if (spec == nullptr || a.field_index >= spec->fields.size()) {
        // Nothing decodable to forge: conservative, keyed on the raw action.
        h.update(std::string_view("lie?"));
        h.update(a.describe());
        return;
      }
      const wire::FieldType type = spec->fields[a.field_index].type;
      h.update(std::string_view("lie"));
      h.update_u64(a.target_tag);
      h.update_u64(a.field_index);

      if (type == wire::FieldType::kBool) {
        // mutate_field flips booleans under every strategy.
        h.update(std::string_view("flipbool"));
        return;
      }
      if (type == wire::FieldType::kBytes) {
        h.update(std::string_view("lie?"));
        h.update(a.describe());
        return;
      }

      if (wire::is_float(type)) {
        const double limit = (type == wire::FieldType::kF32)
                                 ? 3.4028234e38
                                 : 1.7976931348623157e308;
        switch (a.strategy) {
          case LieStrategy::kMin:
            h.update(std::string_view("fset"));
            fold_double(-limit);
            return;
          case LieStrategy::kMax:
            h.update(std::string_view("fset"));
            fold_double(limit);
            return;
          case LieStrategy::kSpanning:
            h.update(std::string_view("fset"));
            fold_double(static_cast<double>(a.operand));
            return;
          case LieStrategy::kAdd:
            h.update(std::string_view("fadd"));
            fold_double(static_cast<double>(a.operand));
            return;
          case LieStrategy::kSub:
            // orig - op == orig + (-op): same future wire bytes as kAdd of
            // the negated operand.
            h.update(std::string_view("fadd"));
            fold_double(-static_cast<double>(a.operand));
            return;
          case LieStrategy::kMul:
            h.update(std::string_view("fmul"));
            fold_double(static_cast<double>(a.operand));
            return;
          case LieStrategy::kFlip:
            h.update(std::string_view("fneg"));
            return;
          case LieStrategy::kRandom:
            h.update(std::string_view("frand"));
            fold_rng();
            return;
        }
        return;
      }

      // Integer lies: absolute strategies canonicalize to the value masked
      // to the field's wire width — encode() narrows with two's-complement
      // wrap, so e.g. kMax and kSpanning(-1) forge identical bytes into an
      // unsigned field.
      const std::size_t bits = wire::scalar_size(type) * 8;
      const std::uint64_t mask =
          bits >= 64 ? ~0ull : ((1ull << bits) - 1);
      const auto masked = [mask](std::int64_t v) {
        return static_cast<std::uint64_t>(v) & mask;
      };
      switch (a.strategy) {
        case LieStrategy::kMin:
          h.update(std::string_view("iset"));
          h.update_u64(masked(wire::integer_min(type)));
          return;
        case LieStrategy::kMax:
          h.update(std::string_view("iset"));
          h.update_u64(wire::integer_max(type) & mask);
          return;
        case LieStrategy::kSpanning:
          h.update(std::string_view("iset"));
          h.update_u64(masked(a.operand));
          return;
        case LieStrategy::kAdd:
          h.update(std::string_view("iadd"));
          h.update_u64(static_cast<std::uint64_t>(a.operand));
          return;
        case LieStrategy::kSub:
          h.update(std::string_view("iadd"));
          h.update_u64(-static_cast<std::uint64_t>(a.operand));
          return;
        case LieStrategy::kMul:
          h.update(std::string_view("imul"));
          h.update_i64(a.operand);
          return;
        case LieStrategy::kFlip:
          h.update(std::string_view("inot"));
          return;
        case LieStrategy::kRandom:
          h.update(std::string_view("irand"));
          fold_rng();
          return;
      }
      return;
    }
  }
  // Unknown kind: conservative.
  h.update(a.describe());
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
