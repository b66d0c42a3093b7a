// Forwarding decorators that time calls into the guest (systems/vm), the
// guest-context services (runtime/netem ingress) and the malicious proxy.
// They change no behaviour: every call forwards to the wrapped object with
// the same arguments, so a search run through them returns a byte-identical
// SearchResult.
#pragma once

#include <memory>

#include "netem/emulator.h"
#include "runtime/testbed.h"
#include "vm/guest.h"

namespace perfbench {

/// GuestContext decorator: times send (with payload bytes) and count/record.
class TimedContext final : public turret::vm::GuestContext {
 public:
  explicit TimedContext(turret::vm::GuestContext& inner) : inner_(inner) {}

  turret::NodeId self() const override { return inner_.self(); }
  std::uint32_t cluster_size() const override { return inner_.cluster_size(); }
  turret::Time now() const override { return inner_.now(); }
  turret::Rng& rng() override { return inner_.rng(); }
  void send(turret::NodeId dst, turret::Bytes message) override;
  void set_timer(std::uint64_t timer_id, turret::Duration delay) override {
    inner_.set_timer(timer_id, delay);
  }
  void cancel_timer(std::uint64_t timer_id) override {
    inner_.cancel_timer(timer_id);
  }
  void consume_cpu(turret::Duration d) override { inner_.consume_cpu(d); }
  void count(std::string_view metric, double increment) override;
  void record(std::string_view metric, double value) override;

 private:
  turret::vm::GuestContext& inner_;
};

/// GuestNode decorator: times the handlers and save/load, and hands the
/// wrapped guest a TimedContext.
class TimedGuest final : public turret::vm::GuestNode {
 public:
  explicit TimedGuest(std::unique_ptr<turret::vm::GuestNode> inner)
      : inner_(std::move(inner)) {}

  void start(turret::vm::GuestContext& ctx) override;
  void on_message(turret::vm::GuestContext& ctx, turret::NodeId src,
                  turret::BytesView message) override;
  void on_timer(turret::vm::GuestContext& ctx, std::uint64_t timer_id) override;
  void save(turret::serial::Writer& w) const override;
  void load(turret::serial::Reader& r) override;
  std::string_view kind() const override { return inner_->kind(); }

 private:
  std::unique_ptr<turret::vm::GuestNode> inner_;
};

/// `inner` with every guest it makes wrapped in a TimedGuest.
turret::runtime::GuestFactory timed_factory(turret::runtime::GuestFactory inner);

/// IngressInterceptor decorator around a world's proxy; install it with
/// Emulator::set_interceptor. Snapshot state forwards unchanged.
class TimedInterceptor final : public turret::netem::IngressInterceptor {
 public:
  explicit TimedInterceptor(turret::netem::IngressInterceptor& inner)
      : inner_(inner) {}

  std::vector<Delivery> on_send(turret::Time now, turret::NodeId src,
                                turret::NodeId dst,
                                const turret::MessageBuf& message) override;
  void save_state(turret::serial::Writer& w) const override {
    inner_.save_state(w);
  }
  void load_state(turret::serial::Reader& r) override { inner_.load_state(r); }

 private:
  turret::netem::IngressInterceptor& inner_;
};

}  // namespace perfbench
