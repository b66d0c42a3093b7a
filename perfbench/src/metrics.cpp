#include "metrics.h"

namespace perfbench {

using turret::kSecond;

namespace {

double per_call(std::int64_t ns, std::uint64_t calls, double unit_ns) {
  return calls == 0 ? 0
                    : static_cast<double>(ns) / unit_ns /
                          static_cast<double>(calls);
}

double seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

double count(std::uint64_t n) { return static_cast<double>(n); }

}  // namespace

std::vector<Metric> end_to_end_metrics(const Measured& m) {
  const turret::search::SearchResult& res = m.result;
  return {
      {"search_wall_s", quantile(m.wall_s, 0.5), "s"},
      {"cpu_s", quantile(m.cpu_s, 0.5), "CPU-s"},
      {"setup_s", quantile(m.setup_s, 0.5), "s"},
      {"peak_rss_mb", m.peak_rss_mb, "MiB"},
      {"attacks_found", count(res.attacks.size()), "count"},
      // The share of branch attempts not quarantined: 1 - failed_share, so
      // the metric is never 0 on workloads without quarantines.
      {"branch_ok_share",
       1.0 - count(res.failed.size()) / count(res.cost.branches), "ratio"},
      {"virtual_cost_s", static_cast<double>(res.cost.total()) / kSecond,
       "virtual-s"},
  };
}

std::vector<Metric> per_layer_metrics(const Measured& m) {
  const turret::search::SearchResult& res = m.result;
  const ReplayResult& rp = m.replay;
  const double wall = quantile(m.wall_s, 0.5);
  const LayerTotals& handler = m.search_profile[Layer::kHandler];
  const LayerTotals& send = m.search_profile[Layer::kSend];
  const LayerTotals& metric = m.search_profile[Layer::kMetric];
  const LayerTotals& save = m.search_profile[Layer::kGuestSave];
  const LayerTotals& load = m.search_profile[Layer::kGuestLoad];
  const LayerTotals& fabric = rp.profile[Layer::kRunUntil];
  const LayerTotals& proxy = rp.profile[Layer::kProxy];
  return {
      {"search.discover_s", quantile(m.discover_s, 0.5), "s"},
      {"search.world_build_us", quantile(rp.build_us, 0.5), "us"},
      {"search.world_teardown_us", quantile(rp.teardown_us, 0.5), "us"},
      {"search.branch_ms_p50", quantile(rp.branch_ms, 0.5), "ms"},
      {"search.branch_ms_p90", quantile(rp.branch_ms, 0.9), "ms"},
      {"search.measure_us", quantile(rp.measure_us, 0.5), "us"},
      {"search.branches_per_s", count(res.cost.branches) / wall, "1/s"},
      {"search.retries", count(res.cost.retries), "count"},
      {"search.trace_overhead", m.traced_wall_s / wall - 1.0, "ratio"},
      {"runtime.decode_ms", quantile(rp.decode_ms, 0.5), "ms"},
      {"runtime.snapshot_kb", quantile(rp.snapshot_kb, 0.5), "KiB"},
      {"runtime.load_us", quantile(rp.load_us, 0.5), "us"},
      {"runtime.metric_calls", count(metric.calls), "count"},
      {"runtime.metrics_s", seconds(metric.incl_ns), "s"},
      {"vm.guest_save_us", per_call(save.incl_ns, save.calls, 1e3), "us"},
      {"vm.guest_load_us", per_call(load.incl_ns, load.calls, 1e3), "us"},
      {"netem.pending_after_load", quantile(rp.pending_after_load, 0.5),
       "count"},
      {"netem.fabric_s", seconds(fabric.self_ns), "s"},
      {"netem.events", count(rp.events), "count"},
      {"netem.ns_per_event", per_call(fabric.self_ns, rp.events, 1), "ns"},
      {"netem.messages_delivered", count(rp.messages_delivered), "count"},
      {"netem.packets_delivered", count(rp.packets_delivered), "count"},
      {"proxy.on_send_s", seconds(proxy.incl_ns), "s"},
      {"proxy.ns_per_send", per_call(proxy.incl_ns, proxy.calls, 1), "ns"},
      {"proxy.observed", count(rp.proxy_observed), "count"},
      {"proxy.injected", count(rp.proxy_injected), "count"},
      {"proxy.undecodable", count(rp.proxy_undecodable), "count"},
      {"systems.handler_s", seconds(handler.self_ns), "s"},
      {"systems.handler_calls", count(handler.calls), "count"},
      {"systems.ns_per_handler", per_call(handler.self_ns, handler.calls, 1),
       "ns"},
      {"systems.send_s", seconds(send.self_ns), "s"},
      {"systems.sends", count(send.calls), "count"},
      {"systems.send_kb", static_cast<double>(send.bytes) / 1024.0, "KiB"},
      {"systems.handler_inflation", m.handler_inflation, "ratio"},
  };
}

}  // namespace perfbench
