#include "service/stats.h"

#include "obs/prometheus.h"
#include "util/string_util.h"

namespace useful::service {

void Stats::RecordCommand(CommandKind kind, std::uint64_t micros, bool ok) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (!ok) errors_.fetch_add(1, std::memory_order_relaxed);
  std::size_t i = static_cast<std::size_t>(kind);
  counts_[i].fetch_add(1, std::memory_order_relaxed);
  latency_[i].Record(micros);
}

void Stats::RecordParseError() {
  requests_.fetch_add(1, std::memory_order_relaxed);
  errors_.fetch_add(1, std::memory_order_relaxed);
}

void Stats::FinishTrace(const obs::Trace& trace) {
  if (!trace.sampled()) return;
  traces_sampled_.fetch_add(1, std::memory_order_relaxed);
  for (std::size_t i = 0; i < obs::kNumStages; ++i) {
    obs::Stage stage = static_cast<obs::Stage>(i);
    if (trace.stage_touched(stage)) {
      stage_latency_[i].Record(trace.stage_micros(stage));
    }
  }
  slowlog_.Insert(trace);
}

void Stats::RecordReload() {
  reloads_.fetch_add(1, std::memory_order_relaxed);
}

void Stats::RecordEnginesAdded(std::size_t count) {
  engines_added_.fetch_add(count, std::memory_order_relaxed);
}

void Stats::RecordEnginesDropped(std::size_t count) {
  engines_dropped_.fetch_add(count, std::memory_order_relaxed);
}

void Stats::RecordEnginesUpdated(std::size_t count) {
  engines_updated_.fetch_add(count, std::memory_order_relaxed);
}

void Stats::RecordConnectionOpened() {
  conns_opened_.fetch_add(1, std::memory_order_relaxed);
}

void Stats::RecordConnectionClosed(std::uint64_t lifetime_micros) {
  conn_lifetime_.Record(lifetime_micros);
}

void Stats::RecordOverloadShed() {
  sheds_.fetch_add(1, std::memory_order_relaxed);
}

void Stats::RecordIdleTimeout() {
  idle_timeouts_.fetch_add(1, std::memory_order_relaxed);
}

void Stats::RecordRequestTimeout() {
  request_timeouts_.fetch_add(1, std::memory_order_relaxed);
}

void Stats::RecordWriteTimeout() {
  write_timeouts_.fetch_add(1, std::memory_order_relaxed);
}

void Stats::RecordAcceptError() {
  accept_errors_.fetch_add(1, std::memory_order_relaxed);
}

void Stats::RecordEpollWakeup() {
  epoll_wakeups_.fetch_add(1, std::memory_order_relaxed);
}

void Stats::RecordDispatch(std::size_t batch_lines) {
  dispatches_.fetch_add(1, std::memory_order_relaxed);
  dispatched_lines_.fetch_add(batch_lines, std::memory_order_relaxed);
}

void Stats::RecordOffloadWait(std::uint64_t micros) {
  offload_wait_.Record(micros);
}

std::vector<std::string> Stats::Render(const QueryCache::Counters& cache,
                                       std::size_t num_engines) const {
  std::vector<std::string> lines;
  auto add = [&](const char* key, std::uint64_t value) {
    lines.push_back(StringPrintf("%s %llu", key,
                                 static_cast<unsigned long long>(value)));
  };
  add("requests_total", requests_total());
  add("errors_total", errors_total());
  add("engines", num_engines);
  add("reloads", reloads());
  add("engines_added", engines_added());
  add("engines_dropped", engines_dropped());
  add("engines_updated", engines_updated());
  add("snapshot_epoch", snapshot_epoch());
  add("representative_stale", representative_stale());
  add("representative_packed_engines", representative_packed_engines());
  add("representative_packed_bytes", representative_packed_bytes());
  add("cache_hits", cache.hits);
  add("cache_misses", cache.misses);
  add("cache_evictions", cache.evictions);
  add("cache_expired_generation", cache.expired);
  add("cache_entries", cache.entries);
  add("cache_bytes", cache.bytes);
  add("conns_opened", connections_opened());
  add("conns_closed", conn_lifetime_.count());
  add("conns_shed", overload_sheds());
  add("conns_idle_timeout", idle_timeouts());
  add("conns_request_timeout", request_timeouts());
  add("conns_write_timeout", write_timeouts());
  add("accept_errors", accept_errors());
  add("epoll_wakeups", epoll_wakeups());
  add("dispatches", dispatches());
  add("dispatched_lines", dispatched_lines());
  add("dispatch_queue_depth", dispatch_queue_depth());
  add("offload_wait_p50_us",
      static_cast<std::uint64_t>(offload_wait_.ValueAtPercentile(50.0)));
  add("offload_wait_p99_us",
      static_cast<std::uint64_t>(offload_wait_.ValueAtPercentile(99.0)));
  add("offload_wait_max_us", offload_wait_.max());
  add("conn_lifetime_p50_us",
      static_cast<std::uint64_t>(conn_lifetime_.ValueAtPercentile(50.0)));
  add("conn_lifetime_p99_us",
      static_cast<std::uint64_t>(conn_lifetime_.ValueAtPercentile(99.0)));
  add("conn_lifetime_max_us", conn_lifetime_.max());
  for (std::size_t i = 0; i < kNumCommands; ++i) {
    CommandKind kind = static_cast<CommandKind>(i);
    const util::LatencyHistogram& h = latency_[i];
    const char* name = CommandName(kind);
    lines.push_back(StringPrintf("cmd_%s_count %llu", name,
                                 static_cast<unsigned long long>(h.count())));
    lines.push_back(StringPrintf("cmd_%s_p50_us %llu", name,
                                 static_cast<unsigned long long>(
                                     h.ValueAtPercentile(50.0))));
    lines.push_back(StringPrintf("cmd_%s_p99_us %llu", name,
                                 static_cast<unsigned long long>(
                                     h.ValueAtPercentile(99.0))));
    lines.push_back(StringPrintf("cmd_%s_max_us %llu", name,
                                 static_cast<unsigned long long>(h.max())));
  }
  return lines;
}

std::vector<std::string> Stats::RenderMetrics(
    const QueryCache::Counters& cache, std::size_t num_engines) const {
  obs::MetricsBuilder b;
  const std::vector<std::uint64_t>& bounds = obs::DefaultLatencyBoundsMicros();

  b.Counter("useful_requests_total",
            "Request lines executed, including parse errors.",
            requests_total());
  b.Counter("useful_errors_total",
            "Requests answered with an ERR header.", errors_total());
  b.Counter("useful_reloads_total", "Successful representative reloads.",
            reloads());
  b.Counter("useful_engines_added_total",
            "Engines registered by the ADD verb.", engines_added());
  b.Counter("useful_engines_dropped_total",
            "Engines removed by the DROP verb.", engines_dropped());
  b.Counter("useful_engines_updated_total",
            "Engine representatives replaced by the UPDATE verb.",
            engines_updated());
  b.Gauge("useful_snapshot_epoch",
          "Monotone serving-snapshot version (bumped by every successful "
          "RELOAD/ADD/DROP/UPDATE).",
          static_cast<double>(snapshot_epoch()));
  b.Gauge("useful_engines", "Engines in the serving snapshot.",
          static_cast<double>(num_engines));
  b.Gauge("useful_representative_stale",
          "Loaded representatives whose max weights are stale upper "
          "bounds (producer removed documents without a rebuild).",
          static_cast<double>(representative_stale()));
  b.Gauge("useful_representative_packed_engines",
          "Engines served zero-copy from mmap'd URPZ packed stores.",
          static_cast<double>(representative_packed_engines()));
  b.Gauge("useful_representative_packed_bytes",
          "Total bytes of the packed store images behind the snapshot.",
          static_cast<double>(representative_packed_bytes()));

  b.Counter("useful_cache_hits_total", "Query cache hits.", cache.hits);
  b.Counter("useful_cache_misses_total", "Query cache misses.", cache.misses);
  b.Counter("useful_cache_evictions_total", "Query cache LRU evictions.",
            cache.evictions);
  b.Counter("useful_cache_expired_generation_total",
            "Cached engine estimates swept by a scoped invalidation plus "
            "estimates refused for carrying a retired snapshot epoch.",
            cache.expired);
  b.Gauge("useful_cache_entries", "Query cache resident engine estimates.",
          static_cast<double>(cache.entries));
  b.Gauge("useful_cache_bytes", "Query cache resident bytes.",
          static_cast<double>(cache.bytes));

  b.Counter("useful_connections_opened_total",
            "Connections accepted and handed to a worker.",
            connections_opened());
  b.Counter("useful_connections_closed_total", "Connections closed.",
            conn_lifetime_.count());
  b.Counter("useful_connections_shed_total",
            "Connections shed at accept time under overload.",
            overload_sheds());
  b.Counter("useful_connections_idle_timeout_total",
            "Connections dropped for idling past the deadline.",
            idle_timeouts());
  b.Counter("useful_connections_request_timeout_total",
            "Connections dropped with a partial request pending too long.",
            request_timeouts());
  b.Counter("useful_connections_write_timeout_total",
            "Connections dropped because the peer stopped draining writes.",
            write_timeouts());
  b.Counter("useful_accept_errors_total",
            "accept() failures worth backing off for.", accept_errors());

  b.Counter("useful_epoll_wakeups_total",
            "epoll_wait returns across all reactor threads.",
            epoll_wakeups());
  b.Counter("useful_dispatches_total",
            "Request batches handed to the estimation offload pool.",
            dispatches());
  b.Counter("useful_dispatched_lines_total",
            "Request lines contained in dispatched batches.",
            dispatched_lines());
  b.Gauge("useful_dispatch_queue_depth",
          "Batches queued at the estimation offload pool, not yet "
          "picked up by a worker.",
          static_cast<double>(dispatch_queue_depth()));

  b.Gauge("useful_trace_sample_rate",
          "Trace sampling denominator (0 disables tracing).",
          static_cast<double>(sampler_.rate()));
  b.Counter("useful_traces_sampled_total",
            "Requests that carried a sampled trace.", traces_sampled());
  b.Counter("useful_slowlog_inserted_total",
            "Sampled traces retained by the slow-query log.",
            slowlog_.inserted());
  b.Counter("useful_slowlog_dropped_total",
            "Sampled traces dropped on slow-query slot contention.",
            slowlog_.dropped());

  b.Family("useful_command_requests_total",
           "Completed commands by protocol verb.", "counter");
  for (std::size_t i = 0; i < kNumCommands; ++i) {
    b.Sample("useful_command_requests_total",
             StringPrintf("command=\"%s\"",
                          CommandName(static_cast<CommandKind>(i))),
             counts_[i].load(std::memory_order_relaxed));
  }

  b.Family("useful_command_latency_seconds",
           "Service-side wall latency by protocol verb.", "histogram");
  for (std::size_t i = 0; i < kNumCommands; ++i) {
    b.HistogramSeries("useful_command_latency_seconds",
                      StringPrintf("command=\"%s\"",
                                   CommandName(static_cast<CommandKind>(i))),
                      latency_[i], bounds);
  }

  b.Family("useful_stage_latency_seconds",
           "Sampled per-stage latency of the request pipeline.",
           "histogram");
  for (std::size_t i = 0; i < obs::kNumStages; ++i) {
    b.HistogramSeries(
        "useful_stage_latency_seconds",
        StringPrintf("stage=\"%s\"",
                     obs::StageName(static_cast<obs::Stage>(i))),
        stage_latency_[i], bounds);
  }

  b.Family("useful_connection_lifetime_seconds",
           "Lifetime of closed connections.", "histogram");
  b.HistogramSeries("useful_connection_lifetime_seconds", "",
                    conn_lifetime_, bounds);

  b.Family("useful_offload_wait_seconds",
           "Queue wait of dispatched batches at the estimation offload "
           "pool.",
           "histogram");
  b.HistogramSeries("useful_offload_wait_seconds", "", offload_wait_,
                    bounds);
  return b.TakeLines();
}

std::vector<std::string> Stats::RenderSlowlog(std::size_t max_entries) const {
  std::vector<std::string> lines;
  for (const obs::SlowQueryRecord& r : slowlog_.Snapshot(max_entries)) {
    std::string stages;
    for (std::size_t i = 0; i < obs::kNumStages; ++i) {
      obs::Stage stage = static_cast<obs::Stage>(i);
      if (r.stage_micros[i] == 0) continue;
      if (!stages.empty()) stages.push_back(',');
      stages += StringPrintf(
          "%s:%llu", obs::StageName(stage),
          static_cast<unsigned long long>(r.stage_micros[i]));
    }
    if (stages.empty()) stages.push_back('-');
    // query= is last: the (already normalized) text may contain spaces,
    // and every other field is a single token.
    lines.push_back(StringPrintf(
        "total_us=%llu seq=%llu cache_hit=%d engines=%lu estimator=%s "
        "threshold=%s stages=%s query=%s",
        static_cast<unsigned long long>(r.total_micros),
        static_cast<unsigned long long>(r.sequence), r.cache_hit ? 1 : 0,
        static_cast<unsigned long>(r.engines_selected), r.estimator.c_str(),
        FormatScore(r.threshold).c_str(), stages.c_str(), r.query.c_str()));
  }
  return lines;
}

}  // namespace useful::service
