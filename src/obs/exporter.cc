#include "obs/exporter.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <utility>

#include "util/string_util.h"

namespace rudolf {
namespace obs {

namespace {

// Every exported family gets the process prefix, so scraped series never
// collide with other jobs' generic names.
constexpr char kPrefix[] = "rudolf_";

void AppendDouble(std::string* out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  *out += buf;
}

// `{tenant="N"}` (or empty), with `extra` spliced in as the last label.
std::string LabelSet(TenantLabel tenant, const std::string& extra = "") {
  if (tenant == 0 && extra.empty()) return "";
  std::string out = "{";
  if (tenant != 0) {
    out += "tenant=\"" + std::to_string(tenant) + "\"";
    if (!extra.empty()) out += ",";
  }
  out += extra;
  out += "}";
  return out;
}

}  // namespace

std::string SanitizePrometheusName(const std::string& name) {
  std::string out;
  out.reserve(sizeof(kPrefix) + name.size());
  out += kPrefix;
  for (char c : name) {
    bool valid = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                 (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += valid ? c : '_';
  }
  return out;
}

std::string EscapePrometheusLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string RenderPrometheus(const MetricsSnapshot& snapshot) {
  // Group series into families (one # TYPE line per family, all series of
  // the family contiguous — the exposition format's ordering requirement).
  std::map<std::string, std::vector<const CounterSample*>> counter_families;
  std::map<std::string, std::vector<const GaugeSample*>> gauge_families;
  std::map<std::string, std::vector<const HistogramSample*>> histogram_families;
  for (const CounterSample& c : snapshot.counters) {
    counter_families[SanitizePrometheusName(c.name)].push_back(&c);
  }
  for (const GaugeSample& g : snapshot.gauges) {
    gauge_families[SanitizePrometheusName(g.name)].push_back(&g);
  }
  for (const HistogramSample& h : snapshot.histograms) {
    histogram_families[SanitizePrometheusName(h.name)].push_back(&h);
  }

  std::string out;
  out.reserve(4096);
  for (const auto& [family, series] : counter_families) {
    out += "# TYPE " + family + " counter\n";
    for (const CounterSample* c : series) {
      out += family + LabelSet(c->tenant) + " " +
             std::to_string(c->value) + "\n";
    }
  }
  for (const auto& [family, series] : gauge_families) {
    out += "# TYPE " + family + " gauge\n";
    for (const GaugeSample* g : series) {
      out += family + LabelSet(g->tenant) + " " +
             std::to_string(g->value) + "\n";
    }
  }
  for (const auto& [family, series] : histogram_families) {
    out += "# TYPE " + family + " histogram\n";
    for (const HistogramSample* h : series) {
      uint64_t cum = 0;
      for (size_t b = 0; b < h->buckets.size(); ++b) {
        cum += h->buckets[b];
        std::string le;
        double ub = Histogram::BucketUpperBound(b);
        if (std::isinf(ub)) {
          le = "+Inf";
        } else {
          AppendDouble(&le, ub);
        }
        out += family + "_bucket" +
               LabelSet(h->tenant, "le=\"" + le + "\"") + " " +
               std::to_string(cum) + "\n";
      }
      out += family + "_sum" + LabelSet(h->tenant) + " ";
      AppendDouble(&out, h->sum_seconds);
      out += "\n";
      out += family + "_count" + LabelSet(h->tenant) + " " +
             std::to_string(h->count) + "\n";
    }
  }
  return out;
}

namespace {

// One line per window: ToJson output with the pretty-printing undone.
// Newlines never occur inside a JSON string here (JsonEscape encodes them),
// so stripping each line's leading indentation and joining is lossless.
std::string CompactJson(const std::string& pretty) {
  std::string out;
  out.reserve(pretty.size());
  size_t i = 0;
  while (i < pretty.size()) {
    size_t eol = pretty.find('\n', i);
    if (eol == std::string::npos) eol = pretty.size();
    size_t start = i;
    while (start < eol && (pretty[start] == ' ' || pretty[start] == '\t')) {
      ++start;
    }
    out.append(pretty, start, eol - start);
    i = eol + 1;
  }
  return out;
}

}  // namespace

SnapshotExporter::SnapshotExporter(MetricsRegistry* registry,
                                   SnapshotExporterOptions options)
    : registry_(registry), options_(std::move(options)) {
  if (options_.interval_ms < 1) options_.interval_ms = 1;
  if (options_.ring_windows < 1) options_.ring_windows = 1;
}

SnapshotExporter::~SnapshotExporter() { Stop(); }

void SnapshotExporter::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (started_) return;
    started_ = true;
    stopping_ = false;
    baseline_ = registry_->Snapshot();
    start_time_ = std::chrono::steady_clock::now();
  }
  thread_ = std::thread([this] { Loop(); });
}

void SnapshotExporter::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    cv_.wait_for(lock, std::chrono::milliseconds(options_.interval_ms),
                 [&] { return stopping_; });
    if (stopping_) break;
    lock.unlock();
    Tick();
    lock.lock();
  }
}

void SnapshotExporter::Tick() {
  MetricsSnapshot now = registry_->Snapshot();
  std::lock_guard<std::mutex> lock(mu_);
  if (!started_) return;
  MetricsSnapshot delta = now.DeltaSince(baseline_);
  double uptime = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start_time_)
                      .count();
  uint64_t window = windows_.fetch_add(1, std::memory_order_relaxed);
  std::string line = "{\"window\": " + std::to_string(window) +
                     ", \"uptime_s\": ";
  AppendDouble(&line, uptime);
  line += ", \"interval_ms\": " + std::to_string(options_.interval_ms) +
          ", \"metrics\": " + CompactJson(delta.ToJson()) + "}";
  ring_.push_back(std::move(line));
  while (ring_.size() > options_.ring_windows) ring_.pop_front();
  baseline_ = std::move(now);
}

void SnapshotExporter::Stop() {
  // Concurrent Stops serialize here; the loser finds the thread already
  // joined and the ring flushed.
  std::lock_guard<std::mutex> stop_guard(stop_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  Tick();  // final partial window — the shutdown snapshot is never lost
  {
    std::lock_guard<std::mutex> lock(mu_);
    started_ = false;
  }
  if (!options_.flight_path.empty()) Flush();
}

std::vector<std::string> SnapshotExporter::Lines() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {ring_.begin(), ring_.end()};
}

bool SnapshotExporter::Flush() const {
  if (options_.flight_path.empty()) {
    std::fprintf(stderr, "warning: flight recorder has no output path\n");
    return false;
  }
  std::vector<std::string> lines = Lines();
  std::FILE* f = std::fopen(options_.flight_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write flight recorder to %s\n",
                 options_.flight_path.c_str());
    return false;
  }
  for (const std::string& line : lines) {
    std::fwrite(line.data(), 1, line.size(), f);
    std::fputc('\n', f);
  }
  std::fclose(f);
  return true;
}

// --- Default (env-armed) export path. --------------------------------------

namespace {

// Leaked like the registry: export state must survive static teardown.
std::string* g_metrics_path = nullptr;
SnapshotExporter* g_flight = nullptr;
MetricsRegistry* g_registry = nullptr;
std::atomic<bool> g_shutdown_done{false};

}  // namespace

void InitDefaultExportFromEnv(MetricsRegistry* registry) {
  // Called from inside MetricsRegistry::Default()'s initializer: everything
  // here must work off the explicit pointer, never call Default() back.
  g_registry = registry;
  const char* metrics = std::getenv("RUDOLF_METRICS");
  if (metrics != nullptr && metrics[0] != '\0') {
    g_metrics_path = new std::string(metrics);
  }
  const char* flight = std::getenv("RUDOLF_METRICS_FLIGHT");
  std::string flight_path;
  if (flight != nullptr && flight[0] != '\0') {
    flight_path = flight;
  } else if (g_metrics_path != nullptr &&
             std::getenv("RUDOLF_METRICS_INTERVAL_MS") != nullptr) {
    flight_path = *g_metrics_path + ".flight.jsonl";
  }
  if (!flight_path.empty()) {
    SnapshotExporterOptions options;
    constexpr int64_t kIntMax = std::numeric_limits<int>::max();
    options.interval_ms = static_cast<int>(
        IntFromEnv("RUDOLF_METRICS_INTERVAL_MS", 1, kIntMax).value_or(1000));
    options.ring_windows = static_cast<size_t>(
        IntFromEnv("RUDOLF_METRICS_FLIGHT_WINDOWS", 1, kIntMax).value_or(512));
    options.flight_path = std::move(flight_path);
    g_flight = new SnapshotExporter(registry, options);
    g_flight->Start();
  }
  if (g_metrics_path != nullptr || g_flight != nullptr) {
    std::atexit(ShutdownDefaultExport);
  }
}

void ShutdownDefaultExport() {
  bool expected = false;
  if (!g_shutdown_done.compare_exchange_strong(expected, true)) return;
  // Deterministic final ordering: the recorder's last window lands first,
  // then the full final snapshot — so the flight file never trails the
  // aggregate dump, and neither is written twice.
  if (g_flight != nullptr) g_flight->Stop();
  if (g_metrics_path != nullptr && g_registry != nullptr) {
    g_registry->WriteJson(*g_metrics_path);
  }
}

SnapshotExporter* DefaultFlightRecorder() { return g_flight; }

}  // namespace obs
}  // namespace rudolf
