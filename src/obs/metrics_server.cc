#include "obs/metrics_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "obs/exporter.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace rudolf {
namespace obs {

namespace {

// Requests are one GET line plus headers we ignore; anything bigger than
// this is not a scraper.
constexpr size_t kMaxRequestBytes = 8192;
// Connections queued beyond this are dropped at accept — a stuck handler
// pool must not accumulate sockets without bound.
constexpr size_t kMaxQueuedConns = 128;

void SetIoTimeouts(int fd) {
  timeval tv{};
  tv.tv_sec = 5;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

bool WriteAll(int fd, const char* data, size_t size) {
  size_t done = 0;
  while (done < size) {
    ssize_t n = send(fd, data + done, size - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;  // peer gone or timeout — nothing useful to do
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

void WriteResponse(int fd, int code, const char* reason,
                   const std::string& content_type, const std::string& body,
                   bool include_body) {
  std::string head = "HTTP/1.1 " + std::to_string(code) + " " + reason +
                     "\r\nContent-Type: " + content_type +
                     "\r\nContent-Length: " + std::to_string(body.size()) +
                     "\r\nConnection: close\r\n\r\n";
  if (!WriteAll(fd, head.data(), head.size())) return;
  if (include_body) WriteAll(fd, body.data(), body.size());
}

// The snapshot-reading helpers tolerate absent series (subsystem not
// constructed in this process) by reporting zero.
int64_t GaugeOr0(const MetricsSnapshot& snap, const std::string& name,
                 TenantLabel tenant = 0) {
  const GaugeSample* g = snap.FindGauge(name, tenant);
  return g != nullptr ? g->value : 0;
}

uint64_t CounterOr0(const MetricsSnapshot& snap, const std::string& name,
                    TenantLabel tenant = 0) {
  const CounterSample* c = snap.FindCounter(name, tenant);
  return c != nullptr ? c->value : 0;
}

void AppendDouble(std::string* out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  *out += buf;
}

}  // namespace

int ResolveMetricsPort(int requested) {
  std::optional<int64_t> port = IntFromEnv("RUDOLF_METRICS_PORT", 0, 65535);
  return port ? static_cast<int>(*port) : requested;
}

MetricsServer::MetricsServer(MetricsRegistry* registry, ServeOptions options)
    : registry_(registry), options_(std::move(options)) {}

MetricsServer::~MetricsServer() { Stop(); }

bool MetricsServer::Start() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (running_.load(std::memory_order_acquire)) return true;

  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    RUDOLF_LOG(Warning) << "metrics server: socket() failed: "
                        << std::strerror(errno);
    return false;
  }
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  if (inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    RUDOLF_LOG(Warning) << "metrics server: bad bind address '"
                        << options_.bind_address << "'";
    close(fd);
    return false;
  }
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno == EADDRINUSE && options_.fallback_to_ephemeral &&
        options_.port != 0) {
      RUDOLF_LOG(Warning) << "metrics server: port " << options_.port
                          << " in use, falling back to an ephemeral port";
      addr.sin_port = 0;
      if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        RUDOLF_LOG(Warning) << "metrics server: fallback bind failed: "
                            << std::strerror(errno);
        close(fd);
        return false;
      }
    } else {
      RUDOLF_LOG(Warning) << "metrics server: bind(" << options_.bind_address
                          << ":" << options_.port
                          << ") failed: " << std::strerror(errno);
      close(fd);
      return false;
    }
  }
  if (listen(fd, options_.backlog) != 0) {
    RUDOLF_LOG(Warning) << "metrics server: listen() failed: "
                        << std::strerror(errno);
    close(fd);
    return false;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_.store(ntohs(bound.sin_port), std::memory_order_release);
  }

  listen_fd_.store(fd, std::memory_order_release);
  start_time_ = std::chrono::steady_clock::now();
  conns_shutdown_ = false;
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  int handlers = options_.num_handlers < 1 ? 1 : options_.num_handlers;
  handlers_.reserve(static_cast<size_t>(handlers));
  for (int i = 0; i < handlers; ++i) {
    handlers_.emplace_back([this] { HandlerLoop(); });
  }
  RUDOLF_LOG(Info) << "metrics server: serving on " << options_.bind_address
                   << ":" << port();
  return true;
}

void MetricsServer::Stop() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (!running_.load(std::memory_order_acquire)) return;
  running_.store(false, std::memory_order_release);
  // Unblock accept(2); a racing in-flight accept returns with an error and
  // the loop exits on the cleared running_ flag.
  int fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    shutdown(fd, SHUT_RDWR);
    close(fd);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    conns_shutdown_ = true;
  }
  conn_cv_.notify_all();
  // Handlers drain already-accepted connections before exiting — a scrape
  // that made it in gets its response even across Stop.
  for (std::thread& t : handlers_) {
    if (t.joinable()) t.join();
  }
  handlers_.clear();
}

void MetricsServer::AcceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    int conn = accept(listen_fd_.load(std::memory_order_acquire), nullptr,
                      nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      if (!running_.load(std::memory_order_acquire)) break;
      // Transient accept failure (EMFILE etc.): drop and keep serving.
      continue;
    }
    SetIoTimeouts(conn);
    bool queued = false;
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      if (!conns_shutdown_ && conns_.size() < kMaxQueuedConns) {
        conns_.push_back(conn);
        queued = true;
      }
    }
    if (queued) {
      conn_cv_.notify_one();
    } else {
      close(conn);
    }
  }
}

void MetricsServer::HandlerLoop() {
  for (;;) {
    int conn = -1;
    {
      std::unique_lock<std::mutex> lock(conn_mu_);
      conn_cv_.wait(lock, [&] { return conns_shutdown_ || !conns_.empty(); });
      if (!conns_.empty()) {
        conn = conns_.front();
        conns_.pop_front();
      } else if (conns_shutdown_) {
        return;
      }
    }
    if (conn >= 0) {
      HandleConnection(conn);
      close(conn);
      requests_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void MetricsServer::HandleConnection(int fd) {
  std::string request;
  char buf[2048];
  while (request.size() < kMaxRequestBytes &&
         request.find("\r\n\r\n") == std::string::npos &&
         request.find("\n\n") == std::string::npos) {
    ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF or timeout
    request.append(buf, static_cast<size_t>(n));
  }

  // Request line: METHOD SP PATH SP HTTP/1.x
  size_t eol = request.find("\r\n");
  if (eol == std::string::npos) eol = request.find('\n');
  if (eol == std::string::npos) {
    WriteResponse(fd, 400, "Bad Request", "text/plain",
                  "malformed request\n", true);
    return;
  }
  std::string line = request.substr(0, eol);
  size_t sp1 = line.find(' ');
  size_t sp2 = sp1 == std::string::npos ? std::string::npos
                                        : line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos ||
      line.compare(sp2 + 1, 7, "HTTP/1.") != 0) {
    WriteResponse(fd, 400, "Bad Request", "text/plain",
                  "malformed request line\n", true);
    return;
  }
  std::string method = line.substr(0, sp1);
  std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);
  size_t query = path.find('?');
  if (query != std::string::npos) path.resize(query);

  if (method != "GET" && method != "HEAD") {
    WriteResponse(fd, 405, "Method Not Allowed", "text/plain",
                  "only GET is served here\n", true);
    return;
  }

  std::string body;
  std::string content_type;
  if (!RenderEndpoint(path, &body, &content_type)) {
    WriteResponse(fd, 404, "Not Found", "text/plain",
                  "try /metrics /metrics.json /healthz /fleetz\n",
                  method != "HEAD");
    return;
  }
  WriteResponse(fd, 200, "OK", content_type, body, method != "HEAD");
}

bool MetricsServer::RenderEndpoint(const std::string& path, std::string* body,
                                   std::string* content_type) const {
  if (path == "/metrics") {
    *body = RenderPrometheus(registry_->Snapshot());
    *content_type = "text/plain; version=0.0.4; charset=utf-8";
    return true;
  }
  if (path == "/metrics.json") {
    *body = registry_->Snapshot().ToJson() + "\n";
    *content_type = "application/json";
    return true;
  }
  if (path == "/healthz") {
    *body = HealthzJson();
    *content_type = "application/json";
    return true;
  }
  if (path == "/fleetz") {
    *body = FleetzJson();
    *content_type = "application/json";
    return true;
  }
  return false;
}

std::string MetricsServer::HealthzJson() const {
  MetricsSnapshot snap = registry_->Snapshot();
  double uptime = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start_time_)
                      .count();
  SnapshotExporter* flight = DefaultFlightRecorder();
  std::string out = "{\n  \"status\": \"ok\",\n  \"build\": {\"project\": "
                    "\"rudolf\", \"compiler\": \"" __VERSION__ "\"},\n";
  out += "  \"uptime_s\": ";
  AppendDouble(&out, uptime);
  out += ",\n  \"scheduler_width\": " +
         std::to_string(GaugeOr0(snap, "scheduler.width"));
  out += ",\n  \"serving_epoch\": " +
         std::to_string(GaugeOr0(snap, "serving.epoch"));
  out += ",\n  \"pipeline_epochs\": " +
         std::to_string(CounterOr0(snap, "pipeline.epochs"));
  out += ",\n  \"fleet_memory_bytes\": " +
         std::to_string(GaugeOr0(snap, "fleet.memory.bytes"));
  out += ",\n  \"flight_windows\": " +
         std::to_string(flight != nullptr ? flight->windows() : 0);
  out += ",\n  \"requests_served\": " +
         std::to_string(requests_.load(std::memory_order_relaxed));
  out += "\n}\n";
  return out;
}

std::string MetricsServer::FleetzJson() const {
  MetricsSnapshot snap = registry_->Snapshot();
  // Every tenant that ever completed a round has a labeled fleet.rounds
  // series; the gauges/histograms may lag (evicted, no round yet) and
  // default to zero.
  std::vector<TenantLabel> tenants;
  for (const CounterSample& c : snap.counters) {
    if (c.tenant != 0 && c.name == "fleet.rounds") tenants.push_back(c.tenant);
  }
  std::string out = "{\n  \"fleet\": {\"rounds\": " +
                    std::to_string(CounterOr0(snap, "fleet.rounds")) +
                    ", \"memory_bytes\": " +
                    std::to_string(GaugeOr0(snap, "fleet.memory.bytes")) +
                    ", \"memory_headroom_bytes\": " +
                    std::to_string(GaugeOr0(snap, "fleet.memory.headroom.bytes")) +
                    ", \"evictions\": " +
                    std::to_string(CounterOr0(snap, "fleet.memory.evictions")) +
                    "},\n  \"tenants\": [";
  for (size_t i = 0; i < tenants.size(); ++i) {
    TenantLabel t = tenants[i];
    const HistogramSample* h = snap.FindHistogram("fleet.round.seconds", t);
    out += i > 0 ? ",\n    " : "\n    ";
    out += "{\"tenant\": " + std::to_string(t) +
           ", \"rounds\": " + std::to_string(CounterOr0(snap, "fleet.rounds", t)) +
           ", \"memory_bytes\": " +
           std::to_string(GaugeOr0(snap, "fleet.tenant.memory.bytes", t)) +
           ", \"eviction_tier\": " +
           std::to_string(GaugeOr0(snap, "fleet.tenant.eviction.tier", t)) +
           ", \"round_p95_s\": ";
    AppendDouble(&out, h != nullptr ? h->ValueAtQuantile(0.95) : 0.0);
    out += "}";
  }
  out += tenants.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

}  // namespace obs
}  // namespace rudolf
