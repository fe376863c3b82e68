#include "obs/metrics_server.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/exporter.h"
#include "obs/metrics.h"

namespace rudolf {
namespace obs {
namespace {

// Minimal raw-socket HTTP client: writes `request` verbatim, reads to EOF.
// The server always closes after one response (Connection: close), so EOF
// delimits the response. Empty string on connect failure.
std::string RawRequest(int port, const std::string& request) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return "";
  }
  size_t done = 0;
  while (done < request.size()) {
    ssize_t n = send(fd, request.data() + done, request.size() - done,
                     MSG_NOSIGNAL);
    if (n <= 0) break;
    done += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  close(fd);
  return response;
}

std::string Get(int port, const std::string& path) {
  return RawRequest(port, "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n");
}

std::string BodyOf(const std::string& response) {
  size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

TEST(MetricsServerRouting, KnownEndpointsRenderUnknownDoNot) {
  MetricsRegistry registry;
  registry.GetCounter("route.ops")->Inc(9);
  MetricsServer server(&registry);

  std::string body, type;
  ASSERT_TRUE(server.RenderEndpoint("/metrics", &body, &type));
  EXPECT_NE(body.find("rudolf_route_ops 9\n"), std::string::npos);
  EXPECT_NE(type.find("version=0.0.4"), std::string::npos);

  ASSERT_TRUE(server.RenderEndpoint("/metrics.json", &body, &type));
  EXPECT_NE(body.find("\"route.ops\": 9"), std::string::npos);
  EXPECT_EQ(type, "application/json");

  ASSERT_TRUE(server.RenderEndpoint("/healthz", &body, &type));
  EXPECT_NE(body.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(body.find("\"uptime_s\":"), std::string::npos);

  ASSERT_TRUE(server.RenderEndpoint("/fleetz", &body, &type));
  EXPECT_NE(body.find("\"tenants\":"), std::string::npos);

  EXPECT_FALSE(server.RenderEndpoint("/nope", &body, &type));
  EXPECT_FALSE(server.RenderEndpoint("/", &body, &type));
}

TEST(MetricsServerRouting, FleetzTabulatesLabeledSeries) {
  MetricsRegistry registry;
  registry.GetCounter("fleet.rounds")->Inc(10);
  registry.GetTenantCounter("fleet.rounds", 1)->Inc(6);
  registry.GetTenantCounter("fleet.rounds", 2)->Inc(4);
  registry.GetTenantGauge("fleet.tenant.memory.bytes", 1)->Set(2048);
  registry.GetTenantGauge("fleet.tenant.eviction.tier", 2)->Set(2);
  registry.GetTenantHistogram("fleet.round.seconds", 1)->Record(1e-3);
  MetricsServer server(&registry);

  std::string body, type;
  ASSERT_TRUE(server.RenderEndpoint("/fleetz", &body, &type));
  EXPECT_NE(body.find("\"rounds\": 10"), std::string::npos);  // aggregate
  EXPECT_NE(body.find("\"tenant\": 1, \"rounds\": 6, \"memory_bytes\": 2048"),
            std::string::npos);
  EXPECT_NE(body.find("\"tenant\": 2, \"rounds\": 4"), std::string::npos);
  EXPECT_NE(body.find("\"eviction_tier\": 2"), std::string::npos);
  // Tenant 1's p95 comes from its labeled histogram — nonzero.
  size_t t1 = body.find("\"tenant\": 1");
  size_t p95 = body.find("\"round_p95_s\": ", t1);
  ASSERT_NE(p95, std::string::npos);
  EXPECT_NE(body.substr(p95, 32).find("0."), std::string::npos);
}

class MetricsServerHttpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    registry_.GetCounter("http.ops")->Inc(1);
    ServeOptions options;
    options.port = 0;  // ephemeral
    server_ = std::make_unique<MetricsServer>(&registry_, options);
    ASSERT_TRUE(server_->Start());
    ASSERT_GT(server_->port(), 0);
  }

  MetricsRegistry registry_;
  std::unique_ptr<MetricsServer> server_;
};

TEST_F(MetricsServerHttpTest, ServesPrometheusExposition) {
  std::string response = Get(server_->port(), "/metrics");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
  EXPECT_NE(response.find("rudolf_http_ops 1\n"), std::string::npos);
  // Content-Length matches the body exactly.
  size_t cl = response.find("Content-Length: ");
  ASSERT_NE(cl, std::string::npos);
  size_t len = std::stoul(response.substr(cl + 16));
  EXPECT_EQ(BodyOf(response).size(), len);
}

TEST_F(MetricsServerHttpTest, ServesJsonAndHealthz) {
  EXPECT_NE(Get(server_->port(), "/metrics.json").find("\"http.ops\": 1"),
            std::string::npos);
  std::string healthz = Get(server_->port(), "/healthz");
  EXPECT_NE(healthz.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(healthz.find("\"status\": \"ok\""), std::string::npos);
}

TEST_F(MetricsServerHttpTest, UnknownPathIs404) {
  EXPECT_NE(Get(server_->port(), "/no-such").find("HTTP/1.1 404"),
            std::string::npos);
}

TEST_F(MetricsServerHttpTest, QueryStringIsIgnoredForRouting) {
  EXPECT_NE(Get(server_->port(), "/metrics?debug=1").find("HTTP/1.1 200"),
            std::string::npos);
}

TEST_F(MetricsServerHttpTest, NonGetIs405) {
  std::string response = RawRequest(
      server_->port(), "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 405"), std::string::npos);
}

TEST_F(MetricsServerHttpTest, MalformedRequestsGet400) {
  EXPECT_NE(RawRequest(server_->port(), "banana\r\n\r\n")
                .find("HTTP/1.1 400"),
            std::string::npos);
  EXPECT_NE(RawRequest(server_->port(), "GET /metrics\r\n\r\n")
                .find("HTTP/1.1 400"),
            std::string::npos);
  EXPECT_NE(RawRequest(server_->port(), "GET /metrics SMTP/9\r\n\r\n")
                .find("HTTP/1.1 400"),
            std::string::npos);
  // The server survives abuse and keeps serving.
  EXPECT_NE(Get(server_->port(), "/metrics").find("HTTP/1.1 200"),
            std::string::npos);
}

TEST_F(MetricsServerHttpTest, HeadGetsHeadersOnly) {
  std::string response = RawRequest(
      server_->port(), "HEAD /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_EQ(BodyOf(response), "");
}

TEST_F(MetricsServerHttpTest, ConcurrentScrapesDuringCounterTraffic) {
  std::atomic<bool> stop{false};
  // Writer threads hammer the registry while scrapers pull snapshots — the
  // TSan preset runs this suite, so any snapshot/increment race surfaces.
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        registry_.GetCounter("http.ops")->Inc();
        registry_.GetTenantCounter("http.ops", 7)->Inc();
        registry_.GetHistogram("http.lat")->Record(1e-5);
      }
    });
  }
  std::atomic<int> ok{0};
  std::vector<std::thread> scrapers;
  for (int s = 0; s < 4; ++s) {
    scrapers.emplace_back([&] {
      for (int i = 0; i < 8; ++i) {
        std::string response = Get(server_->port(), "/metrics");
        if (response.find("HTTP/1.1 200 OK") != std::string::npos &&
            response.find("rudolf_http_ops") != std::string::npos) {
          ok.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : scrapers) t.join();
  stop.store(true);
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(ok.load(), 32);
  EXPECT_GE(server_->requests_served(), 32u);
}

TEST_F(MetricsServerHttpTest, ShutdownWhileScraping) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> scrapers;
  for (int s = 0; s < 3; ++s) {
    scrapers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        // Responses taper from 200s to connection refusals mid-loop; the
        // only requirement is no hang and no crash.
        Get(server_->port(), "/metrics");
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server_->Stop();
  stop.store(true);
  for (std::thread& t : scrapers) t.join();
  EXPECT_FALSE(server_->running());
  server_->Stop();  // idempotent
}

TEST(MetricsServerLifecycle, PortInUseFallsBackToEphemeral) {
  MetricsRegistry registry;
  ServeOptions first_options;
  first_options.port = 0;
  MetricsServer first(&registry, first_options);
  ASSERT_TRUE(first.Start());

  ServeOptions clash;
  clash.port = first.port();
  clash.fallback_to_ephemeral = true;
  MetricsServer second(&registry, clash);
  ASSERT_TRUE(second.Start());
  EXPECT_NE(second.port(), first.port());
  EXPECT_NE(Get(second.port(), "/healthz").find("HTTP/1.1 200"),
            std::string::npos);

  ServeOptions strict;
  strict.port = first.port();
  strict.fallback_to_ephemeral = false;
  MetricsServer third(&registry, strict);
  EXPECT_FALSE(third.Start());

  second.Stop();
  first.Stop();
}

TEST(MetricsServerLifecycle, StartStopStartCycles) {
  MetricsRegistry registry;
  MetricsServer server(&registry);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(server.Start());
    EXPECT_NE(Get(server.port(), "/healthz").find("200 OK"),
              std::string::npos);
    server.Stop();
  }
}

TEST(MetricsServerLifecycle, ResolveMetricsPortPrefersEnv) {
  unsetenv("RUDOLF_METRICS_PORT");
  EXPECT_EQ(ResolveMetricsPort(-1), -1);
  EXPECT_EQ(ResolveMetricsPort(9100), 9100);
  setenv("RUDOLF_METRICS_PORT", "9200", 1);
  EXPECT_EQ(ResolveMetricsPort(9100), 9200);
  EXPECT_EQ(ResolveMetricsPort(-1), 9200);
  setenv("RUDOLF_METRICS_PORT", "not-a-port", 1);
  EXPECT_EQ(ResolveMetricsPort(9100), 9100);
  setenv("RUDOLF_METRICS_PORT", "9200x", 1);  // trailing garbage
  EXPECT_EQ(ResolveMetricsPort(9100), 9100);
  setenv("RUDOLF_METRICS_PORT", "70000", 1);
  EXPECT_EQ(ResolveMetricsPort(9100), 9100);
  unsetenv("RUDOLF_METRICS_PORT");
}

}  // namespace
}  // namespace obs
}  // namespace rudolf
