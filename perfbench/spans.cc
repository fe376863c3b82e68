#include "spans.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace perfbench {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One thread's spans. The owning thread appends under `mu` (uncontended);
// Collect and Clear take it from the reading thread.
struct ThreadBuffer {
  std::mutex mu;
  uint32_t thread = 0;
  std::vector<SpanEvent> events;
};

std::mutex g_buffers_mu;
std::vector<std::shared_ptr<ThreadBuffer>>& Buffers() {
  static auto* buffers = new std::vector<std::shared_ptr<ThreadBuffer>>();
  return *buffers;
}

std::atomic<uint64_t> g_next_id{1};

struct ThreadState {
  std::shared_ptr<ThreadBuffer> buffer;
  std::vector<uint64_t> open;  // ids of the spans open on this thread
};

ThreadState& State() {
  thread_local ThreadState state;
  if (state.buffer == nullptr) {
    state.buffer = std::make_shared<ThreadBuffer>();
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    state.buffer->thread = static_cast<uint32_t>(Buffers().size());
    Buffers().push_back(state.buffer);
  }
  return state;
}

}  // namespace

SpanRecorder& SpanRecorder::Get() {
  static SpanRecorder recorder;
  return recorder;
}

std::vector<SpanEvent> SpanRecorder::Collect() {
  std::vector<SpanEvent> all;
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& buffer : Buffers()) {
    std::lock_guard<std::mutex> guard(buffer->mu);
    all.insert(all.end(), buffer->events.begin(), buffer->events.end());
  }
  return all;
}

void SpanRecorder::Clear() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& buffer : Buffers()) {
    std::lock_guard<std::mutex> guard(buffer->mu);
    buffer->events.clear();
  }
}

ScopedSpan::ScopedSpan(const char* name) : name_(name) {
  if (!SpanRecorder::Get().enabled()) return;
  ThreadState& state = State();
  active_ = true;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = state.open.empty() ? 0 : state.open.back();
  state.open.push_back(id_);
  start_ns_ = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  int64_t end_ns = NowNs();
  ThreadState& state = State();
  state.open.pop_back();
  std::lock_guard<std::mutex> guard(state.buffer->mu);
  state.buffer->events.push_back(
      SpanEvent{name_, id_, parent_, state.buffer->thread, start_ns_, end_ns});
}

std::vector<double> SelfSeconds(const std::vector<SpanEvent>& events) {
  std::unordered_map<uint64_t, size_t> index;
  for (size_t i = 0; i < events.size(); ++i) index[events[i].id] = i;
  // Children's intervals per parent, clipped to the parent.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> covered(events.size());
  for (const SpanEvent& child : events) {
    auto it = index.find(child.parent);
    if (child.parent == 0 || it == index.end()) continue;
    const SpanEvent& parent = events[it->second];
    if (parent.thread != child.thread) continue;
    int64_t lo = std::max(child.start_ns, parent.start_ns);
    int64_t hi = std::min(child.end_ns, parent.end_ns);
    if (hi > lo) covered[it->second].emplace_back(lo, hi);
  }
  std::vector<double> self(events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    auto& spans = covered[i];
    std::sort(spans.begin(), spans.end());
    int64_t union_ns = 0;
    int64_t run_lo = 0, run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : spans) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) union_ns += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) union_ns += run_hi - run_lo;
    int64_t duration = events[i].end_ns - events[i].start_ns;
    self[i] = static_cast<double>(duration - union_ns) * 1e-9;
  }
  return self;
}

std::map<std::string, LayerTotals> AggregateByName(
    const std::vector<SpanEvent>& events) {
  std::vector<double> self = SelfSeconds(events);
  std::map<std::string, LayerTotals> totals;
  for (size_t i = 0; i < events.size(); ++i) {
    LayerTotals& t = totals[events[i].name];
    ++t.count;
    t.inclusive_s +=
        static_cast<double>(events[i].end_ns - events[i].start_ns) * 1e-9;
    t.self_s += self[i];
  }
  return totals;
}

}  // namespace perfbench
