// Heap allocations per request on the replicated request path, pinned.
//
// This binary replaces the global operator new and delete with counting
// versions, which is why it is a test binary of its own. Each case runs a
// seeded closed loop of KV requests through a replicated Scenario and counts
// the allocations made between the last reply of the warm-up and the last
// reply of the measured window. The simulation is deterministic, so that
// count is exact and pinned: a change that adds an allocation to every
// message (an encoder that grows its buffer, a kernel closure that no longer
// fits inline) moves it. Lower pins are welcome; update them on purpose.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "app/kv_store.hpp"
#include "harness/scenario.hpp"
#include "sim/event_closure.hpp"

namespace {
std::uint64_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace vdep {
namespace {

constexpr int kClients = 4;
constexpr int kKeys = 16;
constexpr int kWarmup = 200;
constexpr int kMeasured = 400;

struct Window {
  std::uint64_t allocations = 0;
  std::uint64_t closure_heap_fallbacks = 0;
  int requests = 0;
};

// Closed-loop clients with zero think time: every fifth request a put of a
// 40-byte value, the others gets, over a few keys.
class ClientLoop {
 public:
  explicit ClientLoop(harness::Scenario& scenario)
      : scenario_(scenario), ref_(scenario.object_ref()), value_(40, 'v') {}

  Window run() {
    sim::Kernel& kernel = scenario_.kernel();
    kernel.run_until(msec(300));  // boot the daemons, form the group
    for (int c = 0; c < kClients; ++c) {
      kernel.post(usec(10) * c, [this, c] { send_next(c); });
    }
    kernel.run_until(sec(600));
    return window_;
  }

 private:
  void send_next(int c) {
    const int i = sent_[static_cast<std::size_t>(c)]++;
    const std::string key = "k" + std::to_string((c * 7 + i * 13) % kKeys);
    const bool put = i % 5 == 0;
    scenario_.client_orb(c).invoke(
        ref_, put ? "put" : "get",
        put ? app::KvStoreServant::encode_put(key, value_)
            : app::KvStoreServant::encode_key(key),
        [this, c](orb::ReplyStatus status, Bytes) { on_reply(c, status); });
  }

  void on_reply(int c, orb::ReplyStatus status) {
    EXPECT_EQ(status, orb::ReplyStatus::kNoException);
    ++completed_;
    if (completed_ == kWarmup) {
      allocations_at_ = g_allocations;
      fallbacks_at_ = sim::EventClosure::heap_fallbacks();
    }
    if (completed_ == kWarmup + kMeasured) {
      window_ = {g_allocations - allocations_at_,
                 sim::EventClosure::heap_fallbacks() - fallbacks_at_, kMeasured};
      scenario_.kernel().stop();
      return;
    }
    scenario_.kernel().post(kTimeZero, [this, c] { send_next(c); });
  }

  harness::Scenario& scenario_;
  const orb::ObjectRef ref_;
  const std::string value_;
  std::vector<int> sent_ = std::vector<int>(kClients, 0);
  int completed_ = 0;
  std::uint64_t allocations_at_ = 0;
  std::uint64_t fallbacks_at_ = 0;
  Window window_;
};

Window measure(replication::ReplicationStyle style, int replicas) {
  harness::ScenarioConfig config;
  config.seed = 7;
  config.clients = kClients;
  config.replicas = replicas;
  config.max_replicas = replicas;
  config.style = style;
  config.make_servant = [](int) { return std::make_unique<app::KvStoreServant>(); };
  harness::Scenario scenario(config);
  ClientLoop loop(scenario);
  return loop.run();
}

void expect_budget(const Window& window, std::uint64_t pinned) {
  ASSERT_EQ(window.requests, kMeasured) << "the measured window did not complete";
  EXPECT_EQ(window.closure_heap_fallbacks, 0u)
      << "a kernel closure on the request path no longer fits inline";
  EXPECT_EQ(window.allocations, pinned)
      << window.allocations << " allocations in " << kMeasured << " requests, "
      << static_cast<double>(window.allocations) / kMeasured << " per request";
}

// 90.5 per request.
TEST(AllocBudget, ActiveThreeReplicas) {
  expect_budget(measure(replication::ReplicationStyle::kActive, 3), 36210);
}

// 59.8 per request, checkpoint rounds included.
TEST(AllocBudget, WarmPassiveTwoReplicas) {
  expect_budget(measure(replication::ReplicationStyle::kWarmPassive, 2), 23901);
}

}  // namespace
}  // namespace vdep
