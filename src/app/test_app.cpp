#include "app/test_app.hpp"

#include "orb/cdr.hpp"
#include "util/assert.hpp"

namespace vdep::app {

TestServant::TestServant(Config config)
    : config_(config), state_(filler_bytes(config.state_bytes)) {}

orb::Servant::Result TestServant::invoke(const std::string& operation,
                                         const Bytes& args) {
  Result result;
  result.cpu_time = calib::kAppProcessing;

  if (operation == "process") {
    ++counter_;
    // Deterministic state mutation: fold the payload digest into the state
    // digest and perturb a few bytes so snapshots genuinely differ.
    const std::uint64_t payload_digest = fnv1a(args);
    digest_ ^= payload_digest + 0x9e3779b97f4a7c15ULL + (digest_ << 6) + (digest_ >> 2);
    if (!state_.empty()) {
      state_[digest_ % state_.size()] ^= static_cast<std::uint8_t>(payload_digest);
      state_[counter_ % state_.size()] =
          static_cast<std::uint8_t>(digest_ >> ((counter_ % 8) * 8));
    }

    orb::CdrWriter w(config_.reply_bytes + 16);
    w.ulonglong(counter_);
    w.ulonglong(digest_);
    // Pad the reply to the configured size (response size is one of the
    // application parameters of Table 1).
    const std::size_t written = w.size();
    w.octets(filler_bytes(config_.reply_bytes > written + 4
                              ? config_.reply_bytes - written - 4
                              : 0));
    result.output = std::move(w).take();
    return result;
  }

  if (operation == "get_digest") {
    orb::CdrWriter w;
    w.ulonglong(counter_);
    w.ulonglong(digest_);
    result.output = std::move(w).take();
    return result;
  }

  result.ok = false;
  return result;
}

Bytes TestServant::snapshot() const {
  ByteWriter w(state_.size() + 24);
  w.u64(counter_);
  w.u64(digest_);
  w.bytes(state_);
  return std::move(w).take();
}

void TestServant::restore(std::span<const std::uint8_t> snapshot) {
  ByteReader r(snapshot);
  counter_ = r.u64();
  digest_ = r.u64();
  state_ = r.bytes();
}

std::size_t TestServant::state_size() const { return state_.size() + 16; }

ProcessReply ProcessReply::decode(const Bytes& body) {
  orb::CdrReader r(body);
  ProcessReply reply;
  reply.counter = r.ulonglong();
  reply.digest = r.ulonglong();
  return reply;
}

ClosedLoopClient::ClosedLoopClient(orb::ClientOrb& orb, orb::ObjectRef ref,
                                   Config config)
    : orb_(orb), ref_(std::move(ref)), config_(config) {
  VDEP_ASSERT(config_.warmup_requests <= config_.total_requests);
}

void ClosedLoopClient::start() { issue_next(); }

void ClosedLoopClient::issue_next() {
  if (done()) return;
  const SimTime sent = orb_.process().now();
  orb_.invoke(ref_, "process", filler_bytes(config_.request_bytes),
              [this, sent](orb::ReplyStatus status, Bytes /*body*/) {
                VDEP_ASSERT_MSG(status == orb::ReplyStatus::kNoException,
                                "micro-benchmark request failed");
                const SimTime now = orb_.process().now();
                ++completed_;
                last_completed_ = now;
                if (completed_ > config_.warmup_requests) {
                  if (latencies_.count() == 0) first_measured_ = sent;
                  latencies_.add(to_usec(now - sent));
                }
                if (on_complete_) on_complete_(to_usec(now - sent));
                if (completed_ == config_.warmup_requests && on_warmup_) on_warmup_();
                if (done()) {
                  if (on_done_) on_done_();
                  return;
                }
                issue_next();
              });
}

}  // namespace vdep::app
