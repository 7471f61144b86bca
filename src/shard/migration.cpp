#include "shard/migration.hpp"

#include "orb/cdr.hpp"
#include "sim/kernel.hpp"

namespace vdep::shard {

namespace {
constexpr SimTime kStepRetry = msec(200);  // app-level rejection -> retry delay
constexpr int kMaxStepAttempts = 50;
}  // namespace

struct MigrationController::Job {
  bool is_split = true;
  std::uint32_t shard_id = 0;
  std::uint32_t split_point = 0;
  GroupId target;
  ShardPolicy policy;
  Done done;

  Record rec;
  ShardMap next;
  Bytes bundle;
};

MigrationController::MigrationController(net::Network& network, gcs::Daemon& daemon,
                                         sim::Kernel& kernel, ProcessId pid,
                                         NodeId host, monitor::MetricsRegistry* metrics)
    : kernel_(kernel),
      metrics_(metrics),
      process_(kernel, pid, host, "migrator@" + network.host_name(host)),
      orb_(network, process_) {
  orb_.use_transport(
      std::make_unique<replication::ClientCoordinator>(network, daemon, process_));
}

MigrationController::~MigrationController() = default;

orb::ObjectRef MigrationController::group_ref(GroupId group) const {
  orb::ObjectRef ref;
  ref.object_key = kObjectKey;
  ref.group = orb::GroupProfile{group};
  return ref;
}

void MigrationController::split(std::uint32_t shard_id, std::uint32_t split_point,
                                GroupId target_group, const ShardPolicy& policy,
                                Done done) {
  auto job = std::make_shared<Job>();
  job->is_split = true;
  job->shard_id = shard_id;
  job->split_point = split_point;
  job->target = target_group;
  job->policy = policy;
  job->done = std::move(done);
  queue_.push_back(std::move(job));
  pump();
}

void MigrationController::move(std::uint32_t shard_id, GroupId target_group,
                               Done done) {
  auto job = std::make_shared<Job>();
  job->is_split = false;
  job->shard_id = shard_id;
  job->target = target_group;
  job->done = std::move(done);
  queue_.push_back(std::move(job));
  pump();
}

void MigrationController::pump() {
  if (busy_ || queue_.empty()) return;
  busy_ = true;
  auto job = queue_.front();
  queue_.pop_front();
  run(std::move(job));
}

void MigrationController::finish(std::shared_ptr<Job> job, bool success,
                                 const std::string& error) {
  job->rec.success = success;
  job->rec.error = error;
  job->rec.finished = kernel_.now();
  if (success) bytes_moved_total_ += job->rec.bytes_moved;
  if (success && metrics_ != nullptr) {
    metrics_->add("shard.migrations");
    metrics_->add("shard.map_epoch_bumps");
    metrics_->add("shard.bytes_moved", job->rec.bytes_moved);
    metrics_->set_gauge("shard.map_epoch",
                        static_cast<double>(job->rec.committed_epoch));
  }
  if (!success && metrics_ != nullptr) metrics_->add("shard.migrations_failed");
  history_.push_back(job->rec);
  if (job->done) job->done(history_.back());
  busy_ = false;
  pump();
}

// One protocol step: send, retry on transport failure (the coordinator
// already retransmits through failovers; this guards the give-up path), and
// hand the app-level status to the continuation.
void MigrationController::step(std::shared_ptr<Job> job, const std::string& what,
                               const orb::ObjectRef& ref,
                               const std::string& operation, Bytes args,
                               std::function<void(ShardStatus, Bytes)> on_ok) {
  auto attempts = std::make_shared<int>(0);
  auto try_once = std::make_shared<std::function<void()>>();
  // The closure refers to itself only through a weak_ptr — a strong self
  // capture would cycle and leak the whole job chain. The in-flight reply
  // callback and any posted retry hold the strong reference instead.
  std::weak_ptr<std::function<void()>> weak = try_once;
  *try_once = [this, job, what, ref, operation, args, on_ok, attempts, weak] {
    auto self = weak.lock();
    ++*attempts;
    orb_.invoke(ref, operation, args,
                [this, job, what, on_ok, attempts, self](
                    orb::ReplyStatus status, Bytes body) {
                  if (status != orb::ReplyStatus::kNoException) {
                    if (*attempts >= kMaxStepAttempts) {
                      finish(job, false, what + ": no reply");
                      return;
                    }
                    kernel_.post(kStepRetry, [self] { (*self)(); });
                    return;
                  }
                  orb::CdrReader r(body);
                  const auto shard_status = static_cast<ShardStatus>(r.ulong());
                  on_ok(shard_status, std::move(body));
                });
  };
  (*try_once)();
}

void MigrationController::run(std::shared_ptr<Job> job) {
  job->rec.id = next_migration_id_++;
  job->rec.started = kernel_.now();
  job->rec.source_shard = job->shard_id;
  job->rec.to = job->target;

  // 1. Read the authoritative map and compute the successor.
  step(job, "dir.get", group_ref(kDirectoryGroup), "dir.get", {},
       [this, job](ShardStatus status, Bytes body) {
         if (status != ShardStatus::kOk) {
           finish(job, false, "dir.get: " + to_string(status));
           return;
         }
         auto reply = DirectoryServant::decode_get_reply(body);
         const ShardMap& current = reply.map;
         const ShardEntry* entry = current.find_shard(job->shard_id);
         if (entry == nullptr) {
           finish(job, false, "unknown shard " + std::to_string(job->shard_id));
           return;
         }
         if (entry->group == job->target) {
           finish(job, false, "target group already owns the shard");
           return;
         }
         job->rec.from = entry->group;
         try {
           if (job->is_split) {
             job->next = current.split(job->shard_id, job->split_point,
                                       job->target, job->policy);
             job->rec.moved = {job->split_point, entry->range.hi};
             job->rec.new_shard = current.max_shard_id() + 1;
           } else {
             job->next = current.reassign(job->shard_id, job->target);
             job->rec.moved = entry->range;
             job->rec.new_shard = job->shard_id;
           }
         } catch (const std::invalid_argument& e) {
           finish(job, false, e.what());
           return;
         }

         // 2. Freeze the moving range on the source group.
         orb::CdrWriter freeze;
         freeze.ulonglong(job->rec.id);
         freeze.ulong(job->rec.moved.lo);
         freeze.ulong(job->rec.moved.hi);
         freeze.ulonglong(job->next.epoch());
         freeze.ulonglong(job->target.value());
         step(job, "freeze", group_ref(job->rec.from), "shard.freeze",
              std::move(freeze).take(), [this, job](ShardStatus s, Bytes) {
                if (s != ShardStatus::kOk) {
                  finish(job, false, "freeze: " + to_string(s));
                  return;
                }

                // 3. Donate: the source cuts the encode-once bundle.
                orb::CdrWriter donate;
                donate.ulonglong(job->rec.id);
                step(job, "donate", group_ref(job->rec.from), "shard.donate",
                     std::move(donate).take(),
                     [this, job](ShardStatus s2, Bytes body2) {
                       if (s2 != ShardStatus::kOk) {
                         finish(job, false, "donate: " + to_string(s2));
                         return;
                       }
                       orb::CdrReader r(body2);
                       (void)r.ulong();  // status, already checked
                       job->bundle = r.octets();
                       job->rec.bytes_moved = job->bundle.size();

                       // 4. Install on the target group.
                       orb::CdrWriter install;
                       install.ulonglong(job->rec.id);
                       install.ulong(job->rec.moved.lo);
                       install.ulong(job->rec.moved.hi);
                       install.ulonglong(job->next.epoch());
                       install.octets(job->bundle);
                       step(job, "install", group_ref(job->target),
                            "shard.install", std::move(install).take(),
                            [this, job](ShardStatus s3, Bytes) {
                              if (s3 != ShardStatus::kOk) {
                                finish(job, false, "install: " + to_string(s3));
                                return;
                              }

                              // 5. Commit the successor map (AGREED within
                              // the directory group).
                              step(job, "commit",
                                   group_ref(kDirectoryGroup),
                                   "dir.commit",
                                   DirectoryServant::encode_commit(job->next),
                                   [this, job](ShardStatus s4, Bytes) {
                                     if (s4 != ShardStatus::kOk) {
                                       finish(job, false,
                                              "commit: " + to_string(s4));
                                       return;
                                     }
                                     job->rec.committed = kernel_.now();
                                     job->rec.committed_epoch = job->next.epoch();
                                     job->rec.committed_map = job->next;

                                     // 6. Release the moved keys at the source.
                                     orb::CdrWriter release;
                                     release.ulonglong(job->rec.id);
                                     step(job, "release", group_ref(job->rec.from),
                                          "shard.release",
                                          std::move(release).take(),
                                          [this, job](ShardStatus s5, Bytes) {
                                            if (s5 != ShardStatus::kOk) {
                                              finish(job, false,
                                                     "release: " + to_string(s5));
                                              return;
                                            }
                                            finish(job, true, {});
                                          });
                                   });
                            });
                     });
              });
       });
}

}  // namespace vdep::shard
