#include "gcs/membership.hpp"

#include <algorithm>
#include <set>

#include "util/assert.hpp"

namespace vdep::gcs {

std::vector<NodeId> LeaderState::member_daemons(const View& view) {
  std::vector<NodeId> daemons;
  daemons.reserve(view.members.size());
  for (const auto& m : view.members) daemons.push_back(m.daemon);
  std::sort(daemons.begin(), daemons.end());
  daemons.erase(std::unique(daemons.begin(), daemons.end()), daemons.end());
  return daemons;
}

std::optional<View> LeaderState::current_view(GroupId group) const {
  auto it = groups_.find(group);
  if (it == groups_.end() || it->second.view.view_id == 0) return std::nullopt;
  return it->second.view;
}

Ordered LeaderState::make_data(const GroupRec& rec, const Forward& fwd) const {
  Ordered o;
  o.group = fwd.group;
  o.epoch = rec.view.view_id;
  o.seq = 0;  // caller assigns
  o.kind = Ordered::Kind::kData;
  o.svc = fwd.svc;
  o.origin = fwd.origin;
  o.origin_daemon = fwd.origin_daemon;
  o.payload = fwd.payload;
  o.trace = fwd.trace;
  return o;
}

void LeaderState::order_data(GroupRec& rec, const Forward& fwd, Emissions& out) {
  Ordered o = make_data(rec, fwd);
  o.seq = rec.next_seq++;
  const auto eit = rec.epochs.find(rec.view.view_id);
  // Piggyback only the *published* watermark: stability is token-paced.
  o.stable_upto = eit != rec.epochs.end() ? eit->second.published_count : 0;
  out.push_back({member_daemons(rec.view), std::move(o)});
}

void LeaderState::install_view(GroupRec& rec, std::vector<Member> members,
                               Emissions& out) {
  // Member order is seniority (join order): survivors keep their relative
  // positions, joiners go to the back. Rank 0 — the replication layer's
  // primary — is therefore always the longest-lived member, so a restarted
  // replica rejoining under its old process id enters as the most junior
  // member instead of instantly reclaiming primaryship while it still waits
  // for its state transfer.
  std::set<NodeId> recipients;
  for (NodeId d : member_daemons(rec.view)) recipients.insert(d);

  std::uint64_t prev_epoch_end = 0;
  if (rec.view.view_id > 0) {
    // Close the outgoing epoch: it contained next_seq messages (the view at
    // seq 0 plus data 1..next_seq-1).
    auto eit = rec.epochs.find(rec.view.view_id);
    if (eit != rec.epochs.end()) {
      eit->second.end_count = rec.next_seq;
      if (eit->second.published_count >= eit->second.end_count) {
        rec.epochs.erase(eit);
      }
    }
    prev_epoch_end = rec.next_seq - 1;
  }

  View next;
  next.group = rec.view.group;
  next.view_id = rec.view.view_id + 1;
  next.members = std::move(members);

  rec.view = next;
  rec.next_seq = 1;

  EpochTrack track;
  track.daemons = member_daemons(next);
  rec.epochs[next.view_id] = std::move(track);

  for (NodeId d : member_daemons(next)) recipients.insert(d);

  Ordered o;
  o.group = next.group;
  o.epoch = next.view_id;
  o.seq = 0;
  o.kind = Ordered::Kind::kView;
  o.svc = ServiceType::kAgreed;
  o.origin = OriginId{};
  o.origin_daemon = self_;
  o.payload = next.encode();
  o.prev_epoch_end = prev_epoch_end;
  out.push_back({{recipients.begin(), recipients.end()}, std::move(o)});
}

LeaderState::Emissions LeaderState::handle_forward(const Forward& fwd) {
  Emissions out;
  // Every forward is acknowledged to its origin daemon so pending-forward
  // state can be cleared there, even when the forward itself is a duplicate
  // (the previous ack may have been lost with a dying leader).
  out.push_back({{fwd.origin_daemon}, FwdAck{fwd.group, fwd.origin}});

  auto& rec = groups_[fwd.group];
  if (rec.view.group != fwd.group) rec.view.group = fwd.group;

  switch (fwd.kind) {
    case Forward::Kind::kData: {
      auto& last = rec.last_origin[fwd.origin.sender];
      if (fwd.origin.seq <= last) return out;  // duplicate
      last = fwd.origin.seq;
      if (rec.view.members.empty()) return out;  // no members: drop
      order_data(rec, fwd, out);
      return out;
    }
    case Forward::Kind::kJoin: {
      if (rec.view.contains(fwd.origin.sender)) return out;  // idempotent
      auto members = rec.view.members;
      members.push_back(Member{fwd.origin.sender, fwd.origin_daemon});
      install_view(rec, std::move(members), out);
      return out;
    }
    case Forward::Kind::kLeave:
    case Forward::Kind::kCrash: {
      if (!rec.view.contains(fwd.origin.sender)) return out;  // idempotent
      auto members = rec.view.members;
      std::erase_if(members,
                    [&](const Member& m) { return m.process == fwd.origin.sender; });
      install_view(rec, std::move(members), out);
      // The departure ends this process's dedup scope: a later incarnation
      // rejoining under the same pid restarts its origin counter from zero,
      // and its forwards must not be mistaken for replays of the dead one.
      // Safe because the member daemon's link to the leader is FIFO — every
      // forward of the old incarnation precedes the leave/crash it reported.
      rec.last_origin.erase(fwd.origin.sender);
      return out;
    }
  }
  VDEP_ASSERT_MSG(false, "unreachable forward kind");
  return out;
}

void LeaderState::update_stability(GroupRec& rec, std::uint64_t epoch) {
  auto eit = rec.epochs.find(epoch);
  if (eit == rec.epochs.end()) return;
  EpochTrack& track = eit->second;

  std::uint64_t stable;
  if (track.daemons.empty()) {
    stable = track.end_count > 0 ? track.end_count : rec.next_seq;
  } else {
    stable = ~std::uint64_t{0};
    for (NodeId d : track.daemons) {
      auto ait = track.acked.find(d);
      stable = std::min(stable, ait == track.acked.end() ? 0 : ait->second);
    }
  }
  track.stable_count = std::max(track.stable_count, stable);
}

void LeaderState::handle_ack(const OrdAck& ack) {
  auto git = groups_.find(ack.group);
  if (git == groups_.end()) return;
  auto& rec = git->second;
  auto eit = rec.epochs.find(ack.epoch);
  if (eit == rec.epochs.end()) return;
  EpochTrack& track = eit->second;
  if (std::find(track.daemons.begin(), track.daemons.end(), ack.from) ==
      track.daemons.end()) {
    return;
  }
  auto& count = track.acked[ack.from];
  count = std::max(count, ack.seq + 1);
  update_stability(rec, ack.epoch);
}

LeaderState::Emissions LeaderState::publish_stability() {
  Emissions out;
  for (auto git = groups_.begin(); git != groups_.end(); ++git) {
    GroupRec& rec = git->second;
    for (auto eit = rec.epochs.begin(); eit != rec.epochs.end();) {
      EpochTrack& track = eit->second;
      // Open epochs with no must-ack set (empty groups) advance passively.
      update_stability(rec, eit->first);
      if (track.stable_count > track.published_count) {
        track.published_count = track.stable_count;
        if (!track.daemons.empty()) {
          out.push_back(
              {track.daemons, StableMsg{git->first, eit->first, track.published_count}});
        }
      }
      // Fully-published closed epochs need no further tracking.
      if (track.end_count > 0 && track.published_count >= track.end_count) {
        eit = rec.epochs.erase(eit);
      } else {
        ++eit;
      }
    }
  }
  return out;
}

LeaderState::Emissions LeaderState::handle_daemon_death(NodeId daemon) {
  Emissions out;
  for (auto& [group, rec] : groups_) {
    // Stop expecting acks from the dead daemon in every open epoch.
    std::vector<std::uint64_t> epochs;
    for (auto& [epoch, track] : rec.epochs) {
      if (std::erase(track.daemons, daemon) > 0) {
        track.acked.erase(daemon);
        epochs.push_back(epoch);
      }
    }
    for (std::uint64_t epoch : epochs) update_stability(rec, epoch);

    // Remove its processes from the membership.
    const bool had = std::any_of(rec.view.members.begin(), rec.view.members.end(),
                                 [daemon](const Member& m) { return m.daemon == daemon; });
    if (had) {
      auto members = rec.view.members;
      std::erase_if(members, [daemon](const Member& m) { return m.daemon == daemon; });
      install_view(rec, std::move(members), out);
    }
  }
  // Never emit to the dead daemon itself.
  for (auto& e : out) std::erase(e.dests, daemon);
  std::erase_if(out, [](const Emission& e) { return e.dests.empty(); });
  return out;
}

LeaderState::Emissions LeaderState::bootstrap(const std::vector<SyncState>& states,
                                              const std::vector<NodeId>& live_daemons) {
  VDEP_ASSERT_MSG(groups_.empty(), "bootstrap on a used LeaderState");
  Emissions out;
  const std::set<NodeId> live(live_daemons.begin(), live_daemons.end());

  // ---- collect ---------------------------------------------------------------
  struct GroupCollect {
    std::optional<View> latest_view;
    std::map<std::pair<std::uint64_t, std::uint64_t>, Ordered> buffered;
    std::map<std::uint64_t, std::map<NodeId, std::uint64_t>> acks;  // epoch->daemon->count
  };
  std::map<GroupId, GroupCollect> collect;
  std::vector<Forward> pendings;

  for (const auto& st : states) {
    for (const auto& v : st.views) {
      auto& c = collect[v.group];
      if (!c.latest_view || v.view_id > c.latest_view->view_id) c.latest_view = v;
    }
    for (const auto& o : st.buffered) {
      auto& c = collect[o.group];
      c.buffered.emplace(std::make_pair(o.epoch, o.seq), o);
      if (o.kind == Ordered::Kind::kView) {
        View v = View::decode(o.payload);
        if (!c.latest_view || v.view_id > c.latest_view->view_id) c.latest_view = v;
      }
    }
    for (const auto& a : st.acks) {
      if (!live.contains(a.from)) continue;
      auto& cur = collect[a.group].acks[a.epoch][a.from];
      cur = std::max(cur, a.seq + 1);
    }
    for (const auto& f : st.pending) pendings.push_back(f);
  }

  // ---- rebuild each group -----------------------------------------------------
  for (auto& [group, c] : collect) {
    if (!c.latest_view) continue;
    auto& rec = groups_[group];
    rec.view = *c.latest_view;

    // Reconstruct how far the latest epoch progressed.
    std::uint64_t max_count = 1;  // the view itself (seq 0)
    for (const auto& [key, o] : c.buffered) {
      if (key.first == rec.view.view_id) max_count = std::max(max_count, key.second + 1);
    }
    for (const auto& [daemon, count] : c.acks[rec.view.view_id]) {
      max_count = std::max(max_count, count);
    }
    rec.next_seq = max_count;

    // Forward dedup baseline from the surviving history.
    for (const auto& [key, o] : c.buffered) {
      if (o.kind != Ordered::Kind::kData) continue;
      auto& last = rec.last_origin[o.origin.sender];
      last = std::max(last, o.origin.seq);
    }

    // Epoch tracks: one per epoch mentioned, must-ack set = live daemons that
    // mentioned the epoch (they are the ones still delivering it).
    std::set<std::uint64_t> epochs_mentioned;
    for (const auto& [key, o] : c.buffered) epochs_mentioned.insert(key.first);
    for (const auto& [epoch, acks] : c.acks) {
      if (!acks.empty()) epochs_mentioned.insert(epoch);
    }
    for (std::uint64_t epoch : epochs_mentioned) {
      EpochTrack track;
      std::set<NodeId> mentioned;
      for (const auto& [daemon, count] : c.acks[epoch]) {
        mentioned.insert(daemon);
        track.acked[daemon] = count;
      }
      track.daemons.assign(mentioned.begin(), mentioned.end());
      rec.epochs[epoch] = std::move(track);
    }

    // Replay every surviving unstable message to the union of live daemons
    // involved with the group; receivers deduplicate.
    std::set<NodeId> recipients;
    for (NodeId d : member_daemons(rec.view)) {
      if (live.contains(d)) recipients.insert(d);
    }
    for (const auto& [epoch, track] : rec.epochs) {
      for (NodeId d : track.daemons) recipients.insert(d);
    }
    if (!recipients.empty()) {
      for (const auto& [key, o] : c.buffered) {
        out.push_back({{recipients.begin(), recipients.end()}, o});
      }
    }

    // Fresh view without processes hosted on dead daemons.
    auto members = rec.view.members;
    std::erase_if(members, [&live](const Member& m) { return !live.contains(m.daemon); });
    install_view(rec, std::move(members), out);
    for (std::uint64_t epoch : epochs_mentioned) {
      update_stability(rec, epoch);
    }
  }

  // ---- replay pending forwards -------------------------------------------------
  std::sort(pendings.begin(), pendings.end(), [](const Forward& a, const Forward& b) {
    return std::tie(a.group, a.origin.sender, a.origin.seq) <
           std::tie(b.group, b.origin.sender, b.origin.seq);
  });
  for (const auto& f : pendings) {
    Emissions e = handle_forward(f);
    out.insert(out.end(), e.begin(), e.end());
  }

  // Do not emit to dead daemons.
  for (auto& e : out) {
    std::erase_if(e.dests, [&live](NodeId d) { return !live.contains(d); });
  }
  std::erase_if(out, [](const Emission& e) { return e.dests.empty(); });
  return out;
}

}  // namespace vdep::gcs
