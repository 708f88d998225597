#include "sched/rank_tracker.h"

#include <algorithm>
#include <utility>

namespace icollect::sched {

RankTracker::Slot RankTracker::take_at(std::vector<Slot>& list, PosMap& pos,
                                       std::size_t i) {
  Slot out = std::move(list[i]);
  pos.erase(out.id);
  if (i + 1 != list.size()) {
    list[i] = std::move(list.back());
    pos[list[i].id] = i;
  }
  list.pop_back();
  return out;
}

void RankTracker::open_slot(Slot slot) {
  total_deficit_ += slot.deficit;
  open_pos_[slot.id] = open_.size();
  open_.push_back(std::move(slot));
}

void RankTracker::reactivate(const coding::SegmentId& id) {
  const auto it = susp_pos_.find(id);
  if (it == susp_pos_.end()) return;
  Slot slot = take_at(suspended_, susp_pos_, it->second);
  slot.streak = 0;
  // Spans drift while a segment sits suspended; give every holder a
  // fresh chance on reactivation.
  exhausted_.erase(id);
  open_slot(std::move(slot));
}

void RankTracker::on_state(const coding::SegmentId& id, std::size_t collected,
                           std::size_t segment_size) {
  if (collected >= segment_size) {
    if (const auto it = open_pos_.find(id); it != open_pos_.end()) {
      total_deficit_ -= open_[it->second].deficit;
      take_at(open_, open_pos_, it->second);
    } else if (const auto sit = susp_pos_.find(id); sit != susp_pos_.end()) {
      take_at(suspended_, susp_pos_, sit->second);
    }
    exhausted_.erase(id);
    return;
  }
  const std::size_t new_deficit = segment_size - collected;
  if (const auto it = open_pos_.find(id); it != open_pos_.end()) {
    Slot& slot = open_[it->second];
    total_deficit_ -= slot.deficit;
    total_deficit_ += new_deficit;
    slot.deficit = new_deficit;
    slot.streak = 0;
    return;
  }
  if (const auto it = susp_pos_.find(id); it != susp_pos_.end()) {
    suspended_[it->second].deficit = new_deficit;
    reactivate(id);
    return;
  }
  open_slot(Slot{id, new_deficit, 0});
}

void RankTracker::on_redundant(const coding::SegmentId& id) {
  const auto it = open_pos_.find(id);
  if (it == open_pos_.end()) return;
  Slot& slot = open_[it->second];
  if (++slot.streak >= opts_.redundant_suspend_streak) suspend(id);
}

void RankTracker::suspend(const coding::SegmentId& id) {
  const auto it = open_pos_.find(id);
  if (it == open_pos_.end()) return;
  Slot slot = take_at(open_, open_pos_, it->second);
  total_deficit_ -= slot.deficit;
  susp_pos_[slot.id] = suspended_.size();
  suspended_.push_back(std::move(slot));
}

void RankTracker::reactivate_all() {
  for (Slot& slot : suspended_) {
    slot.streak = 0;
    exhausted_.erase(slot.id);
    open_pos_[slot.id] = open_.size();
    total_deficit_ += slot.deficit;
    open_.push_back(std::move(slot));
  }
  suspended_.clear();
  susp_pos_.clear();
}

void RankTracker::mark_exhausted(std::uint64_t peer,
                                 const coding::SegmentId& id) {
  exhausted_[id].insert(peer);
}

bool RankTracker::is_exhausted(std::uint64_t peer,
                               const coding::SegmentId& id) const {
  const auto it = exhausted_.find(id);
  return it != exhausted_.end() && it->second.contains(peer);
}

std::size_t RankTracker::deficit(const coding::SegmentId& id) const {
  if (const auto it = open_pos_.find(id); it != open_pos_.end()) {
    return open_[it->second].deficit;
  }
  if (const auto it = susp_pos_.find(id); it != susp_pos_.end()) {
    return suspended_[it->second].deficit;
  }
  return 0;
}

void RankTracker::unindex_advertiser(const coding::SegmentId& id,
                                     std::uint64_t peer) {
  const auto it = advertisers_.find(id);
  std::vector<std::uint64_t>& list = it->second;
  *std::find(list.begin(), list.end(), peer) = list.back();
  list.pop_back();
  if (list.empty()) advertisers_.erase(it);
}

void RankTracker::merge_summary(std::uint64_t peer,
                                std::span<const coding::SegmentId> segments,
                                double now) {
  // Suspended segments the summary advertises reactivate in the
  // summary's order, duplicates included (a repeat finds nothing).
  for (const coding::SegmentId& id : segments) reactivate(id);

  // Diff the new report against the old one (both sorted, distinct), so
  // the index only changes where the report did.
  merge_scratch_.assign(segments.begin(), segments.end());
  std::sort(merge_scratch_.begin(), merge_scratch_.end());
  merge_scratch_.erase(
      std::unique(merge_scratch_.begin(), merge_scratch_.end()),
      merge_scratch_.end());
  PeerReport& report = peers_[peer];
  report.reported_at = now;
  const std::vector<coding::SegmentId>& old_ids = report.segments;
  auto o = old_ids.begin();
  auto n = merge_scratch_.begin();
  while (o != old_ids.end() || n != merge_scratch_.end()) {
    if (n == merge_scratch_.end() || (o != old_ids.end() && *o < *n)) {
      unindex_advertiser(*o++, peer);
    } else if (o == old_ids.end() || *n < *o) {
      advertisers_[*n++].push_back(peer);
    } else {
      ++o;
      ++n;
    }
  }
  report.segments.swap(merge_scratch_);
}

std::span<const std::uint64_t> RankTracker::advertisers(
    const coding::SegmentId& id) const {
  const auto it = advertisers_.find(id);
  if (it == advertisers_.end()) return {};
  return it->second;
}

void RankTracker::forget_peer(std::uint64_t peer) {
  const auto it = peers_.find(peer);
  if (it == peers_.end()) return;
  for (const coding::SegmentId& id : it->second.segments) {
    unindex_advertiser(id, peer);
  }
  peers_.erase(it);
}

bool RankTracker::peer_has(std::uint64_t peer, const coding::SegmentId& id,
                           double now) const {
  const auto it = peers_.find(peer);
  if (it == peers_.end()) return false;
  if (now - it->second.reported_at > opts_.staleness_bound) return false;
  return std::binary_search(it->second.segments.begin(),
                            it->second.segments.end(), id);
}

bool RankTracker::peer_fresh(std::uint64_t peer, double now) const {
  const auto it = peers_.find(peer);
  return it != peers_.end() &&
         now - it->second.reported_at <= opts_.staleness_bound;
}

}  // namespace icollect::sched
