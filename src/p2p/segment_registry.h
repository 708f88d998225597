#pragma once

/// \file segment_registry.h
/// The simulator's global bookkeeping for every injected segment,
/// stored densely: no hashing.
///
/// Segment ids are dense on both axes. Origins come from the network's
/// origin counter (0, 1, 2, ... as slots fill and churn replaces their
/// occupants), and each occupant numbers its segments 0, 1, 2, ...
/// (proto::PeerCore). So the registry is one row per origin, indexed by
/// origin, and each row a vector of entries indexed by seq − base, where
/// base is the row's first seq still held. A lookup is two indexed
/// loads.
///
/// Compaction erases entries in place: an erased entry is left as a
/// hole that no lookup, iteration or count sees, and the holes at a
/// row's front are trimmed off, so rows of segments resolved in
/// injection order give their memory back.
///
/// Iteration runs in (origin, seq) order, so it is the same for two
/// runs of the same seed.

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "coding/segment_id.h"
#include "common/assert.h"
#include "sim/simulator.h"

namespace icollect::p2p {

/// Global bookkeeping for one injected segment. Counts are 32-bit (a
/// degree is at most N·B) to keep the registry's entries small: it
/// holds one per injected segment.
struct SegmentInfo {
  sim::Time injected_at = 0.0;
  sim::Time decoded_at = 0.0;
  std::vector<std::uint32_t> original_crcs;  ///< when payloads in use
  std::uint32_t origin_slot = 0;
  std::uint32_t segment_size = 0;
  std::uint32_t degree = 0;  ///< live block copies network-wide
  std::uint32_t collected = 0;  ///< useful blocks pulled by the servers (≤ s)
  /// Dishonest slots whose replay cache holds a block of this segment.
  /// Each can re-emit it at any time, so a pinned segment is never
  /// resolved, whatever its degree.
  std::uint32_t replay_pins = 0;
  bool decoded = false;
  bool lost = false;  ///< vanished from the network before decoding
  /// No block of the segment can reach a peer or a server again: degree
  /// 0 and no replay pin. Its server decoder, integrity tags and CRCs are
  /// freed at that moment; the entry itself stays.
  bool resolved = false;
};

class SegmentRegistry {
 public:
  using value_type = std::pair<coding::SegmentId, SegmentInfo>;

  /// Forward iterator over the held entries in (origin, seq) order.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = SegmentRegistry::value_type;
    using difference_type = std::ptrdiff_t;
    using pointer = const value_type*;
    using reference = const value_type&;

    const_iterator() = default;

    reference operator*() const { return reg_->rows_[row_].entries[pos_]; }
    pointer operator->() const { return &**this; }
    const_iterator& operator++() {
      ++pos_;
      settle();
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(const const_iterator&,
                           const const_iterator&) = default;

   private:
    friend class SegmentRegistry;
    const_iterator(const SegmentRegistry* reg, std::size_t row,
                   std::size_t pos)
        : reg_{reg}, row_{row}, pos_{pos} {}

    /// Move forward to the first held entry at or after (row_, pos_).
    void settle() {
      while (row_ < reg_->rows_.size()) {
        const auto& entries = reg_->rows_[row_].entries;
        while (pos_ < entries.size() && is_hole(entries[pos_])) ++pos_;
        if (pos_ < entries.size()) return;
        ++row_;
        pos_ = 0;
      }
      pos_ = 0;
    }

    const SegmentRegistry* reg_ = nullptr;
    std::size_t row_ = 0;
    std::size_t pos_ = 0;
  };

  /// Register the next segment of its origin. Precondition: `id.seq` is
  /// the origin's next seq (every seq is registered, in order).
  SegmentInfo& emplace(const coding::SegmentId& id, SegmentInfo info) {
    ICOLLECT_EXPECTS(id.origin != kHole);
    if (id.origin >= rows_.size()) rows_.resize(std::size_t{id.origin} + 1);
    Row& row = rows_[id.origin];
    ICOLLECT_EXPECTS(id.seq == row.base + row.entries.size());
    row.entries.emplace_back(id, std::move(info));
    ++size_;
    return row.entries.back().second;
  }

  /// The entry for `id`, or nullptr if it was never registered or has
  /// been erased.
  [[nodiscard]] const SegmentInfo* get(const coding::SegmentId& id) const {
    const value_type* e = slot(id);
    return e == nullptr || is_hole(*e) ? nullptr : &e->second;
  }
  [[nodiscard]] SegmentInfo* get(const coding::SegmentId& id) {
    return const_cast<SegmentInfo*>(std::as_const(*this).get(id));
  }
  /// The entry for `id`, which must be held.
  [[nodiscard]] SegmentInfo& at(const coding::SegmentId& id) {
    SegmentInfo* info = get(id);
    ICOLLECT_ENSURES(info != nullptr);
    return *info;
  }

  [[nodiscard]] const_iterator find(const coding::SegmentId& id) const {
    if (get(id) == nullptr) return end();
    return {this, id.origin, id.seq - rows_[id.origin].base};
  }
  [[nodiscard]] bool contains(const coding::SegmentId& id) const {
    return get(id) != nullptr;
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  [[nodiscard]] const_iterator begin() const {
    const_iterator it{this, 0, 0};
    it.settle();
    return it;
  }
  [[nodiscard]] const_iterator end() const {
    return {this, rows_.size(), 0};
  }

  /// Erase every held entry for which pred(id, info) is true, visiting
  /// them in (origin, seq) order. Returns the number erased.
  template <typename Pred>
  std::size_t erase_if(Pred&& pred) {
    std::size_t erased = 0;
    for (Row& row : rows_) {
      for (value_type& e : row.entries) {
        if (is_hole(e) ||
            !pred(std::as_const(e.first), std::as_const(e.second))) {
          continue;
        }
        e.first.origin = kHole;
        e.second = SegmentInfo{};
        ++erased;
      }
      trim_front(row);
    }
    size_ -= erased;
    return erased;
  }

 private:
  /// The origin field of an erased entry; no origin counter reaches it.
  static constexpr coding::OriginId kHole = ~coding::OriginId{0};

  struct Row {
    std::uint32_t base = 0;  ///< seq of entries.front()
    std::vector<value_type> entries;
  };

  [[nodiscard]] static bool is_hole(const value_type& e) noexcept {
    return e.first.origin == kHole;
  }

  [[nodiscard]] const value_type* slot(const coding::SegmentId& id) const {
    if (id.origin >= rows_.size()) return nullptr;
    const Row& row = rows_[id.origin];
    if (id.seq < row.base) return nullptr;
    const std::size_t pos = id.seq - row.base;
    return pos < row.entries.size() ? &row.entries[pos] : nullptr;
  }

  static void trim_front(Row& row) {
    std::size_t holes = 0;
    while (holes < row.entries.size() && is_hole(row.entries[holes])) {
      ++holes;
    }
    if (holes == 0) return;
    row.base += static_cast<std::uint32_t>(holes);
    if (holes == row.entries.size()) {
      std::vector<value_type>{}.swap(row.entries);
    } else {
      row.entries.erase(row.entries.begin(),
                        row.entries.begin() +
                            static_cast<std::ptrdiff_t>(holes));
    }
  }

  std::vector<Row> rows_;
  std::size_t size_ = 0;
};

}  // namespace icollect::p2p
