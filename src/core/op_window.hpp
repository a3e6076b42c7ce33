// The in-flight machinery every remote-memory primitive shares.
//
// Each primitive posts RDMA ops on a shard's channel, tracks every op
// until its response arrives, and recovers it on loss or failover. Per
// shard, PSNs are issued in increasing order, so the in-flight set is a
// window in issue order — the shape a data-plane register array holds —
// and every recovery path (replay, reclaim, expiry) walks it in that
// order without sorting anything.
//
// OpWindow<Payload> is the storage: per shard, a deque of ops in issue
// order, each with its PSN, send time, Karn `retransmitted` bit and the
// primitive's payload. Tracked PSNs are sparse (bounce-mode deposit
// WRITEs, best-effort packet-buffer WRITEs and health probes consume
// PSNs in between), so an op is found by binary search on psn_distance
// from the front entry rather than by indexing a dense ring. A finished
// op becomes a tombstone and is popped once it reaches the front.
//
// RecoveryClock is the timing: each shard's AdaptiveRto (fed by Karn's
// rule as ops complete), the fixed-or-adaptive timeout(shard), and the
// primitive's single recovery timer. A primitive with two windows (the
// packet buffer's READs and reliable WRITEs) runs both on one clock.
//
// The primitives keep only their payloads and loss policies: what a
// timeout round does, what a down transition does, what reconnect does.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "core/adaptive_rto.hpp"
#include "roce/headers.hpp"
#include "sim/simulator.hpp"

namespace xmem::core {

class RecoveryClock {
 public:
  /// `fixed_timeout` is every shard's deadline unless `rto.enabled`;
  /// `on_fire` runs when the armed timer expires.
  RecoveryClock(sim::Simulator& sim, std::size_t shards,
                const AdaptiveRtoConfig& rto, sim::Time fixed_timeout,
                std::function<void()> on_fire)
      : sim_(&sim), fixed_timeout_(fixed_timeout),
        on_fire_(std::move(on_fire)) {
    rto_.reserve(shards);
    for (std::size_t i = 0; i < shards; ++i) {
      AdaptiveRtoConfig rc = rto;
      rc.jitter_seed ^= i * 0x2545f4914f6cdd1dULL;  // per-shard jitter stream
      rto_.emplace_back(rc);
    }
  }
  RecoveryClock(const RecoveryClock&) = delete;
  RecoveryClock& operator=(const RecoveryClock&) = delete;

  [[nodiscard]] std::size_t shards() const { return rto_.size(); }
  [[nodiscard]] sim::Time now() const { return sim_->now(); }
  /// The shard's RTT estimator (meaningful only with adaptive RTO on).
  [[nodiscard]] AdaptiveRto& rto(std::size_t shard) { return rto_[shard]; }
  [[nodiscard]] const AdaptiveRto& rto(std::size_t shard) const {
    return rto_[shard];
  }

  /// The shard's deadline: its backed-off RTO when adaptive, the fixed
  /// timeout otherwise.
  [[nodiscard]] sim::Time timeout(std::size_t shard) const {
    return rto_[shard].enabled() ? rto_[shard].rto() : fixed_timeout_;
  }
  /// The earliest shard deadline.
  [[nodiscard]] sim::Time min_timeout() const {
    sim::Time t = timeout(0);
    for (std::size_t i = 1; i < rto_.size(); ++i) t = std::min(t, timeout(i));
    return t;
  }

  /// One timer serves every shard: arm it at the earliest deadline unless
  /// it is already pending, and let the handler judge each shard against
  /// its own.
  void arm() {
    if (timer_.pending()) return;
    timer_ = sim_->schedule_in(min_timeout(), [this]() { on_fire_(); });
  }

 private:
  sim::Simulator* sim_;
  std::vector<AdaptiveRto> rto_;
  sim::Time fixed_timeout_;
  std::function<void()> on_fire_;
  sim::EventId timer_;
};

template <class Payload>
class OpWindow {
 public:
  struct Op {
    roce::Psn psn;
    sim::Time sent_at = 0;
    /// Karn's rule: a response to an op that was ever retransmitted may
    /// answer either transmission, so completing it neither samples the
    /// RTO nor resets the backoff.
    bool retransmitted = false;
    Payload payload;
  };

  explicit OpWindow(RecoveryClock& clock)
      : clock_(&clock), lanes_(clock.shards()) {}

  /// Live ops on `shard`, and across all shards.
  [[nodiscard]] std::size_t size(std::size_t shard) const {
    return lanes_[shard].live;
  }
  [[nodiscard]] std::size_t size() const { return live_; }
  [[nodiscard]] bool empty() const { return live_ == 0; }

  /// Track an op just posted on `shard`, sent now. PSNs only move forward
  /// within a shard: reconnect() hands the rebuilt channel the
  /// requester's next PSN as its initial PSN.
  Op& add(std::size_t shard, roce::Psn psn, Payload payload) {
    Lane& lane = lanes_[shard];
    assert((lane.slots.empty() ||
            roce::psn_lt(lane.slots.back().op.psn, psn)) &&
           "PSNs only move forward within a shard");
    lane.slots.push_back(
        Slot{Op{psn, clock_->now(), false, std::move(payload)}, false});
    ++lane.live;
    ++live_;
    return lane.slots.back().op;
  }

  /// The live op with `psn` on `shard`, or nullptr.
  [[nodiscard]] Op* find(std::size_t shard, roce::Psn psn) {
    Slot* s = locate(lanes_[shard], psn);
    return s != nullptr ? &s->op : nullptr;
  }
  /// The shard's oldest live op, or nullptr.
  [[nodiscard]] const Op* front(std::size_t shard) const {
    const auto& slots = lanes_[shard].slots;
    return slots.empty() ? nullptr : &slots.front().op;
  }
  /// PSN of the newest op on `shard`, finished or not: bounds a later
  /// walk to what is in flight now.
  [[nodiscard]] std::optional<roce::Psn> newest(std::size_t shard) const {
    const auto& slots = lanes_[shard].slots;
    if (slots.empty()) return std::nullopt;
    return slots.back().op.psn;
  }

  /// The op was answered: stop tracking it and, unless it was ever
  /// retransmitted, feed its RTT to the shard's estimator. nullopt when
  /// no such op is in flight (a stale or duplicated response).
  std::optional<Op> complete(std::size_t shard, roce::Psn psn) {
    return take(shard, psn, /*sample=*/true);
  }
  /// The op is given up (lost, reclaimed, or finished without a usable
  /// RTT): stop tracking it, no sample.
  std::optional<Op> remove(std::size_t shard, roce::Psn psn) {
    return take(shard, psn, /*sample=*/false);
  }

  /// Visit the shard's live ops in issue order, up to and including
  /// `last`. `fn(Op&)` may complete or remove any op, post new ones, or
  /// trip a down transition whose handler does either; ops posted during
  /// the walk come after `last` and are not visited.
  template <class Fn>
  void for_each_through(std::size_t shard, std::optional<roce::Psn> last,
                        Fn&& fn) {
    if (!last) return;
    Lane& lane = lanes_[shard];
    std::size_t i = 0;
    while (i < lane.slots.size()) {
      Slot& s = lane.slots[i];
      if (roce::psn_lt(*last, s.op.psn)) return;
      if (s.done) {
        ++i;
        continue;
      }
      const roce::Psn at = s.op.psn;
      fn(s.op);
      i = first_after(lane, at);  // fn may have popped or appended
    }
  }
  /// for_each_through() bounded by what is in flight when called.
  template <class Fn>
  void for_each(std::size_t shard, Fn&& fn) {
    for_each_through(shard, newest(shard), std::forward<Fn>(fn));
  }

  /// Stop tracking every op on `shard` and hand each to `fn(Op&&)` in
  /// issue order (reclaim on failover or reconnect). Ops posted by `fn`
  /// are tracked normally and not handed back.
  template <class Fn>
  void drain(std::size_t shard, Fn&& fn) {
    std::deque<Slot> taken;
    taken.swap(lanes_[shard].slots);
    live_ -= lanes_[shard].live;
    lanes_[shard].live = 0;
    for (Slot& s : taken) {
      if (!s.done) fn(std::move(s.op));
    }
  }

  /// Per-op age expiry: stop tracking, in issue order, every op on
  /// `shard` older than the shard's timeout and hand each to
  /// `lost(Op&&)`, which may trip a down transition that reclaims the
  /// rest. If anything expired the shard's RTO backs off one step,
  /// however many ops expired, and the call returns true so the caller
  /// can report one timeout observation for the round.
  template <class Fn>
  bool expire(std::size_t shard, Fn&& lost) {
    const sim::Time now = clock_->now();
    const sim::Time timeout = clock_->timeout(shard);
    bool expired = false;
    for_each(shard, [&](Op& op) {
      if (now - op.sent_at < timeout) return;
      std::optional<Op> gone = remove(shard, op.psn);
      expired = true;
      lost(std::move(*gone));
    });
    if (expired) clock_->rto(shard).note_timeout();
    return expired;
  }

 private:
  struct Slot {
    Op op;
    bool done = false;  ///< tombstone, popped once it reaches the front
  };
  struct Lane {
    std::deque<Slot> slots;  ///< issue order; the front is always live
    std::size_t live = 0;
  };

  /// Binary search on psn_distance from the front entry.
  static Slot* locate(Lane& lane, roce::Psn psn) {
    if (lane.slots.empty()) return nullptr;
    const roce::Psn base = lane.slots.front().op.psn;
    const std::int32_t d = roce::psn_distance(base, psn);
    if (d < 0) return nullptr;
    auto it = std::partition_point(
        lane.slots.begin(), lane.slots.end(), [&](const Slot& s) {
          return roce::psn_distance(base, s.op.psn) < d;
        });
    if (it == lane.slots.end() || it->op.psn != psn || it->done) {
      return nullptr;
    }
    return &*it;
  }
  /// Index of the first entry issued after `psn`.
  static std::size_t first_after(const Lane& lane, roce::Psn psn) {
    if (lane.slots.empty()) return 0;
    const roce::Psn base = lane.slots.front().op.psn;
    const std::int32_t d = roce::psn_distance(base, psn);
    auto it = std::partition_point(
        lane.slots.begin(), lane.slots.end(), [&](const Slot& s) {
          return roce::psn_distance(base, s.op.psn) <= d;
        });
    return static_cast<std::size_t>(it - lane.slots.begin());
  }

  std::optional<Op> take(std::size_t shard, roce::Psn psn, bool sample) {
    Lane& lane = lanes_[shard];
    Slot* s = locate(lane, psn);
    if (s == nullptr) return std::nullopt;
    if (sample && !s->op.retransmitted) {
      clock_->rto(shard).sample(clock_->now() - s->op.sent_at);
    }
    std::optional<Op> out(std::move(s->op));
    s->done = true;
    --lane.live;
    --live_;
    while (!lane.slots.empty() && lane.slots.front().done) {
      lane.slots.pop_front();
    }
    return out;
  }

  RecoveryClock* clock_;
  std::vector<Lane> lanes_;
  std::size_t live_ = 0;
};

}  // namespace xmem::core
