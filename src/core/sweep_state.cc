#include "core/sweep_state.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/slot_growth.h"
#include "obs/query_cost.h"
#include "obs/trace.h"

namespace modb {
namespace {

// Tolerance for the continuity checks at chdir / query-chdir boundaries.
constexpr double kContinuityTol = 1e-6;

// Grows slot-indexed `v` to `bound` entries, new ones `fill`.
template <typename T>
void GrowSlots(std::vector<T>* v, size_t bound, const T& fill) {
  if (bound <= v->size()) return;
  ReserveSlots(v, bound);
  v->resize(bound, fill);
}

// One SweepStats column and where PublishStats charges its delta: the
// process-wide counter (null: ledger only) and the GROUP cost column.
struct PublishedColumn {
  uint64_t SweepStats::*stat;
  obs::Counter* obs::ModbMetrics::*counter;
  std::atomic<uint64_t> obs::CostCell::*cell;
};

constexpr PublishedColumn kPublishedColumns[] = {
    {&SweepStats::swaps, &obs::ModbMetrics::sweep_swaps,
     &obs::CostCell::swaps},
    {&SweepStats::inserts, &obs::ModbMetrics::sweep_inserts,
     &obs::CostCell::inserts},
    {&SweepStats::erases, &obs::ModbMetrics::sweep_erases,
     &obs::CostCell::erases},
    {&SweepStats::curve_rebuilds, &obs::ModbMetrics::sweep_curve_rebuilds,
     &obs::CostCell::curve_rebuilds},
    {&SweepStats::crossings_computed,
     &obs::ModbMetrics::sweep_crossings_computed, &obs::CostCell::crossings},
    {&SweepStats::schedules, &obs::ModbMetrics::sweep_events_scheduled,
     &obs::CostCell::schedules},
    {&SweepStats::cancels, &obs::ModbMetrics::sweep_events_cancelled,
     &obs::CostCell::cancels},
    {&SweepStats::batch_lanes, nullptr, &obs::CostCell::batch_lanes},
};

}  // namespace

SweepState::SweepState(GDistancePtr gdist, double start_time, double horizon,
                       EventQueueKind queue_kind)
    : gdist_(std::move(gdist)),
      now_(start_time),
      horizon_(horizon),
      queue_(MakeEventQueue(queue_kind)),
      metrics_(&obs::M()) {
  MODB_CHECK(gdist_ != nullptr);
  MODB_CHECK_LE(start_time, horizon);
  // Derived gauges (exact tree depth, live sizes) are refreshed through
  // the registry's shared hook point before every snapshot render, not
  // maintained on the hot path.
  refresh_hook_id_ = obs::MetricsRegistry::Global().AddRefreshHook(
      [this] { RefreshDerivedGauges(); });
}

SweepState::~SweepState() {
  PublishStats(0);
  // One last refresh so renders after teardown (the CLI's --stats path
  // dumps after the verb's server is gone) still see this sweep's final
  // values. O(1), like every refresh: nothing walks the tree.
  RefreshDerivedGauges();
  obs::MetricsRegistry::Global().RemoveRefreshHook(refresh_hook_id_);
}

void SweepState::RefreshDerivedGauges() const {
  metrics_->sweep_order_size->Set(static_cast<int64_t>(order_.size()));
  metrics_->sweep_order_depth_peak->SetMax(
      static_cast<int64_t>(order_.depth_watermark()));
  metrics_->sweep_queue_peak->SetMax(static_cast<int64_t>(queue_->size()));
}

void SweepState::PublishStats(uint64_t wall_us) {
  for (const PublishedColumn& column : kPublishedColumns) {
    const uint64_t delta = stats_.*column.stat - published_.*column.stat;
    if (delta == 0) continue;
    if (column.counter != nullptr) {
      (metrics_->*column.counter)->Increment(delta);
    }
    if (cost_ != nullptr) {
      (cost_->*column.cell).fetch_add(delta, std::memory_order_relaxed);
    }
  }
  if (cost_ != nullptr && wall_us != 0) {
    cost_->wall_micros.fetch_add(wall_us, std::memory_order_relaxed);
  }
  const uint64_t changes =
      stats_.SupportChanges() - published_.SupportChanges();
  if (changes != 0) metrics_->sweep_support_changes->Increment(changes);
  published_ = stats_;
  metrics_->sweep_queue_peak->SetMax(
      static_cast<int64_t>(stats_.max_queue_length));
  metrics_->sweep_order_depth_peak->SetMax(
      static_cast<int64_t>(order_.depth_watermark()));
  metrics_->sweep_order_size->Set(static_cast<int64_t>(order_.size()));
}

void SweepState::AddListener(SweepListener* listener) {
  MODB_CHECK(listener != nullptr);
  listeners_.push_back(listener);
}

void SweepState::RemoveListener(SweepListener* listener) {
  listeners_.erase(
      std::remove(listeners_.begin(), listeners_.end(), listener),
      listeners_.end());
}

double SweepState::EntryValue(const CurveEntry& entry, double t) const {
  // Pool evaluation is bit-identical to PiecewisePoly::Eval on the packed
  // source, so the dispatch never changes a value.
  return entry.is_pooled() ? pool_.Eval(entry.pooled, t)
                           : entry.general.Eval(t);
}

double SweepState::SlotValue(Slot slot, double t) const {
  const InEffectPiece& piece = in_effect_[slot];
  // PolySegPool::Eval reads the last segment for any t >= now: the piece.
  if (!IsWalk(piece) && t >= now_ && t <= horizon_) {
    return EvalTrimmedQuadratic(piece.c0, piece.c1, piece.c2, t);
  }
  const PolySegPool::CurveId pooled = pooled_[slot];
  return pooled != PolySegPool::kInvalidCurve ? pool_.Eval(pooled, t)
                                              : general_.at(slot).Eval(t);
}

double SweepState::CurveValue(ObjectId oid, double t) const {
  return SlotValue(order_.SlotOf(oid), t);
}

bool SweepState::HasInEffectPiece(ObjectId oid) const {
  return !IsWalk(in_effect_[order_.SlotOf(oid)]);
}

SweepState::CurveEntry SweepState::BuildEntry(ObjectId oid,
                                              const Trajectory& trajectory) {
  CurveEntry entry;
  GCurve fallback;
  // Nothing reads a curve before now_ or after horizon_.
  entry.pooled = gdist_->CurveIntoPool(
      &pool_, trajectory, TimeInterval(now_, horizon_), &fallback);
  if (!entry.is_pooled()) entry.general = std::move(fallback);
  MODB_CHECK(entry.is_pooled() ? pool_.Covers(entry.pooled, now_)
                               : entry.general.Domain().Contains(now_))
      << "curve of oid " << oid << " undefined at sweep time " << now_;
  return entry;
}

void SweepState::StoreEntry(Slot slot, CurveEntry entry) {
  StorePooled(slot, entry.pooled);
  if (!entry.is_pooled()) {
    general_.insert_or_assign(slot, std::move(entry.general));
  }
}

void SweepState::StorePooled(Slot slot, PolySegPool::CurveId pooled) {
  GrowSlots(&pooled_, order_.slot_bound(), PolySegPool::kInvalidCurve);
  GrowSlots(&in_effect_, order_.slot_bound(), kWalk);
  pooled_[slot] = pooled;
  InEffectPiece& piece = in_effect_[slot];
  if (pooled == PolySegPool::kInvalidCurve ||
      !InEffectOver(pool_, pooled, now_, horizon_, &piece)) {
    piece = kWalk;
  }
}

void SweepState::ReleaseSlot(Slot slot) {
  PolySegPool::CurveId& pooled = pooled_[slot];
  if (pooled != PolySegPool::kInvalidCurve) {
    pool_.Release(pooled);
    pooled = PolySegPool::kInvalidCurve;
  } else {
    general_.erase(slot);
  }
}

std::optional<double> SweepState::SlotFirstCrossing(Slot a, Slot b) const {
  const PolySegPool::CurveId pa = pooled_[a];
  const PolySegPool::CurveId pb = pooled_[b];
  if (pa != PolySegPool::kInvalidCurve && pb != PolySegPool::kInvalidCurve) {
    return FirstCrossingPooled(pool_, pa, pb, now_, horizon_, root_options_);
  }
  // Mixed pooled / general pair (numeric or degree > 2 g-distances): fall
  // back to the general machinery on an exact round-trip of the pooled
  // side.
  const GCurve ga = pa != PolySegPool::kInvalidCurve
                        ? GCurve::FromPoly(pool_.ToPiecewisePoly(pa))
                        : general_.at(a);
  const GCurve gb = pb != PolySegPool::kInvalidCurve
                        ? GCurve::FromPoly(pool_.ToPiecewisePoly(pb))
                        : general_.at(b);
  return GCurve::FirstTimeAbove(ga, gb, now_, horizon_, root_options_);
}

void SweepState::NoteQueueLength() {
  stats_.max_queue_length = std::max(stats_.max_queue_length, queue_->size());
}

void SweepState::CancelPair(Slot left, Slot right) {
  const ObjectId left_oid = order_.OidOf(left);
  const ObjectId right_oid = order_.OidOf(right);
  if (queue_->ErasePair(left, left_oid, right_oid)) {
    ++stats_.cancels;
    if (obs::SweepTraceDetail()) {
      obs::TraceInstant(obs::SpanName::kSweepCancel, left_oid, now_,
                        static_cast<uint64_t>(right_oid), /*coarse=*/true);
    }
  }
}

double SweepState::PairCrossing(Slot left, Slot right) const {
  const InEffectPiece& a = in_effect_[left];
  const InEffectPiece& b = in_effect_[right];
  if (!IsWalk(a) && !IsWalk(b)) {
    return FirstCrossingInEffect(a, b, now_, horizon_, root_options_);
  }
  return SlotFirstCrossing(left, right).value_or(kInf);
}

void SweepState::PushEvent(const SweepEvent& event, Slot left) {
  queue_->Push(event, left);
  ++stats_.schedules;
  if (obs::SweepTraceDetail()) {
    obs::TraceInstant(obs::SpanName::kSweepSchedule, event.left, event.time,
                      static_cast<uint64_t>(event.right), /*coarse=*/true);
  }
  NoteQueueLength();
}

void SweepState::SchedulePair(Slot left, Slot right) {
  ++stats_.crossings_computed;
  const double crossing = PairCrossing(left, right);
  if (crossing != kInf) PushEvent(PairEvent(crossing, left, right), left);
}

void SweepState::PlaceInserted(ObjectId oid, double value,
                               CurveEntry entry) {
  const Slot slot = order_.Insert(
      oid, value, [this](Slot other) { return SlotValue(other, now_); });
  StoreEntry(slot, std::move(entry));
  // The new object's neighbors were adjacent before; that pair dissolves.
  const Slot prev = order_.PrevSlot(slot);
  const Slot next = order_.NextSlot(slot);
  if (prev != kNoSlot && next != kNoSlot) CancelPair(prev, next);
  if (prev != kNoSlot) SchedulePair(prev, slot);
  if (next != kNoSlot) SchedulePair(slot, next);

  ++stats_.inserts;
  for (SweepListener* listener : listeners_) listener->OnInsert(now_, oid);
  RunPostEventHook();
}

void SweepState::InsertObject(ObjectId oid, const Trajectory& trajectory) {
  MODB_CHECK(!ContainsObject(oid)) << "oid " << oid << " already present";
  obs::TraceSpan span(obs::SpanName::kSweepInsert, oid, now_);
  CurveEntry entry = BuildEntry(oid, trajectory);
  const double value = EntryValue(entry, now_);
  PlaceInserted(oid, value, std::move(entry));
  PublishStats(span.Close());
}

void SweepState::InsertObjects(
    const std::vector<std::pair<ObjectId, const Trajectory*>>& objects) {
  if (objects.empty()) return;
  MODB_CHECK_EQ(order_.size(), sentinels_.size())
      << "InsertObjects founds a sweep: only sentinels may be resident";
  obs::TraceSpan span(obs::SpanName::kSweepInsert, obs::kTraceNoId, now_,
                      objects.size());
  constexpr uint32_t kPooled = UINT32_MAX;
  struct Placed {
    double value;
    ObjectId oid;
    PolySegPool::CurveId pooled;
    uint32_t general;  // Index into `general`, or kPooled.
  };
  std::vector<Placed> placed;
  placed.reserve(objects.size());
  std::vector<ObjectId> oids;
  oids.reserve(objects.size());
  // The few curves the pool cannot hold wait here for their slots.
  std::vector<GCurve> general;
  for (const auto& [oid, trajectory] : objects) {
    MODB_CHECK(!ContainsObject(oid)) << "oid " << oid << " already present";
    CurveEntry entry = BuildEntry(oid, *trajectory);
    placed.push_back(Placed{EntryValue(entry, now_), oid, entry.pooled,
                            kPooled});
    oids.push_back(oid);
    if (!entry.is_pooled()) {
      placed.back().general = static_cast<uint32_t>(general.size());
      general.push_back(std::move(entry.general));
    }
  }
  // Stable, so equal values keep the input's oid order: the order N
  // single inserts (ties go right) would have built.
  std::stable_sort(placed.begin(), placed.end(),
                   [](const Placed& a, const Placed& b) {
                     return a.value < b.value;
                   });
  std::vector<ObjectId> sequence;
  sequence.reserve(order_.size() + placed.size());
  size_t next = 0;
  for (const Slot sentinel : order_.ToSlots()) {
    const double threshold = SlotValue(sentinel, now_);
    while (next < placed.size() && placed[next].value <= threshold) {
      sequence.push_back(placed[next++].oid);
    }
    sequence.push_back(order_.OidOf(sentinel));
  }
  for (; next < placed.size(); ++next) sequence.push_back(placed[next].oid);
  order_.AssignSorted(sequence);
  // The new order's slots, front to back: slots[i] holds sequence[i], and
  // `placed` is `sequence` without the sentinels.
  const std::vector<Slot> slots = order_.ToSlots();
  next = 0;
  for (size_t i = 0; i < slots.size() && next < placed.size(); ++i) {
    const Placed& p = placed[next];
    if (sequence[i] != p.oid) continue;  // A sentinel.
    ++next;
    StorePooled(slots[i], p.pooled);
    if (p.general != kPooled) {
      general_.insert_or_assign(slots[i], std::move(general[p.general]));
    }
  }
  RebuildPairEvents(slots);
  stats_.inserts += oids.size();
  for (SweepListener* listener : listeners_) {
    listener->OnInsertBatch(now_, oids);
  }
  RunPostEventHook();
  PublishStats(span.Close());
}

void SweepState::InsertSentinel(ObjectId oid, double value) {
  MODB_CHECK(!ContainsObject(oid)) << "oid " << oid << " already present";
  obs::TraceSpan span(obs::SpanName::kSweepInsert, oid, now_);
  CurveEntry entry;
  entry.pooled = pool_.AddConstant(value);
  sentinels_.insert(oid);
  PlaceInserted(oid, value, std::move(entry));
  PublishStats(span.Close());
}

void SweepState::EraseObject(ObjectId oid) {
  const Slot slot = order_.FindSlot(oid);
  MODB_CHECK(slot != kNoSlot) << "oid " << oid << " not present";
  obs::TraceSpan span(obs::SpanName::kSweepErase, oid, now_);
  const Slot prev = order_.PrevSlot(slot);
  const Slot next = order_.NextSlot(slot);
  if (prev != kNoSlot) CancelPair(prev, slot);
  if (next != kNoSlot) CancelPair(slot, next);
  // The object's only pair as the left end was (oid, next), so no event
  // may still be keyed by the slot a later insert will reuse.
  MODB_CHECK(!queue_->HasKey(slot))
      << "an event is still keyed by erased oid " << oid << "'s slot";
  ReleaseSlot(slot);
  order_.Erase(slot);
  sentinels_.erase(oid);
  // The departing object's neighbors become adjacent.
  if (prev != kNoSlot && next != kNoSlot) SchedulePair(prev, next);

  ++stats_.erases;
  for (SweepListener* listener : listeners_) listener->OnErase(now_, oid);
  RunPostEventHook();
  PublishStats(span.Close());
}

void SweepState::ReplaceCurve(ObjectId oid, const Trajectory& trajectory) {
  const Slot slot = order_.FindSlot(oid);
  MODB_CHECK(slot != kNoSlot) << "oid " << oid << " not present";
  MODB_CHECK(!IsSentinel(oid)) << "cannot replace a sentinel's curve";
  obs::TraceSpan span(obs::SpanName::kSweepCurve, oid, now_);
  CurveEntry entry = BuildEntry(oid, trajectory);
  // For continuous g-distances, Definition 3's chdir leaves the value —
  // and hence the order — unchanged at the update time. The paper's
  // closing remark relaxes continuity to finitely many continuous pieces:
  // a g-distance like the interception time t_Δ² *jumps* when the speed
  // changes. No special handling is needed: rescheduling the object's
  // pair events below finds a "crossing" at now() whenever the jump broke
  // the local order, and processing those events bubbles the object to
  // its correct position through O(displacement) adjacent swaps.
  ReleaseSlot(slot);
  StoreEntry(slot, std::move(entry));

  const Slot prev = order_.PrevSlot(slot);
  const Slot next = order_.NextSlot(slot);
  if (prev != kNoSlot) CancelPair(prev, slot);
  if (next != kNoSlot) CancelPair(slot, next);
  if (prev != kNoSlot) SchedulePair(prev, slot);
  if (next != kNoSlot) SchedulePair(slot, next);

  ++stats_.curve_rebuilds;
  for (SweepListener* listener : listeners_) {
    listener->OnCurveChanged(now_, oid);
  }
  RunPostEventHook();
  PublishStats(span.Close());
}

void SweepState::ReplaceGDistance(
    GDistancePtr gdist,
    const std::function<const Trajectory*(ObjectId)>& lookup) {
  MODB_CHECK(gdist != nullptr);
  obs::TraceSpan span(obs::SpanName::kSweepRebuild, obs::kTraceNoId, now_,
                      order_.size());
  gdist_ = std::move(gdist);
  // Rebuild every curve. Values at now() must be unchanged — that is what
  // justifies keeping the order without re-sorting (Theorem 10).
  const std::vector<Slot> slots = order_.ToSlots();
  for (const Slot slot : slots) {
    const ObjectId oid = order_.OidOf(slot);
    if (sentinels_.count(oid) > 0) continue;
    const Trajectory* trajectory = lookup(oid);
    MODB_CHECK(trajectory != nullptr)
        << "ReplaceGDistance missing trajectory for oid " << oid;
#ifndef NDEBUG
    const double old_value = SlotValue(slot, now_);
#endif
    CurveEntry rebuilt = BuildEntry(oid, *trajectory);
#ifndef NDEBUG
    const double new_value = EntryValue(rebuilt, now_);
    MODB_DCHECK(std::fabs(new_value - old_value) <=
                kContinuityTol * (1.0 + std::fabs(new_value)))
        << "query-trajectory change altered a value at the update time";
#endif
    ReleaseSlot(slot);
    StoreEntry(slot, std::move(rebuilt));
    ++stats_.curve_rebuilds;
  }
  RebuildPairEvents(slots);
  RunPostEventHook();
  PublishStats(span.Close());
}

void SweepState::RebuildPairEvents(const std::vector<Slot>& slots) {
  std::vector<KeyedEvent> events;
  if (slots.size() > 1) {
    const size_t n = slots.size() - 1;
    std::vector<SlotPair> pairs(n);
    for (size_t i = 0; i < n; ++i) pairs[i] = {slots[i], slots[i + 1]};
    // One SOA pass when every curve has its in-effect piece (one cell per
    // pair, staged from the slot records in order); otherwise pair by
    // pair, as the repairs compute them.
    std::vector<double> crossings(n);
    const auto has_piece = [this](Slot slot) {
      return !IsWalk(in_effect_[slot]);
    };
    if (std::all_of(slots.begin(), slots.end(), has_piece)) {
      CrossingScratch scratch;
      FirstCrossingInEffectBatch(in_effect_.data(), pairs.data(), n, now_,
                                 horizon_, root_options_, crossings.data(),
                                 &scratch);
      stats_.batch_lanes += n;
    } else {
      for (size_t i = 0; i < n; ++i) {
        crossings[i] = PairCrossing(pairs[i].first, pairs[i].second);
      }
    }
    stats_.crossings_computed += n;
    events.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      if (crossings[i] == kInf) continue;
      const auto [left, right] = pairs[i];
      events.push_back(KeyedEvent{PairEvent(crossings[i], left, right), left});
    }
  }
  stats_.cancels += queue_->size();
  stats_.schedules += events.size();
  queue_->BulkBuild(std::move(events));
  NoteQueueLength();
}

void SweepState::ReplaceGDistance(
    GDistancePtr gdist, const std::map<ObjectId, Trajectory>& trajectories) {
  ReplaceGDistance(std::move(gdist),
                   [&trajectories](ObjectId oid) -> const Trajectory* {
                     auto it = trajectories.find(oid);
                     return it == trajectories.end() ? nullptr : &it->second;
                   });
}

std::vector<SweepEvent> SweepState::QueueSnapshot() const {
  return queue_->Snapshot();
}

std::optional<double> SweepState::PairFirstCrossing(ObjectId left,
                                                    ObjectId right) const {
  // Audit-only recomputation: const, and deliberately NOT counted in
  // stats_.crossings_computed (the benchmarks measure the sweep, not the
  // auditor re-deriving it). Same kernel dispatch as the sweep itself.
  return SlotFirstCrossing(order_.SlotOf(left), order_.SlotOf(right));
}

bool SweepState::HasEventAtOrBefore(double t) const {
  return !queue_->empty() && queue_->Min().time <= t;
}

void SweepState::ProcessEvent(const KeyedEvent& popped) {
  const SweepEvent& event = popped.event;
  const Slot left = popped.key;
  const Slot right = order_.NextSlot(left);
  // Lemma 9's invariant: queued pairs are currently adjacent.
  MODB_CHECK(order_.OidOf(left) == event.left && right != kNoSlot &&
             order_.OidOf(right) == event.right)
      << "event for non-adjacent pair";
  now_ = event.time;
  // Detail only: a fresh clock read, which also refreshes the thread's
  // coarse timestamp for the schedule/cancel instants of the repair below.
  if (obs::SweepTraceDetail()) {
    obs::TraceInstant(obs::SpanName::kSweepSwap, event.left, now_,
                      static_cast<uint64_t>(event.right));
  }

  const Slot prev = order_.PrevSlot(left);
  const Slot next = order_.NextSlot(right);
  if (prev != kNoSlot) CancelPair(prev, left);
  if (next != kNoSlot) CancelPair(right, next);

  order_.SwapAdjacent(left, right);
  ++stats_.swaps;
  for (SweepListener* listener : listeners_) {
    listener->OnSwap(now_, event.left, event.right);
  }

  // New adjacencies: (prev, right), (right, left), (left, next).
  if (prev != kNoSlot) SchedulePair(prev, right);
  SchedulePair(right, left);
  if (next != kNoSlot) SchedulePair(left, next);
  RunPostEventHook();
}

void SweepState::AdvanceTo(double t) {
  MODB_CHECK_GE(t, now_);
  MODB_CHECK_LE(t, horizon_);
  // A cascade with no due event writes no span and charges no time.
  uint64_t wall_us = 0;
  if (HasEventAtOrBefore(t)) {
    // The one trace record of a cascade, however many events it runs.
    obs::TraceSpan cascade(obs::SpanName::kSweepCascade, obs::kTraceNoId, t);
    uint64_t events = 0;
    do {
      ProcessEvent(queue_->PopMin());
      ++events;
    } while (HasEventAtOrBefore(t));
    cascade.set_arg(events);
    wall_us = cascade.Close();
  }
  now_ = t;
  PublishStats(wall_us);
}

void SweepState::CheckInvariants() const {
  order_.CheckInvariants();
  // Lemma 9: at most one event per adjacent pair.
  MODB_CHECK(queue_->size() + 1 <= order_.size() || queue_->size() == 0)
      << "queue length " << queue_->size() << " exceeds N-1 for N="
      << order_.size();
  const std::vector<Slot> slots = order_.ToSlots();
  // Each in-effect piece is its pooled curve's, bit for bit.
  for (const Slot slot : slots) {
    if (IsWalk(in_effect_[slot])) continue;
    InEffectPiece piece;
    MODB_CHECK(pooled_[slot] != PolySegPool::kInvalidCurve &&
               InEffectOver(pool_, pooled_[slot], now_, horizon_, &piece) &&
               std::memcmp(&piece, &in_effect_[slot], sizeof(piece)) == 0)
        << "stale in-effect piece for oid " << order_.OidOf(slot);
  }
  // The maintained order must agree with curve values at now(). The
  // tolerance is relative: crossing times carry ~1e-10 absolute error, so
  // two curves with steep slopes may disagree by |slope| * 1e-10 right
  // after a swap.
  for (size_t i = 0; i + 1 < slots.size(); ++i) {
    const double a = SlotValue(slots[i], now_);
    const double b = SlotValue(slots[i + 1], now_);
    MODB_CHECK(a <= b + 1e-6 * (1.0 + std::fabs(a) + std::fabs(b)))
        << "order violation at now=" << now_ << ": f(o"
        << order_.OidOf(slots[i]) << ")=" << a << " > f(o"
        << order_.OidOf(slots[i + 1]) << ")=" << b;
  }
}

}  // namespace modb
