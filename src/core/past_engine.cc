#include "core/past_engine.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "obs/modb_metrics.h"
#include "obs/trace.h"

namespace modb {

PastQueryEngine::PastQueryEngine(const MovingObjectDatabase& mod,
                                 GDistancePtr gdist, TimeInterval interval,
                                 EventQueueKind queue_kind)
    : mod_(mod), interval_(interval) {
  MODB_CHECK(!interval_.empty());
  MODB_CHECK(std::isfinite(interval_.lo) && std::isfinite(interval_.hi))
      << "past queries need a bounded interval";
  state_ = std::make_unique<SweepState>(std::move(gdist), interval_.lo,
                                        interval_.hi, queue_kind);
}

void PastQueryEngine::Run(std::optional<double> admission_threshold) {
  MODB_CHECK(!ran_) << "PastQueryEngine::Run may be called once";
  ran_ = true;
  obs::ModbMetrics& metrics = obs::M();
  metrics.past_runs->Increment();
  obs::TraceSpan span(obs::SpanName::kPastRun, obs::kTraceNoId, interval_.lo,
                      mod_.objects().size());

  // Structural replay events: creations strictly inside the interval and
  // terminations at or before the end.
  struct Structural {
    double time;
    bool is_erase;  // Inserts before erases at equal times, so an object
                    // with a zero-length lifetime is created before it dies.
    ObjectId oid;
  };
  std::vector<Structural> structural;
  std::vector<std::pair<ObjectId, const Trajectory*>> initial;
  size_t admitted = 0;
  std::optional<AdmissionScan> admission;
  if (admission_threshold.has_value()) {
    admission.emplace(state_->gdistance(), interval_, *admission_threshold);
  }

  for (const auto& [oid, trajectory] : mod_.objects()) {
    const TimeInterval life = trajectory.Domain();
    if (life.hi < interval_.lo || life.lo > interval_.hi) continue;
    if (admission.has_value() && !admission->MayReach(trajectory)) continue;
    ++admitted;
    if (life.lo <= interval_.lo) {
      initial.emplace_back(oid, &trajectory);
    } else {
      structural.push_back(Structural{life.lo, false, oid});
    }
    if (life.hi <= interval_.hi && life.hi != kInf) {
      structural.push_back(Structural{life.hi, true, oid});
    }
  }
  state_->InsertObjects(initial);
  std::sort(structural.begin(), structural.end(),
            [](const Structural& a, const Structural& b) {
              if (a.time != b.time) return a.time < b.time;
              if (a.is_erase != b.is_erase) return b.is_erase;
              return a.oid < b.oid;
            });

  for (const Structural& event : structural) {
    state_->AdvanceTo(event.time);
    if (event.is_erase) {
      state_->EraseObject(event.oid);
    } else {
      state_->InsertObject(event.oid, *mod_.Find(event.oid));
    }
  }
  state_->AdvanceTo(interval_.hi);
  metrics.past_run_support_changes->Observe(
      static_cast<double>(state_->stats().SupportChanges()));
  metrics.past_admitted_objects->Observe(static_cast<double>(admitted));
  metrics.past_run_seconds->Observe(1e-6 * span.Close());
}

}  // namespace modb
