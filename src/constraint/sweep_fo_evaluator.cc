#include "constraint/sweep_fo_evaluator.h"

#include <algorithm>
#include <map>
#include <vector>

#include "core/past_engine.h"

namespace modb {
namespace {

// Records the times at which the support changed.
class ChangeTimeRecorder : public SweepListener {
 public:
  void OnSwap(double time, ObjectId, ObjectId) override { Push(time); }
  void OnInsert(double time, ObjectId) override { Push(time); }
  void OnErase(double time, ObjectId) override { Push(time); }

  const std::vector<double>& times() const { return times_; }

 private:
  void Push(double time) {
    if (times_.empty() || time > times_.back()) times_.push_back(time);
  }
  std::vector<double> times_;
};

}  // namespace

SweepFoResult EvaluateFoQueryBySweep(const MovingObjectDatabase& mod,
                                     GDistancePtr gdist,
                                     const FoQuery& query) {
  MODB_CHECK(query.formula != nullptr);
  MODB_CHECK(!query.interval.empty());

  // Restriction check: identity time terms only.
  std::vector<Polynomial> time_terms;
  query.formula->CollectTimeTerms(&time_terms);
  for (const Polynomial& term : time_terms) {
    MODB_CHECK(term == Polynomial::Identity())
        << "EvaluateFoQueryBySweep requires identity time terms; got "
        << term.ToString();
  }

  // One sweep over the interval, with a sentinel per formula constant so
  // threshold crossings register as support changes.
  PastQueryEngine engine(mod, gdist, query.interval);
  ChangeTimeRecorder recorder;
  engine.state().AddListener(&recorder);
  std::vector<double> constants;
  query.formula->CollectConstants(&constants);
  ObjectId sentinel = -1000000;
  for (double c : constants) {
    engine.state().InsertSentinel(sentinel--, c);
  }
  engine.Run();

  // Rebuild curves and active windows for cell evaluation (the sweep state
  // drops curves of terminated objects).
  std::map<ObjectId, GCurve> curves;
  std::map<ObjectId, TimeInterval> windows;
  for (const auto& [oid, trajectory] : mod.objects()) {
    GCurve curve = gdist->Curve(trajectory);
    const TimeInterval window = curve.Domain().Intersect(query.interval);
    if (window.empty()) continue;
    windows.emplace(oid, window);
    curves.emplace(oid, std::move(curve));
  }

  const int max_var = query.formula->MaxVar();
  std::vector<ObjectId> assignment(static_cast<size_t>(max_var) + 1,
                                   kInvalidObjectId);
  SweepFoStats stats;
  stats.sweep = engine.stats();
  stats.support_changes = recorder.times().size();

  AnswerTimeline timeline(query.interval.lo);
  auto answer_at = [&](double sample) {
    std::vector<ObjectId> universe;
    for (const auto& [oid, window] : windows) {
      if (window.Contains(sample)) universe.push_back(oid);
    }
    const FoContext context = FoContext::OverCurves(&universe, &curves);
    std::set<ObjectId> answer;
    for (ObjectId candidate : universe) {
      assignment[0] = candidate;
      if (query.formula->Eval(context, &assignment, sample)) {
        answer.insert(candidate);
      }
    }
    return answer;
  };

  if (query.interval.Length() == 0.0) {
    timeline.AddSegment(query.interval, answer_at(query.interval.lo));
    ++stats.cells;
    timeline.Finish(query.interval.hi);
    return SweepFoResult{std::move(timeline), stats};
  }

  std::vector<double> edges = {query.interval.lo};
  for (double t : recorder.times()) {
    if (t > query.interval.lo && t < query.interval.hi &&
        t > edges.back() + 1e-12) {
      edges.push_back(t);
    }
  }
  edges.push_back(query.interval.hi);
  for (size_t i = 0; i + 1 < edges.size(); ++i) {
    const double lo = edges[i];
    const double hi = edges[i + 1];
    if (i > 0) {
      timeline.AddSegment(TimeInterval(lo, lo), answer_at(lo));
      ++stats.cells;
    }
    if (hi > lo) {
      timeline.AddSegment(TimeInterval(lo, hi), answer_at(0.5 * (lo + hi)));
      ++stats.cells;
    }
  }
  timeline.Finish(query.interval.hi);
  return SweepFoResult{std::move(timeline), stats};
}

}  // namespace modb
