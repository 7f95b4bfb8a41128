#include "verify/differential.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "baseline/naive.h"
#include "common/rng.h"
#include "core/future_engine.h"
#include "core/past_engine.h"
#include "gdist/builtin.h"
#include "gdist/region.h"
#include "queries/knn.h"
#include "queries/query_server.h"
#include "queries/region_queries.h"
#include "queries/within.h"
#include "workload/generator.h"

namespace modb {
namespace {

// Salts keeping the three randomness consumers (MOD layout, update stream,
// probe schedule) on independent deterministic streams of one seed.
constexpr uint64_t kStreamSeedSalt = 0x9E3779B97F4A7C15ull;
constexpr uint64_t kProbeSeedSalt = 0xBF58476D1CE4E5B9ull;
constexpr uint64_t kRegionSeedSalt = 0x94D049BB133111EBull;

// Near-tie tolerance: crossing times carry ~1e-10 absolute error, so two
// correct evaluators may resolve an object whose curve value sits within
// |slope|·1e-10 of the decision boundary differently. Relative in the
// boundary value.
constexpr double kValueTol = 1e-6;

// Membership intervals shorter than this are boundary jitter (a crossing
// found twice a few ulps apart, see docs/INTERNALS.md "Numerical policy"),
// not a real ∃/∀ disagreement.
constexpr double kFlickerTol = 1e-6;

// Cap on recorded failures; one broken invariant floods every later probe.
constexpr size_t kMaxFailures = 8;

std::string SetToString(const std::set<ObjectId>& set) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (ObjectId oid : set) {
    if (!first) out << ", ";
    out << "o" << oid;
    first = false;
  }
  out << "}";
  return out.str();
}

// Curve values of every object alive at `t`, by OID.
std::map<ObjectId, double> ValuesAt(const MovingObjectDatabase& mod,
                                    const GDistance& gdist, double t) {
  std::map<ObjectId, double> values;
  for (const auto& [oid, trajectory] : mod.objects()) {
    if (!trajectory.DefinedAt(t)) continue;
    values.emplace(oid, gdist.Curve(trajectory).Eval(t));
  }
  return values;
}

std::set<ObjectId> SymmetricDifference(const std::set<ObjectId>& a,
                                       const std::set<ObjectId>& b) {
  std::set<ObjectId> diff;
  std::set_symmetric_difference(a.begin(), a.end(), b.begin(), b.end(),
                                std::inserter(diff, diff.begin()));
  return diff;
}

// Every object the two answers disagree on must sit within kValueTol of
// `boundary` — a tie both resolutions are valid answers for. Anything
// farther from the boundary is a genuine mismatch.
bool DisagreementIsNearTie(const std::map<ObjectId, double>& values,
                           const std::set<ObjectId>& diff, double boundary,
                           std::string* why) {
  for (ObjectId oid : diff) {
    auto it = values.find(oid);
    if (it == values.end()) {
      *why = "o" + std::to_string(oid) + " is not alive at the probe time";
      return false;
    }
    if (std::fabs(it->second - boundary) >
        kValueTol * (1.0 + std::fabs(boundary))) {
      std::ostringstream out;
      out << "o" << oid << " has value " << it->second
          << ", not a near-tie with boundary " << boundary;
      *why = out.str();
      return false;
    }
  }
  return true;
}

bool KnnAnswersAgree(const MovingObjectDatabase& mod, const GDistance& gdist,
                     size_t k, double t, const std::set<ObjectId>& a,
                     const std::set<ObjectId>& b, std::string* why) {
  if (a == b) return true;
  const std::map<ObjectId, double> values = ValuesAt(mod, gdist, t);
  const size_t expected = std::min(k, values.size());
  if (a.size() != expected || b.size() != expected) {
    std::ostringstream out;
    out << "sizes " << a.size() << " vs " << b.size() << " (expected "
        << expected << "): " << SetToString(a) << " vs " << SetToString(b);
    *why = out.str();
    return false;
  }
  if (expected == 0) return true;
  std::vector<double> sorted;
  sorted.reserve(values.size());
  for (const auto& [oid, value] : values) sorted.push_back(value);
  std::sort(sorted.begin(), sorted.end());
  const double boundary = sorted[expected - 1];
  if (!DisagreementIsNearTie(values, SymmetricDifference(a, b), boundary,
                             why)) {
    *why += ": " + SetToString(a) + " vs " + SetToString(b);
    return false;
  }
  return true;
}

bool WithinAnswersAgree(const MovingObjectDatabase& mod,
                        const GDistance& gdist, double threshold, double t,
                        const std::set<ObjectId>& a,
                        const std::set<ObjectId>& b, std::string* why) {
  if (a == b) return true;
  const std::map<ObjectId, double> values = ValuesAt(mod, gdist, t);
  if (!DisagreementIsNearTie(values, SymmetricDifference(a, b), threshold,
                             why)) {
    *why += ": " + SetToString(a) + " vs " + SetToString(b);
    return false;
  }
  return true;
}

// Total time `oid` spends in the timeline's answer.
double MembershipDuration(const AnswerTimeline& timeline, ObjectId oid) {
  double total = 0.0;
  for (const AnswerTimeline::Segment& segment : timeline.segments()) {
    if (segment.answer.count(oid) > 0) total += segment.interval.Length();
  }
  return total;
}

double TimelineSpan(const AnswerTimeline& timeline) {
  if (timeline.segments().empty()) return 0.0;
  return timeline.segments().back().interval.hi -
         timeline.segments().front().interval.lo;
}

}  // namespace

std::string FuzzFailure::ToString() const {
  std::ostringstream out;
  out << "t=" << time << ": " << what;
  return out.str();
}

std::string FuzzResult::ToString() const {
  std::ostringstream out;
  out << (ok() ? "ok" : "FAILED") << " (" << probes << " snapshot probes, "
      << timeline_probes << " timeline probes, " << audits << " audits";
  if (!ok()) out << ", " << failures.size() << " failure(s)";
  out << ")";
  for (const FuzzFailure& failure : failures) {
    out << "\n  " << failure.ToString();
  }
  return out.str();
}

FuzzResult RunDifferential(const FuzzOptions& options) {
  FuzzResult result;
  auto fail = [&result](double time, std::string what) {
    if (result.failures.size() < kMaxFailures) {
      result.failures.push_back(FuzzFailure{std::move(what), time});
    }
  };

  RandomModOptions mod_options;
  mod_options.num_objects = std::max<size_t>(1, options.num_objects);
  mod_options.dim = 2;
  mod_options.box_lo = -options.box;
  mod_options.box_hi = options.box;
  mod_options.speed_min = 1.0;
  mod_options.speed_max = std::max(1.0, options.speed_max);
  mod_options.seed = options.seed;

  UpdateStreamOptions stream_options;
  stream_options.count = options.num_updates;
  stream_options.mean_gap = options.mean_gap;
  stream_options.seed = options.seed ^ kStreamSeedSalt;

  const MovingObjectDatabase initial = RandomMod(mod_options);
  const std::vector<Update> updates =
      options.num_updates == 0
          ? std::vector<Update>{}
          : RandomUpdateStream(initial, mod_options, stream_options);

  // A randomized *moving* query point: exercises multi-piece query curves
  // in every engine, not just distances to a fixed origin.
  Rng probe_rng(options.seed ^ kProbeSeedSalt);
  const Trajectory query = Trajectory::Linear(
      0.0, RandomPoint(probe_rng, 2, -0.5 * options.box, 0.5 * options.box),
      RandomVelocity(probe_rng, 2, 0.5,
                     std::max(1.0, 0.5 * mod_options.speed_max)));
  const GDistancePtr gdist =
      std::make_shared<SquaredEuclideanGDistance>(query);

  // Lane 1: a raw FutureQueryEngine with one k-NN and one within kernel,
  // over its own copy of the database.
  MovingObjectDatabase future_mod = initial;
  FutureQueryEngine future(future_mod, gdist, 0.0);
  KnnKernel future_knn(&future.state(), options.k);
  WithinKernel future_within(&future.state(), /*sentinel_oid=*/-7,
                             options.within_threshold);
  std::unique_ptr<AuditingObserver> future_audit;
  if (options.audit) {
    future_audit =
        std::make_unique<AuditingObserver>(&future.state(), &future.mod());
  }
  future.Start();

  // Lane 2: the QueryServer, whose two queries share one sweep.
  QueryServer server(initial, 0.0);
  const QueryId server_knn = server.AddKnn("fuzz", gdist, options.k);
  const QueryId server_within =
      server.AddWithin("fuzz", gdist, options.within_threshold);
  std::vector<std::unique_ptr<AuditingObserver>> server_audits;
  if (options.audit) {
    server.VisitEngines([&](const std::string&, FutureQueryEngine& engine) {
      server_audits.push_back(std::make_unique<AuditingObserver>(
          &engine.state(), &engine.mod()));
    });
  }

  // The truth: a mirror database evaluated from scratch at every probe.
  MovingObjectDatabase mirror = initial;

  auto probe_at = [&](double t) {
    ++result.probes;
    future.AdvanceTo(t);
    server.AdvanceTo(t);
    const std::set<ObjectId> knn_truth =
        SnapshotKnn(mirror, *gdist, options.k, t);
    const std::set<ObjectId> within_truth =
        SnapshotWithin(mirror, *gdist, options.within_threshold, t);
    std::string why;
    if (!KnnAnswersAgree(mirror, *gdist, options.k, t, future_knn.Current(),
                         knn_truth, &why)) {
      fail(t, "future-engine knn mismatch: " + why);
    }
    if (!WithinAnswersAgree(mirror, *gdist, options.within_threshold, t,
                            future_within.Current(), within_truth, &why)) {
      fail(t, "future-engine within mismatch: " + why);
    }
    if (!KnnAnswersAgree(mirror, *gdist, options.k, t,
                         server.Answer(server_knn), knn_truth, &why)) {
      fail(t, "query-server knn mismatch: " + why);
    }
    if (!WithinAnswersAgree(mirror, *gdist, options.within_threshold, t,
                            server.Answer(server_within), within_truth,
                            &why)) {
      fail(t, "query-server within mismatch: " + why);
    }
  };

  const size_t stride = std::max<size_t>(
      1, (updates.size() + 1) / std::max<size_t>(1, options.num_probes));

  bool replay_ok = true;
  double now = 0.0;
  for (size_t i = 0; i < updates.size() && replay_ok; ++i) {
    const Update& update = updates[i];
    if (i % stride == 0 && update.time > now) {
      probe_at(now + probe_rng.Uniform(0.05, 0.95) * (update.time - now));
    }
    const Status future_status = future.ApplyUpdate(future_mod, update);
    if (!future_status.ok()) {
      fail(update.time,
           "future engine rejected update: " + future_status.ToString());
      replay_ok = false;
      break;
    }
    const Status server_status = server.ApplyUpdate(update);
    if (!server_status.ok()) {
      fail(update.time,
           "query server rejected update: " + server_status.ToString());
      replay_ok = false;
      break;
    }
    const Status mirror_status = mirror.Apply(update);
    if (!mirror_status.ok()) {
      fail(update.time,
           "mirror rejected update: " + mirror_status.ToString());
      replay_ok = false;
      break;
    }
    now = update.time;
  }

  const double end = now + std::max(1.0, 4.0 * options.mean_gap);
  if (replay_ok) {
    probe_at(now + probe_rng.Uniform(0.1, 0.9) * (end - now));
    future.AdvanceTo(end);
    server.AdvanceTo(end);
    future_knn.timeline().Finish(end);
    future_within.timeline().Finish(end);

    // Lane 3: a PastQueryEngine sweeping the recorded history once — the
    // paper's claim that past evaluation and view maintenance are one
    // algorithm means its timeline must agree with the future engine's.
    PastQueryEngine past(mirror, gdist, TimeInterval(0.0, end));
    KnnKernel past_knn(&past.state(), options.k);
    WithinKernel past_within(&past.state(), /*sentinel_oid=*/-7,
                             options.within_threshold);
    std::unique_ptr<AuditingObserver> past_audit;
    if (options.audit) {
      past_audit =
          std::make_unique<AuditingObserver>(&past.state(), &mirror);
    }
    past.Run();
    past_knn.timeline().Finish(end);
    past_within.timeline().Finish(end);

    // The oracle: full Θ(N²) cell decomposition over the same interval.
    const TimeInterval window(0.0, end);
    const NaiveResult naive_knn =
        NaiveKnnTimeline(mirror, *gdist, options.k, window);
    const NaiveResult naive_within = NaiveWithinTimeline(
        mirror, *gdist, options.within_threshold, window);

    // Lane 3 shares one engine with a k-NN kernel, so it admits every
    // object. The standalone one-shot paths admit only the objects
    // GDistance::MayReach lets through: PastWithin with the Euclidean
    // g-distance, and InsideRegionTimeline around a seeded rectangle.
    const AnswerTimeline pruned_within =
        PastWithin(mirror, gdist, options.within_threshold, window);
    Rng region_rng(options.seed ^ kRegionSeedSalt);
    const double region_x = region_rng.Uniform(-0.5, 0.25) * options.box;
    const double region_y = region_rng.Uniform(-0.5, 0.25) * options.box;
    const ConvexPolygon region = ConvexPolygon::Rectangle(
        region_x, region_y,
        region_x + region_rng.Uniform(0.05, 0.25) * options.box,
        region_y + region_rng.Uniform(0.05, 0.25) * options.box);
    const RegionGDistance region_gdist(region);
    const AnswerTimeline pruned_region =
        InsideRegionTimeline(mirror, region, window);
    const NaiveResult naive_region =
        NaiveWithinTimeline(mirror, region_gdist, 0.0, window);

    for (size_t i = 0; i < options.num_probes; ++i) {
      const double t = probe_rng.Uniform(0.0, end);
      ++result.timeline_probes;
      std::string why;
      const std::set<ObjectId> oracle_knn = naive_knn.timeline.AnswerAt(t);
      if (!KnnAnswersAgree(mirror, *gdist, options.k, t,
                           past_knn.timeline().AnswerAt(t), oracle_knn,
                           &why)) {
        fail(t, "past-engine vs naive knn mismatch: " + why);
      }
      if (!KnnAnswersAgree(mirror, *gdist, options.k, t,
                           future_knn.timeline().AnswerAt(t), oracle_knn,
                           &why)) {
        fail(t, "future-timeline vs naive knn mismatch: " + why);
      }
      const std::set<ObjectId> oracle_within =
          naive_within.timeline.AnswerAt(t);
      if (!WithinAnswersAgree(mirror, *gdist, options.within_threshold, t,
                              past_within.timeline().AnswerAt(t),
                              oracle_within, &why)) {
        fail(t, "past-engine vs naive within mismatch: " + why);
      }
      if (!WithinAnswersAgree(mirror, *gdist, options.within_threshold, t,
                              future_within.timeline().AnswerAt(t),
                              oracle_within, &why)) {
        fail(t, "future-timeline vs naive within mismatch: " + why);
      }
      if (!WithinAnswersAgree(mirror, *gdist, options.within_threshold, t,
                              pruned_within.AnswerAt(t), oracle_within,
                              &why)) {
        fail(t, "pruned past-within vs naive mismatch: " + why);
      }
      if (!WithinAnswersAgree(mirror, region_gdist, 0.0, t,
                              pruned_region.AnswerAt(t),
                              naive_region.timeline.AnswerAt(t), &why)) {
        fail(t, "pruned inside-region vs naive mismatch: " + why);
      }
    }

    // Q^∃ / Q^∀ folds: an object may only differ if its membership (for ∃)
    // or absence (for ∀) is a sub-tolerance flicker.
    auto compare_folds = [&](const char* label, const AnswerTimeline& sweep,
                             const AnswerTimeline& oracle) {
      for (ObjectId oid : SymmetricDifference(sweep.Existential(),
                                              oracle.Existential())) {
        const AnswerTimeline& holder =
            sweep.Existential().count(oid) > 0 ? sweep : oracle;
        if (MembershipDuration(holder, oid) > kFlickerTol) {
          fail(end, std::string(label) + " existential mismatch on o" +
                        std::to_string(oid));
        }
      }
      for (ObjectId oid :
           SymmetricDifference(sweep.Universal(), oracle.Universal())) {
        const AnswerTimeline& denier =
            sweep.Universal().count(oid) > 0 ? oracle : sweep;
        const double absence =
            TimelineSpan(denier) - MembershipDuration(denier, oid);
        if (absence > kFlickerTol) {
          fail(end, std::string(label) + " universal mismatch on o" +
                        std::to_string(oid));
        }
      }
    };
    compare_folds("past-knn", past_knn.timeline(), naive_knn.timeline);
    compare_folds("past-within", past_within.timeline(),
                  naive_within.timeline);
    compare_folds("future-knn", future_knn.timeline(), naive_knn.timeline);
    compare_folds("future-within", future_within.timeline(),
                  naive_within.timeline);
    compare_folds("pruned-past-within", pruned_within, naive_within.timeline);
    compare_folds("pruned-inside-region", pruned_region,
                  naive_region.timeline);

    if (past_audit != nullptr) {
      result.audits += past_audit->audits_run();
      if (!past_audit->report().ok()) {
        fail(past_audit->report().now,
             "past-engine audit: " + past_audit->report().ToString());
      }
    }
  }

  if (future_audit != nullptr) {
    result.audits += future_audit->audits_run();
    if (!future_audit->report().ok()) {
      fail(future_audit->report().now,
           "future-engine audit: " + future_audit->report().ToString());
    }
  }
  for (const auto& audit : server_audits) {
    result.audits += audit->audits_run();
    if (!audit->report().ok()) {
      fail(audit->report().now,
           "query-server audit: " + audit->report().ToString());
    }
  }

  return result;
}

size_t ShrinkUpdatePrefix(
    FuzzOptions options,
    const std::function<bool(const FuzzOptions&)>& fails_in) {
  std::function<bool(const FuzzOptions&)> fails = fails_in;
  if (!fails) {
    fails = [](const FuzzOptions& o) { return !RunDifferential(o).ok(); };
  }
  // The caller asserts the full stream fails; bisect for the shortest
  // failing prefix (the generator consumes randomness sequentially, so a
  // smaller count is a true prefix of the same stream).
  size_t lo = 0;
  size_t hi = options.num_updates;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    FuzzOptions probe = options;
    probe.num_updates = mid;
    if (fails(probe)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return hi;
}

std::string ReproCommand(const FuzzOptions& options) {
  std::ostringstream out;
  out << std::setprecision(17);
  out << "modb_fuzz --seed " << options.seed << " --ops "
      << options.num_updates << " --objects " << options.num_objects
      << " --probes " << options.num_probes << " --k " << options.k
      << " --threshold " << options.within_threshold;
  if (options.audit) out << " --audit";
  return out.str();
}

}  // namespace modb
