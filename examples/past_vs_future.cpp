// Past, continuing, and future queries (Definition 5) — the paper's core
// conceptual distinction, demonstrated live.
//
// A MOD only *knows* motions up to its last update time τ; everything
// later is extrapolation. Evaluating a query whose interval reaches past
// "now" therefore mixes true answers with predictions (Example 5). This
// example shows:
//   1. the PREDICTED answer of a query over [now, now+20] computed by
//      extrapolating current motions (classical evaluation, Prop. 1 style);
//   2. updates arriving and invalidating parts of that prediction;
//   3. the VALID answer obtained by the eager future engine, which only
//      commits support changes the arrived updates have made final.
//
// (Theorem 2 says no system can decide up front whether a query is past —
// the only safe strategies are the lazy and eager ones shown here.)
//
// Run: ./build/examples/past_vs_future

#include <iostream>
#include <memory>

#include "core/future_engine.h"
#include "gdist/builtin.h"
#include "queries/knn.h"

using namespace modb;  // Example code only.

namespace {

void PrintTimeline(const char* label, const AnswerTimeline& timeline) {
  std::cout << label << "\n" << timeline.ToString() << "\n";
}

}  // namespace

int main() {
  // Three delivery drones, last updated at τ = 0.
  MovingObjectDatabase mod(/*dim=*/2, 0.0);
  for (const auto& [oid, pos, vel] :
       {std::tuple{ObjectId{1}, Vec{100.0, 0.0}, Vec{-4.0, 0.0}},
        std::tuple{ObjectId{2}, Vec{0.0, 60.0}, Vec{0.0, -1.0}},
        std::tuple{ObjectId{3}, Vec{-150.0, -80.0}, Vec{5.0, 3.0}}}) {
    if (const Status s = mod.Apply(Update::NewObject(oid, 0.0, pos, vel));
        !s.ok()) {
      std::cerr << s.ToString() << "\n";
      return 1;
    }
  }
  auto depot_distance = std::make_shared<SquaredEuclideanGDistance>(
      Trajectory::Stationary(0.0, Vec{0.0, 0.0}));

  // --- The PREDICTION: evaluate 1-NN over [0, 20] on the current DB. ----
  // Mechanically this is a "past query" over extrapolated motions: every
  // answer after τ = 0 is tentative (Definition 5 would call the query
  // *future* with respect to this MOD).
  const AnswerTimeline predicted =
      PastKnn(mod, depot_distance, /*k=*/1, TimeInterval(0.0, 20.0));
  PrintTimeline("PREDICTED nearest-drone timeline over [0, 20] "
                "(extrapolated motions, tentative):",
                predicted);

  // --- Reality: updates arrive. The eager engine maintains the VALID ----
  //     answer as far as updates have made the motions final.
  FutureQueryEngine engine(mod, depot_distance, 0.0);
  KnnKernel nearest(&engine.state(), 1);
  engine.Start();

  const std::vector<Update> reality = {
      // Drone 1 diverts at t=6 (it was predicted to become nearest ~t=10).
      Update::ChangeDirection(1, 6.0, Vec{0.0, 8.0}),
      // Drone 3 turns toward the depot at t=9.
      Update::ChangeDirection(3, 9.0, Vec{12.0, 5.0}),
      // A fourth drone launches close to the depot at t=14.
      Update::NewObject(4, 14.0, Vec{5.0, 5.0}, Vec{0.5, 0.0}),
  };
  for (const Update& update : reality) {
    if (const Status s = engine.ApplyUpdate(mod, update); !s.ok()) {
      std::cerr << s.ToString() << "\n";
      return 1;
    }
    std::cout << "update arrives: " << update.ToString()
              << "  -> nearest now: o" << *nearest.Current().begin() << "\n";
  }
  engine.AdvanceTo(20.0);
  nearest.timeline().Finish(20.0);
  std::cout << "\n";
  PrintTimeline("VALID nearest-drone timeline over [0, 20] "
                "(every update applied):",
                nearest.timeline());

  // --- Where did the prediction go wrong? ------------------------------
  std::cout << "prediction vs reality:\n";
  for (double t = 1.0; t < 20.0; t += 2.0) {
    const std::set<ObjectId> was = predicted.AnswerAt(t);
    const std::set<ObjectId> is = nearest.timeline().AnswerAt(t);
    std::cout << "  t=" << t << ": predicted o" << *was.begin()
              << ", actual o" << *is.begin()
              << (was == is ? "" : "   <-- prediction invalidated") << "\n";
  }
  std::cout << "\nThe prediction was only *valid* up to the first update "
               "at t=6 — which is\nexactly Definition 5: with respect to "
               "the original MOD this query was a\nfuture query, and only "
               "eager maintenance (or waiting) yields valid answers.\n";
  return 0;
}
