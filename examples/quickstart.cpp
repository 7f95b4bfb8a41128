// Quickstart: build a small moving object database, run a past 2-NN query
// with the plane-sweep engine, then keep a future 1-NN query current while
// updates arrive.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <iostream>
#include <memory>

#include "core/future_engine.h"
#include "gdist/builtin.h"
#include "queries/knn.h"
#include "trajectory/mod.h"

using namespace modb;  // Example code only; library code never does this.

int main() {
  // --- 1. A database of four aircraft in 2-D, created at time 0. ---------
  MovingObjectDatabase mod(/*dim=*/2, /*initial_time=*/0.0);
  struct Spec {
    ObjectId oid;
    Vec position, velocity;
  };
  for (const Spec& s : {
           Spec{1, Vec{0.0, 100.0}, Vec{3.0, -1.0}},
           Spec{2, Vec{50.0, -20.0}, Vec{-2.0, 1.5}},
           Spec{3, Vec{-80.0, 0.0}, Vec{4.0, 0.0}},
           Spec{4, Vec{10.0, 10.0}, Vec{0.5, 0.5}},
       }) {
    const Status status =
        mod.Apply(Update::NewObject(s.oid, 0.0, s.position, s.velocity));
    if (!status.ok()) {
      std::cerr << status.ToString() << "\n";
      return 1;
    }
  }

  // --- 2. A past query: 2-NN to a stationary radar at the origin over ----
  //        the interval [0, 30] (Theorem 4's sweep).
  auto radar_distance = std::make_shared<SquaredEuclideanGDistance>(
      Trajectory::Stationary(0.0, Vec{0.0, 0.0}));
  AnswerTimeline past =
      PastKnn(mod, radar_distance, /*k=*/2, TimeInterval(0.0, 30.0));
  std::cout << "2-NN to the radar over [0, 30]:\n" << past.ToString();
  std::cout << "ever in the answer (Q-exists): "
            << past.Existential().size() << " objects\n";
  std::cout << "always in the answer (Q-forall): "
            << past.Universal().size() << " objects\n\n";

  // --- 3. A future query: maintain 1-NN from now on, applying updates ----
  //        as they arrive (Theorem 5's eager maintenance).
  FutureQueryEngine engine(mod, radar_distance, /*start_time=*/30.0);
  KnnKernel nearest(&engine.state(), /*k=*/1);
  engine.Start();

  std::cout << "nearest at t=30: o" << *nearest.Current().begin() << "\n";

  // Aircraft 3 turns north at t=35; aircraft 5 appears at t=40.
  for (const Update& update :
       {Update::ChangeDirection(3, 35.0, Vec{0.0, 5.0}),
        Update::NewObject(5, 40.0, Vec{1.0, 1.0}, Vec{0.1, 0.1})}) {
    const Status status = engine.ApplyUpdate(mod, update);
    if (!status.ok()) {
      std::cerr << status.ToString() << "\n";
      return 1;
    }
    std::cout << "after " << update.ToString() << ": nearest = o"
              << *nearest.Current().begin() << "\n";
  }

  engine.AdvanceTo(60.0);
  nearest.timeline().Finish(60.0);
  std::cout << "\n1-NN evolution on [30, 60]:\n"
            << nearest.timeline().ToString();
  std::cout << "support changes processed: "
            << engine.stats().SupportChanges() << "\n";
  return 0;
}
