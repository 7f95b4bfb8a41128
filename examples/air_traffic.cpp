// Air-traffic monitoring: the paper's motivating domain (Examples 1-5).
//
// A control tower tracks aircraft in 3-D. We reproduce Example 1's
// airplane, surround it with traffic, and run:
//   * a PAST query — "which aircraft were the 3 nearest to our airplane
//     during its descent?" (Theorem 4 sweep over the recorded history);
//   * a CONTINUING query — "keep the nearest-aircraft display current as
//     position updates stream in" (Theorem 5 eager maintenance),
//     including the airplane's own course change (Theorem 10).
//
// Run: ./build/examples/air_traffic

#include <iostream>
#include <memory>

#include "constraint/linear_constraint.h"
#include "core/future_engine.h"
#include "gdist/builtin.h"
#include "queries/knn.h"
#include "workload/generator.h"
#include "workload/scenarios.h"

using namespace modb;  // Example code only.

namespace {

void PrintAnswer(const char* label, const std::set<ObjectId>& answer) {
  std::cout << label << " {";
  bool first = true;
  for (ObjectId oid : answer) {
    std::cout << (first ? "" : ", ") << "AC" << oid;
    first = false;
  }
  std::cout << "}\n";
}

}  // namespace

int main() {
  // --- The tracked airplane: Example 1's trajectory, verbatim. ----------
  const Trajectory our_airplane = Example1Aircraft();
  std::cout << "Our airplane (Example 1), as a constraint relation "
               "(Definition 1 encoding):\n"
            << TrajectoryToConstraints(our_airplane).ToString() << "\n\n";

  // --- Surrounding traffic: 40 aircraft with random courses. ------------
  const RandomModOptions options{.num_objects = 40,
                                 .dim = 3,
                                 .box_lo = -200.0,
                                 .box_hi = 200.0,
                                 .speed_min = 2.0,
                                 .speed_max = 8.0,
                                 .seed = 2026};
  MovingObjectDatabase mod = RandomMod(options);

  // --- Past query: 3-NN to our airplane during the descent [20, 47]. ----
  auto distance_to_us =
      std::make_shared<SquaredEuclideanGDistance>(our_airplane);
  const AnswerTimeline descent =
      PastKnn(mod, distance_to_us, /*k=*/3, TimeInterval(20.0, 47.0));
  std::cout << "3 nearest aircraft during the descent [20, 47]: "
            << descent.segments().size() << " answer segments\n";
  PrintAnswer("  at t=21 (first turn):", descent.AnswerAt(21.0));
  PrintAnswer("  at t=35 (mid-descent):", descent.AnswerAt(35.0));
  PrintAnswer("  ever nearest-3 (Q-exists):", descent.Existential());
  PrintAnswer("  always nearest-3 (Q-forall):", descent.Universal());

  // --- Continuing query: keep the display current from t=47 on. ---------
  std::cout << "\nLive display from t=47 (our airplane has landed; "
               "Example 2):\n";
  Trajectory landed = our_airplane;
  const Update landing = Example2Landing(/*oid=*/-1);
  if (const Status s = landed.AddTurn(landing.time, landing.velocity);
      !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }

  FutureQueryEngine engine(
      mod, std::make_shared<SquaredEuclideanGDistance>(landed), 47.0);
  KnnKernel nearest(&engine.state(), /*k=*/1);
  engine.Start();
  PrintAnswer("  t=47 nearest:", nearest.Current());

  // Position updates stream in.
  Rng rng(99);
  double t = 47.0;
  for (int i = 0; i < 10; ++i) {
    t += rng.Uniform(1.0, 4.0);
    const ObjectId target = rng.UniformInt(0, 39);
    const Update update = Update::ChangeDirection(
        target, t, RandomVelocity(rng, 3, 2.0, 8.0));
    if (const Status s = engine.ApplyUpdate(mod, update); !s.ok()) {
      std::cerr << s.ToString() << "\n";
      return 1;
    }
    std::cout << "  " << update.ToString() << " -> nearest is AC"
              << *nearest.Current().begin() << "\n";
  }

  engine.AdvanceTo(t + 20.0);
  nearest.timeline().Finish(t + 20.0);
  std::cout << "\nNearest-aircraft history since 47:\n"
            << nearest.timeline().ToString();
  std::cout << "support changes processed: "
            << engine.stats().SupportChanges()
            << ", peak event queue: " << engine.stats().max_queue_length
            << " (bound N-1 = 39)\n";
  return 0;
}
