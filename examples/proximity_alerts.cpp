// Proximity alerts / collision monitoring: a continuing range query. The
// paper's Example 11: "list all flights that were within 50 km from
// Flight 623 from τ1 to τ2", run both over the past (sweep) and kept
// current into the future (eager maintenance) — the same algorithm, per
// §5's closing observation that past and future evaluation are almost
// identical.
//
// Run: ./build/examples/proximity_alerts

#include <iostream>
#include <memory>

#include "core/future_engine.h"
#include "gdist/builtin.h"
#include "queries/within.h"
#include "workload/generator.h"

using namespace modb;  // Example code only.

namespace {

// Prints entries/exits of the protected zone as they happen.
class AlertListener : public SweepListener {
 public:
  explicit AlertListener(ObjectId sentinel) : sentinel_(sentinel) {}

  void OnSwap(double time, ObjectId left, ObjectId right) override {
    if (right == sentinel_) {
      std::cout << "  [t=" << time << "] ALERT CLEARED: flight " << left
                << " left the zone\n";
    } else if (left == sentinel_) {
      std::cout << "  [t=" << time << "] PROXIMITY ALERT: flight " << right
                << " entered the zone\n";
    }
  }
  void OnInsert(double, ObjectId) override {}
  void OnErase(double time, ObjectId oid) override {
    std::cout << "  [t=" << time << "] flight " << oid << " terminated\n";
  }

 private:
  ObjectId sentinel_;
};

}  // namespace

int main() {
  // Flight 623 crosses a field of 30 other flights.
  const RandomModOptions options{.num_objects = 30,
                                 .dim = 2,
                                 .box_lo = -300.0,
                                 .box_hi = 300.0,
                                 .speed_min = 5.0,
                                 .speed_max = 12.0,
                                 .seed = 623};
  const MovingObjectDatabase mod = RandomMod(options);
  const Trajectory flight623 =
      Trajectory::Linear(0.0, Vec{-300.0, 0.0}, Vec{10.0, 0.0});
  auto gdist = std::make_shared<SquaredEuclideanGDistance>(flight623);
  const double radius_km = 50.0;
  const double threshold = radius_km * radius_km;

  // --- Past: who was inside the 50 km zone during [0, 30]? --------------
  const AnswerTimeline past =
      PastWithin(mod, gdist, threshold, TimeInterval(0.0, 30.0));
  std::cout << "Flights within " << radius_km << " km of Flight 623 during "
            << "[0, 30]:\n";
  std::cout << "  ever inside (Q-exists): " << past.Existential().size()
            << " flights\n";
  std::cout << "  inside the whole time (Q-forall): "
            << past.Universal().size() << " flights\n";
  std::cout << "  zone-population changes: " << past.segments().size() - 1
            << "\n\n";

  // --- Continuing: stream alerts from t=30 on. ---------------------------
  std::cout << "Live proximity alerts from t=30:\n";
  MovingObjectDatabase live = mod;  // The engine reads; updates reach it.
  FutureQueryEngine engine(live, gdist, 30.0);
  const ObjectId sentinel = -623;
  AlertListener alerts(sentinel);
  engine.state().AddListener(&alerts);
  WithinKernel zone(&engine.state(), sentinel, threshold);
  engine.Start();

  std::cout << "  currently inside: " << zone.Current().size()
            << " flights\n";

  // Updates arrive: a new flight joins on a converging course (it will
  // pierce the 50 km ring a couple of minutes later), one flight turns,
  // one lands (terminates).
  for (const Update& update :
       {Update::NewObject(99, 35.0, Vec{50.0, 60.0}, Vec{10.0, -6.0}),
        Update::ChangeDirection(17, 38.0, Vec{0.0, 11.0}),
        Update::TerminateObject(5, 41.0)}) {
    if (const Status s = engine.ApplyUpdate(live, update); !s.ok()) {
      std::cerr << s.ToString() << "\n";
      return 1;
    }
  }
  engine.AdvanceTo(60.0);
  zone.timeline().Finish(60.0);

  std::cout << "\nZone-population history [30, 60]:\n"
            << zone.timeline().ToString();
  std::cout << "support changes: " << engine.stats().SupportChanges()
            << "\n";
  return 0;
}
