#ifndef MODB_CONSTRAINT_SWEEP_FO_EVALUATOR_H_
#define MODB_CONSTRAINT_SWEEP_FO_EVALUATOR_H_

#include "constraint/fo_formula.h"
#include "core/answer.h"
#include "core/sweep_state.h"
#include "gdist/gdistance.h"
#include "trajectory/mod.h"

namespace modb {

struct SweepFoStats {
  SweepStats sweep;          // The underlying Theorem-4 sweep.
  size_t cells = 0;          // Cells (and boundary instants) decided.
  size_t support_changes = 0;
};

struct SweepFoResult {
  AnswerTimeline timeline;
  SweepFoStats stats;
};

// The Lemma 8 evaluator: generic FO(f) queries via one plane sweep.
//
// Lemma 8 states that if the precedence relation (extended to the query's
// constants) is identical at two instants, the support — and hence the
// query answer — is identical. So a single Theorem-4 sweep, with one
// sentinel per constant appearing in the formula, discovers *every*
// instant at which the answer can change: the support-change times. The
// formula is then decided once per cell (and once per boundary instant,
// capturing equality atoms), instead of the QE route's Θ(N²k²) pairwise
// decomposition.
//
// Restriction: every real term must use the identity time term f(y, t) —
// with shifted terms the answer can change where *composed* curves cross,
// which one sweep does not see. (Wrap the g-distance in
// TimeShiftedGDistance to express fixed shifts instead.) Checked.
//
// Complexity: O((m + N) log N) for the sweep plus one formula evaluation
// per cell — compare EvaluateFoQuery (the QE baseline) in experiments E6.
//
// Semantic caveat: tangencies (curves touching without exchanging order)
// produce no sweep event, so an equality atom that holds *only* at such
// an isolated instant is not materialized as a point segment; the QE
// evaluator does materialize it. Interval answers (and hence Q^s on
// cells, and Q^∀) agree; Q^∃ can differ at measure-zero tangency cases.
SweepFoResult EvaluateFoQueryBySweep(
    const MovingObjectDatabase& mod, GDistancePtr gdist, const FoQuery& query);

}  // namespace modb

#endif  // MODB_CONSTRAINT_SWEEP_FO_EVALUATOR_H_
