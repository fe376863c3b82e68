// Prediction quality (Section 5, "Measurements"): how correctly a rule set
// identifies *future* frauds. Evaluated against the ground-truth labels of a
// row range the refinement never saw.

#ifndef RUDOLF_METRICS_QUALITY_H_
#define RUDOLF_METRICS_QUALITY_H_

#include "rules/rule_set.h"

namespace rudolf {

/// \brief Confusion summary of a rule set over a row range.
struct PredictionQuality {
  size_t rows = 0;            ///< rows evaluated
  size_t true_fraud = 0;      ///< ground-truth frauds in the range
  size_t true_legit = 0;      ///< ground-truth legitimate in the range
  size_t fraud_captured = 0;  ///< true positives
  size_t fraud_missed = 0;    ///< false negatives
  size_t legit_captured = 0;  ///< false positives

  /// % of frauds the rules miss.
  double MissPct() const;
  /// % of legitimate transactions the rules wrongly flag.
  double FalsePositivePct() const;
  /// % of misclassified transactions (FN+FP over all rows). With ~1.5%
  /// fraud this is dominated by false positives.
  double ErrorPct() const;
  /// The paper's per-class measurement ("the percentage out of all
  /// fraudulent (resp. legitimate) transactions that it identifies (resp.
  /// wrongly classifies)") folded into one number: (miss% + FP%) / 2.
  /// Headline metric of the benches — a capture-nothing rule set scores 50.
  double BalancedErrorPct() const;
  /// Precision / recall / F1 of the fraud class.
  double Precision() const;
  double Recall() const;
  double F1() const;
};

/// Evaluates `rules` on rows [begin, end) of `relation` with ground-truth
/// labels, by one RuleEvaluator::EvalRuleSetRange scan at the shared
/// scheduler's width (all hardware threads unless `RUDOLF_THREADS` is set).
PredictionQuality EvaluateOnRange(const Relation& relation, const RuleSet& rules,
                                  size_t begin, size_t end);

}  // namespace rudolf

#endif  // RUDOLF_METRICS_QUALITY_H_
