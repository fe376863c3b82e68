#include "metrics/quality.h"

#include <algorithm>

#include "rules/evaluator.h"

namespace rudolf {

double PredictionQuality::MissPct() const {
  if (true_fraud == 0) return 0.0;
  return 100.0 * static_cast<double>(fraud_missed) /
         static_cast<double>(true_fraud);
}

double PredictionQuality::FalsePositivePct() const {
  if (true_legit == 0) return 0.0;
  return 100.0 * static_cast<double>(legit_captured) /
         static_cast<double>(true_legit);
}

double PredictionQuality::ErrorPct() const {
  if (rows == 0) return 0.0;
  return 100.0 * static_cast<double>(fraud_missed + legit_captured) /
         static_cast<double>(rows);
}

double PredictionQuality::BalancedErrorPct() const {
  return (MissPct() + FalsePositivePct()) / 2.0;
}

double PredictionQuality::Precision() const {
  size_t flagged = fraud_captured + legit_captured;
  if (flagged == 0) return 0.0;
  return static_cast<double>(fraud_captured) / static_cast<double>(flagged);
}

double PredictionQuality::Recall() const {
  if (true_fraud == 0) return 0.0;
  return static_cast<double>(fraud_captured) / static_cast<double>(true_fraud);
}

double PredictionQuality::F1() const {
  double p = Precision();
  double r = Recall();
  if (p + r == 0.0) return 0.0;
  return 2.0 * p * r / (p + r);
}

PredictionQuality EvaluateOnRange(const Relation& relation, const RuleSet& rules,
                                  size_t begin, size_t end) {
  end = std::min(end, relation.NumRows());
  PredictionQuality q;
  if (begin >= end) return q;

  // Each rule is evaluated once, so an index would not pay for its build:
  // one scan union over [begin, end) only, whose row blocks fan out at the
  // shared scheduler's width.
  RuleEvaluator evaluator(relation, end,
                          EvalOptions{.num_threads = 0, .use_index = false});
  Bitset captured(end);
  evaluator.EvalRuleSetRange(rules, begin, end, &captured);
  for (size_t r = begin; r < end; ++r) {
    ++q.rows;
    bool hit = captured.Test(r);
    if (relation.TrueLabel(r) == Label::kFraud) {
      ++q.true_fraud;
      if (hit) {
        ++q.fraud_captured;
      } else {
        ++q.fraud_missed;
      }
    } else {
      ++q.true_legit;
      if (hit) ++q.legit_captured;
    }
  }
  return q;
}

}  // namespace rudolf
