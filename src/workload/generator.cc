#include "workload/generator.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "ml/naive_bayes.h"

namespace rudolf {

ConceptId RandomLeafUnder(const Ontology& o, ConceptId within, Rng* rng) {
  const size_t n = o.LeafCount(within);
  return o.LeafUnder(within, static_cast<size_t>(rng->UniformInt(
                                 0, static_cast<int64_t>(n) - 1)));
}

namespace {

// Background (legitimate) transaction.
Tuple SampleLegit(const CreditCardSchema& cc, Rng* rng) {
  const CreditCardSchemaLayout& lay = cc.layout;
  Tuple t(cc.schema->arity(), 0);
  // Clock: mostly daytime bell, some uniform night traffic.
  int64_t clock;
  if (rng->Bernoulli(0.75)) {
    clock = static_cast<int64_t>(std::lround(rng->Normal(14 * 60, 180)));
  } else {
    clock = rng->UniformInt(0, 24 * 60 - 1);
  }
  t[lay.time] = std::clamp<int64_t>(clock, 0, 24 * 60 - 1);
  // Amount: lognormal-ish, mostly small.
  double amt = std::exp(rng->Normal(3.3, 0.9));
  t[lay.amount] = std::clamp<int64_t>(static_cast<int64_t>(std::lround(amt)), 1, 5000);
  t[lay.type] = RandomLeafUnder(*cc.type_ontology, cc.type_ontology->top(), rng);
  t[lay.location] =
      RandomLeafUnder(*cc.location_ontology, cc.location_ontology->top(), rng);
  t[lay.client_type] =
      RandomLeafUnder(*cc.client_ontology, cc.client_ontology->top(), rng);
  t[lay.prev_actions] = rng->UniformInt(0, 60);
  t[lay.risk_score] = 0;  // filled after scorer training
  return t;
}

// Fraudulent transaction drawn from a pattern.
Tuple SampleFraud(const CreditCardSchema& cc, const AttackPattern& p, Rng* rng) {
  const CreditCardSchemaLayout& lay = cc.layout;
  Tuple t(cc.schema->arity(), 0);
  t[lay.time] = rng->UniformInt(p.clock_window.lo, p.clock_window.hi);
  int64_t amount_hi =
      (p.amount_range.hi == kPosInf) ? p.amount_range.lo + 80 : p.amount_range.hi;
  t[lay.amount] = rng->UniformInt(p.amount_range.lo, amount_hi);
  t[lay.type] = RandomLeafUnder(*cc.type_ontology, p.type, rng);
  t[lay.location] = RandomLeafUnder(*cc.location_ontology, p.location, rng);
  t[lay.client_type] = RandomLeafUnder(*cc.client_ontology, p.client, rng);
  // Fraudsters tend to have little account history on the card.
  int64_t pa_hi = (p.prev_actions_range.hi == kPosInf) ? 5 : p.prev_actions_range.hi;
  int64_t pa_lo = (p.prev_actions_range.lo == kNegInf) ? 0 : p.prev_actions_range.lo;
  t[lay.prev_actions] = rng->UniformInt(pa_lo, pa_hi);
  t[lay.risk_score] = 0;
  return t;
}

}  // namespace

Dataset GenerateDataset(const GeneratorOptions& options) {
  Dataset ds;
  ds.options = options;
  ds.cc = MakeCreditCardSchema(options.geo);
  Rng rng(options.seed);
  Rng pattern_rng = rng.Fork();
  ds.patterns = RandomAttackPatterns(ds.cc, options.patterns, &pattern_rng);
  ds.relation = std::make_shared<Relation>(ds.cc.schema);

  const size_t n = options.num_transactions;
  ds.relation->Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    double frac = static_cast<double>(i) / static_cast<double>(n);
    // Active patterns at this stream position.
    std::vector<const AttackPattern*> active;
    std::vector<double> weights;
    for (const AttackPattern& p : ds.patterns) {
      if (p.ActiveAt(frac)) {
        active.push_back(&p);
        weights.push_back(p.weight);
      }
    }
    bool fraud = !active.empty() && rng.Bernoulli(options.fraud_fraction);
    Tuple t;
    if (fraud) {
      const AttackPattern& p = *active[rng.WeightedIndex(weights)];
      t = SampleFraud(ds.cc, p, &rng);
    } else {
      t = SampleLegit(ds.cc, &rng);
    }
    Status st = ds.relation->AppendRow(t, fraud ? Label::kFraud : Label::kLegitimate,
                                       Label::kUnlabeled, /*score=*/0);
    assert(st.ok());
    (void)st;
  }

  // Risk scores: the "company model" — Naive Bayes fit on the ground truth,
  // blended with noise so it is usefully wrong (Section 5: the score
  // disagrees with the truth for a large share of transactions).
  NaiveBayesScorer::Options nb_options;
  nb_options.use_true_labels = true;
  nb_options.exclude_attributes = {ds.cc.layout.risk_score};
  NaiveBayesScorer scorer(std::move(nb_options));
  Status st = scorer.TrainOnAll(*ds.relation);
  // Degenerate datasets (no fraud at all) keep score 0 everywhere.
  if (st.ok()) {
    for (size_t r = 0; r < ds.relation->NumRows(); ++r) {
      double p = scorer.FraudProbability(*ds.relation, r);
      double mixed = (1.0 - options.score_noise) * p +
                     options.score_noise * rng.UniformDouble();
      int score = std::clamp(static_cast<int>(std::lround(mixed * 1000.0)), 0, 1000);
      ds.relation->SetScore(r, score);
      ds.relation->SetCell(r, ds.cc.layout.risk_score, score);
    }
  }
  return ds;
}

void RevealLabels(Relation* relation, size_t begin, size_t end, double coverage,
                  double mislabel, double false_fraud, Rng* rng) {
  end = std::min(end, relation->NumRows());
  for (size_t r = begin; r < end; ++r) {
    if (!rng->Bernoulli(coverage)) {
      relation->SetVisibleLabel(r, Label::kUnlabeled);
      continue;
    }
    Label reported = relation->TrueLabel(r);
    if (reported == Label::kFraud) {
      if (rng->Bernoulli(mislabel)) reported = Label::kLegitimate;
    } else {
      if (rng->Bernoulli(false_fraud)) reported = Label::kFraud;
    }
    relation->SetVisibleLabel(r, reported);
  }
}

}  // namespace rudolf
