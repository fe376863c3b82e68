// The synthetic dataset generator standing in for the paper's proprietary
// transaction sets (see DESIGN.md §2). It produces a stream of transactions
// in arrival order: background legitimate traffic plus fraud drawn from
// attack patterns that appear and fade along the stream, ground-truth and
// noisy reported labels, and ML risk scores from the Naive Bayes substrate
// blended with controllable noise.

#ifndef RUDOLF_WORKLOAD_GENERATOR_H_
#define RUDOLF_WORKLOAD_GENERATOR_H_

#include <memory>
#include <vector>

#include "relation/builder.h"
#include "util/random.h"
#include "workload/pattern.h"

namespace rudolf {

/// All generator knobs. Defaults approximate the paper's default dataset
/// shape scaled down (500K rows, ~1.5% fraud) — pass num_transactions
/// explicitly for the size sweeps.
struct GeneratorOptions {
  size_t num_transactions = 100000;
  /// Fraction of transactions that are truly fraudulent (paper: 0.5%–2.5%).
  double fraud_fraction = 0.015;
  /// Fraction of rows that carry a reported label once their stream
  /// position has been "revealed" by the experiment runner.
  double label_coverage = 0.95;
  /// Fraction of truly fraudulent rows reported as legitimate (missed /
  /// misfiled chargebacks).
  double mislabel_fraction = 0.05;
  /// Fraction of truly legitimate rows reported as fraudulent (false
  /// disputes). Applied per legitimate row, so keep it small — at 0.002 the
  /// volume of false fraud reports is comparable to the real fraud volume.
  double false_fraud_fraction = 0.002;
  /// Blend of the Naive Bayes probability with uniform noise when producing
  /// the 0..1000 risk score. The paper reports that 35–50% of transactions
  /// are misclassified by company XYZ's score — i.e. the ML signal alone is
  /// weak, which is the premise for maintaining rules at all — so the
  /// default mixes in a large noise share.
  double score_noise = 0.75;
  /// Pattern shape and drift.
  PatternGenOptions patterns;
  /// Geo ontology shape.
  GeoOntologyOptions geo;
  uint64_t seed = 7;
};

/// \brief A generated dataset: schema+ontologies, the relation in arrival
/// order, and the ground-truth patterns (for oracles and evaluation only).
struct Dataset {
  CreditCardSchema cc;
  std::shared_ptr<Relation> relation;
  std::vector<AttackPattern> patterns;
  GeneratorOptions options;

  /// Stream position (fraction) of a row.
  double FracOf(size_t row) const {
    return static_cast<double>(row) / static_cast<double>(relation->NumRows());
  }
};

/// A leaf under `within`, drawn uniformly: one
/// `rng->UniformInt(0, LeafCount(within) - 1)` picks the leaf's rank in id
/// order. Every generator and rule synthesizer samples cells through it.
ConceptId RandomLeafUnder(const Ontology& o, ConceptId within, Rng* rng);

/// Generates a full dataset. Deterministic in `options.seed`.
Dataset GenerateDataset(const GeneratorOptions& options);

/// \brief Reveals reported labels for rows [begin, end): each row gets a
/// label with probability `coverage`; a labeled fraud row is misreported
/// legitimate with probability `mislabel`; a labeled legitimate row is
/// misreported fraudulent with probability `false_fraud`. Uncovered rows
/// stay unlabeled. Deterministic in *rng.
void RevealLabels(Relation* relation, size_t begin, size_t end, double coverage,
                  double mislabel, double false_fraud, Rng* rng);

}  // namespace rudolf

#endif  // RUDOLF_WORKLOAD_GENERATOR_H_
