// Distance between transactions, mixing numeric differences with ontological
// distances — the similarity notion behind the clustering step of
// Algorithm 1 ("split the fraudulent transactions into smaller groups of
// transactions that are similar to each other, based on a distance
// function").

#ifndef RUDOLF_CLUSTER_DISTANCE_H_
#define RUDOLF_CLUSTER_DISTANCE_H_

#include <memory>
#include <vector>

#include "relation/relation.h"

namespace rudolf {

/// Per-attribute scaling of the mixed distance.
struct DistanceOptions {
  /// One weight per attribute; empty means all 1.0. Typical use: weights
  /// from ScaledDistanceOptions so a $1 difference and a 1-minute difference
  /// are comparable.
  std::vector<double> weights;
};

/// \brief Mixed tuple-distance:
///   numeric attribute:     weight · |a − b|
///   categorical attribute: weight · (up(a→b) + up(b→a)) / 2, where up is the
///                          ontological UpwardDistance — 0 iff a == b.
///
/// The categorical term is read from the ontology's DistanceTable(), which
/// the ontology builds once and keeps until it changes, so the clustering
/// and representative-distance loops (thousands of pairs against the same
/// few dozen concepts) reuse one BFS per concept pair, and constructing a
/// TupleDistance costs O(arity) once the tables exist. Ontologies too large
/// to tabulate fall back to UpwardDistance per pair. The constructor warms
/// every categorical ontology it reads, table included, on the calling
/// thread, keeping operator() read-only and safe for the parallel
/// clustering paths.
class TupleDistance {
 public:
  TupleDistance(std::shared_ptr<const Schema> schema, DistanceOptions options = {});

  double operator()(const Tuple& a, const Tuple& b) const;

  const Schema& schema() const { return *schema_; }

 private:
  // Symmetric half-sum distance (up(a→b)+up(b→a))/2 via the table when one
  // exists for the attribute, else directly from the ontology.
  double ConceptDistance(size_t attr, ConceptId a, ConceptId b) const;

  std::shared_ptr<const Schema> schema_;
  std::vector<double> weights_;
  // concept_table_[attr] is the attribute's Ontology::DistanceTable(), or
  // null (numeric attribute or ontology too large to tabulate).
  std::vector<const float*> concept_table_;
};

/// Derives per-attribute weights from the data: numeric attributes get
/// 1 / (1 + (max − min) of the given rows), categorical attributes get
/// 1 / (1 + max ontology depth), so every attribute contributes O(1) to the
/// distance of two arbitrary rows.
DistanceOptions ScaledDistanceOptions(const Relation& relation,
                                      const std::vector<size_t>& rows);

}  // namespace rudolf

#endif  // RUDOLF_CLUSTER_DISTANCE_H_
