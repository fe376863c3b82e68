#include "cluster/distance.h"

#include <cassert>
#include <cmath>

namespace rudolf {

TupleDistance::TupleDistance(std::shared_ptr<const Schema> schema,
                             DistanceOptions options)
    : schema_(std::move(schema)), weights_(std::move(options.weights)) {
  if (weights_.empty()) weights_.assign(schema_->arity(), 1.0);
  assert(weights_.size() == schema_->arity());
  concept_table_.assign(schema_->arity(), nullptr);
  for (size_t i = 0; i < schema_->arity(); ++i) {
    const AttributeDef& def = schema_->attribute(i);
    if (def.kind != AttrKind::kCategorical) continue;
    def.ontology->WarmCaches();
    concept_table_[i] = def.ontology->DistanceTable();
  }
}

double TupleDistance::ConceptDistance(size_t attr, ConceptId a, ConceptId b) const {
  const Ontology& ontology = *schema_->attribute(attr).ontology;
  if (const float* table = concept_table_[attr]) {
    return table[static_cast<size_t>(a) * ontology.size() + b];
  }
  return (ontology.UpwardDistance(a, b) + ontology.UpwardDistance(b, a)) / 2.0;
}

double TupleDistance::operator()(const Tuple& a, const Tuple& b) const {
  assert(a.size() == schema_->arity() && b.size() == schema_->arity());
  double total = 0.0;
  for (size_t i = 0; i < schema_->arity(); ++i) {
    const AttributeDef& def = schema_->attribute(i);
    if (def.kind == AttrKind::kNumeric) {
      total += weights_[i] *
               std::abs(static_cast<double>(a[i]) - static_cast<double>(b[i]));
    } else {
      ConceptId ca = static_cast<ConceptId>(a[i]);
      ConceptId cb = static_cast<ConceptId>(b[i]);
      if (ca != cb) {
        total += weights_[i] * ConceptDistance(i, ca, cb);
      }
    }
  }
  return total;
}

DistanceOptions ScaledDistanceOptions(const Relation& relation,
                                      const std::vector<size_t>& rows) {
  const Schema& schema = relation.schema();
  DistanceOptions out;
  out.weights.assign(schema.arity(), 1.0);
  for (size_t i = 0; i < schema.arity(); ++i) {
    const AttributeDef& def = schema.attribute(i);
    if (def.kind == AttrKind::kNumeric) {
      if (rows.empty()) continue;
      int64_t lo = relation.Get(rows[0], i);
      int64_t hi = lo;
      for (size_t r : rows) {
        int64_t v = relation.Get(r, i);
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      // hi - lo can overflow int64_t (CSV cells take any int64); as uint64_t
      // the difference of hi >= lo is exact.
      uint64_t range = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
      out.weights[i] = 1.0 / (1.0 + static_cast<double>(range));
    } else {
      int max_depth = 0;
      for (ConceptId c = 0; c < def.ontology->size(); ++c) {
        max_depth = std::max(max_depth, def.ontology->Depth(c));
      }
      out.weights[i] = 1.0 / (1.0 + static_cast<double>(max_depth));
    }
  }
  return out;
}

}  // namespace rudolf
