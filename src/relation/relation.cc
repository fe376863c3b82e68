#include "relation/relation.h"

#include <cassert>

namespace rudolf {

namespace {

// True iff categorical cell `v` names a concept of `ontology`. The int64 is
// compared before any cast: a cast to ConceptId would wrap 2^32 + c onto
// the valid id c.
bool IsConceptCell(const Ontology& ontology, CellValue v) {
  return v >= 0 && static_cast<uint64_t>(v) < ontology.size();
}

}  // namespace

Relation::Relation(std::shared_ptr<const Schema> schema)
    : schema_(std::move(schema)), columns_(schema_->arity()) {
  assert(schema_ != nullptr);
}

void Relation::Reserve(size_t num_rows) {
  for (auto& column : columns_) column.reserve(num_rows);
  true_labels_.reserve(num_rows);
  visible_labels_.reserve(num_rows);
  scores_.reserve(num_rows);
}

Status Relation::AppendRow(const Tuple& row, Label true_label, Label visible_label,
                           int score) {
  if (row.size() != schema_->arity()) {
    return Status::InvalidArgument("row arity " + std::to_string(row.size()) +
                                   " != schema arity " +
                                   std::to_string(schema_->arity()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    const AttributeDef& def = schema_->attribute(i);
    if (def.kind == AttrKind::kCategorical &&
        !IsConceptCell(*def.ontology, row[i])) {
      return Status::InvalidArgument("invalid concept id for attribute '" +
                                     def.name + "'");
    }
  }
  for (size_t i = 0; i < row.size(); ++i) columns_[i].push_back(row[i]);
  true_labels_.push_back(true_label);
  visible_labels_.push_back(visible_label);
  ++visible_counts_[static_cast<size_t>(visible_label)];
  scores_.push_back(score);
  // Publish after every cell and side-array slot is written, so concurrent
  // prefix-bound readers never observe a half-built row.
  num_rows_.store(true_labels_.size(), std::memory_order_release);
  return Status::OK();
}

Status Relation::ValidateBatch(
    const std::vector<std::vector<CellValue>>& columns,
    const std::vector<Label>& true_labels,
    const std::vector<Label>& visible_labels,
    const std::vector<int>& scores) const {
  if (columns.size() != schema_->arity()) {
    return Status::InvalidArgument(
        "batch arity " + std::to_string(columns.size()) + " != schema arity " +
        std::to_string(schema_->arity()));
  }
  size_t n = true_labels.size();
  if (visible_labels.size() != n || scores.size() != n) {
    return Status::InvalidArgument("batch side arrays have unequal lengths");
  }
  for (size_t c = 0; c < columns.size(); ++c) {
    if (columns[c].size() != n) {
      return Status::InvalidArgument("batch column " + std::to_string(c) +
                                     " length != batch row count");
    }
    const AttributeDef& def = schema_->attribute(c);
    if (def.kind != AttrKind::kCategorical) continue;
    for (CellValue v : columns[c]) {
      if (!IsConceptCell(*def.ontology, v)) {
        return Status::InvalidArgument("invalid concept id for attribute '" +
                                       def.name + "'");
      }
    }
  }
  return Status::OK();
}

void Relation::AppendBatchUnchecked(
    const std::vector<std::vector<CellValue>>& columns,
    const std::vector<Label>& true_labels,
    const std::vector<Label>& visible_labels,
    const std::vector<int>& scores) {
  assert(columns.size() == columns_.size());
  assert(true_labels.size() == visible_labels.size());
  assert(true_labels.size() == scores.size());
  for (size_t c = 0; c < columns.size(); ++c) {
    columns_[c].insert(columns_[c].end(), columns[c].begin(), columns[c].end());
  }
  true_labels_.insert(true_labels_.end(), true_labels.begin(), true_labels.end());
  visible_labels_.insert(visible_labels_.end(), visible_labels.begin(),
                         visible_labels.end());
  for (Label l : visible_labels) ++visible_counts_[static_cast<size_t>(l)];
  scores_.insert(scores_.end(), scores.begin(), scores.end());
  num_rows_.store(true_labels_.size(), std::memory_order_release);
}

Status Relation::AppendBatch(const std::vector<std::vector<CellValue>>& columns,
                             const std::vector<Label>& true_labels,
                             const std::vector<Label>& visible_labels,
                             const std::vector<int>& scores) {
  Status st = ValidateBatch(columns, true_labels, visible_labels, scores);
  if (!st.ok()) return st;
  AppendBatchUnchecked(columns, true_labels, visible_labels, scores);
  return Status::OK();
}

Tuple Relation::GetRow(size_t row) const {
  Tuple out(NumColumns());
  for (size_t c = 0; c < NumColumns(); ++c) out[c] = columns_[c][row];
  return out;
}

std::vector<size_t> Relation::RowsWithVisibleLabel(Label label) const {
  std::vector<size_t> out;
  size_t remaining = CountVisible(label);
  size_t rows = NumRows();
  out.reserve(remaining);
  for (size_t r = 0; r < rows && remaining > 0; ++r) {
    if (visible_labels_[r] == label) {
      out.push_back(r);
      --remaining;
    }
  }
  return out;
}

std::vector<size_t> Relation::RowsWithTrueLabel(Label label) const {
  std::vector<size_t> out;
  size_t rows = NumRows();
  for (size_t r = 0; r < rows; ++r) {
    if (true_labels_[r] == label) out.push_back(r);
  }
  return out;
}

std::string Relation::RowToString(size_t row) const {
  std::string out;
  for (size_t c = 0; c < NumColumns(); ++c) {
    if (c > 0) out += ", ";
    const AttributeDef& def = schema_->attribute(c);
    out += def.name + "=" + FormatCell(def, columns_[c][row]);
  }
  out += " [";
  out += LabelName(visible_labels_[row]);
  out += "]";
  return out;
}

}  // namespace rudolf
