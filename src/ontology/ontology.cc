#include "ontology/ontology.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <deque>

#include "obs/metrics.h"

namespace rudolf {

namespace {

// Ontologies up to this many concepts get a dense pairwise distance table;
// larger ones (quadratic space) leave callers to per-pair BFS.
constexpr size_t kMaxDistanceTableSize = 256;

}  // namespace

Ontology::Ontology(std::string name, std::string top_name) : name_(std::move(name)) {
  names_.push_back(std::move(top_name));
  parents_.emplace_back();
  children_.emplace_back();
  depth_.push_back(0);
  by_name_[names_[0]] = 0;
  leaf_sets_fresh_ = false;
  ancestors_fresh_ = false;
}

Result<ConceptId> Ontology::AddConcept(const std::string& name,
                                       const std::vector<ConceptId>& parents) {
  if (parents.empty()) {
    return Status::InvalidArgument("concept '" + name + "' must have a parent");
  }
  if (by_name_.count(name) > 0) {
    return Status::AlreadyExists("concept '" + name + "' already exists");
  }
  for (size_t i = 0; i < parents.size(); ++i) {
    if (!IsValid(parents[i])) {
      return Status::InvalidArgument("concept '" + name + "' has invalid parent id");
    }
    for (size_t j = i + 1; j < parents.size(); ++j) {
      if (parents[i] == parents[j]) {
        return Status::InvalidArgument("concept '" + name + "' has duplicate parents");
      }
    }
  }
  ConceptId id = static_cast<ConceptId>(names_.size());
  names_.push_back(name);
  parents_.push_back(parents);
  children_.emplace_back();
  int depth = std::numeric_limits<int>::max();
  for (ConceptId p : parents) {
    children_[p].push_back(id);
    depth = std::min(depth, depth_[p] + 1);
  }
  depth_.push_back(depth);
  by_name_[name] = id;
  leaf_sets_fresh_ = false;
  ancestors_fresh_ = false;
  distance_table_fresh_ = false;
  return id;
}

Result<ConceptId> Ontology::AddConcept(const std::string& name, ConceptId parent) {
  return AddConcept(name, std::vector<ConceptId>{parent});
}

Result<ConceptId> Ontology::Find(const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound("concept '" + name + "' not found in ontology '" +
                            name_ + "'");
  }
  return it->second;
}

void Ontology::EnsureAncestors() const {
  if (ancestors_fresh_) return;
  size_t n = names_.size();
  ancestors_.assign(n, Bitset(n));
  // Insertion order is a topological order (parents precede children).
  for (size_t c = 0; c < n; ++c) {
    ancestors_[c].Set(c);
    for (ConceptId p : parents_[c]) ancestors_[c] |= ancestors_[p];
  }
  ancestors_fresh_ = true;
}

void Ontology::EnsureLeafSets() const {
  if (leaf_sets_fresh_) return;
  size_t n = names_.size();
  leaf_sets_.assign(n, Bitset(n));
  // Process in reverse insertion order so children are done before parents.
  for (size_t i = n; i-- > 0;) {
    if (children_[i].empty()) {
      leaf_sets_[i].Set(i);
    } else {
      for (ConceptId child : children_[i]) leaf_sets_[i] |= leaf_sets_[child];
    }
  }
  leaf_sets_fresh_ = true;
}

bool Ontology::Contains(ConceptId ancestor, ConceptId descendant) const {
  assert(IsValid(ancestor) && IsValid(descendant));
  if (ancestor == descendant) return true;
  if (ancestor == top()) return true;
  EnsureAncestors();
  return ancestors_[descendant].Test(ancestor);
}

std::vector<ConceptId> Ontology::Leaves() const {
  std::vector<ConceptId> out;
  for (size_t c = 0; c < names_.size(); ++c) {
    if (children_[c].empty()) out.push_back(static_cast<ConceptId>(c));
  }
  return out;
}

std::vector<ConceptId> Ontology::LeavesUnder(ConceptId c) const {
  assert(IsValid(c));
  EnsureLeafSets();
  std::vector<ConceptId> out;
  leaf_sets_[c].ForEach([&out](size_t i) { out.push_back(static_cast<ConceptId>(i)); });
  return out;
}

size_t Ontology::LeafCount(ConceptId c) const {
  assert(IsValid(c));
  EnsureLeafSets();
  return leaf_sets_[c].Count();
}

ConceptId Ontology::LeafUnder(ConceptId c, size_t k) const {
  assert(IsValid(c));
  EnsureLeafSets();
  const Bitset& leaves = leaf_sets_[c];
  assert(k < leaves.Count());
  size_t w = 0;
  for (;; ++w) {
    const size_t n = static_cast<size_t>(std::popcount(leaves.Words()[w]));
    if (k < n) break;
    k -= n;
  }
  uint64_t word = leaves.Words()[w];
  for (; k > 0; --k) word &= word - 1;  // drop the k lowest leaves
  return static_cast<ConceptId>(w * 64 + std::countr_zero(word));
}

int Ontology::UpwardDistance(ConceptId from, ConceptId target) const {
  return UpwardSearch(from, target).first;
}

ConceptId Ontology::NearestContainer(ConceptId from, ConceptId target) const {
  return UpwardSearch(from, target).second;
}

std::pair<int, ConceptId> Ontology::UpwardSearch(ConceptId from,
                                                 ConceptId target) const {
  assert(IsValid(from) && IsValid(target));
  if (Contains(from, target)) return {0, from};
  EnsureLeafSets();
  // BFS over parent edges; among containers found at the minimal distance,
  // prefer the one with the fewest leaves, then the smallest id.
  std::vector<int> dist(names_.size(), -1);
  std::deque<ConceptId> queue;
  dist[from] = 0;
  queue.push_back(from);
  int found_dist = -1;
  ConceptId best = kInvalidConcept;
  while (!queue.empty()) {
    ConceptId c = queue.front();
    queue.pop_front();
    if (found_dist >= 0 && dist[c] > found_dist) break;
    if (Contains(c, target)) {
      if (found_dist < 0) found_dist = dist[c];
      if (best == kInvalidConcept || LeafCount(c) < LeafCount(best) ||
          (LeafCount(c) == LeafCount(best) && c < best)) {
        best = c;
      }
      continue;
    }
    for (ConceptId p : parents_[c]) {
      if (dist[p] < 0) {
        dist[p] = dist[c] + 1;
        queue.push_back(p);
      }
    }
  }
  assert(best != kInvalidConcept);  // ⊤ always contains target
  return {found_dist, best};
}

const float* Ontology::DistanceTable() const {
  if (!distance_table_fresh_) {
    size_t n = names_.size();
    distance_table_.assign(n <= kMaxDistanceTableSize ? n * n : 0, 0.0f);
    if (!distance_table_.empty()) {
      RUDOLF_COUNTER_INC("ontology.distance_table.builds");
      for (ConceptId a = 0; a < n; ++a) {
        for (ConceptId b = a + 1; b < n; ++b) {
          float d = static_cast<float>(UpwardDistance(a, b) + UpwardDistance(b, a)) /
                    2.0f;
          distance_table_[a * n + b] = d;
          distance_table_[b * n + a] = d;
        }
      }
    }
    distance_table_fresh_ = true;
  }
  return distance_table_.empty() ? nullptr : distance_table_.data();
}

ConceptId Ontology::Join(ConceptId a, ConceptId b) const {
  return JoinAll({a, b});
}

ConceptId Ontology::JoinAll(const std::vector<ConceptId>& cs) const {
  if (cs.empty()) return top();
  if (cs.size() == 1) {
    assert(IsValid(cs[0]));
    return cs[0];
  }
  EnsureLeafSets();
  ConceptId best = top();
  size_t best_leaves = LeafCount(top());
  for (size_t c = 0; c < names_.size(); ++c) {
    ConceptId cid = static_cast<ConceptId>(c);
    bool contains_all = true;
    for (ConceptId x : cs) {
      if (!Contains(cid, x)) {
        contains_all = false;
        break;
      }
    }
    if (!contains_all) continue;
    size_t leaves = LeafCount(cid);
    if (leaves < best_leaves ||
        (leaves == best_leaves &&
         (depth_[c] > depth_[best] || (depth_[c] == depth_[best] && cid < best)))) {
      best = cid;
      best_leaves = leaves;
    }
  }
  return best;
}

std::vector<ConceptId> Ontology::GreedyLeafCover(ConceptId within,
                                                 ConceptId exclude) const {
  assert(IsValid(within) && IsValid(exclude));
  EnsureLeafSets();
  // Uncovered = leaves under `within` that are not under `exclude`.
  Bitset uncovered = leaf_sets_[within];
  uncovered.Subtract(leaf_sets_[exclude]);
  std::vector<ConceptId> cover;
  // Candidates: concepts contained in `within` whose leaf set avoids
  // `exclude` entirely.
  std::vector<ConceptId> candidates;
  for (size_t c = 0; c < names_.size(); ++c) {
    ConceptId cid = static_cast<ConceptId>(c);
    if (!Contains(within, cid)) continue;
    if (leaf_sets_[cid].IntersectCount(leaf_sets_[exclude]) > 0) continue;
    candidates.push_back(cid);
  }
  while (uncovered.Any()) {
    ConceptId best = kInvalidConcept;
    size_t best_gain = 0;
    for (ConceptId cid : candidates) {
      size_t gain = leaf_sets_[cid].IntersectCount(uncovered);
      // Prefer larger gain; break ties toward shallower (more general)
      // concepts so the resulting rules read naturally.
      if (gain > best_gain ||
          (gain == best_gain && gain > 0 && best != kInvalidConcept &&
           depth_[cid] < depth_[best])) {
        best = cid;
        best_gain = gain;
      }
    }
    if (best == kInvalidConcept || best_gain == 0) break;  // unreachable leaves
    cover.push_back(best);
    uncovered.Subtract(leaf_sets_[best]);
  }
  return cover;
}

}  // namespace rudolf
