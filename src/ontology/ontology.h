// The concept ontology of Section 2: every categorical attribute's domain is
// a partial order (a DAG) with a greatest element ⊤. Data tuples carry leaf
// concepts; rules may carry any concept c, meaning "attribute value ≤ c".
//
// The refinement algorithms need four primitives from the ontology:
//   * Contains(a, d)        — reachability, defines rule satisfaction;
//   * UpwardDistance(c, t)  — the "ontological distance" of Section 4.1: the
//                             length of the shortest parent-chain from c to a
//                             concept that contains t;
//   * Join(a, b)            — the smallest concept containing both, used for
//                             representative tuples (Section 4.1);
//   * GreedyLeafCover(...)  — the greedy set cover over leaves used to split
//                             categorical conditions (Section 4.2).

#ifndef RUDOLF_ONTOLOGY_ONTOLOGY_H_
#define RUDOLF_ONTOLOGY_ONTOLOGY_H_

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/bitset.h"
#include "util/status.h"

namespace rudolf {

/// Identifier of a concept within one Ontology. Dense, starting at 0 (= ⊤).
using ConceptId = uint32_t;

/// Sentinel for "no concept".
inline constexpr ConceptId kInvalidConcept = std::numeric_limits<ConceptId>::max();

/// \brief A DAG of concepts with a single greatest element ⊤ (id 0).
///
/// Concepts are appended with their parents, so the structure is acyclic by
/// construction. Leaves are the concepts with no children; the formal least
/// element ⊥ of the paper is implicit (it never appears in data or rules).
class Ontology {
 public:
  /// Creates an ontology whose ⊤ concept carries `top_name`.
  explicit Ontology(std::string name = "ontology", std::string top_name = "Any");

  /// Adds a concept under the given parents (all must already exist; the
  /// list must be non-empty and duplicate-free). Names must be unique.
  Result<ConceptId> AddConcept(const std::string& name,
                               const std::vector<ConceptId>& parents);

  /// Convenience: adds a concept under a single parent.
  Result<ConceptId> AddConcept(const std::string& name, ConceptId parent);

  /// Name of this ontology (used by schema serialization).
  const std::string& name() const { return name_; }

  /// The greatest element ⊤.
  ConceptId top() const { return 0; }

  /// Number of concepts (including ⊤).
  size_t size() const { return names_.size(); }

  /// Returns the concept's name. Requires a valid id.
  const std::string& NameOf(ConceptId c) const { return names_[c]; }

  /// Looks up a concept by name.
  Result<ConceptId> Find(const std::string& name) const;

  /// True if the id addresses an existing concept.
  bool IsValid(ConceptId c) const { return c < names_.size(); }

  const std::vector<ConceptId>& ParentsOf(ConceptId c) const { return parents_[c]; }
  const std::vector<ConceptId>& ChildrenOf(ConceptId c) const { return children_[c]; }

  /// True if `ancestor` contains `descendant` in the partial order
  /// (reflexive: Contains(c, c) is true).
  bool Contains(ConceptId ancestor, ConceptId descendant) const;

  /// True if c has no children.
  bool IsLeaf(ConceptId c) const { return children_[c].empty(); }

  /// All leaves of the ontology.
  std::vector<ConceptId> Leaves() const;

  /// Leaves contained in `c` (c itself if it is a leaf).
  std::vector<ConceptId> LeavesUnder(ConceptId c) const;

  /// Number of leaves contained in `c`.
  size_t LeafCount(ConceptId c) const;

  /// The k-th leaf contained in `c`, in id order: LeavesUnder(c)[k] without
  /// building the vector. Requires k < LeafCount(c).
  ConceptId LeafUnder(ConceptId c, size_t k) const;

  /// Minimum number of parent-edges from ⊤ down to c (0 for ⊤).
  int Depth(ConceptId c) const { return depth_[c]; }

  /// \brief The ontological distance of Section 4.1.
  ///
  /// The length of the shortest chain of parent edges that must be climbed
  /// from `from` to reach a concept containing `target`; 0 when `from`
  /// already contains `target`. Always well defined because ⊤ contains all.
  int UpwardDistance(ConceptId from, ConceptId target) const;

  /// The concept reached by climbing UpwardDistance(from, target) parent
  /// edges from `from`: the nearest ancestor-or-self of `from` containing
  /// `target`. Ties are broken by smallest leaf count, then smallest id
  /// (footnote 2 of the paper: "we pick one").
  ConceptId NearestContainer(ConceptId from, ConceptId target) const;

  /// Smallest concept (fewest leaves; ties: greatest depth, then smallest id)
  /// containing both a and b.
  ConceptId Join(ConceptId a, ConceptId b) const;

  /// Smallest concept containing every concept in `cs` (⊤ for empty input).
  ConceptId JoinAll(const std::vector<ConceptId>& cs) const;

  /// \brief Greedy set cover for rule specialization (Section 4.2).
  ///
  /// Returns a small set of concepts, each contained in `within` and none
  /// containing `exclude`, whose leaf sets jointly cover every leaf under
  /// `within` that is not under `exclude`. Greedy: repeatedly picks the
  /// candidate covering the most uncovered leaves. The result is empty iff
  /// `exclude` covers all of `within`'s leaves.
  std::vector<ConceptId> GreedyLeafCover(ConceptId within, ConceptId exclude) const;

  /// Forces the lazily built ancestor/leaf-set caches to exist. The caches
  /// make every query above const-but-mutating on first use; call this once
  /// (serially) before issuing queries from multiple threads — after it, the
  /// query methods only read the caches until the next AddConcept.
  void WarmCaches() const {
    EnsureAncestors();
    EnsureLeafSets();
  }

  /// \brief The symmetric ontological distance of every concept pair, or
  /// nullptr for an ontology above 256 concepts (the table is quadratic in
  /// size), where callers take UpwardDistance per pair instead.
  ///
  /// Entry `a * size() + b` holds (UpwardDistance(a, b) + UpwardDistance(b,
  /// a)) / 2. The table is built on the first call and dropped by
  /// AddConcept, like the ancestor and leaf-set caches; the pointer is valid
  /// until the next AddConcept.
  ///
  /// Threading: the call that builds the table must not overlap any other
  /// query of this ontology; later calls only read. TupleDistance makes the
  /// first call on the thread that constructs it, before any parallel
  /// clustering region. No caller clusters over one ontology from two
  /// threads at once: every fleet tenant owns its schema and its ontologies.
  const float* DistanceTable() const;

 private:
  // BFS over parent edges shared by UpwardDistance and NearestContainer:
  // returns {distance, chosen container}.
  std::pair<int, ConceptId> UpwardSearch(ConceptId from, ConceptId target) const;

  void EnsureAncestors() const;
  void EnsureLeafSets() const;

  std::string name_;
  std::vector<std::string> names_;
  std::vector<std::vector<ConceptId>> parents_;
  std::vector<std::vector<ConceptId>> children_;
  std::vector<int> depth_;
  // ancestors_[c] has bit a set iff a is an ancestor-or-self of c. Rebuilt
  // lazily after mutation.
  mutable std::vector<Bitset> ancestors_;
  mutable bool ancestors_fresh_ = false;
  // leaf_sets_[c] has bit l set iff concept l is a leaf under c. Leaf bits are
  // indexed by ConceptId over the full concept universe (non-leaf bits are 0).
  // Rebuilt lazily because adding a child can turn a leaf into an inner node.
  mutable std::vector<Bitset> leaf_sets_;
  mutable bool leaf_sets_fresh_ = false;
  // Backs DistanceTable(); empty above its size limit. Rebuilt lazily
  // because a new concept changes the table's shape.
  mutable std::vector<float> distance_table_;
  mutable bool distance_table_fresh_ = false;
  std::unordered_map<std::string, ConceptId> by_name_;
};

}  // namespace rudolf

#endif  // RUDOLF_ONTOLOGY_ONTOLOGY_H_
