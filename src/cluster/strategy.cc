#include "cluster/strategy.h"

#include "cluster/kmeans.h"
#include "cluster/leader.h"
#include "cluster/streaming_kmeans.h"
#include "util/task_scheduler.h"

namespace rudolf {

const char* ClusteringStrategyName(ClusteringStrategy strategy) {
  switch (strategy) {
    case ClusteringStrategy::kLeader:
      return "leader";
    case ClusteringStrategy::kKMedoids:
      return "kmedoids";
    case ClusteringStrategy::kStreamingKMeans:
      return "streaming-kmeans";
  }
  return "?";
}

std::vector<std::vector<size_t>> ClusterRows(const Relation& relation,
                                             const std::vector<size_t>& rows,
                                             const ClusteringOptions& options) {
  if (rows.empty()) return {};
  TupleDistance metric(relation.shared_schema(),
                       ScaledDistanceOptions(relation, rows));
  int threads = ResolveNumThreads(options.num_threads);
  TaskScheduler* sched = threads > 1 ? TaskScheduler::Shared(threads) : nullptr;
  switch (options.strategy) {
    case ClusteringStrategy::kLeader:
      return LeaderCluster(relation, rows, metric, options.leader_threshold,
                           sched);
    case ClusteringStrategy::kKMedoids: {
      KMedoidsOptions ko;
      ko.k = options.k;
      ko.seed = options.seed;
      ko.sched = sched;
      return KMedoidsCluster(relation, rows, metric, ko);
    }
    case ClusteringStrategy::kStreamingKMeans: {
      StreamingKMeansOptions so;
      so.target_k = options.k;
      so.seed = options.seed;
      so.initial_cost = options.leader_threshold;
      return StreamingKMeansCluster(relation, rows, metric, so);
    }
  }
  return {};
}

}  // namespace rudolf
