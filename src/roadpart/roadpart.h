#ifndef ROADPART_ROADPART_H_
#define ROADPART_ROADPART_H_

/// Umbrella header for the roadpart library: traffic-congestion-based
/// spatial partitioning of large urban road networks (reproduction of
/// Anwar, Liu, Leckie & Vu, EDBT 2014).
///
/// Typical use:
///
///   #include "roadpart/roadpart.h"
///
///   roadpart::GridOptions grid;
///   auto network = roadpart::GenerateGridNetwork(grid).value();
///   roadpart::CongestionField field(network, {});
///   network.SetDensities(field.Densities());
///
///   roadpart::PartitionerOptions options;
///   options.scheme = roadpart::Scheme::kASG;
///   options.k = 6;
///   roadpart::Partitioner partitioner(options);
///   auto outcome = partitioner.PartitionNetwork(network).value();

#include "cluster/kmeans.h"
#include "cluster/kmeans1d.h"
#include "cluster/optimality.h"
#include "common/durable_io.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/timer.h"
#include "core/alpha_cut.h"
#include "core/checkpoint.h"
#include "core/distributed_repartition.h"
#include "core/ji_geroliminis.h"
#include "core/normalized_cut.h"
#include "core/optimal_k.h"
#include "core/partition_tracker.h"
#include "core/refinement.h"
#include "core/partitioner.h"
#include "core/stability.h"
#include "core/supergraph.h"
#include "core/supergraph_io.h"
#include "core/supergraph_miner.h"
#include "graph/connected_components.h"
#include "graph/csr_graph.h"
#include "graph/graph_algos.h"
#include "metrics/modularity.h"
#include "metrics/partition_metrics.h"
#include "metrics/partition_report.h"
#include "metrics/validity.h"
#include "netgen/city_generator.h"
#include "netgen/grid_generator.h"
#include "netgen/radial_generator.h"
#include "network/density_sanitizer.h"
#include "network/edge_list_io.h"
#include "network/geojson_export.h"
#include "network/network_io.h"
#include "network/road_graph.h"
#include "network/road_network.h"
#include "pipeline/controller.h"
#include "pipeline/journal.h"
#include "serve/runtime.h"
#include "serve/serve_loop.h"
#include "serve/snapshot.h"
#include "serve/spatial_index.h"
#include "temporal/interval_driver.h"
#include "temporal/series_io.h"
#include "temporal/snapshot_series.h"
#include "traffic/congestion_field.h"
#include "traffic/density_mapper.h"
#include "traffic/microsim.h"
#include "traffic/router.h"
#include "traffic/trip_generator.h"

#endif  // ROADPART_ROADPART_H_
