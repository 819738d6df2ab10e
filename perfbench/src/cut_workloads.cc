// cut-asg-m3 and cut-ag: one op is one Partitioner::PartitionNetwork call.
//
// The traced run replays each op as the layer calls PartitionNetwork makes
// (road graph -> mining -> spectral k-way cut, with Embed timed through a
// decorator), checks the replay reproduces the op's labels bit for bit, and
// then re-solves the top-level alpha-Cut eigenproblem behind a counting
// operator to split the eigensolver into operator applies and the rest.

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "bench.h"
#include "inputs.h"

namespace perfbench {

using namespace roadpart;

namespace {

constexpr int kK = 6;
// Set-up (the first, cold op on a freshly generated city) is repeated this
// often per run and reported as a median.
constexpr int kSetupReps = 5;

PartitionerOptions CutOptions(Scheme scheme) {
  PartitionerOptions options;
  options.scheme = scheme;
  options.k = kK;
  options.num_threads = 1;
  return options;
}

/// Times every Embed call of an alpha-Cut pipeline and keeps the first
/// (top-level) embedding. Forwards everything else to AlphaCutMethod.
class TimedAlphaCut final : public SpectralCutMethod {
 public:
  TimedAlphaCut(const SpectralOptions& spectral, Tracer& tracer)
      : inner_(spectral), tracer_(tracer) {}

  Result<DenseMatrix> Embed(const CsrGraph& graph, int k) const override {
    ScopedSpan span(tracer_, "linalg.embed");
    inner_.ResetEigenDiagnostics();
    Result<DenseMatrix> embedding = inner_.Embed(graph, k);
    RecordEigenSolve(inner_.eigen_diagnostics());
    if (calls_++ == 0 && embedding.ok()) top_embedding_ = *embedding;
    return embedding;
  }
  double Objective(const CsrGraph& graph,
                   const std::vector<int>& assignment) const override {
    return inner_.Objective(graph, assignment);
  }
  double PartitionTerm(double volume, double internal, int size,
                       double total) const override {
    return inner_.PartitionTerm(volume, internal, size, total);
  }
  const char* name() const override { return inner_.name(); }

  int calls() const { return calls_; }
  const DenseMatrix& top_embedding() const { return top_embedding_; }

 private:
  AlphaCutMethod inner_;
  Tracer& tracer_;
  mutable int calls_ = 0;
  mutable DenseMatrix top_embedding_;
};

/// Counts and times Apply calls of the operator it wraps.
class CountingOperator final : public LinearOperator {
 public:
  explicit CountingOperator(const LinearOperator& base) : base_(base) {}

  int Dim() const override { return base_.Dim(); }
  void Apply(const double* x, double* y) const override {
    const double start = NowSeconds();
    base_.Apply(x, y);
    seconds_ += NowSeconds() - start;
    ++applies_;
  }

  int64_t applies() const { return applies_; }
  double ms() const { return seconds_ * 1e3; }

 private:
  const LinearOperator& base_;
  mutable int64_t applies_ = 0;
  mutable double seconds_ = 0.0;
};

struct CutSummary {
  std::vector<int> assignment;
  int k_final = 0;
  int k_prime = 0;
  int supernodes = 0;
  EigenSolveDiagnostics eigen;
};

/// Output checks plus the deterministic ledger entries of one cut.
void CheckSummary(const CsrGraph& adjacency, const CutSummary& cut,
                  RunRecord* record, std::vector<std::string>* problems) {
  CheckCut(adjacency, cut.assignment, cut.k_final, kK, problems);
  if (cut.eigen.solver_path >= SolverPath::kDenseFallback ||
      !cut.eigen.all_converged) {
    problems->push_back(std::string("eigensolver left the Lanczos rungs: ") +
                        SolverPathName(cut.eigen.solver_path));
  }
  record->SetDet("cut.assignment_fnv",
                 Uint64ToHex(FingerprintLabels(cut.assignment)), problems);
  record->SetDet("core.k_prime", cut.k_prime, problems);
  record->SetDet("core.supernodes", cut.supernodes, problems);
  record->SetDet("linalg.solves", cut.eigen.solves, problems);
  record->SetDet("linalg.restarts", cut.eigen.lanczos_restarts, problems);
  record->SetDet("linalg.solver_path",
                 static_cast<int>(cut.eigen.solver_path), problems);
}

/// One untraced op; returns its wall time in ms.
double TimedOp(const Partitioner& partitioner, const RoadNetwork& network,
               const CsrGraph& adjacency, RunRecord* record,
               std::vector<std::string>* problems,
               std::vector<int>* assignment_out = nullptr) {
  const double start = NowSeconds();
  Result<PartitionOutcome> outcome = partitioner.PartitionNetwork(network);
  const double ms = (NowSeconds() - start) * 1e3;
  if (!CheckOk(outcome.status(), "PartitionNetwork", problems)) return ms;
  CutSummary cut{std::move(outcome->assignment), outcome->k_final,
                 outcome->k_prime, outcome->num_supernodes,
                 outcome->diagnostics.eigen};
  CheckSummary(adjacency, cut, record, problems);
  if (assignment_out != nullptr) *assignment_out = std::move(cut.assignment);
  return ms;
}

/// Per-op layer values of a traced op.
struct ReplayLayers {
  double embed_calls = 0;
  double applies = 0;
  double apply_ms = 0;
  double eigensolve_ms = 0;
};

/// PartitionNetwork decomposed into its public layer calls, in the order
/// Partitioner makes them, each under a span. Returns the summary the op
/// would return, or a problem.
Result<CutSummary> ReplayOp(const RoadNetwork& network, Scheme scheme,
                            Tracer& tracer, ReplayLayers* layers) {
  const PartitionerOptions options = CutOptions(scheme);
  SpectralPipelineOptions pipeline;
  pipeline.kmeans = options.kmeans;
  pipeline.kmeans.seed = options.seed;
  pipeline.enforce_exact_k = options.enforce_exact_k;
  pipeline.exact_k_method = options.exact_k_method;
  pipeline.enforce_connectivity = options.enforce_connectivity;
  TimedAlphaCut method(options.spectral, tracer);

  CutSummary summary;
  CsrGraph target;
  {
    ScopedSpan op(tracer, "op");
    RoadGraph graph;
    {
      ScopedSpan span(tracer, "network.road_graph");
      graph = RoadGraph::FromNetwork(network);
    }
    {
      ScopedSpan span(tracer, "network.sanitize_densities");
      DensityRepairReport repairs;
      RP_RETURN_IF_ERROR(SanitizeDensities(graph.features(),
                                           options.density_policy,
                                           graph.num_nodes(), &repairs)
                             .status());
      if (repairs.total_repaired() > 0) {
        return Status::Internal("generated densities needed repair");
      }
    }
    GraphCutResult cut;
    if (scheme == Scheme::kASG) {
      Supergraph sg;
      {
        ScopedSpan span(tracer, "core.mine");
        SupergraphMinerOptions miner = options.miner;
        miner.min_supernodes = std::max(miner.min_supernodes, kK);
        SupergraphMiningReport report;
        RP_ASSIGN_OR_RETURN(sg, MineSupergraph(graph, miner, &report));
        if (sg.num_supernodes() < kK) {
          return Status::Internal("supergraph has fewer supernodes than k");
        }
      }
      {
        ScopedSpan span(tracer, "core.cut");
        RP_ASSIGN_OR_RETURN(
            cut, SpectralKWayPartition(sg.links(), kK, method, pipeline));
      }
      {
        ScopedSpan span(tracer, "core.expand_assignment");
        RP_ASSIGN_OR_RETURN(summary.assignment,
                            sg.ExpandAssignment(cut.assignment));
      }
      summary.supernodes = sg.num_supernodes();
      target = sg.links();
    } else {
      {
        ScopedSpan span(tracer, "core.gaussian_weights");
        target = GaussianWeightedGraph(graph.adjacency(), graph.features());
      }
      {
        ScopedSpan span(tracer, "core.cut");
        RP_ASSIGN_OR_RETURN(
            cut, SpectralKWayPartition(target, kK, method, pipeline));
      }
      summary.assignment = std::move(cut.assignment);
    }
    summary.k_final = cut.k_final;
    summary.k_prime = cut.k_prime;
    summary.eigen = cut.eigen;
  }
  layers->embed_calls = method.calls();

  // The top-level eigensolve again, built from the public operators exactly
  // as AlphaCutMethod::Embed builds it, behind a counting decorator. Outside
  // the op span: it is extra work of the traced run, not part of the op.
  ScopedSpan replay(tracer, "replay.eigensolve");
  SparseMatrix a = target.ToSparseMatrix();
  SparseOperator a_op(a);
  std::vector<double> d = a.RowSums();
  double s = 0.0;
  for (double x : d) s += x;
  RankOneUpdatedOperator m_op(a_op, d, s > 0.0 ? 1.0 / s : 0.0, -1.0);
  CountingOperator counting(m_op);
  const double start = NowSeconds();
  RP_ASSIGN_OR_RETURN(DenseMatrix y,
                      ExtremeEigenvectors(counting, kK, SpectrumEnd::kSmallest,
                                          options.spectral));
  layers->eigensolve_ms = (NowSeconds() - start) * 1e3;
  layers->applies = static_cast<double>(counting.applies());
  layers->apply_ms = counting.ms();
  RP_ASSIGN_OR_RETURN(DenseMatrix z, RowNormalize(y));
  const DenseMatrix& top = method.top_embedding();
  if (z.rows() != top.rows() || z.cols() != top.cols() ||
      std::memcmp(z.data().data(), top.data().data(),
                  z.data().size() * sizeof(double)) != 0) {
    return Status::Internal("eigensolve replay differs from Embed's bits");
  }
  return summary;
}

void RunCut(const RunConfig& config, Scheme scheme,
            RoadNetwork (*make_city)(), Tracer& tracer, RunRecord* record) {
  const Partitioner partitioner(CutOptions(scheme));

  // Set-up: generate the city, then run the first (cold) op on it.
  RoadNetwork network;
  CsrGraph adjacency;
  std::vector<int> reference;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    network = make_city();
    adjacency = RoadGraph::FromNetwork(network).adjacency();
    std::vector<std::string> problems;
    record->setup_s.push_back(
        TimedOp(partitioner, network, adjacency, record, &problems,
                &reference) /
        1e3);
    record->CountOp(problems);
  }
  {
    std::vector<std::string> problems;
    RoadGraph graph = RoadGraph::FromNetwork(network);
    Result<double> ans = AverageNcutSilhouette(graph.adjacency(),
                                               graph.features(), reference);
    if (CheckOk(ans.status(), "AverageNcutSilhouette", &problems)) {
      record->SetDet("ans", *ans, &problems);
    }
    if (!problems.empty()) record->CountOp(problems);
  }

  // Untraced ops (the whole run, or the first half of a traced run).
  const double untraced_seconds =
      config.trace ? config.seconds / 2 : config.seconds;
  double start = NowSeconds();
  for (int ops = 0; KeepGoing(start, untraced_seconds, ops, config); ++ops) {
    std::vector<std::string> problems;
    record->op_ms.push_back(
        TimedOp(partitioner, network, adjacency, record, &problems));
    record->CountOp(problems);
  }
  if (!config.trace) return;

  std::map<std::string, std::vector<double>> layer_values;
  start = NowSeconds();
  for (int ops = 0; KeepGoing(start, config.seconds / 2, ops, config);
       ++ops) {
    tracer.SetOp(ops);
    std::vector<std::string> problems;
    ReplayLayers layers;
    Result<CutSummary> cut = ReplayOp(network, scheme, tracer, &layers);
    if (CheckOk(cut.status(), "traced replay", &problems)) {
      CheckSummary(adjacency, *cut, record, &problems);
    }
    record->SetDet("linalg.embed_calls", layers.embed_calls, &problems);
    record->SetDet("linalg.applies", layers.applies, &problems);
    record->CountOp(problems);
    layer_values["linalg.apply_ms"].push_back(layers.apply_ms);
    layer_values["linalg.eigensolve_ms"].push_back(layers.eigensolve_ms);
    layer_values["linalg.eigensolve_self_ms"].push_back(layers.eigensolve_ms -
                                                        layers.apply_ms);
    record->traced_units += 1;
  }
  auto per_op = [&](const std::string& span) {
    std::vector<double> values;
    for (const auto& [op, ms] : tracer.PerOpMs(span)) {
      if (op >= 0) values.push_back(ms);
    }
    return values;
  };
  record->traced_op_ms = per_op("op");
  const std::vector<double> cut_ms = per_op("core.cut");
  const std::vector<double> embed_ms = per_op("linalg.embed");
  for (size_t i = 0; i < cut_ms.size() && i < embed_ms.size(); ++i) {
    layer_values["core.cut_self_ms"].push_back(cut_ms[i] - embed_ms[i]);
  }
  layer_values["network.road_graph_ms"] = per_op("network.road_graph");
  layer_values["core.mine_ms"] = per_op("core.mine");
  layer_values["core.cut_ms"] = cut_ms;
  layer_values["linalg.embed_ms"] = embed_ms;
  for (const auto& [name, values] : layer_values) {
    record->layers[name] = Median(values);
  }
  for (const char* count :
       {"core.k_prime", "core.supernodes", "linalg.solves", "linalg.restarts",
        "linalg.solver_path", "linalg.embed_calls", "linalg.applies"}) {
    record->layers[count] = std::atof(record->det[count].c_str());
  }
}

}  // namespace

void RunCutAsgM3(const RunConfig& config, Tracer& tracer, RunRecord* record) {
  RunCut(config, Scheme::kASG, &MakeM3City, tracer, record);
}

void RunCutAg(const RunConfig& config, Tracer& tracer, RunRecord* record) {
  RunCut(config, Scheme::kAG, &MakeAgCity, tracer, record);
}

}  // namespace perfbench
