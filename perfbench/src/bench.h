#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared vocabulary of rp_perfbench: run configuration, the raw
// per-run record handed to perfbench/run.py, and small measurement helpers.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "roadpart/roadpart.h"
#include "trace.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  ///< measured time; the traced run splits it in two
  bool trace = false;
  int max_ops = 0;        ///< > 0 caps measured ops (smoke mode)
  std::string work_dir;   ///< scratch directory inside the checkout
  std::string trace_path; ///< Chrome trace-event output of a traced run
};

/// Everything one run measured. Statistics (medians, percentiles, the
/// ledger) are computed from it by perfbench/stats.py.
struct RunRecord {
  std::vector<double> setup_s;       ///< one entry per set-up repetition
  std::vector<double> op_ms;         ///< untraced measured ops
  std::vector<double> traced_op_ms;  ///< traced ops (traced run only)
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;  ///< first messages, for the report
  int64_t queries = 0;          ///< queries answered by the measured ops
  double query_seconds = 0.0;   ///< wall time spent answering them
  /// Deterministic values (counts, fingerprints, ANS bits) that must repeat
  /// exactly across ops of a run and across runs of one seed.
  std::map<std::string, std::string> det;
  std::map<std::string, double> layers;  ///< per-layer metrics (traced)
  std::map<std::string, double> self_ms; ///< self time per span name
  double traced_units = 0.0;             ///< ops the self times cover
  std::string attribution = "direct";    ///< or "replay"

  /// Records an op's outcome: `problems` empty means the op passed every
  /// check.
  void CountOp(const std::vector<std::string>& problems);
  /// Records a deterministic value; a later different value is a failure.
  void SetDet(const std::string& key, const std::string& value,
              std::vector<std::string>* problems);
  void SetDet(const std::string& key, double value,
              std::vector<std::string>* problems);

  /// The record as one JSON object on one line.
  std::string ToJson(const RunConfig& config) const;
};

/// True while a measuring phase that started at `start_s` should run
/// another op: always for the first op, then until `seconds` elapse or the
/// smoke cap is reached.
bool KeepGoing(double start_s, double seconds, int ops_done,
               const RunConfig& config);

double Median(std::vector<double> values);
double PeakRssMb();
std::string Bits(double value);  ///< exact text of a double (%.17g)
uint64_t FingerprintLabels(const std::vector<int>& labels);

/// Output checks shared by every cut: dense valid labels, exactly k
/// partitions, every partition connected in `adjacency`. Appends one message
/// per violation.
void CheckCut(const roadpart::CsrGraph& adjacency,
              const std::vector<int>& assignment, int k_final, int k,
              std::vector<std::string>* problems);

/// Appends a problem when `status` is not OK.
bool CheckOk(const roadpart::Status& status, const std::string& what,
             std::vector<std::string>* problems);

void RunCutAsgM3(const RunConfig& config, Tracer& tracer, RunRecord* record);
void RunCutAg(const RunConfig& config, Tracer& tracer, RunRecord* record);
void RunServeMixed(const RunConfig& config, Tracer& tracer,
                   RunRecord* record);
void RunRefreshPublishServe(const RunConfig& config, Tracer& tracer,
                            RunRecord* record);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
