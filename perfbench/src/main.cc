// rp_perfbench: runs one benchmark workload and prints one JSON record.
//
//   rp_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                [--max-ops <n>] [--work-dir <dir>] [--trace-out <file>]
//
// perfbench/run.py builds this binary, runs it and turns the record into
// the benchmark's metrics. Every workload runs the library single-threaded
// (see perfbench/NOTES.md).

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.h"

namespace perfbench {

using namespace roadpart;

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  return StrPrintf("%.17g", v);
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonNumber(values[i]);
  }
  return out + "]";
}

}  // namespace

void RunRecord::CountOp(const std::vector<std::string>& problems) {
  ++attempted;
  if (problems.empty()) return;
  ++failed;
  for (const std::string& p : problems) {
    if (failures.size() < 20) failures.push_back(p);
  }
}

void RunRecord::SetDet(const std::string& key, const std::string& value,
                       std::vector<std::string>* problems) {
  auto [it, inserted] = det.emplace(key, value);
  if (!inserted && it->second != value) {
    problems->push_back("nondeterministic " + key + ": " + it->second +
                        " then " + value);
  }
}

void RunRecord::SetDet(const std::string& key, double value,
                       std::vector<std::string>* problems) {
  SetDet(key, Bits(value), problems);
}

std::string RunRecord::ToJson(const RunConfig& config) const {
  std::string out = "{";
  out += "\"workload\": " + JsonString(config.workload);
  out += StrPrintf(", \"seed\": %" PRIu64, config.seed);
  out += StrPrintf(", \"trace\": %d", config.trace ? 1 : 0);
  out += ", \"setup_s\": " + JsonArray(setup_s);
  out += ", \"op_ms\": " + JsonArray(op_ms);
  out += ", \"traced_op_ms\": " + JsonArray(traced_op_ms);
  out += StrPrintf(", \"attempted\": %" PRId64 ", \"failed\": %" PRId64,
                   attempted, failed);
  out += ", \"failures\": [";
  for (size_t i = 0; i < failures.size(); ++i) {
    out += (i > 0 ? ", " : "") + JsonString(failures[i]);
  }
  out += "]";
  out += StrPrintf(", \"queries\": %" PRId64, queries);
  out += ", \"query_seconds\": " + JsonNumber(query_seconds);
  out += ", \"peak_rss_mb\": " + JsonNumber(PeakRssMb());
  auto map_json = [](const auto& m, auto value) {
    std::string s = "{";
    bool first = true;
    for (const auto& [k, v] : m) {
      s += (first ? "" : ", ") + JsonString(k) + ": " + value(v);
      first = false;
    }
    return s + "}";
  };
  out += ", \"det\": " + map_json(det, JsonString);
  out += ", \"layers\": " + map_json(layers, JsonNumber);
  out += ", \"self_ms\": " + map_json(self_ms, JsonNumber);
  out += ", \"traced_units\": " + JsonNumber(traced_units);
  out += ", \"attribution\": " + JsonString(attribution);
  out += ", \"trace_path\": " + JsonString(config.trace ? config.trace_path
                                                         : std::string());
  return out + "}";
}

bool KeepGoing(double start_s, double seconds, int ops_done,
               const RunConfig& config) {
  if (ops_done == 0) return true;
  if (config.max_ops > 0) return ops_done < config.max_ops;
  return NowSeconds() - start_s < seconds;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string Bits(double value) { return StrPrintf("%.17g", value); }

uint64_t FingerprintLabels(const std::vector<int>& labels) {
  return Fnv1a64(labels.data(), labels.size() * sizeof(int));
}

void CheckCut(const CsrGraph& adjacency, const std::vector<int>& assignment,
              int k_final, int k, std::vector<std::string>* problems) {
  Status labels =
      ValidatePartitionLabels(assignment, adjacency.num_nodes(), k_final);
  if (!labels.ok()) {
    problems->push_back("invalid labels: " + labels.ToString());
    return;
  }
  if (k_final != k) {
    problems->push_back(StrPrintf("k_final %d != k %d", k_final, k));
  }
  std::vector<std::vector<int>> members(k_final);
  for (int v = 0; v < static_cast<int>(assignment.size()); ++v) {
    members[assignment[v]].push_back(v);
  }
  for (int p = 0; p < k_final; ++p) {
    if (!IsSubsetConnected(adjacency, members[p])) {
      problems->push_back(StrPrintf("partition %d is not connected", p));
    }
  }
}

bool CheckOk(const Status& status, const std::string& what,
             std::vector<std::string>* problems) {
  if (status.ok()) return true;
  problems->push_back(what + ": " + status.ToString());
  return false;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  config.work_dir = ".bench_work";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--max-ops") {
      config.max_ops = std::atoi(value.c_str());
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--trace-out") {
      config.trace_path = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (argc % 2 != 1 || config.seconds <= 0.0) {
    std::fprintf(stderr, "usage: rp_perfbench --workload <name> --seed <n> "
                         "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  // Single-threaded everywhere: ParallelFor spawns fresh threads per call,
  // so multi-threaded timings would measure the host scheduler.
  roadpart::SetDefaultParallelism(1);
  std::error_code ec;
  std::filesystem::remove_all(config.work_dir, ec);
  std::filesystem::create_directories(config.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", config.work_dir.c_str());
    return 2;
  }

  Tracer tracer(config.trace);
  RunRecord record;
  if (config.workload == "cut-asg-m3") {
    RunCutAsgM3(config, tracer, &record);
  } else if (config.workload == "cut-ag") {
    RunCutAg(config, tracer, &record);
  } else if (config.workload == "serve-mixed") {
    RunServeMixed(config, tracer, &record);
  } else if (config.workload == "refresh-publish-serve") {
    RunRefreshPublishServe(config, tracer, &record);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", config.workload.c_str());
    return 2;
  }
  if (config.trace) {
    record.self_ms = tracer.SelfMs();
    if (!tracer.WriteChromeTrace(config.trace_path, config.workload)) {
      record.CountOp({"cannot write trace " + config.trace_path});
    }
  }
  std::filesystem::remove_all(config.work_dir, ec);
  std::printf("%s\n", record.ToJson(config).c_str());
  return 0;
}
