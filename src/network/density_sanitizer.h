#ifndef ROADPART_NETWORK_DENSITY_SANITIZER_H_
#define ROADPART_NETWORK_DENSITY_SANITIZER_H_

#include <string>
#include <vector>

#include "common/status.h"

namespace roadpart {

/// What to do with a density vector that fails validation (NaN/Inf entries,
/// negative values, length mismatch against the segment count).
enum class DensityPolicy {
  /// Return InvalidArgument naming the first offending entry; the caller
  /// gets no partition from poisoned input (production default).
  kReject,
  /// Repair in place — NaN/negative -> 0, +Inf -> largest finite value,
  /// short vectors padded with zeros, long vectors truncated — and report
  /// every repair so the caller can surface the degradation.
  kClampAndWarn,
};

/// Per-category repair counts from one SanitizeDensities pass.
struct DensityRepairReport {
  int nan_replaced = 0;       ///< NaN entries zeroed
  int inf_clamped = 0;        ///< +/-Inf entries clamped
  int negative_clamped = 0;   ///< finite negative entries zeroed
  int padded = 0;             ///< zeros appended for a short vector
  int truncated = 0;          ///< trailing entries dropped from a long vector
  std::vector<std::string> warnings;  ///< one human-readable line per repair class

  int total_repaired() const {
    return nan_replaced + inf_clamped + negative_clamped + padded + truncated;
  }
};

/// Validates (kReject) or repairs (kClampAndWarn) a density vector before it
/// enters the partitioning pipeline. `expected_count` is the segment count
/// the vector must match; pass a negative value to skip the length check.
/// On success returns the (possibly repaired) vector; `report`, when given,
/// receives the repair counts either way.
Result<std::vector<double>> SanitizeDensities(
    std::vector<double> densities, DensityPolicy policy,
    int expected_count = -1, DensityRepairReport* report = nullptr);

}  // namespace roadpart

#endif  // ROADPART_NETWORK_DENSITY_SANITIZER_H_
