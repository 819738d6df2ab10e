#include "network/density_sanitizer.h"

#include <cmath>
#include <utility>

#include "common/string_util.h"

namespace roadpart {

Result<std::vector<double>> SanitizeDensities(std::vector<double> densities,
                                              DensityPolicy policy,
                                              int expected_count,
                                              DensityRepairReport* report) {
  DensityRepairReport local;
  DensityRepairReport& rep = report != nullptr ? *report : local;
  rep = DensityRepairReport{};

  const int n = static_cast<int>(densities.size());
  if (expected_count >= 0 && n != expected_count) {
    if (policy == DensityPolicy::kReject) {
      return Status::InvalidArgument(
          StrPrintf("density vector has %d entries for %d segments", n,
                    expected_count));
    }
    if (n < expected_count) {
      rep.padded = expected_count - n;
      densities.resize(expected_count, 0.0);
      rep.warnings.push_back(StrPrintf(
          "density vector short by %d entries; padded with zeros (stale or "
          "truncated feed?)",
          rep.padded));
    } else {
      rep.truncated = n - expected_count;
      densities.resize(expected_count);
      rep.warnings.push_back(StrPrintf(
          "density vector has %d surplus entries; truncated", rep.truncated));
    }
  }

  // Clamp target for +Inf: the largest finite value present, so an overflowed
  // sensor reads as "most congested seen" rather than rescaling everything.
  double max_finite = 0.0;
  for (double d : densities) {
    if (std::isfinite(d) && d > max_finite) max_finite = d;
  }

  for (size_t i = 0; i < densities.size(); ++i) {
    double d = densities[i];
    if (std::isnan(d)) {
      if (policy == DensityPolicy::kReject) {
        return Status::InvalidArgument(
            StrPrintf("density %zu is NaN", i));
      }
      densities[i] = 0.0;
      ++rep.nan_replaced;
    } else if (std::isinf(d)) {
      if (policy == DensityPolicy::kReject) {
        return Status::InvalidArgument(
            StrPrintf("density %zu is %sinfinite", i, d < 0.0 ? "-" : "+"));
      }
      densities[i] = d < 0.0 ? 0.0 : max_finite;
      ++rep.inf_clamped;
    } else if (d < 0.0) {
      if (policy == DensityPolicy::kReject) {
        return Status::InvalidArgument(
            StrPrintf("density %zu is negative (%g)", i, d));
      }
      densities[i] = 0.0;
      ++rep.negative_clamped;
    }
  }
  if (rep.nan_replaced > 0) {
    rep.warnings.push_back(
        StrPrintf("replaced %d NaN densities with 0", rep.nan_replaced));
  }
  if (rep.inf_clamped > 0) {
    rep.warnings.push_back(
        StrPrintf("clamped %d infinite densities", rep.inf_clamped));
  }
  if (rep.negative_clamped > 0) {
    rep.warnings.push_back(StrPrintf("clamped %d negative densities to 0",
                                     rep.negative_clamped));
  }
  return densities;
}

}  // namespace roadpart
