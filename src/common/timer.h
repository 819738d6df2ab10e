#ifndef ROADPART_COMMON_TIMER_H_
#define ROADPART_COMMON_TIMER_H_

#include <chrono>

namespace roadpart {

/// Simple wall-clock stopwatch.
class Timer {
 public:
  Timer() { Restart(); }

  void Restart() { start_ = std::chrono::steady_clock::now(); }

  /// Elapsed seconds since construction or last Restart().
  double Seconds() const {
    auto now = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(now - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace roadpart

#endif  // ROADPART_COMMON_TIMER_H_
