#include "trace.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::Begin(const std::string& name) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op_;
  span.start_s = NowSeconds();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  if (id < 0) return;
  spans_[id].end_s = NowSeconds();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::map<int, double> Tracer::PerOpMs(const std::string& name) const {
  std::map<int, double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out[s.op] += s.ms();
  }
  return out;
}

std::map<std::string, double> Tracer::SelfMs() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ms[s.parent] += s.ms();
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += spans_[i].ms() - child_ms[i];
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path,
                              const std::string& process_name) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double origin = spans_.empty() ? 0.0 : spans_.front().start_s;
  std::fprintf(f,
               "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
               "{\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": "
               "\"process_name\", \"args\": {\"name\": \"%s\"}}",
               process_name.c_str());
  for (const Span& s : spans_) {
    // Set-up spans share track 0; op n runs on track n + 1, so Perfetto
    // stacks each op's nested calls on its own row.
    const int tid = s.op < 0 ? 0 : s.op + 1;
    std::fprintf(f,
                 ",\n{\"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"name\": "
                 "\"%s\", \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"op\": %d}}",
                 tid, s.name.c_str(), (s.start_s - origin) * 1e6,
                 (s.end_s - s.start_s) * 1e6, s.op);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
