#include "harness/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "io/table.hpp"

namespace nspbench {

std::vector<double> self_times_us(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || static_cast<std::size_t>(s.parent) >= spans.size()) {
      continue;
    }
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const double lo = std::max(s.start_us, p.start_us);
    const double hi = std::min(s.end_us, p.end_us);
    if (hi > lo) kids[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<double> self(spans.size());
  for (std::size_t k = 0; k < spans.size(); ++k) {
    std::vector<std::pair<double, double>>& iv = kids[k];
    std::sort(iv.begin(), iv.end());
    double covered = 0, cur_lo = 0, cur_hi = -1;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[k] = spans[k].dur_us() - covered;
  }
  return self;
}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int Tracer::begin(std::string name, int op) {
  const int id = static_cast<int>(spans_.size());
  const int parent = open_.empty() ? -1 : open_.back();
  if (op < 0 && parent >= 0) op = spans_[static_cast<std::size_t>(parent)].op;
  spans_.push_back(Span{std::move(name), now_us(), 0, parent, op});
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_us = now_us();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

int Tracer::add(std::string name, double start_us, double end_us, int op) {
  const int id = static_cast<int>(spans_.size());
  const int parent = open_.empty() ? -1 : open_.back();
  if (op < 0 && parent >= 0) op = spans_[static_cast<std::size_t>(parent)].op;
  spans_.push_back(Span{std::move(name), start_us, end_us, parent, op});
  return id;
}

std::vector<double> Tracer::durations_us(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.end_us >= s.start_us) out.push_back(s.dur_us());
  }
  return out;
}

std::string Tracer::chrome_json() const {
  const std::vector<double> self = self_times_us(spans_);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char buf[160];
  for (std::size_t k = 0; k < spans_.size(); ++k) {
    const Span& s = spans_[k];
    if (k > 0) out += ",\n";
    out += "{\"name\":\"" + nsp::io::json_escape(s.name) +
           "\",\"cat\":\"nspbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1";
    std::snprintf(buf, sizeof buf,
                  ",\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"op\":%d,\"self_us\":%.3f}}",
                  s.start_us, s.dur_us(), k, s.parent, s.op, self[k]);
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace nspbench
