#include "harness/spans.h"

#include "obs/metrics.h"

namespace perfbench {

double SpanLog::NowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

uint64_t SpanLog::Begin(std::string name, uint64_t parent, int64_t op,
                        bool record) {
  if (!enabled_ || !record) return 0;
  SpanRecord span;
  span.name = std::move(name);
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.op = op;
  span.start_us = NowUs();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanLog::End(uint64_t id) {
  if (id == 0) return;
  spans_[id - 1].end_us = NowUs();
}

std::string SpanLog::ToJson() const {
  using fabric::obs::JsonNumber;
  std::string json = "{\"spans\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (i > 0) json += ",\n";
    json += "{\"name\":" + fabric::obs::JsonString(s.name) +
            ",\"id\":" + JsonNumber(static_cast<double>(s.id)) +
            ",\"parent\":" + JsonNumber(static_cast<double>(s.parent)) +
            ",\"op\":" + JsonNumber(static_cast<double>(s.op)) +
            ",\"start_us\":" + JsonNumber(s.start_us) +
            ",\"end_us\":" + JsonNumber(s.end_us) + "}";
  }
  json += "]}\n";
  return json;
}

}  // namespace perfbench
