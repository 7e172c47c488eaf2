//===--- Metrics.cpp - Named counters and log2 histograms ----------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"

using namespace lockin;
using namespace lockin::obs;

Counter &MetricsRegistry::counter(std::string_view Name) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Counters.find(Name);
  if (It == Counters.end())
    It = Counters.emplace(std::string(Name), std::make_unique<Counter>())
             .first;
  return *It->second;
}

Histogram &MetricsRegistry::histogram(std::string_view Name) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Histograms.find(Name);
  if (It == Histograms.end())
    It = Histograms.emplace(std::string(Name), std::make_unique<Histogram>())
             .first;
  return *It->second;
}

uint64_t Histogram::quantile(double P) const {
  uint64_t N = count();
  if (N == 0)
    return 0;
  if (P < 0)
    P = 0;
  if (P > 1)
    P = 1;
  // Rank of the requested observation, 1-based.
  uint64_t Rank = static_cast<uint64_t>(P * static_cast<double>(N - 1)) + 1;
  uint64_t Seen = 0;
  for (unsigned B = 0; B < NumBuckets; ++B) {
    Seen += bucketCount(B);
    if (Seen >= Rank) {
      if (B <= 1)
        return B; // exact: bucket 0 = {0}, bucket 1 = {1}
      // Geometric midpoint of [2^(B-1), 2^B): 2^(B-1) * sqrt(2).
      uint64_t Lo = bucketLo(B);
      return Lo + (Lo >> 1); // ~1.5*Lo, close to sqrt(2)*Lo = 1.41*Lo
    }
  }
  return bucketHi(NumBuckets - 1);
}

support::Json MetricsRegistry::toJson() const {
  using support::Json;
  std::lock_guard<std::mutex> Lock(Mu);
  Json Doc = Json::object();
  Json &CounterValues = Doc.set("counters", Json::object());
  for (const auto &[Name, C] : Counters)
    CounterValues.set(Name, Json::uinteger(C->value()));
  Json &HistogramValues = Doc.set("histograms", Json::object());
  for (const auto &[Name, H] : Histograms) {
    Json &O = HistogramValues.set(
        Name, Json::object({{"count", Json::uinteger(H->count())},
                            {"sum", Json::uinteger(H->sum())},
                            {"p50", Json::uinteger(H->quantile(0.50))},
                            {"p95", Json::uinteger(H->quantile(0.95))},
                            {"p99", Json::uinteger(H->quantile(0.99))}}));
    Json &Buckets = O.set("buckets", Json::array());
    for (unsigned B = 0; B < Histogram::NumBuckets; ++B)
      if (uint64_t N = H->bucketCount(B))
        Buckets.push(Json::array(
            {Json::uinteger(Histogram::bucketHi(B)), Json::uinteger(N)}));
  }
  return Doc;
}

namespace {

/// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*. Dotted lockin names
/// become underscored and get a "lockin_" namespace prefix.
std::string promName(const std::string &Name) {
  std::string Out = "lockin_";
  for (char C : Name) {
    bool Ok = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
              (C >= '0' && C <= '9') || C == '_';
    Out += Ok ? C : '_';
  }
  return Out;
}

} // namespace

void MetricsRegistry::writePrometheus(std::ostream &OS) const {
  std::lock_guard<std::mutex> Lock(Mu);
  for (const auto &[Name, C] : Counters) {
    std::string P = promName(Name);
    OS << "# TYPE " << P << "_total counter\n"
       << P << "_total " << C->value() << "\n";
  }
  for (const auto &[Name, H] : Histograms) {
    std::string P = promName(Name);
    OS << "# TYPE " << P << " histogram\n";
    uint64_t Cum = 0;
    for (unsigned B = 0; B < Histogram::NumBuckets; ++B) {
      uint64_t N = H->bucketCount(B);
      if (N == 0)
        continue;
      Cum += N;
      OS << P << "_bucket{le=\"" << Histogram::bucketHi(B) << "\"} " << Cum
         << "\n";
    }
    OS << P << "_bucket{le=\"+Inf\"} " << Cum << "\n"
       << P << "_sum " << H->sum() << "\n"
       << P << "_count " << H->count() << "\n";
  }
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> Lock(Mu);
  for (auto &[Name, C] : Counters)
    C->reset();
  for (auto &[Name, H] : Histograms)
    H->reset();
}

MetricsRegistry &obs::metrics() {
  static MetricsRegistry Registry;
  return Registry;
}
