//===- bench/e2e/Trace.cpp - In-memory span recorder ----------------------===//

#include "Trace.h"

#include "support/Json.h"

#include <cassert>
#include <fstream>

using namespace modsched;

namespace e2e {

int Tracer::begin(const char *Name, int64_t RequestId) {
  if (!Enabled)
    return -1;
  Span S;
  S.Name = Name;
  S.Parent = Open.empty() ? -1 : Open.back();
  S.RequestId = RequestId;
  S.StartUs = nowUs();
  Spans.push_back(S);
  Open.push_back(int(Spans.size()) - 1);
  return Open.back();
}

void Tracer::end(int Index) {
  if (!Enabled)
    return;
  assert(!Open.empty() && Open.back() == Index && "spans must nest");
  Spans[size_t(Index)].EndUs = nowUs();
  Open.pop_back();
}

namespace {

/// Per-span self time: duration minus the children's durations.
std::vector<double> selfTimes(const std::deque<Tracer::Span> &Spans) {
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I)
    Self[I] = Spans[I].EndUs - Spans[I].StartUs;
  for (const Tracer::Span &S : Spans)
    if (S.Parent >= 0)
      Self[size_t(S.Parent)] -= S.EndUs - S.StartUs;
  return Self;
}

} // namespace

std::map<std::string, double> Tracer::selfTimeUs() const {
  std::vector<double> Self = selfTimes(Spans);
  std::map<std::string, double> Out;
  for (size_t I = 0; I < Spans.size(); ++I)
    Out[Spans[I].Name] += Self[I];
  return Out;
}

double Tracer::rootTimeUs() const {
  double Sum = 0.0;
  for (const Span &S : Spans)
    if (S.Parent < 0)
      Sum += S.EndUs - S.StartUs;
  return Sum;
}

std::map<std::string, int64_t> Tracer::spanCounts() const {
  std::map<std::string, int64_t> Out;
  for (const Span &S : Spans)
    ++Out[S.Name];
  return Out;
}

int64_t Tracer::rootsUnattributedAbove(double Fraction) const {
  std::vector<double> Self = selfTimes(Spans);
  int64_t N = 0;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    if (S.Parent < 0 && Self[I] > Fraction * (S.EndUs - S.StartUs))
      ++N;
  }
  return N;
}

bool Tracer::writeChromeTrace(const std::string &Path,
                              const std::string &Workload) const {
  std::vector<double> Self = selfTimes(Spans);
  std::string Out;
  json::JsonWriter W(Out);
  W.beginObject();
  W.key("displayTimeUnit").value("ms");
  W.key("traceEvents").beginArray();
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    W.beginObject();
    W.key("name").value(S.Name);
    W.key("cat").value(Workload);
    W.key("ph").value("X");
    W.key("ts").value(S.StartUs);
    W.key("dur").value(S.EndUs - S.StartUs);
    W.key("pid").value(1);
    W.key("tid").value(1);
    W.key("args").beginObject();
    W.key("request").value(S.RequestId);
    W.key("span").value(int64_t(I));
    W.key("parent").value(S.Parent);
    W.key("self_us").value(Self[I]);
    W.endObject();
    W.endObject();
  }
  W.endArray();
  W.key("otherData").beginObject();
  W.key("workload").value(Workload);
  W.key("root_us").value(rootTimeUs());
  W.key("self_us").beginObject();
  for (const auto &[Name, Us] : selfTimeUs())
    W.key(Name).value(Us);
  W.endObject();
  W.endObject();
  W.endObject();
  std::ofstream File(Path);
  File << Out << '\n';
  return bool(File);
}

} // namespace e2e
