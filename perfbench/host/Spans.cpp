//===--- Spans.cpp - Span log and shared helpers --------------------------===//

#include "Host.h"
#include "lir/Function.h"
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace laminar;

namespace perfbench {

Args::Args(int Argc, char **Argv, int First) {
  for (int I = First; I < Argc; ++I) {
    std::string K = Argv[I];
    if (K.rfind("--", 0) != 0 || I + 1 >= Argc) {
      std::fprintf(stderr, "perfbench_host: expected --key value, got %s\n",
                   K.c_str());
      std::exit(2);
    }
    Map[K.substr(2)] = Argv[++I];
  }
}

const std::string &Args::str(const std::string &Key) const {
  auto It = Map.find(Key);
  if (It == Map.end()) {
    std::fprintf(stderr, "perfbench_host: missing --%s\n", Key.c_str());
    std::exit(2);
  }
  return It->second;
}

int64_t Args::num(const std::string &Key) const {
  return std::strtoll(str(Key).c_str(), nullptr, 0);
}

double Args::real(const std::string &Key) const {
  return std::strtod(str(Key).c_str(), nullptr);
}

uint64_t SpanLog::begin(const std::string &Name, uint64_t Parent,
                        uint64_t Session, uint32_t Lane) {
  const uint64_t Now = nowNs();
  std::lock_guard<std::mutex> L(M);
  Span S;
  S.Id = Spans.size() + 1;
  S.Parent = Parent;
  S.Session = Session;
  S.Name = Name;
  S.StartNs = Now;
  S.Lane = Lane;
  Spans.push_back(std::move(S));
  return Spans.size();
}

void SpanLog::end(uint64_t Id) {
  const uint64_t Now = nowNs();
  std::lock_guard<std::mutex> L(M);
  Spans[Id - 1].EndNs = Now;
}

uint64_t SpanLog::add(const std::string &Name, uint64_t Parent,
                      uint64_t Session, uint64_t StartNs, uint64_t EndNs,
                      uint32_t Lane) {
  if (!Enabled)
    return 0;
  const uint64_t Id = begin(Name, Parent, Session, Lane);
  std::lock_guard<std::mutex> L(M);
  Span &S = Spans[Id - 1];
  S.StartNs = StartNs;
  S.EndNs = EndNs;
  return Id;
}

uint64_t SpanLog::newSession() {
  std::lock_guard<std::mutex> L(M);
  return NextSession++;
}

void SpanLog::addCompilerTrace(const TraceContext &T, uint64_t Parent,
                               uint64_t Session) {
  if (!Enabled)
    return;
  // Events are in pre-order with their nesting depth; the open span at
  // each depth is the parent of the next deeper one.
  std::vector<uint64_t> Stack{Parent};
  for (const TraceContext::Event &E : T.events()) {
    if (E.Tid != 0)
      continue;
    Stack.resize(std::min<size_t>(Stack.size(), E.Depth + 1));
    const uint64_t Start = T.epochNs() + E.StartNs;
    Stack.push_back(add("compiler." + E.Name, Stack.back(), Session, Start,
                        Start + E.DurNs));
  }
}

bool SpanLog::flush() const {
  if (!Enabled)
    return true;
  std::lock_guard<std::mutex> L(M);
  std::ofstream OS(OutPath);
  OS << "[";
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    OS << (I ? ",\n" : "\n") << "{\"id\":" << S.Id << ",\"parent\":"
       << S.Parent << ",\"session\":" << S.Session << ",\"name\":\""
       << json::escape(S.Name) << "\",\"start_ns\":" << S.StartNs
       << ",\"end_ns\":" << S.EndNs << ",\"lane\":" << S.Lane << "}";
  }
  OS << "\n]\n";
  return static_cast<bool>(OS);
}

std::vector<const suite::Benchmark *> programList(const std::string &Csv) {
  std::vector<const suite::Benchmark *> Out;
  std::stringstream SS(Csv);
  std::string Name;
  while (std::getline(SS, Name, ',')) {
    if (Name.empty())
      continue;
    const suite::Benchmark *B = suite::findBenchmark(Name);
    if (!B) {
      std::fprintf(stderr, "perfbench_host: unknown program %s\n",
                   Name.c_str());
      std::exit(2);
    }
    Out.push_back(B);
  }
  return Out;
}

uint64_t programSeed(uint64_t Seed, const std::string &Name) {
  // splitmix64 over the seed mixed with the name's FNV-1a hash.
  uint64_t H = 1469598103934665603ULL;
  for (unsigned char C : Name)
    H = (H ^ C) * 1099511628211ULL;
  uint64_t Z = Seed + 0x9E3779B97F4A7C15ULL * (H | 1);
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
  Z ^= Z >> 31;
  return Z ? Z : 1;
}

driver::Compilation compileProgram(const suite::Benchmark &B,
                                   driver::LoweringMode Mode, unsigned Opt,
                                   unsigned Parallel, TraceContext *T) {
  driver::CompileOptions O;
  O.TopName = B.Top;
  O.Mode = Mode;
  O.OptLevel = Opt;
  O.Parallel = Parallel;
  O.Trace = T;
  return driver::compile(B.Source, O);
}

std::string renderLines(const interp::TokenStream &S, size_t From,
                        size_t To) {
  std::string Out;
  char Buf[40];
  for (size_t I = From; I < To; ++I) {
    if (S.Ty == lir::TypeKind::Int)
      std::snprintf(Buf, sizeof(Buf), "%" PRId64 "\n", S.I[I]);
    else
      std::snprintf(Buf, sizeof(Buf), "%.17g\n", S.F[I]);
    Out += Buf;
  }
  return Out;
}

std::string renderJsonArray(const interp::TokenStream &S, size_t From,
                            size_t To) {
  std::string Out;
  char Buf[40];
  for (size_t I = From; I < To; ++I) {
    const double V =
        S.Ty == lir::TypeKind::Int ? static_cast<double>(S.I[I]) : S.F[I];
    std::snprintf(Buf, sizeof(Buf), "%s%.17g", I == From ? "" : ",", V);
    Out += Buf;
  }
  return Out;
}

bool samePrefix(const interp::TokenStream &A, const interp::TokenStream &B,
                size_t N) {
  if (A.Ty != B.Ty || A.size() < N || B.size() < N)
    return false;
  if (A.Ty == lir::TypeKind::Int)
    return std::equal(A.I.begin(), A.I.begin() + N, B.I.begin());
  return N == 0 || std::memcmp(A.F.data(), B.F.data(), N * sizeof(double)) == 0;
}

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const double Pos = Q * (V.size() - 1);
  const size_t Lo = static_cast<size_t>(Pos);
  const size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - Lo);
}

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

ValuePtr num(double V) { return Value::number(std::isfinite(V) ? V : -1); }

ValuePtr numArray(const std::vector<double> &V) {
  ValuePtr A = Value::array();
  for (double X : V)
    A->push(num(X));
  return A;
}

void addPhaseTimes(const TraceContext &T,
                   std::map<std::string, double> &MsByPhase) {
  static const std::map<std::string, std::string> TopLevel = {
      {"parse", "frontend"},
      {"sema", "frontend"},
      {"graph", "graph"},
      {"schedule", "schedule"},
      {"certify-plan", "verify"},
      {"verify-lowered", "verify"},
      {"verify-invariants", "verify"},
      {"verify-optimized", "verify"},
      {"lower", "lower"},
      {"optimize", "opt"},
  };
  for (const TraceContext::Event &E : T.events()) {
    if (E.Tid != 0)
      continue;
    const double Ms = E.DurNs / 1e6;
    // Depth 1 = direct children of the "compile" root span.
    if (E.Depth == 1) {
      auto It = TopLevel.find(E.Name);
      if (It != TopLevel.end())
        MsByPhase[It->second] += Ms;
    }
    if (E.Name.rfind("opt.", 0) == 0)
      MsByPhase[E.Name] += Ms;
  }
}

uint64_t moduleInsts(const lir::Module &M) {
  uint64_t N = 0;
  for (const auto &F : M.functions())
    N += F->instructionCount();
  return N;
}

bool Gate::next(std::string &Kind) {
  char Buf[64];
  if (!std::fgets(Buf, sizeof Buf, stdin))
    return false;
  Kind = Buf;
  while (!Kind.empty() && (Kind.back() == '\n' || Kind.back() == '\r'))
    Kind.pop_back();
  return Kind != "stop";
}

void Gate::reply(const std::string &Line) {
  std::printf("%s\n", Line.c_str());
  std::fflush(stdout);
}

double peakRssMb() {
  std::ifstream IS("/proc/self/status");
  std::string Line;
  while (std::getline(IS, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

} // namespace perfbench
