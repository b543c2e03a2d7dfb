//===--- Host.h - Shared plumbing of the benchmark host ---------*- C++ -*-===//
//
// perfbench_host is the in-process half of the repository benchmark
// (perfbench/run.py is the other half). Each subcommand times calls into
// one layer's public entry points and prints one JSON document of raw
// samples and counters on stdout; run.py turns those into metrics.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HOST_H
#define PERFBENCH_HOST_H

#include "driver/Driver.h"
#include "server/Json.h"
#include "suite/Suite.h"
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include <time.h>

namespace perfbench {

using laminar::json::Value;
using laminar::json::ValuePtr;

/// CLOCK_MONOTONIC nanoseconds — the clock run.py reads with
/// time.monotonic_ns(), so both halves' spans share one timeline.
inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double msBetween(uint64_t A, uint64_t B) { return (B - A) / 1e6; }

/// CPU time of the calling thread in nanoseconds: unlike wall time, it
/// leaves out the time a shared machine spent running something else.
inline uint64_t threadCpuNs() {
  timespec T{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &T);
  return static_cast<uint64_t>(T.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(T.tv_nsec);
}

/// `--key value` command-line arguments. Every value is required: run.py
/// passes each one (from perfbench/metrics.json or its own constants), so
/// the host has no defaults of its own that could drift from them. A
/// missing key exits with status 2.
class Args {
public:
  Args(int Argc, char **Argv, int First);
  const std::string &str(const std::string &Key) const;
  int64_t num(const std::string &Key) const;
  double real(const std::string &Key) const;
  bool has(const std::string &Key) const { return Map.count(Key) != 0; }

private:
  std::map<std::string, std::string> Map;
};

/// One recorded span: a call into a layer, made by the benchmark.
/// Session groups every span of one build, batch or tenant session.
struct Span {
  uint64_t Id = 0;
  uint64_t Parent = 0;
  uint64_t Session = 0;
  std::string Name;
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  uint32_t Lane = 0;
};

/// In-memory span recorder, written out once when the run ends. A
/// disabled log records nothing and costs one branch per span.
class SpanLog {
public:
  void enable(const std::string &Path) {
    Enabled = true;
    OutPath = Path;
  }
  bool enabled() const { return Enabled; }

  /// Opens a span; returns its id (0 when disabled).
  uint64_t begin(const std::string &Name, uint64_t Parent, uint64_t Session,
                 uint32_t Lane = 0);
  void end(uint64_t Id);
  /// Records an already-measured span (compiler phases replayed from a
  /// TraceContext).
  uint64_t add(const std::string &Name, uint64_t Parent, uint64_t Session,
               uint64_t StartNs, uint64_t EndNs, uint32_t Lane = 0);
  uint64_t newSession();

  /// Copies the compiler's own TraceContext spans under \p Parent.
  void addCompilerTrace(const laminar::TraceContext &T, uint64_t Parent,
                        uint64_t Session);

  /// Writes the spans as a JSON array to the path given to enable().
  bool flush() const;

private:
  bool Enabled = false;
  std::string OutPath;
  mutable std::mutex M;
  std::vector<Span> Spans; // span id N is Spans[N - 1]
  uint64_t NextSession = 1;
};

/// RAII span around one call.
class ScopedSpan {
public:
  ScopedSpan(SpanLog &L, const std::string &Name, uint64_t Parent,
             uint64_t Session, uint32_t Lane = 0)
      : L(L), Id(L.enabled() ? L.begin(Name, Parent, Session, Lane) : 0) {}
  ~ScopedSpan() {
    if (Id)
      L.end(Id);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;
  uint64_t id() const { return Id; }

private:
  SpanLog &L;
  uint64_t Id;
};

/// The timed window of a subcommand, paced by run.py over stdin and
/// stdout. run.py interleaves short slices of every leg across the whole
/// run, so each metric samples the whole window rather than one block of
/// it: on a shared machine the speed drifts from second to second. The
/// host says "ready" when its set-up is done; each following stdin line
/// asks for one slice of timed work (the line names the kind of slice)
/// and is answered with one line starting "done" (or "failed" once a
/// checked output was wrong). "stop" or end of input ends the window,
/// after which the host prints its JSON document.
class Gate {
public:
  Gate() { reply("ready"); }
  /// Waits for the next request; false when the window has ended.
  bool next(std::string &Kind);
  void reply(const std::string &Line);
};

/// Suite benchmarks named by a comma-separated list; exits on unknown
/// names.
std::vector<const laminar::suite::Benchmark *>
programList(const std::string &Csv);

/// Per-program input seed derived from the workload seed, so every
/// program sees its own stream and one seed reproduces all of them.
uint64_t programSeed(uint64_t Seed, const std::string &Name);

laminar::driver::Compilation compileProgram(
    const laminar::suite::Benchmark &B, laminar::driver::LoweringMode Mode,
    unsigned Opt, unsigned Parallel = 0, laminar::TraceContext *T = nullptr);

/// Tokens rendered the way an emitted C program prints them: one per
/// line, integers with PRId64 and floats with %.17g.
std::string renderLines(const laminar::interp::TokenStream &S, size_t From,
                        size_t To);
/// The same tokens as a JSON array body ("a,b,c"), as laminard writes
/// them (every number with %.17g).
std::string renderJsonArray(const laminar::interp::TokenStream &S,
                            size_t From, size_t To);

/// Bitwise equality of the first \p N tokens of two streams.
bool samePrefix(const laminar::interp::TokenStream &A,
                const laminar::interp::TokenStream &B, size_t N);

double median(std::vector<double> V);
double quantile(std::vector<double> V, double Q);

/// JSON numbers; a non-finite value (a percentile over failed ops)
/// becomes -1, since JSON has no infinity.
ValuePtr numArray(const std::vector<double> &V);
ValuePtr num(double V);

/// Adds one TraceContext's compiler phase times into \p MsByPhase under
/// the per-layer metric names of BENCHMARK.json: frontend, graph,
/// schedule, verify, lower, opt and opt.<pass>.
void addPhaseTimes(const laminar::TraceContext &T,
                   std::map<std::string, double> &MsByPhase);

/// Instructions in every function of the module (IR size).
uint64_t moduleInsts(const laminar::lir::Module &M);

/// Peak resident set of this process in MiB (VmHWM).
double peakRssMb();

int runNativeCompile(const Args &A);
int runReference(const Args &A);
int runInterp(const Args &A);
int runServe(const Args &A);

} // namespace perfbench

#endif // PERFBENCH_HOST_H
