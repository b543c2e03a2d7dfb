//===--- Interp.cpp - The shared execution engine, sequential and parallel ===//
//
// Times driver::runWithRandomInput over compiled suite programs: the
// engine laminarc --emit=run, the parallel runtime and laminard share,
// with no wire, queue, codegen or cc in the way. Set-up (compiling the
// programs and the reference runs) is timed once per process; run.py
// takes its set-up samples from several processes. Each timed run is
// checked: the sequential output must start with the reference run's
// tokens and the parallel output must equal the sequential output bit
// for bit.
//
//===----------------------------------------------------------------------===//

#include "Host.h"
#include "profile/Profile.h"
#include <cmath>
#include <cstdio>
#include <memory>

using namespace laminar;

namespace perfbench {

namespace {

struct Program {
  const suite::Benchmark *B = nullptr;
  uint64_t Seed = 0;
  driver::Compilation Seq, Par;
  interp::TokenStream Ref;
  int64_t Iters = 0;
  /// Untraced run times in ns, N-iteration runs and one-iteration
  /// runs: sequential CPU time of the calling thread (it runs the whole
  /// sequential engine), sequential and parallel wall time.
  std::vector<double> SeqNs, SeqBase, SeqWall, SeqWallBase, ParNs, ParBase;
  interp::Counters Steady;
  int64_t SteadyIters = 0;
  double SpinWaits = 0, EdgeStalls = 0;
  bool Profiled = false;
};

struct Timing {
  double WallNs = 0, CpuNs = 0; // CpuNs: the calling thread only
};

/// Times one run; \p Out receives the result.
Timing timedRun(const driver::Compilation &C, int64_t Iters, uint64_t Seed,
                interp::RunResult &Out,
                const driver::RunParams &P = driver::RunParams()) {
  const uint64_t W0 = nowNs(), C0 = threadCpuNs();
  Out = driver::runWithRandomInput(C, Iters, Seed, nullptr, nullptr, P);
  return {static_cast<double>(nowNs() - W0),
          static_cast<double>(threadCpuNs() - C0)};
}

} // namespace

int runInterp(const Args &A) {
  const auto List = programList(A.str("programs"));
  const uint64_t Seed = static_cast<uint64_t>(A.num("seed"));
  const unsigned Parallel = static_cast<unsigned>(A.num("parallel"));
  const int64_t RefIters = A.num("ref-iters");
  const double TargetMs = A.real("target-ms");
  SpanLog Log;
  if (A.has("trace-spans"))
    Log.enable(A.str("trace-spans"));

  ValuePtr Failures = Value::array();
  uint64_t Attempted = 0, Failed = 0;
  auto Fail = [&](const std::string &Msg) {
    ++Failed;
    if (Failures->elements().size() < 20)
      Failures->push(Value::str(Msg));
  };

  // Set-up: compile every program sequentially and at Parallel workers
  // (whatever plan PlanSelection picks, sequential fallback included),
  // plus the reference run.
  std::vector<std::unique_ptr<Program>> Progs;
  const uint64_t SetupStart = nowNs();
  for (const suite::Benchmark *B : List) {
    auto P = std::make_unique<Program>();
    P->B = B;
    P->Seed = programSeed(Seed, B->Name);
    P->Seq = compileProgram(*B, driver::LoweringMode::Laminar, 2);
    P->Par = compileProgram(*B, driver::LoweringMode::Laminar, 2, Parallel);
    driver::Compilation RefC =
        compileProgram(*B, driver::LoweringMode::Fifo, 0);
    if (!P->Seq.Ok || !P->Par.Ok || !RefC.Ok) {
      std::fprintf(stderr, "perfbench_host: %s failed to compile\n",
                   B->Name.c_str());
      return 1;
    }
    interp::RunResult R = driver::runWithRandomInput(RefC, RefIters, P->Seed);
    if (!R.Ok) {
      std::fprintf(stderr, "perfbench_host: %s reference run failed: %s\n",
                   B->Name.c_str(), R.Error.c_str());
      return 1;
    }
    P->Ref = std::move(R.Outputs);
    Progs.push_back(std::move(P));
  }
  const double SetupMs = msBetween(SetupStart, nowNs());

  // Size each program's run to about --target-ms from its interpreted
  // ops per iteration (at a fixed seed, rounded to a power of two), so
  // every run and every seed times the same iteration count. Per-run
  // costs (input generation, init, thread start) are then small, and
  // subtracting a one-iteration run removes them.
  constexpr double NsPerOp = 15;
  for (auto &P : Progs) {
    interp::RunResult R = driver::runWithRandomInput(P->Seq, RefIters, 1);
    const double Ops = std::max<double>(
        1, static_cast<double>(R.SteadyCounters.total()) / RefIters);
    const double Want = TargetMs * 1e6 / (Ops * NsPerOp);
    P->Iters = std::max<int64_t>(
        RefIters + 1, int64_t(1) << std::lround(std::log2(std::max(Want, 1.0))));
  }

  // One round over every program per slice run.py asks for.
  std::vector<double> RoundMs, TracedRoundMs;
  Gate G;
  std::string Kind;
  for (unsigned Round = 0; G.next(Kind); ++Round) {
    const bool Traced = Log.enabled() && Round % 2 == 0;
    double RoundNs = 0;
    for (auto &P : Progs) {
      const std::string &Name = P->B->Name;
      const uint64_t Session = Traced ? Log.newSession() : 0;
      interp::RunResult S1, P1, S, Par;
      Timing SeqBase, SeqT, ParBase, ParT;
      {
        ScopedSpan Sp(Log, "interp.seq " + Name, 0, Session);
        SeqBase = timedRun(P->Seq, 1, P->Seed, S1);
        SeqT = timedRun(P->Seq, P->Iters, P->Seed, S);
      }
      // The profiler is attached only to traced rounds; its counters
      // feed the parallel.* layer metrics.
      std::unique_ptr<profile::Profiler> Prof;
      profile::RunProfile Profile;
      driver::RunParams RP;
      if (Traced) {
        Prof = std::make_unique<profile::Profiler>(
            P->Par.Plan ? P->Par.Plan->NumPartitions : 1, 0);
        RP.Profiler = Prof.get();
        RP.ProfileOut = &Profile;
      }
      {
        ScopedSpan Sp(Log, "interp.parallel " + Name, 0, Session);
        ParBase = timedRun(P->Par, 1, P->Seed, P1);
        ParT = timedRun(P->Par, P->Iters, P->Seed, Par, RP);
      }
      RoundNs += SeqT.WallNs + ParT.WallNs;
      Attempted += 2;
      if (!S.Ok || !S1.Ok) {
        Fail(Name + " sequential: " + (S.Ok ? S1.Error : S.Error));
        continue;
      }
      if (!samePrefix(S.Outputs, P->Ref, P->Ref.size()))
        Fail(Name + " sequential output differs from the reference");
      if (!Par.Ok || !P1.Ok)
        Fail(Name + " parallel: " + (Par.Ok ? P1.Error : Par.Error));
      else if (Par.Outputs.size() != S.Outputs.size() ||
               !samePrefix(Par.Outputs, S.Outputs, S.Outputs.size()))
        Fail(Name + " parallel output differs from the sequential output");
      if (!Traced) {
        P->SeqNs.push_back(SeqT.CpuNs);
        P->SeqBase.push_back(SeqBase.CpuNs);
        P->SeqWall.push_back(SeqT.WallNs);
        P->SeqWallBase.push_back(SeqBase.WallNs);
        P->ParNs.push_back(ParT.WallNs);
        P->ParBase.push_back(ParBase.WallNs);
      }
      P->Steady = S.SteadyCounters;
      P->SteadyIters = S.SteadyIterations;
      if (Traced && !P->Profiled && Profile.Iterations > 0) {
        P->Profiled = true;
        uint64_t Spins = 0, Stalls = 0;
        for (const profile::WorkerCounters &W : Profile.PerWorker)
          Spins += W.SpinPopWaits + W.SpinPushWaits;
        for (const profile::EdgeCounters &E : Profile.Edges)
          Stalls += E.PushStalls + E.PopStalls;
        P->SpinWaits = static_cast<double>(Spins) / Profile.Iterations;
        P->EdgeStalls = static_cast<double>(Stalls) / Profile.Iterations;
      }
    }
    (Traced ? TracedRoundMs : RoundMs).push_back(RoundNs / 1e6);
    G.reply(Failed ? "failed" : "done");
    if (Failed)
      break;
  }

  ValuePtr Rows = Value::array();
  for (auto &P : Progs) {
    ValuePtr Row = Value::object();
    const parallel::PartitionPlan *Plan = P->Par.Plan ? &*P->Par.Plan : nullptr;
    const double Iters = std::max<int64_t>(P->SteadyIters, 1);
    Row->set("name", Value::str(P->B->Name));
    Row->set("iters", num(static_cast<double>(P->Iters)));
    // Steady-state ns/iteration: the one-iteration run's median cost
    // (input generation, init, thread start) taken off every sample.
    const double Den = static_cast<double>(P->Iters - 1);
    auto perIter = [&](std::vector<double> V, const std::vector<double> &Base) {
      const double B = median(Base);
      for (double &X : V)
        X = (X - B) / Den;
      return V;
    };
    const std::vector<double> Seq = perIter(P->SeqNs, P->SeqBase);
    const std::vector<double> Par = perIter(P->ParNs, P->ParBase);
    Row->set("seq_ns_per_iter", num(median(Seq)));
    Row->set("seq_wall_ns_per_iter",
             num(median(perIter(P->SeqWall, P->SeqWallBase))));
    Row->set("par_ns_per_iter", num(median(Par)));
    Row->set("seq_samples", numArray(Seq));
    Row->set("par_samples", numArray(Par));
    Row->set("ops_per_iter", num(P->Steady.total() / Iters));
    Row->set("comm_loads_per_iter", num(P->Steady.CommLoad / Iters));
    Row->set("comm_stores_per_iter", num(P->Steady.CommStore / Iters));
    Row->set("partitions", num(Plan ? Plan->NumPartitions : 1));
    Row->set("fallback",
             Value::boolean(!Plan || Plan->Fallback || Plan->NumPartitions < 2));
    Row->set("predicted_speedup", num(Plan ? Plan->PredictedSpeedup : 1.0));
    Row->set("spin_waits_per_iter", num(P->SpinWaits));
    Row->set("edge_stalls_per_iter", num(P->EdgeStalls));
    Rows->push(Row);
  }
  ValuePtr Out = Value::object();
  Out->set("ok", Value::boolean(Failed == 0));
  Out->set("setup_ms", num(SetupMs));
  Out->set("round_ms", numArray(RoundMs));
  Out->set("round_ms_traced", numArray(TracedRoundMs));
  Out->set("programs", Rows);
  Out->set("attempted", num(static_cast<double>(Attempted)));
  Out->set("failed", num(static_cast<double>(Failed)));
  Out->set("failures", Failures);
  Out->set("peak_rss_mb", num(peakRssMb()));
  std::printf("%s\n", Out->dump().c_str());
  return Log.flush() && Failed == 0 ? 0 : 1;
}

} // namespace perfbench
