//===--- Serve.cpp - Open-loop traffic generator for laminard -------------===//
//
// Drives a running laminard over its AF_UNIX socket with two kinds of
// tenant, on a schedule drawn from the seed:
//
//  * streaming tenants push fixed-size batches to long-lived instances
//    of cached plans and pull each batch's output;
//  * churn tenants arrive, compile a suite source made distinct by a
//    variant comment (keys drawn Zipf-skewed from more keys than the
//    plan cache holds), spawn, push one batch, pull, free and release.
//
// The offered streaming load runs a reference step at the configured
// rates, as sub-steps of --step-seconds, and searches a fixed ladder of
// rate multipliers by bisection (a failed rate gets one retry) for the
// highest one laminard sustains, one probe at a time; run.py asks for
// each sub-step ("ref") and probe ("probe") and interleaves them with the
// other legs (see Gate). A rate is sustained when every batch is
// answered correctly, nothing is shed, the batch p99 is within the limit
// and the backlog does not grow. Every latency is timed from
// the op's scheduled time, not from when it was sent, so a stall is
// charged to every op it delays. Each lane (one thread, one connection)
// executes its ops in schedule order; laminard serves a connection one
// request at a time, and a pull holds the instance's wire mutex until
// the batch completes, so a push and the pull of the same instance
// cannot overlap anyway.
//
// Every pulled batch is compared byte for byte with the output of a
// solo reference run (FIFO, unoptimized interpreter) fed the same input.
//
//===----------------------------------------------------------------------===//

#include "Host.h"
#include "interp/Interpreter.h"
#include "server/Server.h"
#include "support/RNG.h"
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace laminar;

namespace perfbench {

namespace {

/// One line-delimited JSON connection to laminard.
class Conn {
public:
  explicit Conn(const std::string &Path) {
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    if (Fd < 0 || Path.size() >= sizeof(Addr.sun_path)) {
      close();
      return;
    }
    std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0)
      close();
  }
  ~Conn() { close(); }
  Conn(const Conn &) = delete;
  Conn &operator=(const Conn &) = delete;

  bool ok() const { return Fd >= 0; }

  /// Sends one request line and returns the response line ("" when the
  /// connection failed).
  std::string rpc(const std::string &Line) {
    if (Fd < 0)
      return "";
    std::string Out = Line + "\n";
    for (size_t Off = 0; Off < Out.size();) {
      const ssize_t W = ::write(Fd, Out.data() + Off, Out.size() - Off);
      if (W <= 0)
        return "";
      Off += static_cast<size_t>(W);
    }
    for (;;) {
      const size_t Nl = Buf.find('\n', Scanned);
      if (Nl != std::string::npos) {
        std::string Resp = Buf.substr(0, Nl);
        Buf.erase(0, Nl + 1);
        Scanned = 0;
        return Resp;
      }
      Scanned = Buf.size();
      char Chunk[65536];
      const ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
      if (N <= 0)
        return "";
      Buf.append(Chunk, static_cast<size_t>(N));
    }
  }

private:
  void close() {
    if (Fd >= 0)
      ::close(Fd);
    Fd = -1;
  }
  int Fd = -1;
  std::string Buf;
  size_t Scanned = 0;
};

ValuePtr parseOrNull(const std::string &Line) {
  std::string Err;
  ValuePtr V = json::parse(Line, Err);
  return V ? V : Value::null();
}

std::string compileRequest(const std::string &Source, const std::string &Top) {
  return "{\"op\":\"compile\",\"source\":\"" + json::escape(Source) +
         "\",\"top\":\"" + json::escape(Top) + "\"}";
}

std::string idRequest(const char *Op, const char *Field, int64_t Id) {
  return std::string("{\"op\":\"") + Op + "\",\"" + Field +
         "\":" + std::to_string(Id) + "}";
}

/// A batch sequence fed to one instance, with the expected replies.
struct BatchSet {
  std::vector<std::string> Data;       // JSON array body per batch
  std::vector<int64_t> Iterations;     // steady iterations per batch
  std::vector<std::string> Expected;   // expected pull reply per batch
  std::vector<int64_t> OutTokens;      // output tokens per batch
  std::vector<interp::TokenStream> In; // token form, for execute timing
};

/// Builds \p Batches batches of \p Iters iterations each over seeded
/// random input, and the reply a correct server sends for each: the
/// slice of a solo reference run over the concatenated input.
bool makeBatches(const suite::Benchmark &B, int64_t Iters, int Batches,
                 uint64_t Seed, BatchSet &Out, std::string &Err) {
  driver::Compilation Ref = compileProgram(B, driver::LoweringMode::Fifo, 0);
  if (!Ref.Ok) {
    Err = B.Name + ": reference compile failed";
    return false;
  }
  const int64_t InInit = Ref.Sched->inputForInit(*Ref.Graph);
  const int64_t InIter = Ref.Sched->inputPerSteady(*Ref.Graph);
  const lir::TypeKind InTy = Ref.Module->getInputType();
  interp::TokenStream In = interp::makeRandomInput(
      InTy, static_cast<size_t>(InInit + InIter * Iters * Batches), Seed);
  interp::RunResult R = interp::runModule(*Ref.Module, In, Iters * Batches,
                                          Ref.InterpStepBudget);
  if (!R.Ok) {
    Err = B.Name + ": reference run failed: " + R.Error;
    return false;
  }
  // Output tokens of one steady iteration, from a two-length probe.
  interp::RunResult R1 = interp::runModule(*Ref.Module, In, Iters,
                                           Ref.InterpStepBudget);
  if (!R1.Ok) {
    Err = B.Name + ": reference run failed: " + R1.Error;
    return false;
  }
  const size_t OutBatch =
      (R.Outputs.size() - R1.Outputs.size()) / static_cast<size_t>(Batches - 1);
  const size_t OutInit = R1.Outputs.size() - OutBatch;
  size_t InPos = 0, OutPos = 0;
  for (int K = 0; K < Batches; ++K) {
    const size_t InN = static_cast<size_t>(InIter * Iters + (K ? 0 : InInit));
    const size_t OutN = OutBatch + (K ? 0 : OutInit);
    interp::TokenStream Slice;
    Slice.Ty = In.Ty;
    if (In.Ty == lir::TypeKind::Int)
      Slice.I.assign(In.I.begin() + InPos, In.I.begin() + InPos + InN);
    else
      Slice.F.assign(In.F.begin() + InPos, In.F.begin() + InPos + InN);
    Out.Data.push_back(renderJsonArray(In, InPos, InPos + InN));
    Out.Iterations.push_back(Iters);
    Out.Expected.push_back("{\"data\":[" +
                           renderJsonArray(R.Outputs, OutPos, OutPos + OutN) +
                           "],\"ok\":true,\"status\":\"ok\"}");
    Out.OutTokens.push_back(static_cast<int64_t>(OutN));
    Out.In.push_back(std::move(Slice));
    InPos += InN;
    OutPos += OutN;
  }
  return true;
}

std::string pushRequest(int64_t Instance, const BatchSet &S, size_t K) {
  return "{\"op\":\"push\",\"instance\":" + std::to_string(Instance) +
         ",\"data\":[" + S.Data[K] +
         "],\"iterations\":" + std::to_string(S.Iterations[K]) + "}";
}

/// laminard CPU time (user + system) in microseconds.
double daemonCpuUs(int64_t Pid) {
  std::ifstream IS("/proc/" + std::to_string(Pid) + "/stat");
  std::string Stat((std::istreambuf_iterator<char>(IS)),
                   std::istreambuf_iterator<char>());
  const size_t P = Stat.rfind(')');
  if (P == std::string::npos)
    return 0;
  std::istringstream Fields(Stat.substr(P + 2));
  std::string F;
  double Ticks = 0;
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  for (int I = 3; I <= 15 && Fields >> F; ++I)
    if (I >= 14)
      Ticks += std::strtod(F.c_str(), nullptr);
  return Ticks * 1e6 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

struct StreamTenant {
  size_t Plan = 0;   // index into Plans
  int64_t Instance = 0;
  size_t Next = 0;   // next batch of the current instance epoch
  double Rate = 0;   // batches/s at multiplier 1
};

struct StreamPlan {
  const suite::Benchmark *B = nullptr;
  int64_t PlanId = 0;
  BatchSet Batches;
};

struct ChurnProgram {
  const suite::Benchmark *B = nullptr;
  BatchSet Batch; // one batch
};

enum class OpKind { Batch, Churn };

struct Op {
  uint64_t DueNs = 0; // relative to the step start
  OpKind Kind = OpKind::Batch;
  size_t Index = 0;   // tenant (Batch) or churn key (Churn)
};

/// What one executed op measured.
struct OpResult {
  OpKind Kind = OpKind::Batch;
  double DueMs = 0;     // scheduled time, relative to the step start
  bool Attempted = false, Ok = false;
  double LatencyMs = 0; // scheduled time -> output pulled
  double PushMs = 0, PullMs = 0;
  double CompileMs = 0, SpawnMs = 0;
  bool CacheHit = false;
  double LateMs = -1;   // generator lateness when the lane was idle
  int64_t OutTokens = 0;
  size_t Plan = 0;
  uint64_t EndNs = 0;
};

std::vector<double> numberList(const std::string &Csv) {
  std::vector<double> V;
  std::stringstream SS(Csv);
  std::string X;
  while (std::getline(SS, X, ','))
    V.push_back(std::strtod(X.c_str(), nullptr));
  return V;
}

/// Sorted uniform arrival times: a Poisson process conditioned on its
/// count, so every run offers exactly the scheduled number of ops.
std::vector<uint64_t> arrivals(RNG &R, double Rate, double Seconds) {
  const size_t N = static_cast<size_t>(std::llround(Rate * Seconds));
  std::vector<uint64_t> T(N);
  for (uint64_t &X : T)
    X = static_cast<uint64_t>(R.nextDouble() * Seconds * 1e9);
  std::sort(T.begin(), T.end());
  return T;
}

/// Zipf(s) sampler over [0, N) by inverse CDF.
class Zipf {
public:
  Zipf(size_t N, double S) : Cdf(N) {
    double Sum = 0;
    for (size_t I = 0; I < N; ++I)
      Cdf[I] = (Sum += 1.0 / std::pow(static_cast<double>(I + 1), S));
    for (double &C : Cdf)
      C /= Sum;
  }
  size_t draw(RNG &R) const {
    return static_cast<size_t>(
        std::lower_bound(Cdf.begin(), Cdf.end(), R.nextDouble()) -
        Cdf.begin());
  }

private:
  std::vector<double> Cdf;
};

/// One timed step: the offered load and what every op of it measured.
struct StepRun {
  double Mult = 1;
  double Seconds = 0;
  uint64_t StartNs = 0;
  double CpuUs = 0;      // laminard CPU time during the step
  size_t BacklogMax = 0; // most ops due but not yet started, on any lane
  std::vector<OpResult> Ops;
};

/// Least-squares slope of batch latency over scheduled time (from each
/// run's own start): how fast the backlog grows, in seconds of delay per
/// second of schedule (about 0 when laminard keeps up, about the
/// overload fraction when it does not). Fewer than 100 batches span too
/// little time to show a trend, and give 0.
double latencyGrowth(const std::vector<const StepRun *> &Runs) {
  double N = 0, Sx = 0, Sy = 0, Sxx = 0, Sxy = 0;
  for (const StepRun *Run : Runs)
    for (const OpResult &R : Run->Ops)
      if (R.Kind == OpKind::Batch && R.Ok) {
        N += 1;
        Sx += R.DueMs;
        Sy += R.LatencyMs;
        Sxx += R.DueMs * R.DueMs;
        Sxy += R.DueMs * R.LatencyMs;
      }
  const double Var = N * Sxx - Sx * Sx;
  return N < 100 || Var <= 0 ? 0 : (N * Sxy - Sx * Sy) / Var;
}

} // namespace

int runServe(const Args &A) {
  const std::string Socket = A.str("socket");
  const int64_t DaemonPid = A.num("daemon-pid");
  const uint64_t Seed = static_cast<uint64_t>(A.num("seed"));
  const auto StreamPrograms = programList(A.str("stream-programs"));
  const std::vector<double> StreamIters = numberList(A.str("stream-iters"));
  const std::vector<double> StreamRates = numberList(A.str("stream-rates"));
  const int InstancesPerPlan = static_cast<int>(A.num("instances-per-plan"));
  const int Epoch = static_cast<int>(A.num("epoch-batches"));
  const auto ChurnPrograms = programList(A.str("churn-programs"));
  const int64_t ChurnIters = A.num("churn-iters");
  const int ChurnVariants = static_cast<int>(A.num("churn-variants"));
  const double ChurnRate = A.real("churn-rate");
  const double ZipfS = A.real("zipf");
  const double LimitMs = A.real("p99-limit-ms");
  const double GrowthLimit = A.real("growth-limit");
  const double StepSeconds = A.real("step-seconds");
  const std::vector<double> Ladder = numberList(A.str("ladder"));
  const double ProbeSeconds = A.real("probe-seconds");
  const unsigned Lanes =
      std::max<unsigned>(1, static_cast<unsigned>(A.num("lanes")));
  const bool SetupOnly = A.num("setup-only") != 0;
  SpanLog Log;
  if (A.has("trace-spans"))
    Log.enable(A.str("trace-spans"));
  if (StreamPrograms.size() != StreamIters.size() ||
      StreamPrograms.size() != StreamRates.size() || Epoch < 2 ||
      StepSeconds <= 0 ||
      (!Ladder.empty() && ProbeSeconds <= 0)) {
    std::fprintf(stderr, "perfbench_host serve: bad arguments\n");
    return 2;
  }

  // ---- Set-up: connect, reference runs, warm plans, spawn instances.
  const uint64_t SetupStart = nowNs();
  std::vector<std::unique_ptr<Conn>> Conns;
  for (unsigned L = 0; L < Lanes; ++L) {
    Conns.push_back(std::make_unique<Conn>(Socket));
    if (!Conns.back()->ok()) {
      std::fprintf(stderr, "perfbench_host serve: cannot connect to %s\n",
                   Socket.c_str());
      return 1;
    }
  }
  Conn &Ctl = *Conns[0];
  std::vector<StreamPlan> Plans(StreamPrograms.size());
  std::vector<StreamTenant> Tenants;
  std::string Err;
  for (size_t P = 0; P < Plans.size(); ++P) {
    const suite::Benchmark &B = *StreamPrograms[P];
    Plans[P].B = &B;
    if (!makeBatches(B, static_cast<int64_t>(StreamIters[P]), Epoch,
                     programSeed(Seed, "stream." + B.Name), Plans[P].Batches,
                     Err)) {
      std::fprintf(stderr, "perfbench_host serve: %s\n", Err.c_str());
      return 1;
    }
    ValuePtr R = parseOrNull(Ctl.rpc(compileRequest(B.Source, B.Top)));
    if (!R->get("ok")->asBool()) {
      std::fprintf(stderr, "perfbench_host serve: compile %s failed\n",
                   B.Name.c_str());
      return 1;
    }
    Plans[P].PlanId = R->get("plan")->asInt();
    for (int I = 0; I < InstancesPerPlan; ++I) {
      StreamTenant T;
      T.Plan = P;
      T.Rate = StreamRates[P] / InstancesPerPlan;
      ValuePtr S = parseOrNull(
          Ctl.rpc(idRequest("spawn", "plan", Plans[P].PlanId)));
      T.Instance = S->get("instance")->asInt(0);
      if (!S->get("ok")->asBool() || T.Instance <= 0) {
        std::fprintf(stderr, "perfbench_host serve: spawn failed\n");
        return 1;
      }
      Tenants.push_back(T);
    }
  }
  std::vector<ChurnProgram> Churn(ChurnPrograms.size());
  for (size_t C = 0; C < Churn.size(); ++C) {
    Churn[C].B = ChurnPrograms[C];
    // Two batches only to size the output of the first; one is sent.
    if (!makeBatches(*ChurnPrograms[C], ChurnIters, 2,
                     programSeed(Seed, "churn." + ChurnPrograms[C]->Name),
                     Churn[C].Batch, Err)) {
      std::fprintf(stderr, "perfbench_host serve: %s\n", Err.c_str());
      return 1;
    }
  }
  const double SetupMs = msBetween(SetupStart, nowNs());
  if (SetupOnly) {
    ValuePtr Out = Value::object();
    Out->set("ok", Value::boolean(true));
    Out->set("setup_ms", num(SetupMs));
    std::printf("%s\n", Out->dump().c_str());
    return 0;
  }

  // Churn keys: (program, variant). The variant comment makes each key
  // a distinct cache entry for the same program.
  const size_t NumKeys = Churn.size() * static_cast<size_t>(ChurnVariants);
  std::vector<std::string> KeySource(NumKeys);
  for (size_t K = 0; K < NumKeys; ++K)
    KeySource[K] = compileRequest(
        "// perfbench churn seed " + std::to_string(Seed) + " variant " +
            std::to_string(K / Churn.size()) + "\n" +
            Churn[K % Churn.size()].B->Source,
        Churn[K % Churn.size()].B->Top);
  const Zipf KeyDist(NumKeys, ZipfS);

  // Streaming tenants share lanes 1..Lanes-1; lane 0 carries the churn
  // tenants.
  std::vector<size_t> TenantLane(Tenants.size());
  for (size_t T = 0; T < Tenants.size(); ++T)
    TenantLane[T] = Lanes > 1 ? 1 + T % (Lanes - 1) : 0;

  // The ops of one step, per lane, sorted by due time. Arrivals are
  // drawn from the seed and the step's label, so a ladder rate gets the
  // same schedule whichever path the search took to it.
  auto schedule = [&](const std::string &Label, double Mult,
                      double Seconds) {
    std::vector<std::vector<Op>> Sched(Lanes);
    for (size_t T = 0; T < Tenants.size(); ++T) {
      RNG R(programSeed(Seed, "arrivals." + Label + "." + std::to_string(T)));
      for (uint64_t Due : arrivals(R, Tenants[T].Rate * Mult, Seconds))
        Sched[TenantLane[T]].push_back({Due, OpKind::Batch, T});
    }
    RNG R(programSeed(Seed, "churn." + Label));
    for (uint64_t Due : arrivals(R, ChurnRate, Seconds))
      Sched[0].push_back({Due, OpKind::Churn, KeyDist.draw(R)});
    for (auto &LaneOps : Sched)
      std::stable_sort(LaneOps.begin(), LaneOps.end(),
                       [](const Op &X, const Op &Y) { return X.DueNs < Y.DueNs; });
    return Sched;
  };

  auto statsCounter = [&](const ValuePtr &Stats, const char *Name) {
    return Stats->get("stats")->get("counters")->get(Name)->asNumber(0);
  };
  ValuePtr Stats0 = parseOrNull(Ctl.rpc("{\"op\":\"stats\"}"));

  std::mutex FailM;
  ValuePtr Failures = Value::array();
  auto recordFailure = [&](const std::string &Msg) {
    std::lock_guard<std::mutex> L(FailM);
    if (Failures->elements().size() < 20)
      Failures->push(Value::str(Msg));
  };

  // Executes one lane's ops of a step. Ops still waiting LimitMs after
  // the step's end are shed (not attempted).
  auto runLane = [&](unsigned Lane, const std::vector<Op> &Ops,
                     uint64_t StepStart, double Seconds, bool Traced,
                     std::vector<OpResult> &Results, size_t &BacklogMax) {
    Conn &C = *Conns[Lane];
    const uint64_t ShedAt =
        StepStart + static_cast<uint64_t>((Seconds * 1e3 + LimitMs) * 1e6);
    uint64_t PrevEnd = 0;
    for (size_t I = 0; I < Ops.size(); ++I) {
      const Op &O = Ops[I];
      const uint64_t Due = StepStart + O.DueNs;
      OpResult Res;
      Res.Kind = O.Kind;
      Res.DueMs = O.DueNs / 1e6;
      uint64_t Now = nowNs();
      if (Now < Due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(Due - Now));
        Now = nowNs();
      }
      if (Now > ShedAt) {
        Results.push_back(Res); // shed: not attempted
        continue;
      }
      if (PrevEnd <= Due)
        Res.LateMs = msBetween(Due, Now);
      size_t Backlog = 0;
      for (size_t J = I; J < Ops.size() && StepStart + Ops[J].DueNs <= Now;
           ++J)
        ++Backlog;
      BacklogMax = std::max(BacklogMax, Backlog);
      Res.Attempted = true;
      const uint64_t Session = Traced ? Log.newSession() : 0;
      if (O.Kind == OpKind::Batch) {
        StreamTenant &T = Tenants[O.Index];
        const BatchSet &BS = Plans[T.Plan].Batches;
        Res.Plan = T.Plan;
        ScopedSpan Root(Log, "batch " + Plans[T.Plan].B->Name, 0, Session,
                        Lane);
        const uint64_t P0 = nowNs();
        std::string PushR;
        {
          ScopedSpan Sp(Log, "push", Root.id(), Session, Lane);
          PushR = C.rpc(pushRequest(T.Instance, BS, T.Next));
        }
        const uint64_t P1 = nowNs();
        std::string PullR;
        {
          ScopedSpan Sp(Log, "pull", Root.id(), Session, Lane);
          PullR = C.rpc(idRequest("pull", "instance", T.Instance));
        }
        const uint64_t P2 = nowNs();
        Res.PushMs = msBetween(P0, P1);
        Res.PullMs = msBetween(P1, P2);
        Res.LatencyMs = msBetween(Due, P2);
        Res.EndNs = P2;
        Res.Ok = PullR == BS.Expected[T.Next];
        Res.OutTokens = BS.OutTokens[T.Next];
        if (!Res.Ok)
          recordFailure("batch " + Plans[T.Plan].B->Name + " #" +
                        std::to_string(T.Next) + ": push " +
                        PushR.substr(0, 120) + " pull " +
                        PullR.substr(0, 120));
        // Instances are recycled every epoch so every expected output
        // comes from one precomputed reference run.
        if (++T.Next == BS.Data.size()) {
          ScopedSpan Sp(Log, "recycle", Root.id(), Session, Lane);
          C.rpc(idRequest("free-instance", "instance", T.Instance));
          ValuePtr Sv = parseOrNull(
              C.rpc(idRequest("spawn", "plan", Plans[T.Plan].PlanId)));
          T.Instance = Sv->get("instance")->asInt(0);
          T.Next = 0;
          if (T.Instance <= 0)
            recordFailure("respawn failed");
        }
      } else {
        const ChurnProgram &CP = Churn[O.Index % Churn.size()];
        ScopedSpan Root(Log, "tenant " + CP.B->Name, 0, Session, Lane);
        const uint64_t C0 = nowNs();
        ValuePtr R;
        {
          ScopedSpan Sp(Log, "compile", Root.id(), Session, Lane);
          R = parseOrNull(C.rpc(KeySource[O.Index]));
        }
        const uint64_t C1 = nowNs();
        Res.CompileMs = msBetween(C0, C1);
        Res.CacheHit = R->get("cache-hit")->asBool(false);
        const int64_t PlanId = R->get("plan")->asInt(0);
        ValuePtr Sv;
        {
          ScopedSpan Sp(Log, "spawn", Root.id(), Session, Lane);
          Sv = parseOrNull(C.rpc(idRequest("spawn", "plan", PlanId)));
        }
        const uint64_t C2 = nowNs();
        Res.SpawnMs = msBetween(C1, C2);
        const int64_t Inst = Sv->get("instance")->asInt(0);
        std::string PullR;
        {
          ScopedSpan Sp(Log, "push", Root.id(), Session, Lane);
          C.rpc(pushRequest(Inst, CP.Batch, 0));
        }
        {
          ScopedSpan Sp(Log, "pull", Root.id(), Session, Lane);
          PullR = C.rpc(idRequest("pull", "instance", Inst));
        }
        const uint64_t C3 = nowNs();
        Res.LatencyMs = msBetween(Due, C3);
        Res.EndNs = C3;
        Res.Ok = PullR == CP.Batch.Expected[0];
        Res.OutTokens = CP.Batch.OutTokens[0];
        if (!Res.Ok)
          recordFailure("churn " + CP.B->Name + ": compile ok=" +
                        std::to_string(R->get("ok")->asBool()) + " pull " +
                        PullR.substr(0, 120));
        {
          ScopedSpan Sp(Log, "free", Root.id(), Session, Lane);
          C.rpc(idRequest("free-instance", "instance", Inst));
          C.rpc(idRequest("release-plan", "plan", PlanId));
        }
      }
      PrevEnd = nowNs();
      Results.push_back(Res);
    }
  };

  // Runs one step on every lane at once.
  auto runStep = [&](const std::string &Label, double Mult, double Seconds,
                     bool Traced) {
    const auto Sched = schedule(Label, Mult, Seconds);
    std::vector<std::vector<OpResult>> Results(Lanes);
    std::vector<size_t> Backlog(Lanes, 0);
    StepRun Run;
    Run.Mult = Mult;
    Run.Seconds = Seconds;
    const double Cpu0 = daemonCpuUs(DaemonPid);
    Run.StartNs = nowNs() + 2'000'000;
    std::vector<std::thread> Threads;
    for (unsigned L = 1; L < Lanes; ++L)
      Threads.emplace_back(runLane, L, std::cref(Sched[L]), Run.StartNs,
                           Seconds, Traced, std::ref(Results[L]),
                           std::ref(Backlog[L]));
    runLane(0, Sched[0], Run.StartNs, Seconds, Traced, Results[0],
            Backlog[0]);
    for (std::thread &T : Threads)
      T.join();
    Run.CpuUs = daemonCpuUs(DaemonPid) - Cpu0;
    for (unsigned L = 0; L < Lanes; ++L) {
      Run.BacklogMax = std::max(Run.BacklogMax, Backlog[L]);
      Run.Ops.insert(Run.Ops.end(), Results[L].begin(), Results[L].end());
    }
    return Run;
  };

  auto latencies = [](const std::vector<const StepRun *> &Runs, OpKind K) {
    std::vector<double> V;
    for (const StepRun *Run : Runs)
      for (const OpResult &R : Run->Ops)
        if (R.Kind == K && R.Attempted)
          // A failed op misses every latency limit.
          V.push_back(R.Ok ? R.LatencyMs : INFINITY);
    return V;
  };

  // One ladder row over one or more runs of the same rate.
  auto summarize = [&](const std::vector<const StepRun *> &Runs) {
    const std::vector<double> Lat = latencies(Runs, OpKind::Batch);
    size_t Shed = 0, StepFailed = 0, Backlog = 0;
    double Tokens = 0, AllTokens = 0, Seconds = 0, CpuUs = 0;
    for (const StepRun *Run : Runs) {
      uint64_t LastEnd = Run->StartNs;
      for (const OpResult &R : Run->Ops) {
        AllTokens += R.Ok ? static_cast<double>(R.OutTokens) : 0;
        if (R.Kind != OpKind::Batch)
          continue;
        Shed += !R.Attempted;
        StepFailed += R.Attempted && !R.Ok;
        if (R.Ok) {
          Tokens += static_cast<double>(R.OutTokens);
          LastEnd = std::max(LastEnd, R.EndNs);
        }
      }
      Seconds += msBetween(Run->StartNs, LastEnd) / 1e3;
      CpuUs += Run->CpuUs;
      Backlog = std::max(Backlog, Run->BacklogMax);
    }
    const double P99 = quantile(Lat, 0.99);
    const double Growth = latencyGrowth(Runs);
    const bool Sustained = Shed == 0 && StepFailed == 0 && !Lat.empty() &&
                           P99 <= LimitMs && Growth <= GrowthLimit;
    ValuePtr Row = Value::object();
    Row->set("mult", num(Runs[0]->Mult));
    Row->set("seconds", num(Runs[0]->Seconds * Runs.size()));
    Row->set("batches", num(static_cast<double>(Lat.size())));
    Row->set("shed", num(static_cast<double>(Shed)));
    Row->set("failed", num(static_cast<double>(StepFailed)));
    Row->set("batch_p50_ms", num(quantile(Lat, 0.5)));
    Row->set("batch_p99_ms", num(P99));
    Row->set("latency_growth", num(Growth));
    Row->set("tokens_per_s", num(Tokens / Seconds));
    Row->set("backlog_max", num(static_cast<double>(Backlog)));
    Row->set("cpu_us_per_token", num(CpuUs / std::max(AllTokens, 1.0)));
    Row->set("sustained", Value::boolean(Sustained));
    ValuePtr PerPlan = Value::object();
    for (size_t P = 0; P < Plans.size(); ++P) {
      std::vector<double> V;
      for (const StepRun *Run : Runs)
        for (const OpResult &R : Run->Ops)
          if (R.Kind == OpKind::Batch && R.Attempted && R.Plan == P)
            V.push_back(R.Ok ? R.LatencyMs : INFINITY);
      PerPlan->set(Plans[P].B->Name,
                   numArray({quantile(V, 0.5), quantile(V, 0.99),
                             static_cast<double>(V.size())}));
    }
    Row->set("batch_ms_by_plan", PerPlan);
    return Row;
  };

  // ---- Timed window, one slice per request (see Gate). "ref" runs a
  // reference-rate sub-step; a traced run alternates untraced and traced
  // sub-steps, so the tracing overhead is measured under the same host
  // conditions. "probe" runs the next probe of the ladder search: a
  // bisection for the highest ladder rate that is sustained, taking the
  // rates below a sustained one as sustained and those above a failed
  // one as failed. A rate that fails is tried once more on fresh
  // arrivals before the search moves below it, so a single stall of the
  // host does not end the search low. The reply to the last probe is
  // "done last". The reference rate is the floor; when it is not
  // sustained there is no sustained rate (-1).
  std::vector<StepRun> Ref, RefTraced, Probes;
  std::vector<ValuePtr> ProbeRows;
  int Lo = -1, Hi = static_cast<int>(Ladder.size()), Try = 0;
  int SustainedProbe = -1;
  Gate G;
  std::string Kind;
  for (unsigned Sub = 0; G.next(Kind);) {
    if (Kind == "ref") {
      const bool Traced = Log.enabled() && Sub % 2 == 1;
      (Traced ? RefTraced : Ref)
          .push_back(runStep("ref." + std::to_string(Sub), 1, StepSeconds,
                             Traced));
      ++Sub;
      G.reply("done");
      continue;
    }
    if (Kind != "probe" || Hi - Lo <= 1) {
      G.reply("failed");
      break;
    }
    const int Mid = (Lo + Hi) / 2;
    Probes.push_back(runStep("ladder." + std::to_string(Mid) + "." +
                                 std::to_string(Try),
                             Ladder[Mid], ProbeSeconds, false));
    ProbeRows.push_back(summarize({&Probes.back()}));
    if (ProbeRows.back()->get("sustained")->asBool()) {
      Lo = Mid;
      SustainedProbe = static_cast<int>(ProbeRows.size()) - 1;
      Try = 0;
    } else if (++Try == 2) {
      Hi = Mid;
      Try = 0;
    }
    G.reply(Hi - Lo <= 1 ? "done last" : "done");
  }
  std::vector<const StepRun *> RefRuns;
  for (const StepRun &Run : Ref)
    RefRuns.push_back(&Run);
  ValuePtr StepRows = Value::array();
  StepRows->push(summarize(RefRuns));
  for (const ValuePtr &Row : ProbeRows)
    StepRows->push(Row);
  const bool RefSustained = StepRows->elements()[0]->get("sustained")->asBool();
  const int SustainedRow =
      !RefSustained ? -1 : SustainedProbe < 0 ? 0 : SustainedProbe + 1;
  ValuePtr Stats1 = parseOrNull(Ctl.rpc("{\"op\":\"stats\"}"));

  // ---- Metrics.
  std::vector<const StepRun *> AllRuns = RefRuns;
  for (const StepRun &Run : RefTraced)
    AllRuns.push_back(&Run);
  for (const StepRun &Run : Probes)
    AllRuns.push_back(&Run);
  uint64_t Attempted = 0, Failed = 0;
  std::vector<double> Push, Pull, Miss, Hit, Spawn, Late;
  for (const StepRun *Run : AllRuns)
    for (const OpResult &R : Run->Ops) {
      if (!R.Attempted)
        continue;
      ++Attempted;
      Failed += !R.Ok;
      if (R.LateMs >= 0)
        Late.push_back(R.LateMs);
      if (R.Kind == OpKind::Churn) {
        (R.CacheHit ? Hit : Miss).push_back(R.CompileMs);
        Spawn.push_back(R.SpawnMs);
      }
    }
  for (const StepRun *Run : RefRuns)
    for (const OpResult &R : Run->Ops)
      if (R.Kind == OpKind::Batch && R.Attempted) {
        Push.push_back(R.PushMs);
        Pull.push_back(R.PullMs);
      }
  const std::vector<double> BatchLat = latencies(RefRuns, OpKind::Batch);
  const std::vector<double> FirstOut = latencies(RefRuns, OpKind::Churn);
  const double Hits = statsCounter(Stats1, "server.cache.hit") -
                      statsCounter(Stats0, "server.cache.hit");
  const double Misses = statsCounter(Stats1, "server.cache.miss") -
                        statsCounter(Stats0, "server.cache.miss");
  const double Evictions = statsCounter(Stats1, "server.cache.evict") -
                           statsCounter(Stats0, "server.cache.evict");

  ValuePtr Layers = Value::object();
  if (Log.enabled()) {
    std::vector<const StepRun *> TracedRuns;
    for (const StepRun &Run : RefTraced)
      TracedRuns.push_back(&Run);
    Layers->set("traced_batch_p50_ms",
                num(quantile(latencies(TracedRuns, OpKind::Batch), 0.5)));

    // The same batches timed in-process: through the engine alone (an
    // in-process StreamServer, no wire) and through the JSON layer alone
    // (parse the push line, render the pull reply).
    server::ServerConfig Cfg;
    Cfg.Workers = 1;
    server::StreamServer Srv(Cfg);
    std::vector<double> ExecByPlan, WireByPlan;
    for (const StreamPlan &P : Plans) {
      server::PlanOptions PO;
      PO.TopName = P.B->Top;
      std::string CErr;
      auto Plan = Srv.compile(P.B->Source, PO, CErr);
      auto Inst = Plan ? Srv.spawn(Plan) : nullptr;
      std::vector<double> Exec, Wire;
      const BatchSet &BS = P.Batches;
      for (size_t K = 0; Inst && K < BS.In.size(); ++K) {
        interp::TokenStream Out;
        const uint64_t E0 = nowNs();
        Srv.pushBatch(*Inst, BS.In[K].view(), BS.Iterations[K]);
        Inst->pullBatch(Out);
        const uint64_t E1 = nowNs();
        if (K > 0)
          Exec.push_back(msBetween(E0, E1));
        const std::string Line = pushRequest(Inst->id(), BS, K);
        const uint64_t W0 = nowNs();
        std::string JErr;
        ValuePtr Req = json::parse(Line, JErr);
        ValuePtr Reply = Value::object();
        ValuePtr Arr = Value::array();
        for (size_t J = 0; J < Out.size(); ++J)
          Arr->push(Value::number(Out.Ty == lir::TypeKind::Int
                                      ? static_cast<double>(Out.I[J])
                                      : Out.F[J]));
        Reply->set("data", Arr);
        Reply->set("ok", Value::boolean(true));
        Reply->set("status", Value::str("ok"));
        const std::string Dumped = Reply->dump();
        const uint64_t W1 = nowNs();
        if (K > 0)
          Wire.push_back(msBetween(W0, W1));
        if (Dumped != BS.Expected[K])
          recordFailure("in-process batch of " + P.B->Name +
                        " differs from the reference");
      }
      ExecByPlan.push_back(median(Exec));
      WireByPlan.push_back(median(Wire));
      if (Inst)
        Srv.freeInstance(Inst->id());
    }
    // Per reference-rate batch: round trip minus the engine and JSON
    // time of its plan is what the daemon spent queueing and on I/O.
    std::vector<double> Exec, Wire, Unattributed;
    for (const StepRun *Run : RefRuns)
      for (const OpResult &R : Run->Ops)
        if (R.Kind == OpKind::Batch && R.Attempted) {
          Exec.push_back(ExecByPlan[R.Plan]);
          Wire.push_back(WireByPlan[R.Plan]);
          Unattributed.push_back(R.PushMs + R.PullMs - ExecByPlan[R.Plan] -
                                 WireByPlan[R.Plan]);
        }
    Layers->set("execute_ms", num(median(Exec)));
    Layers->set("wire_ms", num(median(Wire)));
    Layers->set("unattributed_ms", num(median(Unattributed)));
  }

  const bool AllOk = Failed == 0 && Failures->elements().empty();
  ValuePtr Out = Value::object();
  Out->set("ok", Value::boolean(AllOk));
  Out->set("setup_ms", num(SetupMs));
  Out->set("steps", StepRows);
  Out->set("sustained_step", num(SustainedRow));
  // [p50, p90, p99, samples]
  auto summary = [](const std::vector<double> &V) {
    return numArray({quantile(V, 0.5), quantile(V, 0.9), quantile(V, 0.99),
                     static_cast<double>(V.size())});
  };
  Out->set("batch_latency_ms", summary(BatchLat));
  Out->set("first_output_ms", summary(FirstOut));
  Out->set("compile_miss_ms", num(median(Miss)));
  Out->set("compile_hit_ms", num(median(Hit)));
  Out->set("spawn_ms", num(median(Spawn)));
  Out->set("push_ms", num(median(Push)));
  Out->set("pull_wait_ms", num(median(Pull)));
  Out->set("cache_hit_ratio", num(Hits + Misses > 0 ? Hits / (Hits + Misses)
                                                   : 0));
  Out->set("cache_evictions", num(Evictions));
  Out->set("generator_late_p99_ms", num(quantile(Late, 0.99)));
  Out->set("layers", Layers);
  Out->set("attempted", num(static_cast<double>(Attempted)));
  Out->set("failed", num(static_cast<double>(Failed)));
  Out->set("failures", Failures);
  std::printf("%s\n", Out->dump().c_str());
  return Log.flush() && AllOk ? 0 : 1;
}

} // namespace perfbench
