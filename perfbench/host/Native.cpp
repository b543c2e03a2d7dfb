//===--- Native.cpp - Reference runs and source -> C compile passes -------===//
//
// `reference` is the oracle every workload checks against: the FIFO,
// unoptimized interpreter run (the configuration testing::Differ uses
// as its reference) over the same seeded input, rendered exactly as an
// emitted C program prints its output.
//
// `native-compile` times driver::compile + codegen::emitC over the
// program list in both lowering modes (one "pass"), writes the C files
// of the first pass, and runs one pass per slice run.py asks for
// (see Gate) so the pass time is a median. Pass times are the
// compiling thread's CPU time (wall times are reported beside them).
// run.py then builds the C files with the system cc and times the
// binaries.
//
//===----------------------------------------------------------------------===//

#include "Host.h"
#include "codegen/CEmitter.h"
#include <cstdio>
#include <fstream>

using namespace laminar;

namespace perfbench {

int runReference(const Args &A) {
  const auto Programs = programList(A.str("programs"));
  const uint64_t Seed = static_cast<uint64_t>(A.num("seed"));
  const int64_t Iters = A.num("iters");
  const std::string Dir = A.str("dir");
  bool AllOk = true;
  ValuePtr Rows = Value::array();
  const uint64_t T0 = nowNs();
  for (const suite::Benchmark *B : Programs) {
    ValuePtr Row = Value::object();
    Row->set("name", Value::str(B->Name));
    driver::Compilation C =
        compileProgram(*B, driver::LoweringMode::Fifo, /*Opt=*/0);
    interp::RunResult R;
    if (C.Ok)
      R = driver::runWithRandomInput(C, Iters, programSeed(Seed, B->Name));
    if (!C.Ok || !R.Ok) {
      AllOk = false;
      Row->set("error", Value::str(C.Ok ? R.Error : C.ErrorLog));
    } else {
      std::ofstream(Dir + "/" + B->Name + ".ref")
          << renderLines(R.Outputs, 0, R.Outputs.size());
      Row->set("tokens", num(static_cast<double>(R.Outputs.size())));
    }
    Rows->push(Row);
  }
  ValuePtr Out = Value::object();
  Out->set("ok", Value::boolean(AllOk));
  Out->set("ms", num(msBetween(T0, nowNs())));
  Out->set("programs", Rows);
  std::printf("%s\n", Out->dump().c_str());
  return AllOk ? 0 : 1;
}

int runNativeCompile(const Args &A) {
  const auto Programs = programList(A.str("programs"));
  const uint64_t Seed = static_cast<uint64_t>(A.num("seed"));
  const std::string Dir = A.str("dir");
  SpanLog Log;
  if (A.has("trace-spans"))
    Log.enable(A.str("trace-spans"));

  bool AllOk = true;
  ValuePtr Failures = Value::array();
  ValuePtr Rows = Value::array();
  // Traced runs alternate traced and untraced passes, so the tracing
  // overhead is measured within one process on the same inputs.
  std::vector<double> PassMs, TracedPassMs, CodegenMs, WallPassMs;
  std::map<std::string, std::vector<double>> PhaseMs;
  std::map<std::string, std::vector<double>> ProgramMs; // untraced
  Gate G;
  std::string Kind;
  for (unsigned Pass = 0; G.next(Kind); ++Pass) {
    const bool Traced = Log.enabled() && Pass % 2 == 0;
    uint64_t PassNs = 0, CodegenNs = 0;
    const uint64_t PassWall0 = nowNs();
    std::map<std::string, double> Phases;
    for (const suite::Benchmark *B : Programs) {
      for (driver::LoweringMode Mode :
           {driver::LoweringMode::Fifo, driver::LoweringMode::Laminar}) {
        const char *ModeName =
            Mode == driver::LoweringMode::Fifo ? "fifo" : "laminar";
        const uint64_t Session = Traced ? Log.newSession() : 0;
        const uint64_t BuildSpan =
            Traced ? Log.begin(std::string("build ") + B->Name + "." +
                                   ModeName,
                               0, Session)
                   : 0;
        TraceContext T;
        T.setEnabled(Traced);
        const uint64_t C0 = threadCpuNs();
        uint64_t CompileSpan = Traced ? Log.begin("compile", BuildSpan,
                                                  Session)
                                      : 0;
        driver::Compilation C =
            compileProgram(*B, Mode, /*Opt=*/2, 0, Traced ? &T : nullptr);
        if (CompileSpan)
          Log.end(CompileSpan);
        const uint64_t C1 = threadCpuNs();
        std::string Text;
        if (C.Ok) {
          ScopedSpan S(Log, "codegen", BuildSpan, Session);
          codegen::CEmitOptions EO;
          EO.InputSeed = programSeed(Seed, B->Name);
          Text = codegen::emitC(*C.Module, EO);
        }
        const uint64_t C2 = threadCpuNs();
        if (BuildSpan)
          Log.end(BuildSpan);
        PassNs += C2 - C0;
        CodegenNs += C2 - C1;
        if (Traced) {
          Log.addCompilerTrace(T, CompileSpan, Session);
          addPhaseTimes(T, Phases);
        } else {
          ProgramMs[B->Name + "." + ModeName].push_back((C2 - C0) / 1e6);
        }
        if (Pass > 0)
          continue;
        if (!C.Ok) {
          AllOk = false;
          Failures->push(Value::str(B->Name + "." + ModeName + ": " +
                                    C.ErrorLog));
          continue;
        }
        std::ofstream(Dir + "/" + B->Name + "." + ModeName + ".c") << Text;
        ValuePtr Row = Value::object();
        Row->set("name", Value::str(B->Name));
        Row->set("mode", Value::str(ModeName));
        Row->set("c_bytes", num(static_cast<double>(Text.size())));
        Row->set("lower_insts",
                 num(static_cast<double>(
                     C.Stats.get("lower.fifo.insts") +
                     C.Stats.get("lower.laminar.insts") +
                     C.Stats.get("lower.parallel.insts"))));
        Row->set("opt_insts",
                 num(static_cast<double>(moduleInsts(*C.Module))));
        Rows->push(Row);
      }
    }
    (Traced ? TracedPassMs : PassMs).push_back(PassNs / 1e6);
    if (!Traced) {
      CodegenMs.push_back(CodegenNs / 1e6);
      WallPassMs.push_back(msBetween(PassWall0, nowNs()));
    }
    for (const auto &KV : Phases)
      PhaseMs[KV.first].push_back(KV.second);
    G.reply(AllOk ? "done" : "failed");
    if (!AllOk)
      break;
  }

  // Each program's median source -> C time: the compile half of its
  // build.
  for (const ValuePtr &Row : Rows->elements())
    Row->set("compile_ms",
             num(median(ProgramMs[Row->get("name")->asString() + "." +
                                  Row->get("mode")->asString()])));
  ValuePtr Phases = Value::object();
  for (const auto &KV : PhaseMs)
    Phases->set(KV.first, num(median(KV.second)));
  ValuePtr Out = Value::object();
  Out->set("ok", Value::boolean(AllOk));
  Out->set("pass_ms", numArray(PassMs));
  Out->set("pass_ms_traced", numArray(TracedPassMs));
  Out->set("codegen_ms", numArray(CodegenMs));
  Out->set("wall_pass_ms", numArray(WallPassMs));
  Out->set("phases_ms", Phases);
  Out->set("programs", Rows);
  Out->set("failures", Failures);
  Out->set("peak_rss_mb", num(peakRssMb()));
  std::printf("%s\n", Out->dump().c_str());
  return Log.flush() && AllOk ? 0 : 1;
}

} // namespace perfbench
