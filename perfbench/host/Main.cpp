//===--- Main.cpp - perfbench_host subcommand dispatch --------------------===//
//
//   perfbench_host reference      --programs A,B --seed S --iters K --dir D
//   perfbench_host native-compile --programs A,B --seed S --dir D
//                                 [--trace-spans F]
//   perfbench_host interp         --programs A,B --seed S --parallel N
//                                 --ref-iters K --target-ms M
//                                 [--trace-spans F]
//   perfbench_host serve          --socket P --daemon-pid N --seed S ...
//
// Every value except --trace-spans is required (run.py passes each one,
// most from perfbench/metrics.json); a missing one exits with status 2.
// native-compile, interp and serve run their timed windows slice by
// slice as run.py asks over stdin (see Gate in Host.h). Every
// subcommand prints one JSON document as the last line of stdout and
// exits 0 when every output it checked matched its reference, 1
// otherwise.
//
//===----------------------------------------------------------------------===//

#include "Host.h"
#include <cstdio>
#include <cstring>

int main(int Argc, char **Argv) {
  if (Argc < 2) {
    std::fprintf(stderr, "usage: perfbench_host "
                         "reference|native-compile|interp|serve --key value "
                         "...\n");
    return 2;
  }
  const perfbench::Args A(Argc, Argv, 2);
  const char *Cmd = Argv[1];
  if (!std::strcmp(Cmd, "reference"))
    return perfbench::runReference(A);
  if (!std::strcmp(Cmd, "native-compile"))
    return perfbench::runNativeCompile(A);
  if (!std::strcmp(Cmd, "interp"))
    return perfbench::runInterp(A);
  if (!std::strcmp(Cmd, "serve"))
    return perfbench::runServe(A);
  std::fprintf(stderr, "perfbench_host: unknown subcommand %s\n", Cmd);
  return 2;
}
