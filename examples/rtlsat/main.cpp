// rtlsat — the command-line driver: `rtlsat <subcommand> [args...]`.
//
//   rtlsat solve data/b04.rtl 1 4 sp      # BMC on a model file
//   rtlsat bmc b13 5 20 sp                # BMC on an ITC'99 model
//   rtlsat table1 --smoke --json t1.json  # paper Table 1
//
// A bad argument prints "error: ..." and the subcommand's usage, exit 2.
#include <cstdio>
#include <cstring>
#include <exception>

#include "cli.h"

using namespace rtlsat::cli;

namespace {

struct Command {
  const char* name;
  int (*run)(Args&);
  const char* usage;
};

const Command kCommands[] = {
    {"solve", cmd_solve,
     "<model> <property> <bound> [base|s|sp] [timeout_s] [--trace <base>] "
     "[--progress]"},
    {"bmc", cmd_bmc, "[model] [property] [bound] [base|s|sp]"},
    {"race", cmd_race,
     "[model] [property] [bound] [--jobs N] [--no-share] [--deterministic] "
     "[--sequential] [--budget S] [--json P] [--metrics P] [--sample-ms N]"},
    {"analyze", cmd_analyze, "[--json] [--facts] <target>..."},
    {"lint", cmd_lint, "[--json] [--errors-only] <target>... | --list-rules"},
    {"fuzz", cmd_fuzz,
     "[--seconds S | --iters N] [--seed K] [--mode M] [--out DIR] "
     "[--max-width W] [--timeout T] [--seq-percent P] [--wide-percent P] "
     "[--no-portfolio] [--quiet] [--replay FILE]"},
    {"serve", cmd_serve,
     "[--host H] [--port P] [--port-file F] [--workers N] [--jobs N] "
     "[--queue-cap N] [--cache-cap N] [--bank-cap N] [--budget S] "
     "[--max-budget S] [--metrics BASE] [--sample-ms MS] [--no-verify-hits]"},
    {"client", cmd_client,
     "[--host H] --port P solve|bmc|cancel|stats|ping|shutdown ..."},
    {"table1", cmd_table1,
     "[--full|--smoke] [--json P] [--metrics P] [--sample-ms N] "
     "[--presolve]"},
    {"table2", cmd_table2,
     "[--full|--smoke] [--json P] [--jobs N] [--no-share] [--metrics P] "
     "[--sample-ms N] [--presolve]"},
    {"figures", cmd_figures, ""},
    {"ablations", cmd_ablations,
     "[--full|--smoke] [--json P] [--metrics P] [--sample-ms N]"},
};

int usage() {
  std::fprintf(stderr, "usage: rtlsat <subcommand> [args...]\n");
  for (const Command& c : kCommands)
    std::fprintf(stderr, "  %-9s %s\n", c.name, c.usage);
  std::fprintf(stderr,
               "a model is an ITC'99 name (b01..b13), a .rtl or a .v file\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  for (const Command& c : kCommands) {
    if (std::strcmp(argv[1], c.name) != 0) continue;
    // Line-buffered, so rows show up as they finish even through a pipe.
    std::setvbuf(stdout, nullptr, _IOLBF, 0);
    try {
      Args args(argc - 2, argv + 2);
      return c.run(args);
    } catch (const UsageError& e) {
      std::fprintf(stderr, "error: %s\nusage: rtlsat %s %s\n", e.what(),
                   c.name, c.usage);
      return 2;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }
  std::fprintf(stderr, "error: unknown subcommand '%s'\n", argv[1]);
  return usage();
}
