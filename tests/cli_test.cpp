// End-to-end tests for the lolrun CLI (the in-process `coprsh -np N`
// analogue): flag handling, backend/machine selection, AST/bytecode
// dumps, and failure exit codes.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "codegen/jit_backend.hpp"
#include "driver/cli.hpp"

#ifndef LOLRUN_BIN
#define LOLRUN_BIN "lolrun"
#endif

namespace {

struct CmdResult {
  int status = -1;
  std::string output;  // stdout + stderr
};

CmdResult run_cmd(const std::string& cmd) {
  CmdResult r;
  FILE* pipe = popen((cmd + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return r;
  std::array<char, 4096> buf;
  std::size_t n;
  while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    r.output.append(buf.data(), n);
  }
  r.status = pclose(pipe);
  return r;
}

std::string write_program(const char* name, const std::string& src) {
  std::string path = std::string("/tmp/parallol_cli_") + name + ".lol";
  EXPECT_TRUE(lol::driver::write_file(path, src));
  return path;
}

TEST(LolrunCli, RunsHelloOnNPes) {
  std::string path = write_program(
      "hello", "HAI 1.2\nVISIBLE \"PE \" ME \"/\" MAH FRENZ\nKTHXBYE\n");
  auto r = run_cmd(std::string(LOLRUN_BIN) + " -np 3 " + path);
  EXPECT_EQ(r.status, 0);
  int lines = 0;
  for (char c : r.output) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 3);
  EXPECT_NE(r.output.find("/3"), std::string::npos);
}

TEST(LolrunCli, BackendSelection) {
  std::string path =
      write_program("backend", "HAI 1.2\nVISIBLE SUM OF 1 AN 2\nKTHXBYE\n");
  auto vm = run_cmd(std::string(LOLRUN_BIN) + " --backend vm " + path);
  auto in = run_cmd(std::string(LOLRUN_BIN) + " --backend interp " + path);
  EXPECT_EQ(vm.status, 0);
  EXPECT_EQ(in.status, 0);
  EXPECT_EQ(vm.output, in.output);
  auto bad = run_cmd(std::string(LOLRUN_BIN) + " --backend turbo " + path);
  EXPECT_NE(bad.status, 0);
}

TEST(LolrunCli, MachineSimReportsModeledTime) {
  std::string path = write_program(
      "sim",
      "HAI 1.2\nWE HAS A x ITZ SRSLY A NUMBR\n"
      "TXT MAH BFF MOD OF SUM OF ME AN 1 AN MAH FRENZ, UR x R ME\n"
      "HUGZ\nKTHXBYE\n");
  auto r = run_cmd(std::string(LOLRUN_BIN) +
                   " -np 4 --machine epiphany3 --sim " + path);
  EXPECT_EQ(r.status, 0);
  EXPECT_NE(r.output.find("[sim] machine=mesh4x4"), std::string::npos);
  auto bad =
      run_cmd(std::string(LOLRUN_BIN) + " --machine cray-2 " + path);
  EXPECT_NE(bad.status, 0);
}

TEST(LolrunCli, DumpAstPrintsStructure) {
  std::string path =
      write_program("ast", "HAI 1.2\nVISIBLE SUM OF 1 AN 2\nKTHXBYE\n");
  auto r =
      run_cmd(std::string(LOLRUN_BIN) + " --dump-ast --opt-level 0 " + path);
  EXPECT_EQ(r.status, 0);
  EXPECT_NE(r.output.find("(program"), std::string::npos);
  EXPECT_NE(r.output.find("(sum (numbr 1) (numbr 2))"), std::string::npos);
}

TEST(LolrunCli, DumpAstShowsOptimizedTreeByDefault) {
  std::string path =
      write_program("ast_opt", "HAI 1.2\nVISIBLE SUM OF 1 AN 2\nKTHXBYE\n");
  auto r = run_cmd(std::string(LOLRUN_BIN) + " --dump-ast " + path);
  EXPECT_EQ(r.status, 0);
  // The default -O2 pipeline folds the constant expression.
  EXPECT_NE(r.output.find("(numbr 3)"), std::string::npos);
  EXPECT_EQ(r.output.find("(sum"), std::string::npos);
}

TEST(LolrunCli, BadOptLevelIsRejected) {
  std::string path =
      write_program("ast_bad", "HAI 1.2\nVISIBLE 1\nKTHXBYE\n");
  auto r = run_cmd(std::string(LOLRUN_BIN) + " --opt-level 3 " + path);
  EXPECT_NE(r.status, 0);
  EXPECT_NE(r.output.find("opt-level"), std::string::npos);
}

TEST(LolrunCli, DumpBytecodePrintsDisassembly) {
  std::string path =
      write_program("bc", "HAI 1.2\nI HAS A x ITZ 5\nVISIBLE x\nKTHXBYE\n");
  auto r = run_cmd(std::string(LOLRUN_BIN) +
                   " --dump-bytecode --opt-level 0 " + path);
  EXPECT_EQ(r.status, 0);
  EXPECT_NE(r.output.find("DECLARE x"), std::string::npos);
  EXPECT_NE(r.output.find("HALT"), std::string::npos);
}

TEST(LolrunCli, TagPrefixesPeIds) {
  std::string path =
      write_program("tag", "HAI 1.2\nVISIBLE \"yo\"\nKTHXBYE\n");
  auto r = run_cmd(std::string(LOLRUN_BIN) + " -np 2 --tag " + path);
  EXPECT_EQ(r.status, 0);
  EXPECT_NE(r.output.find("[pe0] yo"), std::string::npos);
  EXPECT_NE(r.output.find("[pe1] yo"), std::string::npos);
}

TEST(LolrunCli, CompileErrorsExitNonZeroWithLocation) {
  std::string path = write_program("bad", "HAI 1.2\nx R\nKTHXBYE\n");
  auto r = run_cmd(std::string(LOLRUN_BIN) + " " + path);
  EXPECT_NE(r.status, 0);
  EXPECT_NE(r.output.find("2:"), std::string::npos);  // line number
}

TEST(LolrunCli, RuntimeErrorsExitNonZero) {
  std::string path = write_program(
      "rt", "HAI 1.2\nVISIBLE QUOSHUNT OF 1 AN 0\nKTHXBYE\n");
  auto r = run_cmd(std::string(LOLRUN_BIN) + " " + path);
  EXPECT_NE(r.status, 0);
  EXPECT_NE(r.output.find("division by zero"), std::string::npos);
}

TEST(LolrunCli, MissingFileIsReported) {
  auto r = run_cmd(std::string(LOLRUN_BIN) + " /tmp/does_not_exist.lol");
  EXPECT_NE(r.status, 0);
  EXPECT_NE(r.output.find("cannot read"), std::string::npos);
}

TEST(LolrunCli, UsageOnBadArgs) {
  auto r = run_cmd(std::string(LOLRUN_BIN));
  EXPECT_NE(r.status, 0);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(LolrunCli, SeedFlagControlsWhatevr) {
  std::string path =
      write_program("seed", "HAI 1.2\nVISIBLE WHATEVR\nKTHXBYE\n");
  auto a1 = run_cmd(std::string(LOLRUN_BIN) + " --seed 7 " + path);
  auto a2 = run_cmd(std::string(LOLRUN_BIN) + " --seed 7 " + path);
  auto b = run_cmd(std::string(LOLRUN_BIN) + " --seed 8 " + path);
  EXPECT_EQ(a1.output, a2.output);
  EXPECT_NE(a1.output, b.output);
}

TEST(LolrunCli, PipedStdinFeedsGimmeh) {
  // Regression: lolrun used to drop piped input (GIMMEH read the empty
  // stdin_lines vector) while lcc-compiled binaries read real stdin.
  std::string path = write_program(
      "gimmeh", "HAI 1.2\nI HAS A x\nGIMMEH x\nVISIBLE \"GOT \" x\nKTHXBYE\n");
  auto r = run_cmd("printf 'cheezburger\\n' | " + std::string(LOLRUN_BIN) +
                   " " + path);
  EXPECT_EQ(r.status, 0);
  EXPECT_NE(r.output.find("GOT cheezburger"), std::string::npos) << r.output;
}

TEST(LolrunCli, NoStdinFlagDropsPipedInput) {
  std::string path = write_program(
      "nostdin", "HAI 1.2\nI HAS A x\nGIMMEH x\nVISIBLE \"[\" x \"]\"\nKTHXBYE\n");
  auto r = run_cmd("printf 'ignored\\n' | " + std::string(LOLRUN_BIN) +
                   " --no-stdin " + path);
  EXPECT_EQ(r.status, 0);
  EXPECT_NE(r.output.find("[]"), std::string::npos) << r.output;
}

TEST(LolrunCli, ProfileFlagPrintsPerPeTable) {
  std::string path = write_program(
      "prof", "HAI 1.2\nVISIBLE ME\nHUGZ\nKTHXBYE\n");
  auto r = run_cmd(std::string(LOLRUN_BIN) + " -np 2 --profile " + path);
  EXPECT_EQ(r.status, 0) << r.output;
  EXPECT_NE(r.output.find("[profile]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("steps"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("[profile] setup="), std::string::npos) << r.output;
  // One table row per PE.
  int rows = 0;
  std::istringstream lines(r.output);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("[profile]", 0) == 0 &&
        line.find("steps") == std::string::npos &&
        line.find("claim") == std::string::npos) {
      ++rows;
    }
  }
  EXPECT_EQ(rows, 2) << r.output;
}

/// The numeric cells of the one-PE profile row: steps, barriers,
/// barrier_ms, locks, lock_ms, gimmeh, jit_steps, region_entries.
std::vector<double> profile_row(const std::string& output) {
  std::vector<double> cells;
  std::istringstream lines(output);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("[profile]", 0) != 0 ||
        line.find("steps") != std::string::npos ||
        line.find("claim") != std::string::npos) {
      continue;
    }
    std::istringstream row(line.substr(std::strlen("[profile]")));
    double pe = 0;
    row >> pe;
    for (double v; row >> v;) cells.push_back(v);
    break;
  }
  return cells;
}

TEST(LolrunCli, ProfileReportsJitCoverage) {
  // jit_steps counts the steps retired inside specialized regions (a
  // share of `steps`), region_entries how often the VM entered one. A
  // plain VM run reports zero for both.
  std::string path = write_program(
      "profjit",
      "HAI 1.2\n"
      "I HAS A acc ITZ SRSLY A NUMBAR AN ITZ 0.0\n"
      "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 500\n"
      "  acc R SUM OF acc AN UNSQUAR OF i\n"
      "IM OUTTA YR l\n"
      "VISIBLE acc\n"
      "KTHXBYE\n");
  auto vm = run_cmd(std::string(LOLRUN_BIN) + " --profile " + path);
  ASSERT_EQ(vm.status, 0) << vm.output;
  EXPECT_NE(vm.output.find("jit_steps"), std::string::npos) << vm.output;
  EXPECT_NE(vm.output.find("region_entries"), std::string::npos)
      << vm.output;
  std::vector<double> v = profile_row(vm.output);
  ASSERT_EQ(v.size(), 8u) << vm.output;
  EXPECT_EQ(v[6], 0.0) << vm.output;
  EXPECT_EQ(v[7], 0.0) << vm.output;

  if (!lol::codegen::jit_available()) GTEST_SKIP() << "jit unavailable";
  auto jit = run_cmd(std::string(LOLRUN_BIN) + " --backend jit --profile " +
                     path);
  ASSERT_EQ(jit.status, 0) << jit.output;
  std::vector<double> j = profile_row(jit.output);
  ASSERT_EQ(j.size(), 8u) << jit.output;
  EXPECT_EQ(j[0], v[0]) << "steps differ from the VM's\n" << jit.output;
  EXPECT_GT(j[6], 0.9 * j[0]) << "the loop did not run in a region\n"
                              << jit.output;
  EXPECT_LE(j[6], j[0]) << jit.output;
  EXPECT_GE(j[7], 1.0) << jit.output;
  EXPECT_LE(j[7], 3.0) << "the loop re-entered its region per iteration\n"
                       << jit.output;
}

TEST(LolrunCli, ProfiledStepsAgreeWithTheStepBudget) {
  // The per-PE steps column is denominated in budget units: running
  // again with --max-steps set to exactly that count succeeds, one
  // less dies with the step-limit exit status (3).
  std::string path = write_program(
      "profsteps", "HAI 1.2\nVISIBLE ME\nVISIBLE MAH FRENZ\nKTHXBYE\n");
  auto prof = run_cmd(std::string(LOLRUN_BIN) + " --profile " + path);
  ASSERT_EQ(prof.status, 0) << prof.output;
  // Parse the steps column of the single PE row:
  //   [profile]      0        <steps> ...
  std::uint64_t steps = 0;
  std::istringstream lines(prof.output);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("[profile]", 0) != 0 ||
        line.find("steps") != std::string::npos ||
        line.find("claim") != std::string::npos) {
      continue;
    }
    std::istringstream row(line.substr(std::strlen("[profile]")));
    std::uint64_t pe = 0;
    row >> pe >> steps;
    break;
  }
  ASSERT_GT(steps, 1u) << prof.output;

  auto exact = run_cmd(std::string(LOLRUN_BIN) + " --max-steps " +
                       std::to_string(steps) + " " + path);
  EXPECT_EQ(exact.status, 0) << exact.output;
  auto tight = run_cmd(std::string(LOLRUN_BIN) + " --max-steps " +
                       std::to_string(steps - 1) + " " + path);
  ASSERT_TRUE(WIFEXITED(tight.status));
  EXPECT_EQ(WEXITSTATUS(tight.status), 3) << tight.output;
}

TEST(LolrunCli, StepLimitUsesDistinctExitStatus) {
  // Exit-status parity with lcc binaries: 3 = step-limited, 1 = error.
  std::string path = write_program(
      "spincli", "HAI 1.2\nIM IN YR l\nIM OUTTA YR l\nKTHXBYE\n");
  auto r = run_cmd(std::string(LOLRUN_BIN) + " --max-steps 10000 " + path);
  ASSERT_TRUE(WIFEXITED(r.status));
  EXPECT_EQ(WEXITSTATUS(r.status), 3) << r.output;
}

// Heap sizes that overflow the layout or cannot be mapped are ordinary
// runtime failures (exit 1 with a diagnostic naming the size), never a
// wrapped-around heap or an uncaught allocator exception (exit 134).
TEST(LolrunCli, HostileHeapSizesExitWithADiagnostic) {
  std::string path = write_program(
      "heapsize",
      "HAI 1.2\nWE HAS A x ITZ SRSLY A NUMBR\nVISIBLE ME\nKTHXBYE\n");
  std::string overcommit;
  if (auto mode = lol::driver::read_file("/proc/sys/vm/overcommit_memory")) {
    overcommit = *mode;
  }
  for (const std::string bytes :
       {"18446744073709551615", "18446744073709551600", "1099511627776"}) {
    if (bytes == "1099511627776" && overcommit.rfind('1', 0) == 0) {
      continue;  // this kernel maps 2 TiB of untouched memory on request
    }
    auto r = run_cmd(std::string(LOLRUN_BIN) + " -np 2 --heap-bytes " + bytes +
                     " " + path);
    ASSERT_TRUE(WIFEXITED(r.status)) << bytes << ": " << r.output;
    EXPECT_EQ(WEXITSTATUS(r.status), 1) << bytes << ": " << r.output;
    EXPECT_NE(r.output.find("symmetric heap of " + bytes +
                            " bytes per PE x 2 PEs"),
              std::string::npos)
        << bytes << ": " << r.output;
  }
}

#ifdef LOLSERVE_BIN

/// Runs lolserve over `n` one-line jobs with the given extra flags and
/// returns the job names in completion order (one worker => completion
/// order is submission order).
std::vector<std::string> lolserve_order(int n, const std::string& flags) {
  std::string files;
  for (int i = 0; i < n; ++i) {
    std::string path = write_program(("shuf" + std::to_string(i)).c_str(),
                                     "HAI 1.2\nVISIBLE " + std::to_string(i) +
                                         "\nKTHXBYE\n");
    files += " " + path;
  }
  auto r = run_cmd(std::string(LOLSERVE_BIN) + " --workers 1 " + flags +
                   files);
  EXPECT_EQ(r.status, 0) << r.output;
  std::vector<std::string> order;
  std::istringstream in(r.output);
  std::string line;
  while (std::getline(in, line)) {
    auto pos = line.find("/tmp/parallol_cli_shuf");
    if (line.rfind("[ok]", 0) != 0 || pos == std::string::npos) continue;
    order.push_back(line.substr(pos, line.find(".lol", pos) + 4 - pos));
  }
  EXPECT_EQ(order.size(), static_cast<std::size_t>(n));
  return order;
}

TEST(LolrunCli, FiberExecutorRunsManyMorePesThanCores) {
  std::string path = write_program(
      "fiber", "HAI 1.2\nVISIBLE \"PE \" ME \" OF \" MAH FRENZ\nKTHXBYE\n");
  auto r = run_cmd(std::string(LOLRUN_BIN) +
                   " --executor fiber --pes-per-thread 64 -np 256"
                   " --heap-bytes 65536 " +
                   path);
  EXPECT_EQ(r.status, 0) << r.output;
  EXPECT_NE(r.output.find("PE 0 OF 256"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("PE 255 OF 256"), std::string::npos) << r.output;
  // Exactly one line per virtual PE (count only program output —
  // sanitizer builds interleave their own stderr banners).
  int pe_lines = 0;
  std::istringstream lines(r.output);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("PE ", 0) == 0) ++pe_lines;
  }
  EXPECT_EQ(pe_lines, 256);
}

TEST(LolrunCli, UnknownExecutorIsRejected) {
  std::string path = write_program("badexec", "HAI 1.2\nKTHXBYE\n");
  auto r = run_cmd(std::string(LOLRUN_BIN) + " --executor warp " + path);
  EXPECT_NE(r.status, 0);
  EXPECT_NE(r.output.find("unknown executor"), std::string::npos) << r.output;
}

// Every numeric flag parses strictly: trailing junk, signs on unsigned
// values and out-of-range values are usage errors (exit 2) instead of
// silently running with whatever prefix atoi/strtoull made of them.
TEST(LolrunCli, MalformedNumericFlagsAreUsageErrors) {
  std::string path =
      write_program("strict_flags", "HAI 1.2\nVISIBLE ME\nKTHXBYE\n");
  for (const char* flags :
       {"--barrier-radix abc", "--max-steps 12abc", "-np 0", "-np 5000",
        "-np 2x", "--seed -1", "--seed 99999999999999999999",
        "--heap-bytes 1e6", "--pes-per-thread ' 4'", "--shake +3",
        "--perturb-seed x", "--opt-level 1.0"}) {
    auto r = run_cmd(std::string(LOLRUN_BIN) + " " + flags + " " + path);
    EXPECT_EQ(WEXITSTATUS(r.status), 2) << flags << ": " << r.output;
    EXPECT_NE(r.output.find("bad "), std::string::npos)
        << flags << ": " << r.output;
  }
  auto ok = run_cmd(std::string(LOLRUN_BIN) +
                    " -np 2 --barrier-radix 4 --max-steps 100000 "
                    "--seed 18446744073709551615 " + path);
  EXPECT_EQ(ok.status, 0) << ok.output;
}

TEST(LolserveCli, ClientSpeaksTheWireProtocolToADaemon) {
  // Spawn a daemon on a unix socket, drive it entirely through
  // `lolserve --client` (ping, submit incl. a fiber job, bogus cancel,
  // shutdown), and let the shell reap the daemon so nothing leaks.
  std::string job = write_program(
      "client", "HAI 1.2\nVISIBLE \"HAI FRUM \" ME\nKTHXBYE\n");
  std::string sock = "/tmp/parallol_cli_client.sock";
  std::string bin = LOLSERVE_BIN;
  std::string client = bin + " --client --connect unix:" + sock;
  // popen runs the whole thing under sh -c; group it so run_cmd's
  // appended 2>&1 covers every command.
  std::string script =
      "{ rm -f " + sock + "; " + bin + " --daemon --listen unix:" + sock +
      " --workers 2 >/dev/null 2>&1 & pid=$!; "
      "i=0; while [ $i -lt 50 ] && [ ! -S " + sock + " ]; do "
      "sleep 0.1; i=$((i+1)); done; " +
      client + " --ping; " +
      client + " -np 4 --executor fiber " + job + "; echo submit_rc=$?; " +
      client + " --metrics; echo metrics_rc=$?; " +
      client + " --cancel 424242; " +
      client + " --shutdown; "
      "wait $pid; }";
  auto r = run_cmd(script);
  EXPECT_EQ(r.status, 0) << r.output;
  EXPECT_NE(r.output.find("\"event\":\"pong\""), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"event\":\"accepted\""), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"status\":\"ok\""), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("HAI FRUM 3"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("submit_rc=0"), std::string::npos) << r.output;
  // --metrics prints the decoded Prometheus exposition, scraper-ready.
  EXPECT_NE(r.output.find("metrics_rc=0"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("# TYPE lol_jobs_submitted_total counter"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("lol_jobs_done_total{status=\"ok\"}"),
            std::string::npos)
      << r.output;
  // Cancel of an unknown id is answered (ok:false), not dropped.
  EXPECT_NE(r.output.find("\"event\":\"cancel\",\"id\":424242,\"ok\":false"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"event\":\"bye\""), std::string::npos)
      << r.output;
}

TEST(LolserveCli, ClientCancelAfterMsKillsItsOwnSpinningJob) {
  // The daemon only honors cancels from the submitting connection, so
  // the useful client form is --cancel-after-ms: submit, then cancel
  // whatever is still running on the same connection. A spinning job
  // with no step budget must come back "cancelled" and the client must
  // treat that as the expected outcome (exit 0).
  std::string job = write_program(
      "cancelme", "HAI 1.2\nIM IN YR l\nIM OUTTA YR l\nKTHXBYE\n");
  std::string sock = "/tmp/parallol_cli_cancel.sock";
  std::string bin = LOLSERVE_BIN;
  std::string client = bin + " --client --connect unix:" + sock;
  std::string script =
      "{ rm -f " + sock + "; " + bin + " --daemon --listen unix:" + sock +
      " --workers 1 --max-steps 0 >/dev/null 2>&1 & pid=$!; "
      "i=0; while [ $i -lt 50 ] && [ ! -S " + sock + " ]; do "
      "sleep 0.1; i=$((i+1)); done; " +
      client + " --cancel-after-ms 200 " + job + "; echo cancel_rc=$?; " +
      client + " --shutdown >/dev/null; "
      "wait $pid; }";
  auto r = run_cmd(script);
  EXPECT_EQ(r.status, 0) << r.output;
  EXPECT_NE(r.output.find("\"ok\":true"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("\"status\":\"cancelled\""), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("cancel_rc=0"), std::string::npos) << r.output;
}

TEST(LolserveCli, ClientFailsCleanlyWithNoDaemon) {
  auto r = run_cmd(std::string(LOLSERVE_BIN) +
                   " --client --connect unix:/tmp/parallol_no_such.sock "
                   "--ping");
  EXPECT_NE(r.status, 0);
  EXPECT_NE(r.output.find("cannot connect"), std::string::npos) << r.output;
}

TEST(LolserveCli, ShuffleIsSeededAndDeterministic) {
  // --shuffle randomizes the submission order for scheduling-fairness
  // experiments; the same seed must reproduce the same permutation.
  auto plain = lolserve_order(10, "");
  auto s7a = lolserve_order(10, "--shuffle --shuffle-seed 7");
  auto s7b = lolserve_order(10, "--shuffle --shuffle-seed 7");
  EXPECT_EQ(s7a, s7b) << "same seed must give the same order";
  EXPECT_NE(s7a, plain) << "a 10-element shuffle landing on the identity "
                           "permutation means the seed is being ignored";
  // All jobs ran exactly once, whatever the order.
  auto sorted_plain = plain;
  auto sorted_shuf = s7a;
  std::sort(sorted_plain.begin(), sorted_plain.end());
  std::sort(sorted_shuf.begin(), sorted_shuf.end());
  EXPECT_EQ(sorted_shuf, sorted_plain);
}

// The removed in-process C backend's name is a usage error.
TEST(LolserveCli, NativeBackendIsUnknownToBothTools) {
  std::string path = write_program("native", "HAI 1.2\nKTHXBYE\n");
  for (const char* bin : {LOLRUN_BIN, LOLSERVE_BIN}) {
    auto r = run_cmd(std::string(bin) + " --backend native " + path);
    ASSERT_TRUE(WIFEXITED(r.status)) << bin << ": " << r.output;
    EXPECT_EQ(WEXITSTATUS(r.status), 2) << bin << ": " << r.output;
    EXPECT_NE(r.output.find("unknown backend 'native'"), std::string::npos)
        << bin << ": " << r.output;
  }
}

TEST(LolserveCli, MalformedNumericFlagsAreUsageErrors) {
  std::string path =
      write_program("serve_strict", "HAI 1.2\nVISIBLE ME\nKTHXBYE\n");
  for (const char* flags :
       {"--workers 2x", "--workers 0", "--max-steps 12abc",
        "--barrier-radix abc", "--queue -1", "--deadline-ms 1.5",
        "--max-pes 0", "--repeat 3z", "-np 99999", "--shuffle-seed q",
        "--opt-level 7", "--tenant-weights a=2x",
        "--daemon --listen tcp:99999"}) {
    auto r = run_cmd(std::string(LOLSERVE_BIN) + " --quiet " + flags + " " +
                     path);
    EXPECT_EQ(WEXITSTATUS(r.status), 2) << flags << ": " << r.output;
  }
  auto ok = run_cmd(std::string(LOLSERVE_BIN) +
                    " --quiet --workers 1 --repeat 2 -np 2 --max-steps 1000 " +
                    path);
  EXPECT_EQ(ok.status, 0) << ok.output;
}

// --replay follows lolrun's rules: it excludes --record/--perturb-seed,
// and an unreadable or malformed trace is a usage error reported once,
// before any job runs.
TEST(LolserveCli, ReplayFlagsMatchLolrun) {
  std::string path =
      write_program("serve_replay", "HAI 1.2\nVISIBLE ME\nKTHXBYE\n");
  std::string bad_trace = "/tmp/parallol_cli_bad.trace";
  ASSERT_TRUE(lol::driver::write_file(bad_trace, "definitely not a trace"));
  std::string bin = std::string(LOLSERVE_BIN) + " --quiet ";
  for (const std::string& flags :
       {"--perturb-seed 3 --replay " + bad_trace,
        "--record /tmp/parallol_cli_rec.trace --replay " + bad_trace}) {
    auto r = run_cmd(bin + flags + " " + path);
    EXPECT_EQ(WEXITSTATUS(r.status), 2) << flags << ": " << r.output;
    EXPECT_NE(r.output.find("--replay excludes"), std::string::npos)
        << flags << ": " << r.output;
  }
  auto missing = run_cmd(bin + "--replay /tmp/parallol_no_such.trace " + path);
  EXPECT_EQ(WEXITSTATUS(missing.status), 2) << missing.output;
  EXPECT_NE(missing.output.find("cannot read trace"), std::string::npos)
      << missing.output;
  auto bad = run_cmd(bin + "--repeat 3 --replay " + bad_trace + " " + path);
  EXPECT_EQ(WEXITSTATUS(bad.status), 2) << bad.output;
  std::size_t at = bad.output.find("bad trace");
  ASSERT_NE(at, std::string::npos) << bad.output;
  EXPECT_EQ(bad.output.find("bad trace", at + 1), std::string::npos)
      << "reported more than once: " << bad.output;
  EXPECT_EQ(bad.output.find("jobs ("), std::string::npos) << bad.output;
}

TEST(LolserveCli, ManifestFieldsAreStrict) {
  std::string path =
      write_program("serve_manifest", "HAI 1.2\nVISIBLE ME\nKTHXBYE\n");
  std::string manifest = "/tmp/parallol_cli_manifest.txt";
  for (const std::string& fields :
       {"4x 12abc", "-3", "0", "99999", "2 12abc", "2 100 - 1.5",
        "2 100 t 50 extra"}) {
    ASSERT_TRUE(lol::driver::write_file(
        manifest, "# jobs\n" + path + " " + fields + "\n"));
    auto r = run_cmd(std::string(LOLSERVE_BIN) + " --quiet --manifest " +
                     manifest);
    EXPECT_EQ(WEXITSTATUS(r.status), 2) << fields << ": " << r.output;
    EXPECT_NE(r.output.find(manifest + ":2: bad "), std::string::npos)
        << fields << ": " << r.output;
  }
  ASSERT_TRUE(lol::driver::write_file(
      manifest, path + " 3 100000 - 5000  # tenant skipped\n"));
  auto ok = run_cmd(std::string(LOLSERVE_BIN) + " --manifest " + manifest);
  EXPECT_EQ(ok.status, 0) << ok.output;
  EXPECT_NE(ok.output.find("1 jobs (1 ok"), std::string::npos) << ok.output;
}

#endif  // LOLSERVE_BIN

}  // namespace
