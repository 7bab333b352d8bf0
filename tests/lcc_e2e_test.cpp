// End-to-end tests of the paper's toolchain (§VI.E): lcc translates
// LOLCODE to C, the host C compiler builds it against the lolrt runtime,
// and the executable runs SPMD with -np N — exactly the
// `lcc code.lol -o executable.x && coprsh -np 16 ./executable.x` flow.
// The lcc column of lol_diff_test also compares the whole differential
// corpus against the in-process backends, per PE and with --tag; these
// tests run the executables the way students do, untagged.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/paper_programs.hpp"
#include "driver/cli.hpp"
#include "shmem/runtime.hpp"

#ifndef LCC_BIN
#define LCC_BIN "lcc"
#endif

namespace {

struct CmdResult {
  int status = -1;
  std::string output;  // stdout only
};

CmdResult run_cmd(const std::string& cmd) {
  CmdResult r;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  std::array<char, 4096> buf;
  std::size_t n;
  while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    r.output.append(buf.data(), n);
  }
  r.status = pclose(pipe);
  return r;
}

/// This process's scratch directory, removed at exit.
std::string temp_dir() {
  static const struct Dir {
    std::string path =
        (std::filesystem::temp_directory_path() / "parallol_e2e_XXXXXX")
            .string();
    Dir() {
      if (mkdtemp(path.data()) == nullptr) {
        throw std::runtime_error("cannot create " + path);
      }
    }
    ~Dir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  } dir;
  return dir.path;
}

/// Compiles `src` with lcc into `<name>.x`; returns its quoted path, or
/// an empty string after recording a failure.
std::string build_exe(const std::string& name, const std::string& src) {
  std::string lol_path = temp_dir() + "/" + name + ".lol";
  std::string exe_path = temp_dir() + "/" + name + ".x";
  EXPECT_TRUE(lol::driver::write_file(lol_path, src));
  CmdResult build = run_cmd(std::string(LCC_BIN) + " '" + lol_path +
                            "' -o '" + exe_path + "' 2>&1");
  EXPECT_EQ(build.status, 0) << "lcc failed:\n" << build.output;
  return build.status == 0 ? "'" + exe_path + "'" : "";
}

/// Compiles `src` with lcc and runs the result with `-np n_pes`.
CmdResult compile_and_run(const std::string& name, const std::string& src,
                          int n_pes, const std::string& extra_args = "") {
  std::string exe = build_exe(name, src);
  if (exe.empty()) return {};
  return run_cmd(exe + " -np " + std::to_string(n_pes) + " " + extra_args +
                 " 2>/dev/null");
}

TEST(LccE2E, HelloWorld) {
  auto r = compile_and_run("hello",
                           "HAI 1.2\nVISIBLE \"HAI WORLD!\"\nKTHXBYE\n", 1);
  EXPECT_EQ(r.status, 0);
  EXPECT_EQ(r.output, "HAI WORLD!\n");
}

TEST(LccE2E, EmitCProducesCompilableSource) {
  std::string dir = temp_dir();
  std::string lol_path = dir + "/emit.lol";
  std::string c_path = dir + "/emit.c";
  ASSERT_TRUE(lol::driver::write_file(
      lol_path, "HAI 1.2\nVISIBLE SUM OF 1 AN 2\nKTHXBYE\n"));
  auto r = run_cmd(std::string(LCC_BIN) + " '" + lol_path + "' --emit-c -o '" +
                   c_path + "' 2>&1");
  ASSERT_EQ(r.status, 0) << r.output;
  auto c = lol::driver::read_file(c_path);
  ASSERT_TRUE(c.has_value());
  EXPECT_NE(c->find("lol_user_main"), std::string::npos);
}

TEST(LccE2E, SpmdVisibleRunsOnEveryPe) {
  auto r = compile_and_run(
      "spmd", "HAI 1.2\nVISIBLE \"PE \" ME \" OF \" MAH FRENZ\nKTHXBYE\n", 4);
  EXPECT_EQ(r.status, 0);
  // Output interleaving across PEs is unspecified; count the lines.
  int lines = 0;
  for (char ch : r.output) {
    if (ch == '\n') ++lines;
  }
  EXPECT_EQ(lines, 4);
  EXPECT_NE(r.output.find("OF 4"), std::string::npos);
}

TEST(LccE2E, PaperRingListing) {
  auto r = compile_and_run("ring", lol::paper::ring_listing(), 4);
  EXPECT_EQ(r.status, 0);
  // All four per-PE lines must appear with the rotated contents.
  for (int pe = 0; pe < 4; ++pe) {
    int next = (pe + 1) % 4;
    std::string expect = "PE " + std::to_string(pe) + " HAZ " +
                         std::to_string(next * 1000) + " THRU " +
                         std::to_string(next * 1000 + 31);
    EXPECT_NE(r.output.find(expect), std::string::npos) << r.output;
  }
}

TEST(LccE2E, PaperLockCounterListing) {
  auto r = compile_and_run("locks", lol::paper::lock_counter_listing(25), 4);
  EXPECT_EQ(r.status, 0);
  EXPECT_NE(r.output.find("KOUNTER IZ 100"), std::string::npos) << r.output;
}

TEST(LccE2E, PaperBarrierSumListing) {
  auto r = compile_and_run("bsum", lol::paper::barrier_sum_listing(), 4);
  EXPECT_EQ(r.status, 0);
  for (int pe = 0; pe < 4; ++pe) {
    int prev = (pe + 3) % 4;
    int c = (10 * pe + 1) + (10 * prev + 1);
    EXPECT_NE(r.output.find("PE " + std::to_string(pe) + " C IZ " +
                            std::to_string(c)),
              std::string::npos)
        << r.output;
  }
}

TEST(LccE2E, PaperNBodyListingMatchesInProcessBackends) {
  // The generated-C backend must produce the same trajectories as the VM
  // (same substrate, same RNG). One PE keeps stdout ordering exact.
  auto r = compile_and_run("nbody", lol::paper::nbody_program(8, 3, true), 1,
                           "--seed 20170529");
  ASSERT_EQ(r.status, 0);

  lol::RunConfig cfg;
  cfg.n_pes = 1;
  cfg.backend = lol::Backend::kVm;
  cfg.seed = 20170529;
  auto vm = lol::run_source(lol::paper::nbody_program(8, 3, true), cfg);
  ASSERT_TRUE(vm.ok) << vm.first_error();
  EXPECT_EQ(r.output, vm.pe_output[0]);
}

TEST(LccE2E, RuntimeErrorsExitNonZero) {
  std::string exe =
      build_exe("bad", "HAI 1.2\nVISIBLE QUOSHUNT OF 1 AN 0\nKTHXBYE\n");
  ASSERT_FALSE(exe.empty());
  auto run = run_cmd(exe + " 2>&1");
  EXPECT_NE(run.status, 0);
  EXPECT_NE(run.output.find("division by zero"), std::string::npos);
}

TEST(LccE2E, StepLimitExitsWithDistinctStatus) {
  // ROADMAP parity item: lcc-generated binaries honor the step budget
  // with an exit status (3) callers can tell apart from runtime errors.
  std::string spin =
      build_exe("spin", "HAI 1.2\nIM IN YR l\nIM OUTTA YR l\nKTHXBYE\n");
  ASSERT_FALSE(spin.empty());
  auto run = run_cmd(spin + " -np 2 --max-steps 10000 2>&1");
  ASSERT_TRUE(WIFEXITED(run.status));
  EXPECT_EQ(WEXITSTATUS(run.status), 3) << run.output;
  EXPECT_NE(run.output.find("step budget"), std::string::npos) << run.output;

  // A generous budget on a terminating program exits 0.
  std::string ok_exe =
      build_exe("okstep", "HAI 1.2\nVISIBLE \"DUN\"\nKTHXBYE\n");
  ASSERT_FALSE(ok_exe.empty());
  auto ok = run_cmd(ok_exe + " --max-steps 100000 2>&1");
  EXPECT_EQ(ok.status, 0) << ok.output;
}

TEST(LccE2E, PipedStdinFeedsGimmeh) {
  std::string exe = build_exe(
      "gimmeh_pipe",
      "HAI 1.2\nI HAS A x\nGIMMEH x\nVISIBLE \"GOT \" x\nKTHXBYE\n");
  ASSERT_FALSE(exe.empty());
  auto piped = run_cmd("printf 'cheezburger\\n' | " + exe);
  EXPECT_EQ(piped.status, 0);
  EXPECT_NE(piped.output.find("GOT cheezburger"), std::string::npos)
      << piped.output;
}

// Executable flags parse strictly, with lolrun's ranges: trailing junk,
// signs on unsigned values and out-of-range PE counts are usage errors
// (exit 2) before any PE starts. A heap the runtime cannot map is a
// runtime error with a diagnostic (exit 1), not an uncaught exception
// (exit 134).
TEST(LccE2E, FlagsParseStrictly) {
  std::string exe = build_exe(
      "flags", "HAI 1.2\nWE HAS A x ITZ SRSLY A NUMBR\nVISIBLE ME\nKTHXBYE\n");
  ASSERT_FALSE(exe.empty());

  // Out-of-range PE counts only at values rejected before launch.
  const std::string too_many = std::to_string(lol::shmem::kMaxPes + 1);
  for (const std::string& flags : std::vector<std::string>{
           "-np 2x", "-np 0", "-np " + too_many, "--seed 12abc",
           "--max-steps -1", "--heap-bytes 1e6"}) {
    auto r = run_cmd(exe + " " + flags + " 2>&1");
    ASSERT_TRUE(WIFEXITED(r.status)) << flags << ": " << r.output;
    EXPECT_EQ(WEXITSTATUS(r.status), 2) << flags << ": " << r.output;
    EXPECT_NE(r.output.find("bad "), std::string::npos)
        << flags << ": " << r.output;
  }
  // `--heap` was the executables' own spelling; lolrun's --heap-bytes
  // replaced it, with no alias.
  for (const char* flags : {"--bogus", "--seed", "--heap 65536"}) {
    auto r = run_cmd(exe + " " + flags + " 2>&1");
    EXPECT_EQ(WEXITSTATUS(r.status), 2) << flags << ": " << r.output;
    EXPECT_NE(r.output.find("usage:"), std::string::npos)
        << flags << ": " << r.output;
  }

  auto ok = run_cmd(exe +
                    " -np 2 --seed 18446744073709551615 --max-steps 100000 "
                    "--heap-bytes 65536 2>&1");
  EXPECT_EQ(ok.status, 0) << ok.output;

  auto heap = run_cmd(exe + " -np 2 --heap-bytes 18446744073709551615 2>&1");
  ASSERT_TRUE(WIFEXITED(heap.status)) << heap.output;
  EXPECT_EQ(WEXITSTATUS(heap.status), 1) << heap.output;
  EXPECT_NE(heap.output.find("error: symmetric heap of 18446744073709551615 "
                             "bytes per PE x 2 PEs"),
            std::string::npos)
      << heap.output;
}

TEST(LccE2E, BadOptLevelIsAUsageError) {
  std::string dir = temp_dir();
  std::string lol_path = dir + "/optlevel.lol";
  ASSERT_TRUE(lol::driver::write_file(lol_path, "HAI 1.2\nKTHXBYE\n"));
  for (const char* level : {"3", "1.0", "-1", "x"}) {
    auto r = run_cmd(std::string(LCC_BIN) + " --opt-level " + level + " '" +
                     lol_path + "' -o '" + dir + "/optlevel.x' 2>&1");
    ASSERT_TRUE(WIFEXITED(r.status)) << level << ": " << r.output;
    EXPECT_EQ(WEXITSTATUS(r.status), 2) << level << ": " << r.output;
    EXPECT_NE(r.output.find("bad --opt-level"), std::string::npos)
        << level << ": " << r.output;
  }
}

TEST(LccE2E, CompileErrorsAreReported) {
  std::string dir = temp_dir();
  std::string lol_path = dir + "/syntax.lol";
  ASSERT_TRUE(lol::driver::write_file(lol_path, "HAI 1.2\nx R\nKTHXBYE\n"));
  auto r = run_cmd(std::string(LCC_BIN) + " '" + lol_path + "' -o /tmp/x 2>&1");
  EXPECT_NE(r.status, 0);
  EXPECT_NE(r.output.find("expected"), std::string::npos);
}

}  // namespace
