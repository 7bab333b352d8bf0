// lcc — the LOLCODE compiler (paper §VI.E):
//
//   lcc code.lol -o executable.x
//   ./executable.x -np 16
//
// Translates parallel LOLCODE to C and invokes the host C compiler,
// linking the lolrt runtime (the paper's OpenSHMEM-analog). With
// --emit-c the generated C is written instead of an executable.
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "codegen/c_emitter.hpp"
#include "core/engine.hpp"
#include "driver/cli.hpp"
#include "support/error.hpp"

#ifndef LCC_INCLUDE_DIR
#define LCC_INCLUDE_DIR ""
#endif
#ifndef LCC_RT_LIBS
#define LCC_RT_LIBS ""
#endif
// Extra flags the runtime archive was built with and the generated code
// must match (e.g. -fsanitize=thread under LOL_SANITIZE builds).
#ifndef LCC_EXTRA_CFLAGS
#define LCC_EXTRA_CFLAGS ""
#endif

namespace {

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s <input.lol> [-o output] [--emit-c] [--cc compiler]\n"
               "  -o <file>    output executable (default: a.out) or C file "
               "with --emit-c\n"
               "  --emit-c     write the generated C instead of compiling\n"
               "  --cc <cc>    host C compiler (default: $CC or cc)\n"
               "  --opt-level <L>  middle-end optimization level 0..2\n"
               "               (default 2; runs before C emission, so the\n"
               "               host cc compiles the folded/unrolled tree)\n",
               prog);
  return 2;
}

std::string shell_quote(const std::string& s) {
  std::string out = "'";
  for (char c : s) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out += c;
    }
  }
  out += "'";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  lol::driver::Cli cli(argc, argv);
  bool emit_c_only = cli.has_flag("--emit-c");
  std::string output = cli.option("-o", "--output")
                           .value_or(emit_c_only ? "out.c" : "a.out");
  std::string cc = cli.option("--cc").value_or(
      std::getenv("CC") != nullptr ? std::getenv("CC") : "cc");
  lol::CompileOptions copts;
  copts.opt_level = static_cast<int>(
      cli.int_option("--opt-level", 0, 2).value_or(copts.opt_level));
  const auto& pos = cli.positional();
  if (pos.size() != 1) return usage(argv[0]);
  const std::string& input = pos[0];

  auto source = lol::driver::read_file(input);
  if (!source) {
    std::fprintf(stderr, "lcc: cannot read '%s'\n", input.c_str());
    return 1;
  }

  std::string c_code;
  try {
    lol::CompiledProgram prog = lol::compile(*source, copts);
    lol::codegen::EmitOptions opts;
    opts.source_name = input;
    c_code = lol::codegen::emit_c(prog.program, prog.analysis, opts);
  } catch (const lol::support::LolError& e) {
    std::fprintf(stderr, "lcc: %s: %s\n", input.c_str(), e.what());
    return 1;
  }

  if (emit_c_only) {
    if (!lol::driver::write_file(output, c_code)) {
      std::fprintf(stderr, "lcc: cannot write '%s'\n", output.c_str());
      return 1;
    }
    return 0;
  }

  std::string c_path = output + ".lcc.c";
  if (!lol::driver::write_file(c_path, c_code)) {
    std::fprintf(stderr, "lcc: cannot write '%s'\n", c_path.c_str());
    return 1;
  }

  // Include/library locations are baked in at build time and may be
  // overridden with LOLRT_INC / LOLRT_LIBS for installed toolchains.
  std::string inc = std::getenv("LOLRT_INC") != nullptr
                        ? std::getenv("LOLRT_INC")
                        : LCC_INCLUDE_DIR;
  std::string libs = std::getenv("LOLRT_LIBS") != nullptr
                         ? std::getenv("LOLRT_LIBS")
                         : LCC_RT_LIBS;

  std::string extra = std::getenv("LOLRT_CFLAGS") != nullptr
                          ? std::getenv("LOLRT_CFLAGS")
                          : LCC_EXTRA_CFLAGS;
  std::string cmd = cc + " -O2 -std=c99 " +
                    (extra.empty() ? "" : extra + " ") +
                    shell_quote(c_path) + " -I" + shell_quote(inc) + " " +
                    libs + " -lstdc++ -lm -lpthread -o " +
                    shell_quote(output);
  int rc = std::system(cmd.c_str());
  std::remove(c_path.c_str());
  if (rc != 0) {
    std::fprintf(stderr, "lcc: host C compiler failed (%s)\n", cc.c_str());
    return 1;
  }
  return 0;
}
