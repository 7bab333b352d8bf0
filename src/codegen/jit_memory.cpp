#include "codegen/jit_memory.hpp"

#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#include <unistd.h>
#define LOL_JIT_HAVE_MMAP 1
#else
#define LOL_JIT_HAVE_MMAP 0
#endif

namespace lol::codegen {

ExecMem::~ExecMem() { release(); }

ExecMem::ExecMem(ExecMem&& other) noexcept
    : base_(other.base_), size_(other.size_) {
  other.base_ = nullptr;
  other.size_ = 0;
}

ExecMem& ExecMem::operator=(ExecMem&& other) noexcept {
  if (this != &other) {
    release();
    base_ = other.base_;
    size_ = other.size_;
    other.base_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

void ExecMem::release() {
#if LOL_JIT_HAVE_MMAP
  if (base_ != nullptr) munmap(base_, size_);
#endif
  base_ = nullptr;
  size_ = 0;
}

bool ExecMem::supported() {
#if LOL_JIT_HAVE_MMAP
  // Probe once: some hardened kernels (PaX MPROTECT, SELinux deny_execmem)
  // refuse the RW -> RX flip, in which case --backend jit silently runs
  // the plain VM.
  static const bool ok = [] {
    long page = sysconf(_SC_PAGESIZE);
    if (page <= 0) return false;
    void* p = mmap(nullptr, static_cast<std::size_t>(page),
                   PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) return false;
    static_cast<std::uint8_t*>(p)[0] = 0xC3;  // ret
    bool sealed = mprotect(p, static_cast<std::size_t>(page),
                           PROT_READ | PROT_EXEC) == 0;
    munmap(p, static_cast<std::size_t>(page));
    return sealed;
  }();
  return ok;
#else
  return false;
#endif
}

bool ExecMem::map_and_seal(const std::uint8_t* code, std::size_t n,
                           std::string* error) {
#if LOL_JIT_HAVE_MMAP
  release();
  if (n == 0) {
    if (error != nullptr) *error = "JIT: empty code buffer";
    return false;
  }
  long page = sysconf(_SC_PAGESIZE);
  if (page <= 0) page = 4096;
  std::size_t sz =
      (n + static_cast<std::size_t>(page) - 1) &
      ~(static_cast<std::size_t>(page) - 1);
  void* p = mmap(nullptr, sz, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) {
    if (error != nullptr) *error = "JIT: mmap failed";
    return false;
  }
  std::memcpy(p, code, n);
  if (mprotect(p, sz, PROT_READ | PROT_EXEC) != 0) {
    munmap(p, sz);
    if (error != nullptr) {
      *error = "JIT: mprotect(PROT_EXEC) refused (W^X policy?)";
    }
    return false;
  }
  base_ = p;
  size_ = sz;
  return true;
#else
  (void)code;
  (void)n;
  if (error != nullptr) *error = "JIT: no mmap on this platform";
  return false;
#endif
}

}  // namespace lol::codegen
