/* e2e_launcher — runs the processes e2e_bench measures, one at a time.
 *
 * On Linux a child's ru_maxrss starts from its parent's peak resident
 * size (exec records the old address space's high-water mark), so a
 * child spawned by the large e2e_bench would report at least e2e_bench's
 * size. This launcher is small, in C and without the engine, so the peak
 * RSS it reads with wait4 is the measured program's own down to ~1 MB.
 *
 * Protocol, on stdin/stdout: a request is one line, argv joined by tabs.
 * The reply is one line
 *     <wait status> <maxrss KB> <spawn ns> <end ns> <stdout hex> <stderr hex>
 * with "-" for empty output. Times are CLOCK_MONOTONIC, taken just before
 * posix_spawn and just after wait4. The child's stdin is /dev/null.
 */
#define _GNU_SOURCE
#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

extern char** environ;

enum { kMaxArgs = 64, kMaxLine = 16384 };

struct Buf {
  char* data;
  size_t len, cap;
};

static long long mono_ns(void) {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (long long)ts.tv_sec * 1000000000LL + ts.tv_nsec;
}

static void append(struct Buf* b, const char* p, size_t n) {
  if (b->len + n > b->cap) {
    size_t cap = b->cap ? b->cap : 4096;
    while (cap < b->len + n) cap *= 2;
    b->data = realloc(b->data, cap);
    if (b->data == NULL) abort();
    b->cap = cap;
  }
  memcpy(b->data + b->len, p, n);
  b->len += n;
}

static void put_hex(const struct Buf* b) {
  if (b->len == 0) putchar('-');
  for (size_t i = 0; i < b->len; ++i) printf("%02x", (unsigned char)b->data[i]);
}

static int run(char** argv, struct Buf* out, struct Buf* err) {
  int po[2], pe[2];
  if (pipe2(po, O_CLOEXEC) != 0 || pipe2(pe, O_CLOEXEC) != 0) return -1;
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_adddup2(&fa, po[1], 1);
  posix_spawn_file_actions_adddup2(&fa, pe[1], 2);
  long long t0 = mono_ns();
  pid_t pid;
  int rc = posix_spawn(&pid, argv[0], &fa, NULL, argv, environ);
  posix_spawn_file_actions_destroy(&fa);
  close(po[1]);
  close(pe[1]);
  if (rc != 0) {
    close(po[0]);
    close(pe[0]);
    fprintf(stderr, "e2e_launcher: cannot spawn %s: %s\n", argv[0],
            strerror(rc));
    return -1;
  }
  struct pollfd fds[2] = {{po[0], POLLIN, 0}, {pe[0], POLLIN, 0}};
  struct Buf* sinks[2] = {out, err};
  int open_fds = 2;
  char chunk[65536];
  while (open_fds > 0) {
    if (poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      abort();
    }
    for (int i = 0; i < 2; ++i) {
      if (fds[i].fd < 0 || fds[i].revents == 0) continue;
      ssize_t n = read(fds[i].fd, chunk, sizeof chunk);
      if (n > 0) {
        append(sinks[i], chunk, (size_t)n);
      } else if (n == 0 || errno != EINTR) {
        close(fds[i].fd);
        fds[i].fd = -1;
        --open_fds;
      }
    }
  }
  int status = 0;
  struct rusage ru;
  memset(&ru, 0, sizeof ru);
  while (wait4(pid, &status, 0, &ru) < 0) {
    if (errno != EINTR) abort();
  }
  long long t1 = mono_ns();
  printf("%d %ld %lld %lld ", status, ru.ru_maxrss, t0, t1);
  put_hex(out);
  putchar(' ');
  put_hex(err);
  putchar('\n');
  fflush(stdout);
  return 0;
}

int main(void) {
  /* Ends with its parent, which may be killed mid-run. */
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (getppid() == 1) return 1;
  static char line[kMaxLine];
  struct Buf out = {0}, err = {0};
  int rc = 0;
  while (fgets(line, sizeof line, stdin) != NULL) {
    line[strcspn(line, "\n")] = '\0';
    char* argv[kMaxArgs + 1];
    int argc = 0;
    for (char* tok = strtok(line, "\t"); tok != NULL && argc < kMaxArgs;
         tok = strtok(NULL, "\t")) {
      argv[argc++] = tok;
    }
    argv[argc] = NULL;
    out.len = err.len = 0;
    if (argc == 0 || run(argv, &out, &err) != 0) {
      rc = 1;
      break;
    }
  }
  free(out.data);
  free(err.data);
  return rc;
}
