/* Flat program-counter sampler for ci/profile.sh.

     sampler OUT INTERVAL_US PROG [ARG...]

   Forks, has the child call PTRACE_TRACEME and exec PROG, then every
   INTERVAL_US microseconds stops the child with SIGSTOP, reads its
   instruction pointer with PTRACE_GETREGS and lets it go on.  It traces
   only its own child (the main thread) and changes no system setting.
   OUT gets the load base of PROG's first mapping (from /proc/PID/maps)
   on the first line, then one sampled instruction pointer per line, all
   in hex; OUT.maps gets the child's /proc/PID/maps as it stood when the
   child began to exit, so samples in shared libraries can be named.
   Exits with the child's status. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/ptrace.h>
#include <sys/user.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

static unsigned long load_base(pid_t pid, const char *exe) {
  char path[64], line[4096], real[4096];
  unsigned long lo = 0;
  if (!realpath(exe, real)) return 0;
  snprintf(path, sizeof path, "/proc/%d/maps", (int)pid);
  FILE *f = fopen(path, "r");
  if (!f) return 0;
  while (fgets(line, sizeof line, f)) {
    char *name = strchr(line, '/');
    if (name) name[strcspn(name, "\n")] = '\0';
    if (name && strcmp(name, real) == 0) {
      sscanf(line, "%lx-", &lo);
      break;
    }
  }
  fclose(f);
  return lo;
}

static void copy_maps(pid_t pid, const char *out) {
  char path[64], dst[4096], buf[4096];
  size_t n;
  snprintf(path, sizeof path, "/proc/%d/maps", (int)pid);
  snprintf(dst, sizeof dst, "%s.maps", out);
  FILE *f = fopen(path, "r"), *g = fopen(dst, "w");
  if (f && g)
    while ((n = fread(buf, 1, sizeof buf, f)) > 0) fwrite(buf, 1, n, g);
  if (f) fclose(f);
  if (g) fclose(g);
}

int main(int argc, char **argv) {
  if (argc < 4) {
    fprintf(stderr, "usage: sampler OUT INTERVAL_US PROG [ARG...]\n");
    return 2;
  }
  FILE *out = fopen(argv[1], "w");
  if (!out) { perror(argv[1]); return 2; }
  long us = atol(argv[2]);
  pid_t pid = fork();
  if (pid < 0) { perror("fork"); return 2; }
  if (pid == 0) {
    ptrace(PTRACE_TRACEME, 0, NULL, NULL);
    execvp(argv[3], argv + 3);
    perror(argv[3]);
    _exit(127);
  }
  int status;
  /* The exec stop: the image is mapped, so its base can be read. */
  if (waitpid(pid, &status, 0) < 0 || !WIFSTOPPED(status)) return 2;
  fprintf(out, "%lx\n", load_base(pid, argv[3]));
  ptrace(PTRACE_SETOPTIONS, pid, NULL, (void *)PTRACE_O_TRACEEXIT);
  struct timespec gap = { us / 1000000, (us % 1000000) * 1000 };
  int sig = 0;
  for (;;) {
    ptrace(PTRACE_CONT, pid, NULL, (void *)(long)sig);
    nanosleep(&gap, NULL);
    kill(pid, SIGSTOP);
  again:
    if (waitpid(pid, &status, 0) < 0) return 2;
    if (WIFEXITED(status)) return WEXITSTATUS(status);
    if (WIFSTOPPED(status) && status >> 8 == (SIGTRAP | PTRACE_EVENT_EXIT << 8)) {
      copy_maps(pid, argv[1]);
      ptrace(PTRACE_CONT, pid, NULL, NULL);
      goto again;
    }
    if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
    sig = WSTOPSIG(status);
    if (sig == SIGSTOP) {
      struct user_regs_struct regs;
      if (ptrace(PTRACE_GETREGS, pid, NULL, &regs) == 0)
        fprintf(out, "%llx\n", regs.rip);
      sig = 0;
    }
    /* Any other signal is passed on; our SIGSTOP is then still pending
       and surfaces as the next stop. */
  }
}
