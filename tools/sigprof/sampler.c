/* SIGPROF sampler, loaded with LD_PRELOAD into any Linux x86-64 or
 * AArch64 process. Every millisecond of CPU time it records the
 * interrupted PC and a backtrace(); at exit it writes them, the number of
 * samples taken and /proc/self/maps to <SIGPROF_OUT>.<pid> (SIGPROF_OUT
 * defaults to sigprof.out) for symbolize.py. Each process that loads the
 * library, e.g. cargo and the program it runs, writes its own file.
 * Build: gcc -O2 -shared -fPIC -o libsigprof.so sampler.c */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define PERIOD_US 1000
#define MAX_SAMPLES 100000
#define DEPTH 32

static void *frames[MAX_SAMPLES][DEPTH + 1]; /* [0] = interrupted PC */
static int depth[MAX_SAMPLES];
static unsigned long taken;

static void on_prof(int sig, siginfo_t *info, void *uc_) {
    (void)sig, (void)info;
    unsigned long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i >= MAX_SAMPLES) return;
    ucontext_t *uc = uc_;
#if defined(__x86_64__)
    frames[i][0] = (void *)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    frames[i][0] = (void *)uc->uc_mcontext.pc;
#endif
    depth[i] = backtrace(&frames[i][1], DEPTH);
}

__attribute__((constructor)) static void start(void) {
    void *warm[4];
    backtrace(warm, 4); /* load the unwinder now, not inside the handler */
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval t = {{0, PERIOD_US}, {0, PERIOD_US}};
    setitimer(ITIMER_PROF, &t, NULL);
}

__attribute__((destructor)) static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *out = getenv("SIGPROF_OUT");
    char path[4096];
    snprintf(path, sizeof path, "%s.%d", out ? out : "sigprof.out", (int)getpid());
    FILE *f = fopen(path, "w");
    if (!f) return;
    unsigned long n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    fprintf(f, "T %lu\n", taken); /* > n when the buffer filled */
    for (unsigned long i = 0; i < n; i++) {
        fprintf(f, "S %p", frames[i][0]);
        for (int d = 0; d < depth[i]; d++) fprintf(f, " %p", frames[i][d + 1]);
        fputc('\n', f);
    }
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[4096];
    while (maps && fgets(line, sizeof line, maps)) fprintf(f, "M %s", line);
    if (maps) fclose(maps);
    fclose(f);
}
