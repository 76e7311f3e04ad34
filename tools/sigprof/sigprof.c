/* sigprof — a sampling profiler for hosts that refuse perf_event_open.
 *
 * LD_PRELOAD it into any dynamically linked program: ITIMER_PROF raises
 * SIGPROF every millisecond of CPU time the process burns, the handler
 * records the interrupted instruction pointer, and at exit the samples, the
 * process's memory map, its pid and parent pid and its command line go to
 * ./sigprof.<pid> for symbolize.py. Child processes inherit the preload and
 * write files of their own; symbolize.py tells a parent's file from its
 * children's by the pids. Flat profile only: no stacks, x86_64 Linux only.
 *
 *   cc -O2 -shared -fPIC -o sigprof.so sigprof.c
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1u << 20) /* ~17 min of CPU at 1 kHz */

static unsigned long *samples;
static unsigned long n_samples;

static void on_prof(int sig, siginfo_t *info, void *uc)
{
    (void)sig;
    (void)info;
    unsigned long i = __atomic_fetch_add(&n_samples, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
        samples[i] = ((ucontext_t *)uc)->uc_mcontext.gregs[REG_RIP];
}

static void dump(void)
{
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    char path[64], line[1024];
    snprintf(path, sizeof path, "sigprof.%d", (int)getpid());
    FILE *out = fopen(path, "w");
    if (!out)
        return;
    fprintf(out, "P %d %d\nC ", (int)getpid(), (int)getppid());
    FILE *cmdline = fopen("/proc/self/cmdline", "r");
    for (int c; cmdline && (c = fgetc(cmdline)) != EOF;)
        fputc(c ? c : ' ', out); /* arguments are NUL-terminated */
    if (cmdline)
        fclose(cmdline);
    fputc('\n', out);
    FILE *maps = fopen("/proc/self/maps", "r");
    while (maps && fgets(line, sizeof line, maps))
        fprintf(out, "M %s", line);
    if (maps)
        fclose(maps);
    unsigned long n = n_samples < MAX_SAMPLES ? n_samples : MAX_SAMPLES;
    for (unsigned long i = 0; i < n; i++)
        fprintf(out, "S %lx\n", samples[i]);
    fclose(out);
}

__attribute__((constructor)) static void start(void)
{
    /* mmap, not malloc: the preloaded program may bring its own allocator. */
    samples = mmap(NULL, MAX_SAMPLES * sizeof *samples, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (samples == MAP_FAILED)
        return;
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every_ms, NULL);
    atexit(dump);
}
