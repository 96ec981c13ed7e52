/*
 * SIGPROF sampler for scripts/profile.sh, loaded with LD_PRELOAD.
 *
 * When $SIGPROF_OUT is set, it arms ITIMER_PROF to fire every millisecond
 * of the process's CPU time, across all its threads, and records the
 * interrupted program counter. The kernel may fire it less often (every
 * few milliseconds on a coarse tick), so at exit it writes to $SIGPROF_OUT
 * first the process's CPU time, read from CLOCK_PROCESS_CPUTIME_ID, as one
 * line "# cpu_s <seconds>", then one line per sample: the object the
 * counter lies in, the offset into it, and the nearest exported symbol
 * ("-" if none), separated by tabs. Without $SIGPROF_OUT it does nothing.
 *
 *   gcc -O2 -shared -fPIC -o sigprof.so scripts/sigprof.c -ldl
 */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1u << 20)
#define PERIOD_US 1000

static void *samples[MAX_SAMPLES];
static atomic_uint n_samples;

static void on_prof(int sig, siginfo_t *info, void *context) {
    (void)sig;
    (void)info;
    ucontext_t *uc = context;
#if defined(__x86_64__)
    void *pc = (void *)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    void *pc = (void *)uc->uc_mcontext.pc;
#else
#error "sigprof.c reads the program counter on x86_64 and aarch64 only"
#endif
    unsigned i = atomic_fetch_add_explicit(&n_samples, 1, memory_order_relaxed);
    if (i < MAX_SAMPLES)
        samples[i] = pc;
}

static void set_timer(long us) {
    struct itimerval it = {{us / 1000000, us % 1000000}, {us / 1000000, us % 1000000}};
    setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((constructor)) static void start(void) {
    if (!getenv("SIGPROF_OUT"))
        return;
    struct sigaction sa = {0};
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    set_timer(PERIOD_US);
}

__attribute__((destructor)) static void stop(void) {
    const char *path = getenv("SIGPROF_OUT");
    if (!path)
        return;
    set_timer(0);
    struct timespec cpu = {0};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu);
    FILE *out = fopen(path, "w");
    if (!out)
        return;
    fprintf(out, "# cpu_s %.3f\n", cpu.tv_sec + cpu.tv_nsec / 1e9);
    unsigned n = atomic_load(&n_samples);
    if (n > MAX_SAMPLES)
        n = MAX_SAMPLES;
    for (unsigned i = 0; i < n; i++) {
        Dl_info d;
        if (dladdr(samples[i], &d) && d.dli_fname) {
            fprintf(out, "%s\t%lx\t%s\n", d.dli_fname,
                    (unsigned long)((uintptr_t)samples[i] - (uintptr_t)d.dli_fbase),
                    d.dli_sname ? d.dli_sname : "-");
        } else {
            fprintf(out, "?\t%lx\t-\n", (unsigned long)(uintptr_t)samples[i]);
        }
    }
    fclose(out);
}
